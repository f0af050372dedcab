"""Span tracing of borrowoc's layers, installed from outside the package.

Every cross-module call is made through a module attribute (``cli`` calls
``run_algorithm2`` by looking up ``borrowoc.cli.run_algorithm2``, and so
on).  :class:`Tracer` replaces those attributes with wrappers that record a
span per call -- name, start, end, parent -- plus a few work counts taken
from argument sizes, return values and the callables handed to the numeric
kernels.  Spans stay in memory; :meth:`Tracer.restore` puts every original
back.  A layer's self time is its spans' durations minus their child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "runner", "oc_onearm", "oc_twoarm", "region", "borrow",
          "statmath")
SUBCOMMANDS = ("one-arm-fixed", "one-arm-grid", "one-arm-random",
               "two-arm-profile", "two-arm-random", "algorithm1",
               "algorithm2", "region")

# (module the caller lives in, attribute it looks up, span name)
PATCHES = (
    ("cli", "run_algorithm1", "runner.run_algorithm1"),
    ("cli", "run_algorithm2", "runner.run_algorithm2"),
    ("cli", "run_grid", "runner.run_grid"),
    ("cli", "power_profile", "oc_twoarm.power_profile"),
    ("cli", "oc_random_external_two_arm", "oc_twoarm.oc_random_external_two_arm"),
    ("cli", "oc_random_external_two_arm_mc",
     "oc_twoarm.oc_random_external_two_arm_mc"),
    ("cli", "rejection_region", "region.rejection_region"),
    ("runner", "summarize", "runner.summarize"),
    ("runner", "oc_fixed_external", "oc_onearm.oc_fixed_external"),
    ("runner", "_random_external_arrays", "oc_onearm.random_external_arrays"),
    ("runner", "oc_fixed_external_two_arm", "oc_twoarm.oc_fixed_external_two_arm"),
    ("runner", "_random_two_arm_mc_grids", "oc_twoarm.random_mc_grids"),
    ("runner", "power_profile", "oc_twoarm.power_profile"),
    ("runner", "tail_arrays", "borrow.tail_arrays"),
    ("oc_onearm", "region_oc_arrays", "oc_onearm.region_oc_arrays"),
    ("oc_onearm", "rejection_region", "region.rejection_region"),
    ("oc_onearm", "maximize_1d", "statmath.maximize_1d"),
    ("oc_onearm", "tail_arrays", "borrow.tail_arrays"),
    ("oc_twoarm", "reject_prob_two_arm", "oc_twoarm.reject_prob_two_arm"),
    ("oc_twoarm", "_random_two_arm_mc_grids", "oc_twoarm.random_mc_grids"),
    ("oc_twoarm", "integrate", "statmath.integrate"),
    ("oc_twoarm", "maximize_1d", "statmath.maximize_1d"),
    ("region", "tail_arrays", "borrow.tail_arrays"),
    ("region", "find_root", "statmath.find_root"),
)

# span names whose first positional argument is a callable worth counting
_COUNTED_CALLABLE = {"statmath.integrate": np.size,
                     "statmath.maximize_1d": lambda x: 1,
                     "statmath.find_root": lambda x: 1}

# per-pass metrics reported by the traced run, in report order, with units
PER_LAYER = (
    ("oc_onearm.region_oc_arrays.calls", "count"),
    ("oc_onearm.region_oc_arrays.self_s", "s"),
    ("oc_onearm.region_oc_arrays.rows", "count"),
    ("oc_onearm.scan_fallback_rows", "count"),
    ("oc_onearm.oc_fixed_external.calls", "count"),
    ("oc_onearm.oc_fixed_external.self_s", "s"),
    ("region.rejection_region.calls", "count"),
    ("region.rejection_region.self_s", "s"),
    ("region.rejection_region.multi_interval", "count"),
    ("region.rejection_region.flagged", "count"),
    ("borrow.tail_arrays.calls", "count"),
    ("borrow.tail_arrays.self_s", "s"),
    ("borrow.tail_arrays.cells", "count"),
    ("statmath.integrate.calls", "count"),
    ("statmath.integrate.self_s", "s"),
    ("statmath.integrate.fevals", "count"),
    ("statmath.maximize_1d.calls", "count"),
    ("statmath.maximize_1d.self_s", "s"),
    ("statmath.maximize_1d.fevals", "count"),
    ("statmath.find_root.calls", "count"),
    ("statmath.find_root.fevals", "count"),
    ("oc_twoarm.reject_prob_two_arm.calls", "count"),
    ("oc_twoarm.reject_prob_two_arm.self_s", "s"),
    ("oc_twoarm.random_mc_grids.self_s", "s"),
    ("oc_twoarm.random_mc_grids.rows", "count"),
    ("oc_twoarm.oc_random_external_two_arm.self_s", "s"),
    ("runner.run_algorithm1.self_s", "s"),
    ("runner.run_algorithm2.self_s", "s"),
    ("runner.run_grid.self_s", "s"),
    ("runner.summarize.self_s", "s"),
    ("runner.records", "count"),
    ("cli.dispatch.self_s", "s"),
    *((f"cli.{sub}.p50_s", "s") for sub in SUBCOMMANDS),
    *((f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"),
    ("trace.overhead_s", "s"),
)


def _cells(args, kwargs):
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)


def _rows(args, kwargs):
    return int(np.size(args[1]))


def _mc_rows(args, kwargs):
    return len(args[3]) * int(args[4])


# span name -> function of the call's arguments giving its work count
_ARG_COUNT = {"borrow.tail_arrays": _cells,
              "oc_onearm.region_oc_arrays": _rows,
              "oc_twoarm.random_mc_grids": _mc_rows}


class Span:
    """One call at a layer boundary; ``count`` is its argument-size work."""

    __slots__ = ("name", "start", "end", "parent", "child_s", "count",
                 "fevals", "result")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = self.child_s = 0.0
        self.count = self.fevals = 0
        self.result = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent}


class Tracer:
    """Installs span wrappers on borrowoc's module attributes.

    Single-threaded by design: the CLI runs replicates serially, so one
    stack of open spans describes every nesting.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._originals: list = []

    # -- installing and removing ------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span_name in PATCHES:
            mod = importlib.import_module(f"borrowoc.{mod_name}")
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span_name, original))

    def restore(self) -> None:
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        count_arg = _ARG_COUNT.get(name)
        count_feval = _COUNTED_CALLABLE.get(name)
        keep_result = name in ("region.rejection_region", "runner.summarize")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            if count_arg is not None:
                span.count = count_arg(args, kwargs)
            if count_feval is not None:
                inner = args[0]

                def counted(x):
                    span.fevals += count_feval(x)
                    return inner(x)

                args = (counted, *args[1:])
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if keep_result:
                span.result = result
            return result

        return traced

    def command(self, fn, *args):
        """Run one CLI command as a root span named ``cli.dispatch``."""
        return self.wrap("cli.dispatch", fn)(*args)

    def clear(self) -> None:
        self.spans.clear()


def layer_totals(spans) -> dict:
    """Per-pass counters and self times of one traced pass's spans."""
    out = defaultdict(float)
    for i, sp in enumerate(spans):
        name = sp.name
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += sp.self_s
        out[f"{name.split('.')[0]}.self_s"] += sp.self_s
        if sp.fevals:
            out[f"{name}.fevals"] += sp.fevals
        if name == "borrow.tail_arrays":
            out[f"{name}.cells"] += sp.count
        elif name in ("oc_onearm.region_oc_arrays", "oc_twoarm.random_mc_grids"):
            out[f"{name}.rows"] += sp.count
        elif name == "region.rejection_region":
            out[f"{name}.multi_interval"] += len(sp.result.intervals) > 1
            out[f"{name}.flagged"] += bool(sp.result.flagged)
            if _inside(spans, i, "oc_onearm.region_oc_arrays"):
                out["oc_onearm.scan_fallback_rows"] += 1
        elif name == "runner.summarize":
            out["runner.records"] += len(sp.result.records)
    return out


def _inside(spans, i: int, ancestor: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == ancestor:
            return True
        p = spans[p].parent
    return False


def per_layer_metrics(traced_passes, untraced_walls, traced_walls,
                      latencies_by_subcommand) -> dict:
    """Average the traced passes' totals into the PER_LAYER metric set."""
    sums = defaultdict(float)
    for totals in traced_passes:
        for key, val in totals.items():
            sums[key] += val
    n = len(traced_passes)
    values = {key: val / n for key, val in sums.items()}
    for sub in SUBCOMMANDS:
        lat = latencies_by_subcommand.get(sub)
        values[f"cli.{sub}.p50_s"] = statistics.median(lat) if lat else 0.0
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(untraced_walls))
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER}
