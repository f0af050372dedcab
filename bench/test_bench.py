"""Tests of the benchmark itself: seeded generation, tracing, output checks.

    python3 -m pytest bench/test_bench.py
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from borrowoc import cli  # noqa: E402

# cheap stand-ins: every subcommand and flag of the workloads, small sizes
CHEAP_NSIM = {"one-arm-fixed": 5, "one-arm-random": 200, "algorithm1": 1,
              "algorithm2": 50, "two-arm-random": 50}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)
    for cmd in workloads.generate(workload, 7):
        cli.parse_config(cmd.config)          # every config is valid


def test_workloads_cover_every_subcommand():
    used = {cmd.subcommand for w in workloads.WORKLOADS
            for cmd in workloads.generate(w, 0)}
    assert used == set(cli.SUBCOMMANDS)


def test_onearm_eb_random_runs_draw_an_antithetic_pair_per_stratum():
    cmds = [c for c in workloads.generate("onearm", 3)
            if c.subcommand == "one-arm-random"
            and c.config["method"] == "eb-pp"]
    for nE in workloads.ONEARM_RANDOM_NE:
        drawn = [c.config["thetaE"] for c in cmds if c.config["nE"] == nE]
        for k, (lo, hi) in enumerate(workloads.ONEARM_RANDOM_STRATA):
            a, b = drawn[2 * k:2 * k + 2]
            assert lo <= a <= hi and lo <= b <= hi
            assert a + b == pytest.approx(lo + hi)


def _cheap(cmd):
    cfg = dict(cmd.config)
    if cmd.subcommand in CHEAP_NSIM and "nsim" in cfg:
        cfg["nsim"] = CHEAP_NSIM[cmd.subcommand]
    if "grid" in cfg and cfg["design"] == "one-arm":
        cfg["grid"] = {**cfg["grid"], "step": 0.1}
    return workloads.Command(cmd.name, cmd.subcommand, cfg, cmd.flags)


def _run_all(cmds, out_root, tracer=None):
    configs = workloads.write_configs(cmds, out_root / "configs")
    results, _ = run.run_pass(cli.main, cmds, configs, out_root, tracer)
    assert all(rc == 0 for rc in results.values()), results
    return {p.relative_to(out_root): p.read_bytes()
            for p in sorted(out_root.rglob("*")) if p.is_file()}


def _cheap_commands():
    onearm = workloads.generate("onearm", 1)
    eb_random = [c for c in onearm if c.subcommand == "one-arm-random"
                 and c.config["method"] == "eb-pp"]
    return [_cheap(c) for c in eb_random[:2]] + [
        _cheap(c) for c in onearm if c.subcommand != "one-arm-random"
        or c.config["method"] == "fixed-pp"] + [
        _cheap(c) for c in workloads.generate("twoarm", 1)
        if c.subcommand != "two-arm-random" or c.flags
        or c.config["method"] != "eb-pp"]


def test_traced_outputs_are_byte_identical(tmp_path):
    cmds = _cheap_commands()
    plain = _run_all(cmds, tmp_path / "plain")
    tracer = tracing.Tracer()
    traced = _run_all(cmds, tmp_path / "traced", tracer)
    assert plain == traced
    names = {sp.name for sp in tracer.spans}
    assert {"cli.dispatch", "runner.run_algorithm1", "region.rejection_region",
            "borrow.tail_arrays", "statmath.find_root",
            "oc_onearm.region_oc_arrays",
            "oc_twoarm.random_mc_grids"} <= names


def test_restore_puts_every_original_back():
    originals = [getattr(importlib.import_module(f"borrowoc.{m}"), a)
                 for m, a, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(importlib.import_module(f"borrowoc.{m}"), a) is not o
               for (m, a, _), o in zip(tracing.PATCHES, originals))
    tracer.restore()
    assert all(getattr(importlib.import_module(f"borrowoc.{m}"), a) is o
               for (m, a, _), o in zip(tracing.PATCHES, originals))


def test_self_time_excludes_children_and_counts_fevals():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("statmath.find_root", lambda f, lo, hi: f(lo) + f(hi))
    root = tracer.wrap("region.rejection_region",
                       lambda: leaf(lambda x: x, 1.0, 2.0))
    assert tracer.command(root) == 3.0
    top, mid, low = tracer.spans
    assert (top.parent, mid.parent, low.parent) == (-1, 0, 1)
    assert low.fevals == 2
    total = sum(sp.self_s for sp in tracer.spans)
    assert total == pytest.approx(top.end - top.start, abs=1e-12)


def test_checks_pass_clean_outputs_and_catch_a_changed_value(tmp_path):
    cmds = [c for c in _cheap_commands()
            if c.subcommand in ("one-arm-grid", "two-arm-random", "region")]
    _run_all(cmds, tmp_path)
    dirs = {c.name: tmp_path / c.name for c in cmds}
    reference = {c.name: checks.snapshot(c, dirs[c.name]) for c in cmds}
    assert not any(checks.check_outputs(cmds, dirs, reference).values())

    grid = next(c for c in cmds if c.name == "grid-eb-nE20")
    path = dirs[grid.name] / "records.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    found = checks.check_outputs(cmds, dirs, reference)[grid.name]
    assert any("t1e_borrow[3]" in p for p in found)
    assert any("summary mean_t1e" in p for p in found)


def test_latency_metrics_take_each_command_at_its_fastest_pass():
    got = run.latency_metrics({"a": [3.0, 1.0, 2.0], "b": [0.5, 0.4, 0.6],
                               "c": [2.5, 2.0, 4.0], "d": [0.3, 0.2, 0.1],
                               "e": [5.0, 3.0, 6.0]})
    # fastest passes 1.0, 0.4, 2.0, 0.1, 3.0: the slowest quarter is two
    assert got == {"wall_s": pytest.approx(6.5), "cmd_p50_s": 1.0,
                   "cmd_tail_s": 2.5}
