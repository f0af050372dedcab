"""Replicate studies and grid sweeps over external data.

Two randomized procedures and one deterministic sweep:

* :func:`run_algorithm1` — external data held *fixed* within each replicate:
  draw an external mean, compute the exact operating characteristics
  conditional on it, record, average.
* :func:`run_algorithm2` — external data treated as *random*: one pooled
  Monte Carlo over external draws whose summary level is the averaged
  rejection rate, with the comparator calibrated to that average.
* :func:`run_grid` — no randomness: operating characteristics along a
  deterministic grid of external means (one-arm) or standardized offsets
  (two-arm).

Each replicate owns the RNG stream keyed by its index; the replicates'
operating characteristics come from one engine computation over all
external draws, and aggregation runs in ascending replicate order with
compensated summation.

A run's results stay in columns: the engine arrays become the six
:data:`COLUMNS` of a :class:`ReplicateColumns`, the summaries are computed
from those columns, and :class:`ReplicateRecord` objects are built only
when a caller indexes or iterates ``RunReport.records``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .borrow import BorrowingMethod, FIXED_POWER_PRIOR, tail_arrays
# oc_fixed_external is no longer called here; the name stays for
# bench/tracing.py, which wraps runner.oc_fixed_external
from .oc_onearm import (_random_external_arrays,  # noqa: F401
                        oc_fixed_external, power_calibrated, region_oc_arrays)
from .oc_twoarm import (_random_two_arm_mc_grids, oc_fixed_external_two_arm,
                        power_calibrated_two_arm, power_profile)
from .scenarios import ScenarioOneArm, ScenarioTwoArm
from .statmath import (DomainError, RngStream, _blocks, _check_count,
                       _check_finite, _fsum)

DEFAULT_NSIM_FIXED = 100
DEFAULT_NSIM_RANDOM = 100_000
DEFAULT_TWO_ARM_OFFSETS = tuple(round(-3.0 + 0.25 * k, 8) for k in range(25))
_AUDIT_INNER_NSIM = 10_000

# the per-replicate fields, in record and records.csv column order
COLUMNS = ("replicate", "dE_mean", "t1e_borrow", "power_borrow",
           "power_calibrated", "power_diff")


@dataclass(frozen=True)
class ReplicateRecord:
    """One replicate's conditional operating characteristics."""

    replicate: int
    dE_mean: float
    t1e_borrow: float
    power_borrow: float
    power_calibrated: float
    power_diff: float | None = None

    def __post_init__(self) -> None:
        if self.replicate < 0:
            raise DomainError(f"replicate index must be >= 0, got {self.replicate!r}")
        for name in ("dE_mean", "t1e_borrow", "power_borrow", "power_calibrated"):
            object.__setattr__(self, name, float(getattr(self, name)))
        diff = (self.power_borrow - self.power_calibrated
                if self.power_diff is None else self.power_diff)
        object.__setattr__(self, "power_diff", float(diff))


class ReplicateColumns(Sequence):
    """A run's replicate results, held column by column.

    Each name in :data:`COLUMNS` is a read-only NumPy array with one entry
    per replicate, in ascending replicate order.  An array of the column's
    type that owns its data is kept without a copy and made read-only (the
    runs hand over the arrays their engines just made), a value shared by
    every replicate stays a zero-stride broadcast, and a view into a larger
    array is copied.  As a sequence it yields :class:`ReplicateRecord`
    objects, built only when indexed or iterated (one block of
    ``statmath._BLOCK_ROWS`` rows at a time); ``len()`` builds none.
    """

    __slots__ = COLUMNS

    def __init__(self, replicate, dE_mean, t1e_borrow, power_borrow,
                 power_calibrated, power_diff) -> None:
        cols = (replicate, dE_mean, t1e_borrow, power_borrow,
                power_calibrated, power_diff)
        for name, col in zip(COLUMNS, cols):
            arr = np.asarray(col, dtype=np.int64 if name == "replicate"
                             else np.float64)
            if arr.base is not None and arr.strides != (0,):
                arr = arr.copy()
            arr.flags.writeable = False
            setattr(self, name, arr)

    def _arrays(self) -> tuple:
        return tuple(getattr(self, name) for name in COLUMNS)

    def __len__(self) -> int:
        return len(self.replicate)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        return ReplicateRecord(*(col[i].item() for col in self._arrays()))

    def __iter__(self):
        for rows in _blocks(len(self)):
            yield from map(ReplicateRecord,
                           *(col[rows].tolist() for col in self._arrays()))

    def __eq__(self, other):
        if isinstance(other, ReplicateColumns):
            return all(np.array_equal(a, b) for a, b in
                       zip(self._arrays(), other._arrays()))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ReplicateColumns(<{len(self)} replicates>)"


def _replicate_columns(dE_mean, t1e_borrow, power_borrow,
                       power_calibrated) -> ReplicateColumns:
    """Columns of replicates 0..n-1; scalar arguments are shared by every
    replicate as zero-stride broadcasts, and ``power_diff`` is the
    elementwise difference ``power_borrow - power_calibrated``."""
    n = len(dE_mean)

    def column(c):
        c = np.asarray(c, dtype=np.float64)
        return np.broadcast_to(c, (n,)) if c.ndim == 0 else c

    t1e, pb, pc = map(column, (t1e_borrow, power_borrow, power_calibrated))
    return ReplicateColumns(np.arange(n), dE_mean, t1e, pb, pc, pb - pc)


@dataclass(frozen=True)
class RunReport:
    """Replicate columns plus order-deterministic summaries of a run.

    ``records`` is a :class:`ReplicateColumns`: its column attributes hold
    the per-replicate results as arrays, and its entries are
    :class:`ReplicateRecord` objects built on demand.
    """

    records: ReplicateColumns
    mean_t1e: float
    mean_power_diff: float
    t1e_min: float
    t1e_max: float
    t1e_median: float
    power_diff_min: float
    power_diff_max: float
    power_diff_median: float
    seed: int | None
    nsim: int
    scenario: dict


def summarize(records, seed, nsim: int, scenario: dict) -> RunReport:
    """Assemble a report; summaries are recomputable from the records.

    ``records`` is a :class:`ReplicateColumns` or any sequence of
    :class:`ReplicateRecord`, which is sorted by replicate index.  Means
    use compensated summation in ascending replicate order, so the result
    does not depend on how the records were produced or scheduled.  An
    empty record list, a record count other than ``nsim`` and a repeated
    replicate index are errors, never a silent NaN or a mislabeled report.
    The means convert their columns to Python floats one block of
    ``statmath._BLOCK_ROWS`` at a time.
    """
    if isinstance(records, ReplicateColumns):
        cols = records
    else:
        records = sorted(records, key=lambda r: r.replicate)
        cols = ReplicateColumns(*([getattr(r, name) for r in records]
                                  for name in COLUMNS))
    if not len(cols):
        raise DomainError("cannot summarize an empty record list")
    if len(cols) != nsim:
        raise DomainError(f"nsim={nsim!r} does not match the {len(cols)} "
                          f"records")
    if np.any(np.diff(cols.replicate) <= 0):
        raise DomainError("replicate indices must be distinct and ascending")
    t1e, diff = cols.t1e_borrow, cols.power_diff
    return RunReport(
        records=cols,
        mean_t1e=_fsum(t1e) / len(t1e),
        mean_power_diff=_fsum(diff) / len(diff),
        t1e_min=float(t1e.min()), t1e_max=float(t1e.max()),
        t1e_median=float(np.median(t1e)),
        power_diff_min=float(diff.min()), power_diff_max=float(diff.max()),
        power_diff_median=float(np.median(diff)),
        seed=seed, nsim=nsim, scenario=dict(scenario))


def scenario_echo(scen, method: BorrowingMethod, thetaE: float | None = None,
                  extra: dict | None = None) -> dict:
    """Plain-dict description of a run's configuration for reports and
    provenance lines."""
    if isinstance(scen, ScenarioOneArm):
        d = {"design": "one-arm", "n": scen.n, "nE": scen.nE,
             "sigma": scen.sigma, "sigmaE": scen.sigmaE,
             "theta0": scen.theta0, "theta1": scen.theta1,
             "alpha": scen.alpha, "c": scen.c}
    elif isinstance(scen, ScenarioTwoArm):
        d = {"design": "two-arm", "nc": scen.nc, "nt": scen.nt, "nE": scen.nE,
             "sigma": scen.sigma, "sigmaE": scen.sigmaE,
             "theta1": scen.theta1, "alpha": scen.alpha, "c": scen.c}
    else:
        raise DomainError(f"unrecognized scenario type: {type(scen).__name__}")
    d["method"] = method.kind
    if method.kind == FIXED_POWER_PRIOR:
        d["delta"] = method.delta
    if thetaE is not None:
        d["thetaE"] = float(thetaE)
    if extra:
        d.update(extra)
    return d


def run_algorithm1(scen, thetaE: float, method: BorrowingMethod,
                   nsim: int = DEFAULT_NSIM_FIXED, seed: int = 0, *,
                   literal: bool = False,
                   audit_inner_nsim: int = _AUDIT_INNER_NSIM) -> RunReport:
    """Fixed-external replicate study.

    Each replicate j draws one external mean from N(thetaE, sigmaE^2/nE)
    using stream (seed, j) — the mean is sufficient, so a single draw
    replaces nE observation draws — and records its exact conditional
    operating characteristics: one-arm from one :func:`region_oc_arrays`
    call over all draws; two-arm from one maximization of the null
    rejection rate at replicate 0's mean, shared by every record (two-arm
    characteristics depend only on the control-minus-external offset).

    ``literal=True`` is the audit mode: the external mean is assembled from
    nE observation-level draws and, for one-arm runs, the conditional
    rates are re-estimated by an inner Monte Carlo of raw accept/reject
    decisions (``audit_inner_nsim`` current-data draws per hypothesis)
    instead of the exact engine.
    """
    # checked here: the replicate loop draws with them before any engine runs
    thetaE = _check_finite("thetaE", thetaE)
    _check_count("nsim", nsim)
    two_arm = isinstance(scen, ScenarioTwoArm)
    de, t1e, power = [], [], []
    for j in range(nsim):
        gen = RngStream(seed, j).generator()
        de.append(float(np.mean(gen.normal(thetaE, scen.sigmaE, scen.nE)))
                  if literal else float(gen.normal(thetaE, scen.seE)))
        if literal and not two_arm:
            args = (de[j], scen.n, scen.sigma, scen.nE, scen.sigmaE, method,
                    scen.theta0)
            for mu, out in ((scen.theta0, t1e), (scen.theta1, power)):
                out.append(np.count_nonzero(tail_arrays(
                    gen.normal(mu, scen.se, audit_inner_nsim), *args)
                    > scen.c) / audit_inner_nsim)
    if two_arm:
        pt = oc_fixed_external_two_arm(scen, de[0], method)
        cols = _replicate_columns(de, pt.t1e_borrow, pt.power_borrow,
                                  pt.power_calibrated)
    else:
        if not literal:
            t1e, power = region_oc_arrays(scen, de, method)
        cols = _replicate_columns(de, t1e, power, power_calibrated(t1e, scen))
    return summarize(cols, seed, nsim, scenario_echo(scen, method, thetaE))


def run_algorithm2(scen, thetaE: float, method: BorrowingMethod,
                   nsim: int = DEFAULT_NSIM_RANDOM, seed: int = 0, *,
                   literal: bool = False, offsets=None) -> RunReport:
    """Random-external Monte Carlo run.

    One-arm: every replicate contributes its exact conditional rejection
    probabilities at theta0 and theta1 given the drawn external mean
    (``literal=True`` reverts to raw decision sampling); the reported
    level is the replicate average, and every record's comparator is
    calibrated to that average.

    Two-arm: the null rejection rate is profiled over standardized control
    offsets (``offsets``; default -3..3 in steps of 0.25), the offset with
    the largest averaged rate is selected, and records carry each
    replicate's conditional rates at that offset — so the report's mean
    t1e is the maximized averaged level.  The engines check ``thetaE``,
    ``nsim`` and ``offsets``.
    """
    if isinstance(scen, ScenarioTwoArm):
        offs = DEFAULT_TWO_ARM_OFFSETS if offsets is None \
            else tuple(float(x) for x in offsets)
        e, t1e, _, k, T, P = _random_two_arm_mc_grids(
            scen, thetaE, method, offs, nsim, seed, literal)
        cols = _replicate_columns(e, T, P,
                                  power_calibrated_two_arm(t1e[k], scen))
        echo = scenario_echo(scen, method, thetaE,
                             {"argmax_offset": offs[k]})
    else:
        de, t1e_j, power_j = _random_external_arrays(scen, thetaE, method,
                                                     nsim, seed, literal)
        cols = _replicate_columns(de, t1e_j, power_j, power_calibrated(
            _fsum(t1e_j) / nsim, scen))
        echo = scenario_echo(scen, method, thetaE)
    return summarize(cols, seed, nsim, echo)


def run_grid(scen, dE_means, method: BorrowingMethod) -> RunReport:
    """Deterministic sweep: one record per grid point, replicate = index.

    One-arm grids sweep the external mean itself.  Two-arm grids sweep the
    standardized control offset (recorded in the dE_mean column); power is
    evaluated at effect theta1 and the comparator is calibrated to the
    profile's maximized null rejection rate.  The engines refuse
    non-finite grid values.
    """
    pts = tuple(float(x) for x in dE_means)
    if not pts:
        raise DomainError("grid must be non-empty")
    if isinstance(scen, ScenarioTwoArm):
        prof = power_profile(scen, 0.0, method, pts)
        cols = _replicate_columns(pts, prof.t1e, prof.power_borrow,
                                  prof.power_calibrated)
        echo = scenario_echo(scen, method, None,
                             {"grid_axis": "offset",
                              "alphaB_max": prof.alphaB_max,
                              "argmax_offset": prof.argmax_offset})
    else:
        t1e, power = region_oc_arrays(scen, pts, method)
        cols = _replicate_columns(pts, t1e, power, power_calibrated(t1e, scen))
        echo = scenario_echo(scen, method, None, {"grid_axis": "dE_mean"})
    return summarize(cols, None, len(pts), echo)
