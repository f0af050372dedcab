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
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .borrow import BorrowingMethod, FIXED_POWER_PRIOR, tail_arrays
# oc_fixed_external is no longer called here; the name stays for
# bench/tracing.py, which wraps runner.oc_fixed_external
from .oc_onearm import (OCPoint, _random_external_arrays,  # noqa: F401
                        oc_fixed_external, power_calibrated, region_oc_arrays)
from .oc_twoarm import (_random_two_arm_mc_grids, oc_fixed_external_two_arm,
                        power_calibrated_two_arm, power_profile)
from .scenarios import ScenarioOneArm, ScenarioTwoArm
from .statmath import DomainError, RngStream

DEFAULT_NSIM_FIXED = 100
DEFAULT_NSIM_RANDOM = 100_000
DEFAULT_TWO_ARM_OFFSETS = tuple(round(-3.0 + 0.25 * k, 8) for k in range(25))
_AUDIT_INNER_NSIM = 10_000


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
        if self.power_diff is None:
            object.__setattr__(self, "power_diff",
                               self.power_borrow - self.power_calibrated)
        else:
            object.__setattr__(self, "power_diff", float(self.power_diff))


@dataclass(frozen=True)
class RunReport:
    """Records plus order-deterministic summaries of a run."""

    records: tuple
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

    Means use compensated summation in ascending replicate order, so the
    result does not depend on how the records were produced or scheduled.
    An empty record list is an error, never a silent NaN.
    """
    records = tuple(sorted(records, key=lambda r: r.replicate))
    if not records:
        raise DomainError("cannot summarize an empty record list")
    t1e = [r.t1e_borrow for r in records]
    diff = [r.power_diff for r in records]
    return RunReport(
        records=records,
        mean_t1e=math.fsum(t1e) / len(t1e),
        mean_power_diff=math.fsum(diff) / len(diff),
        t1e_min=min(t1e), t1e_max=max(t1e), t1e_median=statistics.median(t1e),
        power_diff_min=min(diff), power_diff_max=max(diff),
        power_diff_median=statistics.median(diff),
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


def _check_run_args(thetaE: float, nsim: int, workers: int) -> float:
    thetaE = float(thetaE)
    if not math.isfinite(thetaE):
        raise DomainError(f"thetaE must be finite, got {thetaE!r}")
    if nsim < 1:
        raise DomainError(f"nsim must be >= 1, got {nsim!r}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers!r}")
    return thetaE


def run_algorithm1(scen, thetaE: float, method: BorrowingMethod,
                   nsim: int = DEFAULT_NSIM_FIXED, seed: int = 0, *,
                   workers: int = 1, literal: bool = False,
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
    instead of the exact engine.  ``workers`` is validated and ignored.
    """
    thetaE = _check_run_args(thetaE, nsim, workers)
    two_arm = isinstance(scen, ScenarioTwoArm)
    de, pts = [], []
    for j in range(nsim):
        gen = RngStream(seed, j).generator()
        de.append(float(np.mean(gen.normal(thetaE, scen.sigmaE, scen.nE)))
                  if literal else float(gen.normal(thetaE, scen.seE)))
        if literal and not two_arm:
            args = (de[j], scen.n, scen.sigma, scen.nE, scen.sigmaE, method,
                    scen.theta0)
            t1, po = (np.count_nonzero(tail_arrays(
                gen.normal(mu, scen.se, audit_inner_nsim), *args) > scen.c)
                / audit_inner_nsim for mu in (scen.theta0, scen.theta1))
            pts.append(OCPoint(t1, po, power_calibrated(t1, scen)))
    if two_arm:
        pts = [oc_fixed_external_two_arm(scen, de[0], method)] * nsim
    elif not literal:
        t1e, power = region_oc_arrays(scen, de, method)
        pts = [OCPoint(t, p, power_calibrated(float(t), scen))
               for t, p in zip(t1e, power)]
    records = tuple(ReplicateRecord(j, de[j], pt.t1e_borrow, pt.power_borrow,
                                    pt.power_calibrated, pt.power_diff)
                    for j, pt in enumerate(pts))
    return summarize(records, seed, nsim, scenario_echo(scen, method, thetaE))


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
    t1e is the maximized averaged level.
    """
    thetaE = _check_run_args(thetaE, nsim, 1)
    if isinstance(scen, ScenarioTwoArm):
        offs = DEFAULT_TWO_ARM_OFFSETS if offsets is None \
            else tuple(float(x) for x in offsets)
        if not offs:
            raise DomainError("offsets must be non-empty")
        e, T, P = _random_two_arm_mc_grids(scen, thetaE, method, offs, nsim,
                                           seed, literal)
        means = [math.fsum(T[o]) / nsim for o in range(len(offs))]
        k = int(np.argmax(means))
        pc = power_calibrated_two_arm(means[k], scen)
        records = tuple(
            ReplicateRecord(j, float(e[j]), float(T[k, j]), float(P[k, j]), pc)
            for j in range(nsim))
        echo = scenario_echo(scen, method, thetaE,
                             {"argmax_offset": offs[k]})
    else:
        de, t1e_j, power_j = _random_external_arrays(scen, thetaE, method,
                                                     nsim, seed, literal)
        pc = power_calibrated(math.fsum(t1e_j) / nsim, scen)
        records = tuple(
            ReplicateRecord(j, float(de[j]), float(t1e_j[j]),
                            float(power_j[j]), pc)
            for j in range(nsim))
        echo = scenario_echo(scen, method, thetaE)
    return summarize(records, seed, nsim, echo)


def run_grid(scen, dE_means, method: BorrowingMethod) -> RunReport:
    """Deterministic sweep: one record per grid point, replicate = index.

    One-arm grids sweep the external mean itself.  Two-arm grids sweep the
    standardized control offset (recorded in the dE_mean column); power is
    evaluated at effect theta1 and the comparator is calibrated to the
    profile's maximized null rejection rate.
    """
    pts = tuple(float(x) for x in dE_means)
    if not pts:
        raise DomainError("grid must be non-empty")
    for x in pts:
        if not math.isfinite(x):
            raise DomainError(f"grid values must be finite, got {x!r}")
    if isinstance(scen, ScenarioTwoArm):
        prof = power_profile(scen, 0.0, method, pts)
        records = tuple(
            ReplicateRecord(i, pts[i], prof.t1e[i], prof.power_borrow[i],
                            prof.power_calibrated)
            for i in range(len(pts)))
        echo = scenario_echo(scen, method, None,
                             {"grid_axis": "offset",
                              "alphaB_max": prof.alphaB_max,
                              "argmax_offset": prof.argmax_offset})
    else:
        t1e, power = region_oc_arrays(scen, pts, method)
        records = tuple(
            ReplicateRecord(i, pts[i], t1e[i], power[i],
                            power_calibrated(float(t1e[i]), scen))
            for i in range(len(pts)))
        echo = scenario_echo(scen, method, None, {"grid_axis": "dE_mean"})
    return summarize(tuple(records), None, len(pts), echo)
