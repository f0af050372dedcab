"""Operating characteristics of the one-arm borrowing test.

Four layers, all exact unless stated otherwise:

* per-external-mean characteristics from the rejection region: the
  boundaries of :func:`borrowoc.region.boundary_arrays` turn into exact
  normal probabilities for a whole vector of external means at once
  (:func:`region_oc_arrays`); :func:`oc_fixed_external` is its one-row
  case;
* the calibrated comparator: the plain z-test run at the borrowing test's
  realized size (:func:`power_calibrated`);
* random-external characteristics in closed form for fixed weights
  (:func:`oc_random_external_fixed_pp`);
* a Monte Carlo engine over external draws (:func:`oc_random_external_mc`)
  whose inner current-data expectations are computed exactly from the
  region, replicate by replicate -- the literal decision-sampling form is
  kept behind a flag for audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .borrow import BorrowingMethod, tail_arrays
# rejection_region and maximize_1d are no longer called here; the names stay
# for bench/tracing.py, which wraps oc_onearm.rejection_region and
# oc_onearm.maximize_1d
from .region import Boundaries, boundary_arrays, rejection_region  # noqa: F401
from .scenarios import ScenarioOneArm
from .statmath import (DomainError, RngStream, maximize_1d,  # noqa: F401
                       norm_cdf, norm_quantile)


@dataclass(frozen=True)
class OCPoint:
    """Bundle of operating characteristics at one configuration.

    ``power_diff`` is always ``power_borrow - power_calibrated``; omit it to
    have it filled in.
    """

    t1e_borrow: float
    power_borrow: float
    power_calibrated: float
    power_diff: float | None = None

    def __post_init__(self) -> None:
        for name in ("t1e_borrow", "power_borrow", "power_calibrated"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be a probability, got {v!r}")
            object.__setattr__(self, name, v)
        if self.power_diff is None:
            object.__setattr__(self, "power_diff",
                               self.power_borrow - self.power_calibrated)
        else:
            object.__setattr__(self, "power_diff", float(self.power_diff))


def power_calibrated(alphaB: float, scen: ScenarioOneArm) -> float:
    """Power at theta1 of the z-test calibrated to level alphaB.

    Computed as Phi(effect + quantile(alphaB)) so that a tiny alphaB keeps
    its relative precision; degenerate levels return the limits (0 -> 0,
    1 -> 1).
    """
    alphaB = float(alphaB)
    if not 0.0 <= alphaB <= 1.0:
        raise DomainError(f"alphaB must lie in [0, 1], got {alphaB!r}")
    shift = (scen.theta1 - scen.theta0) / scen.se
    return norm_cdf(shift + norm_quantile(alphaB))


def oc_fixed_external(scen: ScenarioOneArm, dE_mean: float,
                      method: BorrowingMethod) -> OCPoint:
    """Exact operating characteristics for one fixed external mean.

    The type I error rate is the supremum over the null: it is evaluated at
    theta0 and, whenever the region has more than one interval (the
    non-monotone Empirical Bayes regime), additionally maximized over
    theta in [theta0 - 10 sigma/sqrt(n), theta0].  For single upper
    intervals the boundary value is already the supremum.  This is the
    one-row case of :func:`region_oc_arrays`, so it equals that function's
    row for the same external mean exactly.
    """
    t1e, pb = region_oc_arrays(scen, [float(dE_mean)], method)
    return OCPoint(t1e[0], pb[0], power_calibrated(float(t1e[0]), scen))


def t1e_closed_form_fixed_pp(scen: ScenarioOneArm, dE_mean: float,
                             delta: float) -> float:
    """Type I error rate of the fixed-weight test, in closed form.

    The rejection region is the single interval with lower endpoint
    theta0 + se (z_c sqrt(1 + se^2/s_pi^2) - (dE - theta0) se/s_pi^2),
    s_pi^2 = sigmaE^2/(delta nE), so the rate is one Phi evaluation.
    delta=0 returns the no-borrowing level exactly.
    """
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta!r}")
    se = scen.se
    r = delta * scen.nE * se**2 / scen.sigmaE**2        # se^2 / s_pi^2
    shift = (dE_mean - scen.theta0) * delta * scen.nE * se / scen.sigmaE**2
    zc = norm_quantile(scen.c)
    return norm_cdf(shift - zc * math.sqrt(1.0 + r))


def oc_random_external_fixed_pp(scen: ScenarioOneArm, thetaE: float,
                                delta: float) -> OCPoint:
    """Closed-form characteristics when the external mean itself is random,
    drawn from N(thetaE, sigmaE^2/nE), under a fixed borrowing weight.

    The test statistic is jointly Gaussian in (current mean, external mean),
    with inflation factor sigma_x^2 = 1 + delta se^2/s_pi^2, so every
    quantity is a single Phi evaluation; the calibrated power uses the
    averaged size alpha_B(thetaE).
    """
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta!r}")
    se = scen.se
    r = delta * scen.nE * se**2 / scen.sigmaE**2
    sx = math.sqrt(1.0 + delta * r)
    zc = norm_quantile(scen.c)
    mux0 = (thetaE - scen.theta0) * delta * scen.nE * se / scen.sigmaE**2
    mux1 = (scen.theta1 - scen.theta0) / se + mux0
    aB = norm_cdf((mux0 - zc * math.sqrt(1.0 + r)) / sx)
    pb = norm_cdf((mux1 - zc * math.sqrt(1.0 + r)) / sx)
    return OCPoint(aB, pb, power_calibrated(aB, scen))


# ---------------------------------------------------------------------------
# vectorized per-external-mean engine

_MAXCHECK_POINTS = 401
_MAXCHECK_CHUNK = 4096        # rows per grid array: 13 MB per temporary
_POLISH_STEPS = 3


def _null_supremum(b: Boundaries, rows: np.ndarray, scen: ScenarioOneArm) -> np.ndarray:
    """sup of the rejection probability over theta in [theta0 - 10 se, theta0]
    for the given rows.

    A 401-point grid, evaluated as one array per chunk of rows, finds each
    row's best grid point; Newton steps on the derivative
    sum_k signs_k phi(z_k)/se, z_k = (theta - r_k)/se, polish it within its
    two neighbouring cells.  The larger of the grid and polished values is
    returned, so a polish that fails to converge costs nothing.
    """
    se = scen.se
    grid = np.linspace(scen.theta0 - 10.0 * se, scen.theta0, _MAXCHECK_POINTS)
    best = np.empty(rows.size)
    k = np.empty(rows.size, dtype=np.intp)
    for start in range(0, rows.size, _MAXCHECK_CHUNK):
        sl = slice(start, start + _MAXCHECK_CHUNK)
        vals = b.prob(grid[:, None], se, rows[sl])
        k[sl] = np.argmax(vals, axis=0)
        best[sl] = vals[k[sl], np.arange(vals.shape[1])]
    left = grid[np.maximum(k - 1, 0)]
    right = grid[np.minimum(k + 1, _MAXCHECK_POINTS - 1)]
    theta = grid[k]
    roots, signs = b.roots[rows], b.signs[rows]
    for _ in range(_POLISH_STEPS):
        z = np.where(signs != 0.0, (theta[:, None] - roots) / se, 0.0)
        dens = signs * np.exp(-0.5 * z * z)
        slope = np.sum(dens, axis=1)
        curv = -np.sum(z * dens, axis=1) / se
        with np.errstate(invalid="ignore", divide="ignore"):
            theta = np.clip(theta - slope / curv, left, right)
    return np.fmax(best, b.prob(theta, se, rows))       # fmax skips a NaN polish


def region_oc_arrays(scen: ScenarioOneArm, de, method: BorrowingMethod):
    """Exact per-external-mean (t1e, power) arrays for a vector of external
    means.

    Power is the region's probability at theta1.  The type I error rate is
    the supremum over the null: the probability at theta0 and, for rows
    whose region has more than one interval (the non-monotone Empirical
    Bayes regime), the maximum over theta in [theta0 - 10 se, theta0].  For
    a single upper interval the value at theta0 already is the supremum.
    Rows are computed independently of each other.
    """
    de = np.asarray(de, dtype=float)
    b = boundary_arrays(scen, de, method)
    t1e, power = b.prob(np.array([[scen.theta0], [scen.theta1]]), scen.se)
    multi = np.nonzero(np.count_nonzero(b.signs > 0, axis=1) + b.start > 1)[0]
    if multi.size:
        t1e[multi] = np.maximum(t1e[multi], _null_supremum(b, multi, scen))
    return t1e, power


def _random_external_arrays(scen: ScenarioOneArm, thetaE: float,
                            method: BorrowingMethod, nsim: int, seed: int,
                            literal: bool = False):
    """Per-replicate building blocks of the random-external Monte Carlo.

    Returns ``(de, t1e_j, power_j)``.  Draw order from the single stream
    (seed, 0): external means; then, in literal mode only, current means
    under theta0 and under theta1.
    """
    if nsim < 1:
        raise DomainError(f"nsim must be >= 1, got {nsim!r}")
    gen = RngStream(seed, 0).generator()
    de = gen.normal(float(thetaE), scen.seE, nsim)
    if literal:
        d0 = gen.normal(scen.theta0, scen.se, nsim)
        d1 = gen.normal(scen.theta1, scen.se, nsim)
        args = (scen.n, scen.sigma, scen.nE, scen.sigmaE, method, scen.theta0)
        t1e_j = (tail_arrays(d0, de, *args) > scen.c).astype(float)
        power_j = (tail_arrays(d1, de, *args) > scen.c).astype(float)
    else:
        t1e_j, power_j = region_oc_arrays(scen, de, method)
    return de, t1e_j, power_j


def oc_random_external_mc(scen: ScenarioOneArm, thetaE: float,
                          method: BorrowingMethod, nsim: int, seed: int, *,
                          literal: bool = False) -> OCPoint:
    """Monte Carlo operating characteristics over random external data.

    External means are drawn from N(thetaE, sigmaE^2/nE); by default each
    draw contributes its *exact* conditional rejection probabilities at
    theta0 and theta1 (the inner current-data sampling is replaced by its
    expectation, which estimates the same quantities with far lower
    variance).  ``literal=True`` instead samples one current mean per
    replicate under each hypothesis and averages raw 0/1 decisions, for
    audit.  Calibration always uses the averaged size.
    """
    _, t1e_j, power_j = _random_external_arrays(scen, thetaE, method, nsim,
                                                seed, literal)
    aB = math.fsum(t1e_j) / nsim
    pb = math.fsum(power_j) / nsim
    return OCPoint(aB, pb, power_calibrated(aB, scen))
