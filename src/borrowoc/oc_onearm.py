"""Operating characteristics of the one-arm borrowing test.

Four layers, all exact unless stated otherwise:

* per-external-mean characteristics from the rejection region: the
  boundaries of :func:`borrowoc.region.boundary_arrays` turn into exact
  normal probabilities for a whole vector of external means at once
  (:func:`region_oc_arrays`), the type I error rate at theta0, where the
  null rejection rate peaks for every threshold c >= 1/2;
  :func:`oc_fixed_external` is its one-row case;
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

# rejection_region, maximize_1d and tail_arrays are no longer called here;
# the names stay for bench/tracing.py, which wraps oc_onearm.rejection_region,
# oc_onearm.maximize_1d and oc_onearm.tail_arrays
from .borrow import BorrowingMethod, posterior_arrays, tail_arrays  # noqa: F401
from .region import boundary_arrays, rejection_region  # noqa: F401
from .scenarios import ScenarioOneArm
from .statmath import (RngStream, _blocks, _check_count, _check_finite,
                       _check_probability, _fsum, maximize_1d, norm_cdf,
                       norm_quantile)  # noqa: F401


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
            object.__setattr__(self, name,
                               _check_probability(name, getattr(self, name)))
        diff = (self.power_borrow - self.power_calibrated
                if self.power_diff is None else self.power_diff)
        object.__setattr__(self, "power_diff", float(diff))


def power_calibrated(alphaB, scen: ScenarioOneArm):
    """Power at theta1 of the z-test calibrated to level alphaB.

    Accepts a scalar or an array of levels, like :func:`norm_cdf`: a float
    gives a float, an array an ndarray of the same shape, each entry equal
    to the scalar call's.  Computed as Phi(effect + quantile(alphaB)) so
    that a tiny alphaB keeps its relative precision; degenerate levels
    return the limits (0 -> 0, 1 -> 1).
    """
    return _z_power((scen.theta1 - scen.theta0) / scen.se, alphaB)


def _z_power(shift: float, alphaB):
    """Phi(shift + quantile(alphaB)): power of the z-test at level alphaB
    whose effect is ``shift`` standard errors."""
    levels = _check_probability("alphaB", alphaB)
    return norm_cdf(shift + norm_quantile(levels))


def oc_fixed_external(scen: ScenarioOneArm, dE_mean: float,
                      method: BorrowingMethod) -> OCPoint:
    """Exact operating characteristics for one fixed external mean.

    The type I error rate is the supremum over the null, which is the
    rejection rate at theta0 (proof in :func:`region_oc_arrays`).  This is
    the one-row case of :func:`region_oc_arrays`, so it equals that
    function's row for the same external mean exactly.
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
    dE_mean = _check_finite("dE_mean", dE_mean)
    delta = BorrowingMethod.fixed_power_prior(delta).delta
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
    thetaE = _check_finite("thetaE", thetaE)
    delta = BorrowingMethod.fixed_power_prior(delta).delta
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

def region_oc_arrays(scen: ScenarioOneArm, de, method: BorrowingMethod):
    """Exact per-external-mean (t1e, power) arrays for a vector of external
    means: the region's rejection rates at theta0 and theta1, each row
    computed independently of the others.

    The type I error rate is the supremum of the rejection rate P(theta)
    over the null theta <= theta0, and for c >= 1/2 (z_c >= 0) that is
    P(theta0).  In se units, with t = (dE - theta0)/se, w = (x - dE)/se and
    A(w) the ratio of posterior to current precision, the test rejects the
    current mean x iff t > h(w) = z_c/sqrt(A) - w/A.  A is constant for no
    or fixed-weight borrowing, so h is linear and decreasing and the region
    is one upper interval.  Under Empirical Bayes A is even in w, constant
    in agreement |w| <= r/se and w^2/(w^2 - 1) in conflict; with
    q = sqrt(w^2 - 1):

    1. h is strictly decreasing on (-inf, r/se]: linear in agreement, and
       (q/|w|)(z_c + q), increasing in |w|, in left conflict.
    2. On (r/se, inf), h = (q/w)(z_c - q) rises while q^3 + 2q < z_c and
       falls after (h' = (z_c - q^3 - 2q)/(q w^2)).  So a region is
       (l, inf) or (l, u) u (l2, inf), and no piece starts at -inf.
    3. In the two-piece case w_u lies on the rising part, where q < z_c,
       so t = h(w_u) > 0: dE > theta0.  And h(-w_u) = h(w_u) + 2 w_u/A > t
       = h(w_l) with h decreasing there, so w_l > -w_u: the lower piece's
       midpoint lies above dE.
    4. dP/dtheta = sum_k [phi((l_k - theta)/se) - phi((u_k - theta)/se)]/se
       over the pieces (l_k, u_k), and every term is positive below the
       lowest piece's midpoint (+inf for one piece).  That midpoint lies
       above theta0, so P increases on theta <= theta0.

    For c < 1/2 step 1 fails and the supremum can exceed P(theta0); the
    scenarios refuse such thresholds.

    The rows go through :func:`boundary_arrays` and ``Boundaries.prob`` one
    block of ``statmath._BLOCK_ROWS`` at a time; rows are independent, so
    the values are those of one call over all rows.
    """
    de = np.atleast_1d(_check_finite("external_mean", de))
    t1e, power = np.empty(de.shape), np.empty(de.shape)
    theta = np.array([[scen.theta0], [scen.theta1]])
    for rows in _blocks(len(de)):
        b = boundary_arrays(scen, de[rows], method)
        t1e[rows], power[rows] = b.prob(theta, scen.se)
    return t1e, power


def _random_external_arrays(scen: ScenarioOneArm, thetaE: float,
                            method: BorrowingMethod, nsim: int, seed: int,
                            literal: bool = False):
    """Per-replicate building blocks of the random-external Monte Carlo.

    Returns ``(de, t1e_j, power_j)``.  Draw order from the single stream
    (seed, 0): external means; then, in literal mode only, current means
    under theta0 and under theta1.  Literal mode draws each of those in
    blocks of ``statmath._BLOCK_ROWS``, which continue the stream exactly
    as one draw of all nsim would, and decides each block as it is drawn.
    """
    nsim = _check_count("nsim", nsim)
    thetaE = _check_finite("thetaE", thetaE)
    gen = RngStream(seed, 0).generator()
    de = gen.normal(thetaE, scen.seE, nsim)
    if not literal:
        return (de, *region_oc_arrays(scen, de, method))
    args = (scen.n, scen.sigma, scen.nE, scen.sigmaE, method)
    zc = norm_quantile(scen.c)
    t1e_j, power_j = np.empty(nsim), np.empty(nsim)
    for mu, out in ((scen.theta0, t1e_j), (scen.theta1, power_j)):
        for rows in _blocks(nsim):
            d = gen.normal(mu, scen.se, rows.stop - rows.start)
            mean, sd = posterior_arrays(d, de[rows], *args)
            out[rows] = (mean - scen.theta0) / sd > zc
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
    aB = _fsum(t1e_j) / nsim
    pb = _fsum(power_j) / nsim
    return OCPoint(aB, pb, power_calibrated(aB, scen))
