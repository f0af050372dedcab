"""Operating characteristics of the two-arm hybrid-control borrowing test.

External data augment the control arm only; the treatment arm always gets a
flat prior.  The test rejects when the posterior probability of a positive
treatment effect exceeds the threshold c.  Because the null hypothesis
``theta_t <= theta_c`` is composite with a free control mean, the type I
error rate is a *profile* over the standardized control-vs-external offset
``x = (theta_c - dE_mean)/sigma``, and the reported level is its maximum
over x.

Engines:

* fixed weights (and no borrowing) reduce to a single normal probability --
  the test statistic is linear in the jointly Gaussian sample means;
* Empirical Bayes weights require one adaptive quadrature over the control
  mean, split at the two points where the fitted weight stops saturating;
* random external data add an outer expectation over the external mean --
  closed-form again for fixed weights, an outer adaptive quadrature with a
  vectorized inner Gauss-Legendre rule for Empirical Bayes, and a seeded
  Monte Carlo variant for audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .borrow import (BorrowingMethod, EMPIRICAL_BAYES, FIXED_POWER_PRIOR,
                     NO_BORROWING, posterior_arrays)
from .oc_onearm import OCPoint
from .scenarios import ScenarioTwoArm
from .statmath import (DomainError, Interval, NonConvergenceError, RngStream,
                       integrate, maximize_1d, norm_cdf, norm_quantile)

_INNER_GL_NODES = 40
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_INNER_GL_NODES)
_SATURATION = 1.0 - 1e-9
_SLOPE_PROBE = 1e-3
_MAX_DOMAIN = 1536.0


@dataclass(frozen=True)
class OCProfile:
    """Profiles over standardized offsets x = (theta_c - external mean)/sigma.

    ``t1e[i]`` is the null rejection rate at offset ``grid[i]``;
    ``alphaB_max``/``argmax_offset`` locate its maximum over a refined
    search.  Power fields are ``None`` for pure type-I-error profiles;
    ``power_calibrated`` is a single number because the comparator's power
    does not depend on the control mean.
    """

    grid: tuple
    t1e: tuple
    alphaB_max: float
    argmax_offset: float
    power_borrow: tuple | None = None
    power_calibrated: float | None = None
    power_diff: tuple | None = None

    def __post_init__(self) -> None:
        grid = tuple(float(x) for x in self.grid)
        t1e = tuple(float(v) for v in self.t1e)
        if len(grid) != len(t1e):
            raise DomainError("grid and t1e must have equal length")
        for v in t1e:
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"t1e entry out of [0, 1]: {v!r}")
        amax = float(self.alphaB_max)
        if not 0.0 <= amax <= 1.0:
            raise DomainError(f"alphaB_max out of [0, 1]: {amax!r}")
        if t1e and amax < max(t1e) - 1e-12:
            raise DomainError("alphaB_max below a grid t1e value")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "t1e", t1e)
        object.__setattr__(self, "alphaB_max", amax)
        object.__setattr__(self, "argmax_offset", float(self.argmax_offset))
        if self.power_borrow is not None:
            pb = tuple(float(v) for v in self.power_borrow)
            if len(pb) != len(grid):
                raise DomainError("power_borrow length must match grid")
            for v in pb:
                if not 0.0 <= v <= 1.0:
                    raise DomainError(f"power_borrow entry out of [0, 1]: {v!r}")
            pc = float(self.power_calibrated)
            if not 0.0 <= pc <= 1.0:
                raise DomainError(f"power_calibrated out of [0, 1]: {pc!r}")
            object.__setattr__(self, "power_borrow", pb)
            object.__setattr__(self, "power_calibrated", pc)
            if self.power_diff is None:
                object.__setattr__(self, "power_diff",
                                   tuple(v - pc for v in pb))
            else:
                object.__setattr__(self, "power_diff",
                                   tuple(float(v) for v in self.power_diff))


def power_calibrated_two_arm(alphaB: float, scen: ScenarioTwoArm) -> float:
    """Power at effect theta1 of the two-sample z-test run at level alphaB
    (no borrowing); independent of the control mean."""
    alphaB = float(alphaB)
    if not 0.0 <= alphaB <= 1.0:
        raise DomainError(f"alphaB must lie in [0, 1], got {alphaB!r}")
    ses = scen.sigma * math.sqrt(1.0 / scen.nt + 1.0 / scen.nc)
    return norm_cdf(scen.theta1 / ses + norm_quantile(alphaB))


def _method_delta(method: BorrowingMethod) -> float:
    return method.delta if method.kind == FIXED_POWER_PRIOR else 0.0


def _closed_fixed(scen: ScenarioTwoArm, theta_c, theta_t, dE_mean,
                  delta: float, external_var: float = 0.0):
    """Rejection probability with a fixed borrowing weight: the statistic
    d_t - w d_c - wE d_E is Gaussian, so one Phi evaluation suffices.
    ``external_var`` > 0 additionally averages over a random external mean
    with that variance (still Gaussian, still closed-form)."""
    a = delta * scen.nE / scen.sigmaE**2
    b = scen.nc / scen.sigma**2
    w = b / (a + b)
    wE = a / (a + b)
    zc = norm_quantile(scen.c)
    thr = zc * math.sqrt(scen.sigma**2 / scen.nt + 1.0 / (a + b))
    s2 = (scen.sigma**2 / scen.nt + w**2 * scen.sigma**2 / scen.nc
          + wE**2 * external_var)
    arg = (np.asarray(theta_t, float) - w * np.asarray(theta_c, float)
           - wE * np.asarray(dE_mean, float) - thr) / math.sqrt(s2)
    return norm_cdf(arg)


def _norm_pdf(x, mu, sd):
    z = (x - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def _conditional_reject(scen: ScenarioTwoArm, x, dE_mean,
                        method: BorrowingMethod, theta_t):
    """P(reject | control mean = x, external mean = dE_mean) at treatment
    mean theta_t: the treatment mean must exceed the posterior-derived
    threshold tau(x)."""
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    mc, sc = posterior_arrays(x, dE_mean, scen.nc, scen.sigma,
                              scen.nE, scen.sigmaE, method)
    tau = mc + zc * np.sqrt(se_t**2 + sc**2)
    return ndtr((np.asarray(theta_t, float) - tau) / se_t)


def reject_prob_two_arm(scen: ScenarioTwoArm, theta_c: float, theta_t: float,
                        dE_mean: float, method: BorrowingMethod, *,
                        engine: str = "auto", tol: float = 1e-9) -> float:
    """Rejection probability at true means (theta_c, theta_t) for one fixed
    external mean.

    ``engine="auto"`` uses the linear-Gaussian closed form for fixed
    weights and adaptive quadrature over the control mean for Empirical
    Bayes; ``"quadrature"`` forces the integral (cross-checking the closed
    form), ``"closed"`` forces the closed form (fixed weights only).
    """
    if engine not in ("auto", "quadrature", "closed"):
        raise DomainError(f"unknown engine {engine!r}")
    if engine != "quadrature" and method.kind != EMPIRICAL_BAYES:
        return float(_closed_fixed(scen, theta_c, theta_t, dE_mean,
                                   _method_delta(method)))
    if engine == "closed":
        raise DomainError("no closed form under empirical-Bayes weighting")

    se_c = scen.sigma / math.sqrt(scen.nc)

    def f(x):
        return (_norm_pdf(x, theta_c, se_c)
                * _conditional_reject(scen, x, dE_mean, method, theta_t))

    breakpoints = ()
    if method.kind == EMPIRICAL_BAYES:
        r = math.sqrt(se_c**2 + scen.seE**2)
        breakpoints = (dE_mean - r, dE_mean + r)
    val = integrate(f, Interval(-math.inf, math.inf), abs_tol=tol,
                    breakpoints=breakpoints, gaussian_hint=(theta_c, se_c))
    return min(max(val, 0.0), 1.0)


def _profile_max(f, offsets) -> tuple[float, float]:
    """Maximize a type-I-error profile f over offsets.

    Starts from the hull of [-6, 6] and the requested offsets; the upper
    end is doubled while the profile is still climbing there and has not
    saturated at 1 (within 1e-9), so a supremum approached in the limit is
    localized deterministically.  Returns (max, argmax).
    """
    lo = min(-6.0, float(min(offsets))) if len(offsets) else -6.0
    hi = max(6.0, float(max(offsets))) if len(offsets) else 6.0
    while True:
        end = f(hi)
        if end > _SATURATION or f(hi - _SLOPE_PROBE) >= end:
            break
        if hi >= _MAX_DOMAIN:
            raise NonConvergenceError(
                "type-I-error profile still climbing at offset "
                f"{hi}; maximization domain exhausted")
        hi *= 2.0
    xstar, amax = maximize_1d(f, Interval(lo, hi))
    return min(amax, 1.0), xstar


def _profile(scen: ScenarioTwoArm, reject, offsets,
             power: bool = True) -> OCProfile:
    """Offset profile from ``reject(x, effect)``, the rejection probability
    with the control mean at offset x and the treatment mean ``effect``
    above it: the null rate per offset and its refined maximum (a requested
    offset beating that maximum by rounding wins, the smallest first), plus
    power at theta1 per offset and the calibrated comparator if ``power``.
    """
    offs = tuple(float(x) for x in offsets)
    t1e = tuple(reject(x, 0.0) for x in offs)
    amax, xstar = _profile_max(lambda x: reject(x, 0.0), offs)
    for x, v in zip(offs, t1e):
        if v > amax:
            amax, xstar = v, x
    if not power:
        return OCProfile(offs, t1e, amax, xstar)
    return OCProfile(offs, t1e, amax, xstar,
                     power_borrow=tuple(reject(x, scen.theta1) for x in offs),
                     power_calibrated=power_calibrated_two_arm(amax, scen))


def _fixed_reject(scen: ScenarioTwoArm, dE_mean: float,
                  method: BorrowingMethod):
    """``reject(x, effect)`` for a fixed external mean dE_mean."""
    def reject(x, effect):
        thc = dE_mean + x * scen.sigma
        return reject_prob_two_arm(scen, thc, thc + effect, dE_mean, method)
    return reject


def t1e_profile(scen: ScenarioTwoArm, dE_mean: float,
                method: BorrowingMethod, offsets) -> OCProfile:
    """Null rejection rate at theta_c = theta_t = dE_mean + x*sigma for each
    offset x, with the maximized level and its location."""
    return _profile(scen, _fixed_reject(scen, dE_mean, method), offsets,
                    power=False)


def power_profile(scen: ScenarioTwoArm, dE_mean: float,
                  method: BorrowingMethod, offsets) -> OCProfile:
    """Full profile: null rejection rate and power (at effect theta1) per
    offset, plus the comparator calibrated to the maximized level."""
    return _profile(scen, _fixed_reject(scen, dE_mean, method), offsets)


def oc_fixed_external_two_arm(scen: ScenarioTwoArm, dE_mean: float,
                              method: BorrowingMethod) -> OCPoint:
    """Point characteristics for one external mean: the maximized null
    rejection rate, the power at effect theta1 with the control mean at
    that maximizing offset, and the comparator calibrated to the maximum."""
    reject = _fixed_reject(scen, dE_mean, method)
    prof = _profile(scen, reject, (), power=False)
    return OCPoint(prof.alphaB_max, reject(prof.argmax_offset, scen.theta1),
                   power_calibrated_two_arm(prof.alphaB_max, scen))


# ---------------------------------------------------------------------------
# random external data


def _inner_reject_gl(scen: ScenarioTwoArm, e: np.ndarray, theta_c: float,
                     theta_t: float, method: BorrowingMethod) -> np.ndarray:
    """Conditional rejection probability given each external mean in ``e``,
    integrating over the control mean with a segmented Gauss-Legendre rule.

    Segment boundaries sit at e +- r (where the fitted weight stops
    saturating), clipped to the 8.5-sigma truncation window around the
    control mean's distribution; the integrand is smooth inside each
    segment, so the fixed rule is effectively exact.
    """
    se_c = scen.sigma / math.sqrt(scen.nc)
    lo = theta_c - 8.5 * se_c
    hi = theta_c + 8.5 * se_c
    r = math.sqrt(se_c**2 + scen.seE**2)
    b1 = np.clip(e - r, lo, hi)
    b2 = np.clip(e + r, lo, hi)
    total = np.zeros(e.shape, dtype=float)
    for a, b in ((np.full_like(e, lo), b1), (b1, b2), (b2, np.full_like(e, hi))):
        half = 0.5 * np.maximum(b - a, 0.0)
        mid = 0.5 * (a + b)
        x = mid[..., None] + half[..., None] * _GL_X
        vals = (_norm_pdf(x, theta_c, se_c)
                * _conditional_reject(scen, x, e[..., None], method, theta_t))
        total += half * (vals * _GL_W).sum(axis=-1)
    return total


def _random_reject(scen: ScenarioTwoArm, theta_c: float, theta_t: float,
                   thetaE: float, method: BorrowingMethod, engine: str,
                   tol: float) -> float:
    """Rejection probability with the external mean random, N(thetaE, seE^2)."""
    if engine != "quadrature" and method.kind != EMPIRICAL_BAYES:
        return float(_closed_fixed(scen, theta_c, theta_t, thetaE,
                                   _method_delta(method),
                                   external_var=scen.seE**2))
    seE = scen.seE

    def g(e):
        e = np.asarray(e, dtype=float)
        return (_norm_pdf(e, thetaE, seE)
                * _inner_reject_gl(scen, e, theta_c, theta_t, method))

    val = integrate(g, Interval(-math.inf, math.inf), abs_tol=tol,
                    gaussian_hint=(thetaE, seE))
    return min(max(val, 0.0), 1.0)


def oc_random_external_two_arm(scen: ScenarioTwoArm, thetaE: float,
                               method: BorrowingMethod, offsets,
                               tol: float = 1e-9, *,
                               engine: str = "auto") -> OCProfile:
    """Profile with the external mean integrated out, N(thetaE, sigmaE^2/nE).

    Offsets are standardized against thetaE: theta_c = thetaE + x*sigma.
    Produces the averaged null rejection rate per offset, its maximized
    value over offsets, the averaged power, and the comparator calibrated
    to the maximized averaged level.
    """
    if engine not in ("auto", "quadrature"):
        raise DomainError(f"unknown engine {engine!r}")

    def reject(x, effect):
        thc = thetaE + x * scen.sigma
        return _random_reject(scen, thc, thc + effect, thetaE, method, engine,
                              tol)

    return _profile(scen, reject, offsets)


_MC_CHUNK = 4096


def _mc_conditional_rows(scen: ScenarioTwoArm, e: np.ndarray, theta_c: float,
                         theta_t: float, method: BorrowingMethod) -> np.ndarray:
    """Exact conditional rejection probabilities given each drawn external
    mean (the current-arm sampling replaced by its expectation)."""
    if method.kind != EMPIRICAL_BAYES:
        return np.asarray(_closed_fixed(scen, theta_c, theta_t, e,
                                        _method_delta(method)), dtype=float)
    out = np.empty(e.shape, dtype=float)
    for start in range(0, e.shape[0], _MC_CHUNK):
        sl = slice(start, min(start + _MC_CHUNK, e.shape[0]))
        out[sl] = _inner_reject_gl(scen, e[sl], theta_c, theta_t, method)
    return np.clip(out, 0.0, 1.0)


def _random_two_arm_mc_grids(scen: ScenarioTwoArm, thetaE: float,
                             method: BorrowingMethod, offsets, nsim: int,
                             seed: int, literal: bool = False):
    """Per-replicate Monte Carlo building blocks of the random-external
    two-arm run.

    Returns ``(e, T, P)``: the external-mean draws and the
    (offset, replicate) arrays of null/power contributions.  External means
    come from stream (seed, 0); literal mode draws, per offset index o from
    stream (seed, o+1): control and treatment means under the null, then
    under the alternative, and records raw 0/1 decisions.
    """
    if nsim < 1:
        raise DomainError(f"nsim must be >= 1, got {nsim!r}")
    offs = tuple(float(x) for x in offsets)
    e = RngStream(seed, 0).generator().normal(float(thetaE), scen.seE, nsim)
    T = np.empty((len(offs), nsim))
    P = np.empty((len(offs), nsim))
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    for o, x in enumerate(offs):
        thc = float(thetaE) + x * scen.sigma
        if literal:
            gen = RngStream(seed, o + 1).generator()
            dc0 = gen.normal(thc, se_c, nsim)
            dt0 = gen.normal(thc, se_t, nsim)
            dc1 = gen.normal(thc, se_c, nsim)
            dt1 = gen.normal(thc + scen.theta1, se_t, nsim)
            for dc, dt, out in ((dc0, dt0, T), (dc1, dt1, P)):
                mc, sc = posterior_arrays(dc, e, scen.nc, scen.sigma,
                                          scen.nE, scen.sigmaE, method)
                tau = mc + zc * np.sqrt(se_t**2 + sc**2)
                out[o] = (dt > tau).astype(float)
        else:
            T[o] = _mc_conditional_rows(scen, e, thc, thc, method)
            P[o] = _mc_conditional_rows(scen, e, thc, thc + scen.theta1, method)
    return e, T, P


def oc_random_external_two_arm_mc(scen: ScenarioTwoArm, thetaE: float,
                                  method: BorrowingMethod, offsets,
                                  nsim: int, seed: int, *,
                                  literal: bool = False) -> OCProfile:
    """Monte Carlo counterpart of :func:`oc_random_external_two_arm`.

    The maximized level is the maximum over the *requested* offsets (grid
    maximum): refining a noisy Monte Carlo curve between grid points is not
    meaningful.  Deterministic for a given seed.
    """
    offs = tuple(float(x) for x in offsets)
    if not offs:
        raise DomainError("offsets must be non-empty")
    _, T, P = _random_two_arm_mc_grids(scen, thetaE, method, offs, nsim,
                                       seed, literal)
    t1e = [math.fsum(T[o]) / nsim for o in range(len(offs))]
    power = [math.fsum(P[o]) / nsim for o in range(len(offs))]
    k = int(np.argmax(t1e))
    return OCProfile(offs, t1e, t1e[k], offs[k], power_borrow=power,
                     power_calibrated=power_calibrated_two_arm(t1e[k], scen))
