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
  the integrals of many offsets run as one lockstep batch
  (``statmath._integrate_batch``), each with the same value as alone, so
  a profile evaluates its requested offsets and the 401-point scan of its
  maximizer as one batch each, with at most ``_BATCH_NODES`` nodes per
  integrand call;
* random external data add an outer expectation over the external mean --
  closed-form again for fixed weights, an outer adaptive quadrature with a
  vectorized inner Gauss-Legendre rule for Empirical Bayes (batched over
  offsets in the same way, the inner-rule nodes of at most 256 external
  means per call), and a seeded
  Monte Carlo variant for audit.  The inner rule is one fused pass over its
  three segments per batch of external means; it skips segments clipped to
  zero width and serves the null and the alternative treatment means from
  the same nodes, density and threshold.  When nt > nc it cuts each segment
  into ceil(se_c/se_t) equal pieces, because the treatment-arm factor is
  then a step narrower than the control mean's spread.  The Monte Carlo
  rows do not integrate per draw: a draw's conditional rejection
  probability depends only on d = theta_c - e, so each run tabulates one
  curve R(d) as Chebyshev panels from one batch of inner-rule nodes and
  evaluates it at every (offset, draw).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .borrow import (BorrowingMethod, EMPIRICAL_BAYES, FIXED_POWER_PRIOR,
                     NO_BORROWING, posterior_arrays)
from .oc_onearm import OCPoint
from .scenarios import ScenarioTwoArm
# integrate and maximize_1d are no longer called here; the names stay for
# bench/tracing.py, which wraps oc_twoarm.integrate and oc_twoarm.maximize_1d
from .statmath import (DomainError, Interval, NonConvergenceError, RngStream,
                       _check_count, _check_finite, _cuts, _integrate_batch,
                       _maximize, integrate, maximize_1d, norm_cdf,
                       norm_quantile)  # noqa: F401

_INNER_GL_NODES = 40
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_INNER_GL_NODES)
_SATURATION = 1.0 - 1e-9
_SLOPE_PROBE = 1e-3
_MAX_DOMAIN = 1536.0
# nodes per integrand call of a batch of two-arm integrals: the inner-rule
# nodes of 256 external means (3 segments of 40 nodes each).  Bounds the
# temporaries of a 401-offset scan as _CURVE_CALL_ROWS bounds the curve's.
_BATCH_NODES = 256 * 3 * _INNER_GL_NODES
_WHOLE_LINE = Interval(-math.inf, math.inf)


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


def _threshold(mc, sc, zc: float, se_t: float):
    """Treatment-mean threshold tau of the test given the control
    posterior (mean mc, sd sc): it rejects when the treatment mean exceeds
    tau.  ``zc`` is the normal quantile of c, ``se_t`` the treatment arm's
    standard error."""
    return mc + zc * np.sqrt(se_t**2 + sc**2)


def reject_prob_two_arm(scen: ScenarioTwoArm, theta_c: float, theta_t: float,
                        dE_mean: float, method: BorrowingMethod, *,
                        engine: str = "auto",
                        tol: float = 1e-9) -> float | np.ndarray:
    """Rejection probability at true means (theta_c, theta_t) for one fixed
    external mean.

    ``engine="auto"`` uses the linear-Gaussian closed form for fixed
    weights and adaptive quadrature over the control mean for Empirical
    Bayes; ``"quadrature"`` forces the integral (cross-checking the closed
    form).  The three means broadcast against each other: arrays give an
    array of probabilities, one independent integral each, evaluated as
    one lockstep batch with the same values as one call per entry; scalars
    give a float.
    """
    if engine not in ("auto", "quadrature"):
        raise DomainError(f"unknown engine {engine!r}")
    means = [_check_finite(name, v) for name, v in
             (("theta_c", theta_c), ("theta_t", theta_t), ("dE_mean", dE_mean))]
    scalar = all(np.ndim(v) == 0 for v in means)
    if engine != "quadrature" and method.kind != EMPIRICAL_BAYES:
        out = _closed_fixed(scen, *means, _method_delta(method))
        return float(out) if scalar else out

    shape = np.broadcast_shapes(*(np.shape(v) for v in means))
    thc, tht, de = (np.broadcast_to(v, shape).ravel() for v in means)
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)

    def f(x, k):
        mc, sc = posterior_arrays(x, de[k], scen.nc, scen.sigma,
                                  scen.nE, scen.sigmaE, method)
        return (_norm_pdf(x, thc[k], se_c)
                * ndtr((tht[k] - _threshold(mc, sc, zc, se_t)) / se_t))

    r = math.sqrt(se_c**2 + scen.seE**2)
    eb = method.kind == EMPIRICAL_BAYES
    cuts = [_cuts(_WHOLE_LINE, (d - r, d + r) if eb else (), (c, se_c))
            for c, d in zip(thc.tolist(), de.tolist())]
    vals = _integrate_batch(f, cuts, tol, _BATCH_NODES)
    out = np.clip(vals, 0.0, 1.0).reshape(shape)
    return float(out) if scalar else out


def _profile_max(reject, offsets) -> tuple[float, float]:
    """Maximize the type-I-error profile ``reject(x, 0)`` over offsets x.

    Starts from the hull of [-6, 6] and the requested offsets; the upper
    end is doubled while the profile is still climbing there and has not
    saturated at 1 (within 1e-9), so a supremum approached in the limit is
    localized deterministically.  The 401-point scan of the maximizer is
    one batch; its polish is serial.  Returns (max, argmax).
    """
    lo = min(-6.0, float(min(offsets))) if len(offsets) else -6.0
    hi = max(6.0, float(max(offsets))) if len(offsets) else 6.0
    while True:
        end = reject(hi, 0.0)
        if end > _SATURATION or reject(hi - _SLOPE_PROBE, 0.0) >= end:
            break
        if hi >= _MAX_DOMAIN:
            raise NonConvergenceError(
                "type-I-error profile still climbing at offset "
                f"{hi}; maximization domain exhausted")
        hi *= 2.0
    xstar, amax = _maximize(lambda x: reject(x, 0.0),
                            lambda xs: reject(xs, 0.0), Interval(lo, hi))
    return min(amax, 1.0), xstar


def _profile(scen: ScenarioTwoArm, reject, offsets,
             power: bool = True) -> OCProfile:
    """Offset profile from ``reject(x, effect)``, the rejection probability
    with the control mean at offset x (a float or an array of offsets) and
    the treatment mean ``effect`` above it: the null rate per offset and
    its refined maximum (a requested offset beating that maximum by
    rounding wins, the smallest first), plus power at theta1 per offset
    and the calibrated comparator if ``power``.  The requested offsets are
    evaluated as one batch per effect.
    """
    offs = _check_finite("offsets", [float(x) for x in offsets])
    t1e = reject(offs, 0.0).tolist()
    offs = offs.tolist()
    amax, xstar = _profile_max(reject, offs)
    for x, v in zip(offs, t1e):
        if v > amax:
            amax, xstar = v, x
    if not power:
        return OCProfile(offs, t1e, amax, xstar)
    return OCProfile(offs, t1e, amax, xstar,
                     power_borrow=reject(np.asarray(offs), scen.theta1).tolist(),
                     power_calibrated=power_calibrated_two_arm(amax, scen))


def _fixed_reject(scen: ScenarioTwoArm, dE_mean: float,
                  method: BorrowingMethod):
    """``reject(x, effect)`` for a fixed external mean dE_mean."""
    dE_mean = _check_finite("dE_mean", dE_mean)

    def reject(x, effect):
        thc = dE_mean + np.asarray(x, dtype=float) * scen.sigma
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


@functools.cache
def _gl_pieces(m: int):
    """The inner Gauss-Legendre rule on [-1, 1] split into m equal pieces:
    (nodes, weights) of a 40m-node composite rule, read-only and built
    once per m; m = 1 gives the plain rule bit for bit."""
    shift = (2.0 * np.arange(m) + 1.0) / m - 1.0
    rule = (shift[:, None] + _GL_X / m).ravel(), np.tile(_GL_W / m, m)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _inner_reject_gl(scen: ScenarioTwoArm, e: np.ndarray, theta_c,
                     theta_ts, method: BorrowingMethod,
                     zc: float) -> np.ndarray:
    """Conditional rejection probabilities given each external mean in the
    1-D array ``e``, one row per treatment mean in ``theta_ts``,
    integrating over the control mean with a segmented Gauss-Legendre rule.
    The control mean ``theta_c`` and each treatment mean are a float or an
    array with one entry per external mean.

    Segment boundaries sit at e +- r (where the fitted weight stops
    saturating), clipped to the 8.5-sigma truncation window around the
    control mean's distribution; the integrand is smooth inside each
    segment.  Its treatment-arm factor is a step of width se_t in the
    control mean, so each segment is split into ceil(se_c/se_t) equal
    40-node pieces (one piece when nc >= nt).  Against adaptive quadrature
    at tol 1e-13 the rule agrees to 2e-13 when nt > nc (1.9e-13 at nc/nt =
    4/189, where one piece per segment erred by 1.8e-3) and to 7.5e-11 when
    nc >= nt; the worst rows have e more than 8.5 se_c + r from theta_c,
    where one 40-node segment spans the whole window.  All segments of all
    rows are evaluated in one pass; a segment clipped to zero width
    contributes exactly +0.0 and is skipped.
    The treatment means share the nodes, density and threshold.  ``zc`` is
    the normal quantile of c.
    """
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    gl_x, gl_w = _gl_pieces(math.ceil(se_c / se_t))
    lo = theta_c - 8.5 * se_c
    hi = theta_c + 8.5 * se_c
    r = math.sqrt(se_c**2 + scen.seE**2)
    ends = np.empty((e.shape[0], 4))
    ends[:, 0] = lo
    ends[:, 1] = np.clip(e - r, lo, hi)
    ends[:, 2] = np.clip(e + r, lo, hi)
    ends[:, 3] = hi
    half = 0.5 * np.maximum(ends[:, 1:] - ends[:, :-1], 0.0)
    live = half > 0.0                           # (row, segment) pairs

    def per_segment(v):
        """a float or one value per row -> a column, one per live segment"""
        return np.broadcast_to(np.reshape(v, (-1, 1)), live.shape)[live][:, None]

    h = half[live]
    mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
    x = mid[live][:, None] + h[:, None] * gl_x
    mc, sc = posterior_arrays(x, per_segment(e), scen.nc, scen.sigma, scen.nE,
                              scen.sigmaE, method)
    pdf = _norm_pdf(x, per_segment(theta_c), se_c)
    tau = _threshold(mc, sc, zc, se_t)
    seg = np.zeros((len(theta_ts),) + live.shape)
    for k, theta_t in enumerate(theta_ts):
        vals = pdf * ndtr((per_segment(theta_t) - tau) / se_t)
        seg[k][live] = h * (vals * gl_w).sum(axis=-1)
    # segment sums onto a zero total, lower, middle, upper
    return 0.0 + seg[..., 0] + seg[..., 1] + seg[..., 2]


def _random_reject(scen: ScenarioTwoArm, theta_c, theta_t, thetaE: float,
                   method: BorrowingMethod, engine: str, tol: float):
    """Rejection probabilities with the external mean random,
    N(thetaE, seE^2), at the control and treatment means ``theta_c`` and
    ``theta_t``: floats give a float, same-shape arrays an array,
    evaluated as one lockstep batch."""
    if engine != "quadrature" and method.kind != EMPIRICAL_BAYES:
        return _closed_fixed(scen, theta_c, theta_t, thetaE,
                             _method_delta(method), external_var=scen.seE**2)
    seE = scen.seE
    zc = norm_quantile(scen.c)
    thc, tht = np.ravel(theta_c), np.ravel(theta_t)

    def g(e, k):
        return (_norm_pdf(e, thetaE, seE)
                * _inner_reject_gl(scen, e, thc[k], (tht[k],), method, zc)[0])

    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    inner = 3 * _INNER_GL_NODES * math.ceil(se_c / se_t)
    cuts = _cuts(_WHOLE_LINE, (), (thetaE, seE))
    vals = _integrate_batch(g, [cuts] * thc.size, tol,
                            max(1, _BATCH_NODES // inner))
    out = np.clip(vals, 0.0, 1.0).reshape(np.shape(theta_c))
    return float(out) if out.ndim == 0 else out


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
    thetaE = _check_finite("thetaE", thetaE)

    def reject(x, effect):
        thc = thetaE + np.asarray(x, dtype=float) * scen.sigma
        return _random_reject(scen, thc, thc + effect, thetaE, method, engine,
                              tol)

    return _profile(scen, reject, offsets)


# the conditional rejection curve of the Monte Carlo rows: Chebyshev
# interpolants of degree 16 on panels of width min(se_c, se_t)
_CURVE_NODES = 17
_CHEB_ANGLES = math.pi * (np.arange(_CURVE_NODES) + 0.5) / _CURVE_NODES
_CHEB_X = np.cos(_CHEB_ANGLES)                  # first-kind nodes on [-1, 1]
# node values -> series coefficients (the constant term's weight halved)
_CHEB_FIT = (2.0 / _CURVE_NODES) * np.cos(
    np.outer(np.arange(_CURVE_NODES), _CHEB_ANGLES))
_CHEB_FIT[0] *= 0.5
# curve nodes per inner-rule call: one call for every run that needs at most
# 240 panels (the benchmark's needs about 35); bounds the temporaries of
# sampling sizes whose panels are narrow
_CURVE_CALL_ROWS = 4096


def _clenshaw(coef: np.ndarray, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Chebyshev series ``coef[:, idx]`` (one column per panel) evaluated at
    ``t`` in [-1, 1], elementwise."""
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    t2 = 2.0 * t
    for j in range(coef.shape[0] - 1, 0, -1):
        b1, b2 = coef[j][idx] + t2 * b1 - b2, b1
    return coef[0][idx] + t * b1 - b2


def _mc_conditional_rows(scen: ScenarioTwoArm, e: np.ndarray, theta_cs,
                         method: BorrowingMethod, zc: float):
    """Exact conditional rejection probabilities given each drawn external
    mean (the current-arm sampling replaced by its expectation): arrays
    ``(T, P)`` of shape (control mean, draw), the null with the treatment
    mean at each control mean in ``theta_cs`` and the alternative theta1
    above it.

    Under Empirical Bayes the probability depends on d = theta_c - e only,
    so every entry lies on one curve R(d).  It is tabulated on the panels
    [k w, (k+1) w), w = min(se_c, se_t), that some d falls in, as a
    degree-16 Chebyshev interpolant on 17 nodes; the nodes go through the
    inner rule at theta_c = 0, e = -d, which serves the null and the
    alternative together.  An entry depends only on its own d: not on the
    other draws, the other control means or the number of draws.
    """
    thcs = [float(thc) for thc in theta_cs]
    if method.kind != EMPIRICAL_BAYES:
        delta = _method_delta(method)
        return (np.array([_closed_fixed(scen, thc, thc, e, delta)
                          for thc in thcs], dtype=float),
                np.array([_closed_fixed(scen, thc, thc + scen.theta1, e, delta)
                          for thc in thcs], dtype=float))
    w = min(scen.sigma / math.sqrt(scen.nc), scen.sigma / math.sqrt(scen.nt))
    panels = np.unique(np.concatenate(
        [np.unique(np.floor((thc - e) / w)) for thc in thcs]))
    d = (w * (panels[:, None] + 0.5 + 0.5 * _CHEB_X)).ravel()
    vals = np.empty((2, d.shape[0]))
    for start in range(0, d.shape[0], _CURVE_CALL_ROWS):
        sl = slice(start, start + _CURVE_CALL_ROWS)
        vals[:, sl] = _inner_reject_gl(scen, -d[sl], 0.0, (0.0, scen.theta1),
                                       method, zc)
    # per-panel sums, not a matrix product: a panel's coefficients must not
    # depend on how many other panels there are
    coef = [(v.reshape(-1, 1, _CURVE_NODES) * _CHEB_FIT).sum(axis=-1).T
            for v in vals]
    T = np.empty((len(thcs), e.shape[0]))
    P = np.empty_like(T)
    for o, thc in enumerate(thcs):
        u = (thc - e) / w
        k = np.floor(u)
        idx = np.searchsorted(panels, k)
        t = 2.0 * (u - k) - 1.0
        T[o] = _clenshaw(coef[0], idx, t)
        P[o] = _clenshaw(coef[1], idx, t)
    return np.clip(T, 0.0, 1.0), np.clip(P, 0.0, 1.0)


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
    nsim = _check_count("nsim", nsim)
    thetaE = _check_finite("thetaE", thetaE)
    offs = _check_finite("offsets", [float(x) for x in offsets]).tolist()
    e = RngStream(seed, 0).generator().normal(thetaE, scen.seE, nsim)
    thcs = [float(thetaE) + x * scen.sigma for x in offs]
    zc = norm_quantile(scen.c)
    if not literal:
        T, P = _mc_conditional_rows(scen, e, thcs, method, zc)
        return e, T, P
    T = np.empty((len(offs), nsim))
    P = np.empty((len(offs), nsim))
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    for o, thc in enumerate(thcs):
        gen = RngStream(seed, o + 1).generator()
        dc0 = gen.normal(thc, se_c, nsim)
        dt0 = gen.normal(thc, se_t, nsim)
        dc1 = gen.normal(thc, se_c, nsim)
        dt1 = gen.normal(thc + scen.theta1, se_t, nsim)
        for dc, dt, out in ((dc0, dt0, T), (dc1, dt1, P)):
            mc, sc = posterior_arrays(dc, e, scen.nc, scen.sigma,
                                      scen.nE, scen.sigmaE, method)
            out[o] = (dt > _threshold(mc, sc, zc, se_t)).astype(float)
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
