"""Operating characteristics of the two-arm hybrid-control borrowing test.

External data augment the control arm only; the treatment arm always gets a
flat prior.  The test rejects when the posterior probability of a positive
treatment effect exceeds the threshold c.  Because the null hypothesis
``theta_t <= theta_c`` is composite with a free control mean, the type I
error rate is a *profile* over the standardized control-vs-external offset
``x = (theta_c - dE_mean)/sigma``, and the reported level is its maximum
over x.

Exact engines:

* fixed weights (and no borrowing) reduce to a single normal probability --
  the test statistic is linear in the jointly Gaussian sample means;
* Empirical Bayes weights require one adaptive quadrature over the control
  mean, split at the two points where the fitted weight stops saturating
  (and graded into the threshold's cusp just past them where that cusp is
  much narrower than se_c), one integral (``statmath._integrate``) per
  entry of an array call;
* random external data add an outer expectation over the external mean --
  closed-form again for fixed weights, an outer adaptive quadrature (one
  per entry) with a vectorized inner Gauss-Legendre rule for Empirical
  Bayes, and a seeded Monte Carlo variant for audit.  The inner rule is
  one fused pass over its three segments per batch of external means that
  skips segments clipped to zero width.  When nt > nc it cuts each segment
  into ceil(se_c/se_t) equal pieces, because the treatment-arm factor is
  then a step narrower than the control mean's spread.  The Monte Carlo
  rows do not integrate per draw: a draw's conditional rejection
  probability depends only on d = theta_c - e, so each run tabulates one
  curve R(d) as Chebyshev panels from one u-line kernel call and evaluates
  it at the draws one offset at a time.  Each offset's rows are reduced to
  their means as they come, so a run holds the rows of two offsets, not of
  all of them.

``_BATCH_NODES`` is the one node budget of the u-line kernel's node
arrays and the nested quadrature's integrand calls.

The reported level is the maximum of the null profile over the offset: a
401-point scan brackets it and a golden-section polish refines it.  Under
Empirical Bayes, with the external mean fixed or random, the u-line kernel
:func:`_uline_reject` reports every profile value: the requested offsets,
the power, the scan and the checks that stop the search domain.  The EB
weight depends only on u = control mean - external mean, so each rejection
probability is one Gaussian integral over u.  The exact engines make the
polish's scalar calls, so the maximum and its location are theirs; with one
panel plan (``statmath._integrate``) per scenario, method and tolerance,
each integral after the first makes one integrand call.  With
``engine="quadrature"`` they give every value of a random-external
profile, as a cross-check of the kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .borrow import (BorrowingMethod, EMPIRICAL_BAYES, FIXED_POWER_PRIOR,
                     NO_BORROWING, posterior_arrays)
from .oc_onearm import OCPoint, _z_power
from .scenarios import ScenarioTwoArm
# integrate and maximize_1d are no longer called here; the names stay for
# bench/tracing.py, which wraps oc_twoarm.integrate and oc_twoarm.maximize_1d
from .statmath import (_GAUSS_TRUNC, DomainError, Interval,
                       NonConvergenceError, RngStream, _check_count,
                       _check_finite, _check_positive, _check_probability,
                       _cuts, _fsum, _integrate, _maximize, integrate,
                       maximize_1d, norm_cdf, norm_quantile)  # noqa: F401

_INNER_GL_NODES = 40
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_INNER_GL_NODES)
_SATURATION = 1.0 - 1e-9
_SLOPE_PROBE = 1e-3
_MAX_DOMAIN = 1536.0
# the one node budget of the two-arm arrays (module docstring), sized as
# the inner-rule nodes of 256 external means (3 segments of 40)
_BATCH_NODES = 256 * 3 * _INNER_GL_NODES
_WHOLE_LINE = Interval(-math.inf, math.inf)
# quadrature tolerance of the fixed-external profiles
_FIXED_TOL = 1e-9


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
        t1e = tuple(_check_probability("t1e", list(self.t1e)).tolist())
        if len(grid) != len(t1e):
            raise DomainError("grid and t1e must have equal length")
        amax = _check_probability("alphaB_max", self.alphaB_max)
        if t1e and amax < max(t1e) - 1e-12:
            raise DomainError("alphaB_max below a grid t1e value")
        checked = {"grid": grid, "t1e": t1e, "alphaB_max": amax,
                   "argmax_offset": float(self.argmax_offset)}
        if self.power_borrow is None:
            if (self.power_calibrated is not None
                    or self.power_diff is not None):
                raise DomainError("power_calibrated and power_diff require "
                                  "power_borrow")
        else:
            pb = tuple(_check_probability("power_borrow",
                                          list(self.power_borrow)).tolist())
            if len(pb) != len(grid):
                raise DomainError("power_borrow length must match grid")
            if self.power_calibrated is None:
                raise DomainError("power_borrow requires power_calibrated")
            pc = _check_probability("power_calibrated", self.power_calibrated)
            diff = (tuple(v - pc for v in pb) if self.power_diff is None
                    else tuple(float(v) for v in self.power_diff))
            if len(diff) != len(grid):
                raise DomainError("power_diff length must match grid")
            checked.update(power_borrow=pb, power_calibrated=pc,
                           power_diff=diff)
        for name, v in checked.items():
            object.__setattr__(self, name, v)


def power_calibrated_two_arm(alphaB: float, scen: ScenarioTwoArm) -> float:
    """Power at effect theta1 of the two-sample z-test run at level alphaB
    (no borrowing); independent of the control mean."""
    ses = scen.sigma * math.sqrt(1.0 / scen.nt + 1.0 / scen.nc)
    return _z_power(scen.theta1 / ses, alphaB)


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


def _check_engine(engine: str, tol) -> float:
    """``tol`` checked finite and positive; ``engine`` must be "auto" or
    "quadrature"."""
    tol = _check_positive("tol", tol)
    if engine not in ("auto", "quadrature"):
        raise DomainError(f"unknown engine {engine!r}")
    return tol


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
    array of probabilities, one adaptive integral per entry, each equal to
    its scalar call; scalars give a float.  ``tol`` must be finite and
    positive whichever engine runs.
    """
    tol = _check_engine(engine, tol)
    means = [_check_finite(name, v) for name, v in
             (("theta_c", theta_c), ("theta_t", theta_t), ("dE_mean", dE_mean))]
    scalar = all(np.ndim(v) == 0 for v in means)
    if engine != "quadrature" and method.kind != EMPIRICAL_BAYES:
        out = _closed_fixed(scen, *means, _method_delta(method))
        return float(out) if scalar else out

    shape = np.broadcast_shapes(*(np.shape(v) for v in means))
    thc, tht, de = (np.broadcast_to(v, shape).ravel().tolist() for v in means)
    vals = list(map(_fixed_engine(scen, method, tol), thc, tht, de))
    out = np.clip(vals, 0.0, 1.0).reshape(shape)
    return float(out) if scalar else out


@functools.lru_cache(maxsize=16)
def _fixed_engine(scen: ScenarioTwoArm, method: BorrowingMethod, tol: float):
    """``reject(c, t, d)`` of :func:`reject_prob_two_arm`, its constants
    worked out once and one panel plan kept (module docstring)."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    dist = (_cusp_cuts(scen, se_c) if method.kind == EMPIRICAL_BAYES
            else np.empty(0))
    # a cusp more than 8 times narrower than se_c (two grades or more)
    # escapes the error estimate; a wider one needs only the cuts at +-r
    if dist.size < 3:
        dist = dist[:1]
    plan = []

    def reject(c, t, d):
        def f(x):
            mc, sc = posterior_arrays(x, d, scen.nc, scen.sigma,
                                      scen.nE, scen.sigmaE, method)
            return (_norm_pdf(x, c, se_c)
                    * ndtr((t - _threshold(mc, sc, zc, se_t)) / se_t))
        cuts = _cuts(_WHOLE_LINE, np.concatenate([d - dist, d + dist]),
                     (c, se_c))
        return _integrate(f, cuts, tol, _BATCH_NODES, plan)
    return reject


def _cusp_cuts(scen: ScenarioTwoArm, width: float) -> np.ndarray:
    """Distances from the external mean at which the panels of an Empirical
    Bayes rejection integral end: r = sqrt(se_c^2 + seE^2), where the
    fitted weight stops saturating, then r + width/8^k, k = 1, 2, ..., down
    to eps = (se_t^2 + se_c^2 seE^2/r^2) r^3/(2 se_c^4).  Just past r the
    threshold varies like sqrt(eps + |u| - r), a cusp far narrower than
    se_c when nE is large and nt >> nc."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    r = math.sqrt(se_c**2 + scen.seE**2)
    eps = (se_t**2 + (se_c * scen.seE / r) ** 2) * r**3 / (2.0 * se_c**4)
    grade = max(0, math.ceil(math.log(width / eps, 8.0)))
    return np.concatenate([[r], r + width * 8.0 ** -np.arange(1, grade + 1)])


def _uline_reject(scen: ScenarioTwoArm, theta_c, theta_t, e_mean: float,
                  e_var: float, method: BorrowingMethod) -> np.ndarray:
    """Empirical Bayes rejection probabilities at the control and treatment
    means ``theta_c`` and ``theta_t`` (same-shape arrays) with the external
    mean N(e_mean, e_var) (``e_var`` = 0: fixed at e_mean), as one integral
    each over u = control mean - external mean.  ``theta_t`` may also stack
    several such arrays on a leading axis, one row of results each: the
    rows share the nodes, density and threshold, and each equals its own
    call bit for bit.  Besides every EB profile value, the kernel gives the
    node values of the Monte Carlo curve (:func:`_mc_conditional_rows`).

    The test rejects when S = treatment mean - external mean exceeds h(u),
    the threshold from ``posterior_arrays(u, 0, ...)``, because the fitted
    weight depends on u alone.  u ~ N(mu_u, s_u^2) with mu_u = theta_c -
    e_mean and s_u^2 = se_c^2 + e_var, and given u, S is Gaussian with mean
    m(u) = theta_t - e_mean + (e_var/s_u^2)(u - mu_u) and variance s^2 =
    se_t^2 + se_c^2 e_var/s_u^2, so each probability is
    E[Phi((m(u) - h(u))/s)].

    The rule: 40-node Gauss-Legendre panels on mu_u +- 8.5 s_u, none wider
    than width = 4 min(s, s_u), so that both the density and the Phi factor
    are resolved, split at +-:func:`_cusp_cuts` of that width: the panels
    shrink by factors of 8 into the threshold's cusp past +-r.  Over
    seeded fuzzes the values lie within 1e-13 of cusp-aware quadrature at
    tol 1e-13 for a fixed external mean (``tests/test_uline.py``), and
    within 1e-10 of the nested engine at tol 1e-12 for a random one
    (``tests/test_twoarm_quadrature.py::TestKernelAgainstQuadrature::
    test_random_external_mean``).
    Offsets go in chunks, and no node array holds more than
    ``_BATCH_NODES`` elements.
    """
    se_c2 = scen.sigma**2 / scen.nc
    se_t = scen.sigma / math.sqrt(scen.nt)
    s_u2 = se_c2 + e_var
    s_u = math.sqrt(s_u2)
    gain = e_var / s_u2                 # slope of m(u)
    s = math.sqrt(se_t**2 + se_c2 * gain)
    zc = norm_quantile(scen.c)
    width = 4.0 * min(s, s_u)
    cuts = _cusp_cuts(scen, width)
    cuts = np.concatenate([-cuts, cuts])
    n_equal = math.ceil(2.0 * _GAUSS_TRUNC * s_u / width)
    grid = np.linspace(-_GAUSS_TRUNC * s_u, _GAUSS_TRUNC * s_u, n_equal + 1)
    panels = n_equal + cuts.size
    rows = max(1, _BATCH_NODES // (_INNER_GL_NODES * panels))
    step = min(panels, _BATCH_NODES // _INNER_GL_NODES)
    mu = np.ravel(theta_c) - e_mean
    lead = np.shape(theta_t)[:np.ndim(theta_t) - np.ndim(theta_c)]
    m0 = np.reshape(theta_t, (math.prod(lead), mu.size)) - e_mean
    out = np.zeros(m0.shape)
    for start in range(0, mu.size, rows):
        sl = slice(start, start + rows)
        mid = mu[sl, None]
        split = np.clip(cuts, mid + grid[0], mid + grid[-1])
        edges = np.sort(np.concatenate([mid + grid, split], axis=1), axis=1)
        half = 0.5 * np.diff(edges, axis=1)
        centre = edges[:, :-1] + half
        for p in range(0, panels, step):
            ps = slice(p, p + step)
            u = centre[:, ps, None] + half[:, ps, None] * _GL_X
            mc, sc = posterior_arrays(u, 0.0, scen.nc, scen.sigma, scen.nE,
                                      scen.sigmaE, method)
            z = (u - mid[..., None]) / s_u
            tau = _threshold(mc, sc, zc, se_t)
            pdf, slope = np.exp(-0.5 * z * z), gain * s_u * z
            for k, row in enumerate(m0):
                vals = pdf * ndtr((row[sl, None, None] + slope - tau) / s)
                out[k, sl] += (half[:, ps] * (vals @ _GL_W)).sum(axis=1)
    out /= s_u * math.sqrt(2.0 * math.pi)
    return np.clip(out, 0.0, 1.0).reshape(np.shape(theta_t))


def _offset_engines(scen: ScenarioTwoArm, e_mean: float, e_var: float,
                    method: BorrowingMethod, engine: str, tol: float):
    """``(exact, values)``: two ways to compute ``f(x, effect)``, the
    rejection probability with the external mean N(e_mean, e_var)
    (``e_var`` = 0: fixed at e_mean), the control mean at offset x (a float
    or an array) and the treatment mean ``effect`` above it.

    ``exact`` is the adaptive quadrature at ``tol``: over the control mean
    for a fixed external mean, nested over the external mean for a random
    one.  ``values`` is the u-line kernel :func:`_uline_reject` under
    Empirical Bayes and ``exact`` itself with ``engine="quadrature"``.
    Fixed weights and no borrowing use the closed form for both.
    """
    def means(x, effect):
        thc = e_mean + np.asarray(x, dtype=float) * scen.sigma
        return thc, thc + effect

    if engine != "quadrature" and method.kind != EMPIRICAL_BAYES:
        def closed(x, effect):
            return _closed_fixed(scen, *means(x, effect), e_mean,
                                 _method_delta(method), external_var=e_var)
        return closed, closed

    def exact(x, effect):
        if e_var == 0.0:
            return reject_prob_two_arm(scen, *means(x, effect), e_mean,
                                       method, engine=engine, tol=tol)
        return _random_reject(scen, *means(x, effect), e_mean, method, tol)

    def kernel(x, effect):
        return _uline_reject(scen, *means(x, effect), e_mean, e_var, method)
    return exact, exact if engine == "quadrature" else kernel


def _profile_max(exact, values, offsets) -> tuple[float, float]:
    """Maximize the type-I-error profile over offsets x: ``values(x, 0)``
    scans it and ``exact(x, 0)`` polishes (see :func:`_offset_engines`).

    Starts from the hull of [-6, 6] and the requested offsets; the upper
    end is doubled while ``values`` still climbs there and has not
    saturated at 1 (within 1e-9), so a supremum approached in the limit is
    localized deterministically.  The 401-point scan is one ``values``
    call; the golden-section polish in its best cell makes scalar
    ``exact`` calls, and its value is the maximum unless a scanned value
    beats it.  Returns (max, argmax).
    """
    lo, hi = min([-6.0, *offsets]), max([6.0, *offsets])
    while True:
        end = values(hi, 0.0)
        if end > _SATURATION or values(hi - _SLOPE_PROBE, 0.0) >= end:
            break
        if hi >= _MAX_DOMAIN:
            raise NonConvergenceError(
                "type-I-error profile still climbing at offset "
                f"{hi}; maximization domain exhausted")
        hi *= 2.0
    xstar, amax = _maximize(lambda x: exact(x, 0.0),
                            lambda xs: values(xs, 0.0), Interval(lo, hi))
    return min(amax, 1.0), xstar


def _profile(scen: ScenarioTwoArm, engines, offsets,
             power: bool = True) -> OCProfile:
    """Offset profile from ``engines = (exact, values)`` of
    :func:`_offset_engines`: the null rate per offset from one ``values``
    call and its maximum from :func:`_profile_max` (a requested offset
    whose value beats that maximum wins; of equal ones the first in
    request order, as in :func:`oc_random_external_two_arm_mc`), plus, if
    ``power``, one ``values`` call for the power at theta1 per offset and
    the comparator calibrated to the maximum.
    """
    exact, values = engines
    offs = _check_finite("offsets", [float(x) for x in offsets])
    t1e = values(offs, 0.0).tolist()
    amax, xstar = _profile_max(exact, values, offs.tolist())
    for x, v in zip(offs.tolist(), t1e):
        if v > amax:
            amax, xstar = v, x
    if not power:
        return OCProfile(offs, t1e, amax, xstar)
    return OCProfile(offs, t1e, amax, xstar,
                     power_borrow=values(offs, scen.theta1).tolist(),
                     power_calibrated=power_calibrated_two_arm(amax, scen))


def t1e_profile(scen: ScenarioTwoArm, dE_mean: float,
                method: BorrowingMethod, offsets) -> OCProfile:
    """Null rejection rate at theta_c = theta_t = dE_mean + x*sigma for each
    offset x, with the maximized level and its location."""
    engines = _offset_engines(scen, _check_finite("dE_mean", dE_mean), 0.0,
                              method, "auto", _FIXED_TOL)
    return _profile(scen, engines, offsets, power=False)


def power_profile(scen: ScenarioTwoArm, dE_mean: float,
                  method: BorrowingMethod, offsets) -> OCProfile:
    """Full profile: null rejection rate and power (at effect theta1) per
    offset, plus the comparator calibrated to the maximized level."""
    engines = _offset_engines(scen, _check_finite("dE_mean", dE_mean), 0.0,
                              method, "auto", _FIXED_TOL)
    return _profile(scen, engines, offsets)


def oc_fixed_external_two_arm(scen: ScenarioTwoArm, dE_mean: float,
                              method: BorrowingMethod) -> OCPoint:
    """Point characteristics for one external mean: the maximized null
    rejection rate, the power at effect theta1 with the control mean at
    that maximizing offset, and the comparator calibrated to the maximum."""
    exact, values = _offset_engines(scen, _check_finite("dE_mean", dE_mean),
                                    0.0, method, "auto", _FIXED_TOL)
    prof = _profile(scen, (exact, values), (), power=False)
    return OCPoint(prof.alphaB_max,
                   float(values(prof.argmax_offset, scen.theta1)),
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


def _inner_rows(scen: ScenarioTwoArm) -> int:
    """External means per inner-rule call whose nodes (3 segments of
    ceil(se_c/se_t) 40-node pieces each) fit in ``_BATCH_NODES``."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    pieces = math.ceil(se_c / se_t)
    return max(1, _BATCH_NODES // (3 * _INNER_GL_NODES * pieces))


def _inner_reject_gl(scen: ScenarioTwoArm, e: np.ndarray, theta_c,
                     theta_t, method: BorrowingMethod,
                     zc: float) -> np.ndarray:
    """Conditional rejection probabilities given each external mean in the
    1-D array ``e``, integrating over the control mean with a segmented
    Gauss-Legendre rule: the inner rule of :func:`_random_reject`.  The
    control mean ``theta_c`` and the treatment mean ``theta_t`` are each a
    float or an array with one entry per external mean.

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
    contributes exactly +0.0 and is skipped.  ``zc`` is the normal
    quantile of c.
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
    vals = _norm_pdf(x, per_segment(theta_c), se_c) * ndtr(
        (per_segment(theta_t) - _threshold(mc, sc, zc, se_t)) / se_t)
    seg = np.zeros(live.shape)
    seg[live] = h * (vals * gl_w).sum(axis=-1)
    # segment sums onto a zero total, lower, middle, upper
    return 0.0 + seg[:, 0] + seg[:, 1] + seg[:, 2]


def _random_reject(scen: ScenarioTwoArm, theta_c, theta_t, thetaE: float,
                   method: BorrowingMethod, tol: float):
    """Rejection probabilities with the external mean random,
    N(thetaE, seE^2), at the control and treatment means ``theta_c`` and
    ``theta_t``, by an outer adaptive quadrature over the external mean of
    the inner rule: floats give a float, same-shape arrays an array, one
    integral per entry.  Each integrand call takes at most as many external
    means as keep the inner rule's nodes within ``_BATCH_NODES``."""
    vals = list(map(_random_engine(scen, method, tol, thetaE),
                    np.ravel(theta_c).tolist(), np.ravel(theta_t).tolist()))
    out = np.clip(vals, 0.0, 1.0).reshape(np.shape(theta_c))
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=16)
def _random_engine(scen: ScenarioTwoArm, method: BorrowingMethod, tol: float,
                   thetaE: float):
    """``reject(c, t)`` of :func:`_random_reject`, as :func:`_fixed_engine`."""
    zc = norm_quantile(scen.c)
    cuts = _cuts(_WHOLE_LINE, (), (thetaE, scen.seE))
    rows = _inner_rows(scen)
    plan = []

    def reject(c, t):
        def g(e):
            return (_norm_pdf(e, thetaE, scen.seE)
                    * _inner_reject_gl(scen, e, c, t, method, zc))
        return _integrate(g, cuts, tol, rows, plan)
    return reject


def oc_random_external_two_arm(scen: ScenarioTwoArm, thetaE: float,
                               method: BorrowingMethod, offsets,
                               tol: float = 1e-9, *,
                               engine: str = "auto") -> OCProfile:
    """Profile with the external mean integrated out, N(thetaE, sigmaE^2/nE).

    Offsets are standardized against thetaE: theta_c = thetaE + x*sigma.
    Produces the averaged null rejection rate per offset, its maximized
    value over offsets, the averaged power, and the comparator calibrated
    to the maximized averaged level.  ``tol`` must be finite and positive
    whichever engine runs; it is the tolerance of the nested quadrature,
    which polishes the maximum and, with ``engine="quadrature"``, gives
    every value (see :func:`_offset_engines`).
    """
    tol = _check_engine(engine, tol)
    thetaE = _check_finite("thetaE", thetaE)
    return _profile(scen, _offset_engines(scen, thetaE, scen.seE**2, method,
                                          engine, tol), offsets)


# the conditional rejection curve of the Monte Carlo rows: Chebyshev
# interpolants of degree 16 on panels of width min(se_c, se_t)
_CURVE_NODES = 17
_CHEB_ANGLES = math.pi * (np.arange(_CURVE_NODES) + 0.5) / _CURVE_NODES
_CHEB_X = np.cos(_CHEB_ANGLES)                  # first-kind nodes on [-1, 1]
# node values -> series coefficients (the constant term's weight halved)
_CHEB_FIT = (2.0 / _CURVE_NODES) * np.cos(
    np.outer(np.arange(_CURVE_NODES), _CHEB_ANGLES))
_CHEB_FIT[0] *= 0.5


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
                         method: BorrowingMethod):
    """Exact conditional rejection probabilities given each drawn external
    mean (the current-arm sampling replaced by its expectation): yields,
    for each control mean in ``theta_cs`` in turn, the pair of rows
    ``(null, power)`` over the draws, the null with the treatment mean at
    the control mean and the alternative theta1 above it.

    Under Empirical Bayes the probability depends on d = theta_c - e only,
    so every entry lies on one curve R(d).  It is tabulated once, before
    the first pair, on the panels [k w, (k+1) w), w = 2 min(se_c, se_t),
    that some d falls in, as a degree-16 Chebyshev interpolant on 17
    nodes; the node values are one u-line kernel call at control mean d
    and external mean 0, which serves the null and the alternative from
    one threshold pass.  An entry depends only on its own d: not on the
    other draws, the other control means or the number of draws.
    """
    thcs = [float(thc) for thc in theta_cs]
    if method.kind != EMPIRICAL_BAYES:
        delta = _method_delta(method)
        for thc in thcs:
            yield (_closed_fixed(scen, thc, thc, e, delta),
                   _closed_fixed(scen, thc, thc + scen.theta1, e, delta))
        return
    w = 2.0 * scen.sigma / math.sqrt(max(scen.nc, scen.nt))
    panels = np.unique(np.concatenate(
        [np.unique(np.floor((thc - e) / w)) for thc in thcs]))
    d = (w * (panels[:, None] + 0.5 + 0.5 * _CHEB_X)).ravel()
    vals = _uline_reject(scen, d, np.stack([d, d + scen.theta1]), 0.0, 0.0,
                         method)
    # per-panel sums, not a matrix product: a panel's coefficients must not
    # depend on how many other panels there are
    coef = [(v.reshape(-1, 1, _CURVE_NODES) * _CHEB_FIT).sum(axis=-1).T
            for v in vals]
    for thc in thcs:
        u = (thc - e) / w
        k = np.floor(u)
        idx = np.searchsorted(panels, k)
        t = 2.0 * (u - k) - 1.0
        yield (np.clip(_clenshaw(coef[0], idx, t), 0.0, 1.0),
               np.clip(_clenshaw(coef[1], idx, t), 0.0, 1.0))


def _literal_mc_rows(scen: ScenarioTwoArm, e: np.ndarray, theta_cs,
                     method: BorrowingMethod, seed: int):
    """Raw 0/1 decisions of the literal Monte Carlo: yields the
    ``(null, power)`` rows of each control mean in ``theta_cs`` in turn,
    the o-th drawn from stream (seed, o+1): control and treatment means
    under the null, then under the alternative."""
    nsim = e.shape[0]
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    for o, thc in enumerate(theta_cs):
        gen = RngStream(seed, o + 1).generator()
        draws = [gen.normal(mu, se, nsim) for mu, se in
                 ((thc, se_c), (thc, se_t), (thc, se_c),
                  (thc + scen.theta1, se_t))]
        rows = []
        for dc, dt in (draws[:2], draws[2:]):
            mc, sc = posterior_arrays(dc, e, scen.nc, scen.sigma,
                                      scen.nE, scen.sigmaE, method)
            rows.append((dt > _threshold(mc, sc, zc, se_t)).astype(float))
        yield tuple(rows)


def _random_two_arm_mc_grids(scen: ScenarioTwoArm, thetaE: float,
                             method: BorrowingMethod, offsets, nsim: int,
                             seed: int, literal: bool = False):
    """The random-external two-arm Monte Carlo over the offsets, reduced
    one offset at a time.

    Returns ``(e, t1e, power, k, T, P)``: the external-mean draws, the
    per-offset means of the null and power rows (``math.fsum`` over the
    replicates, divided by nsim), the index k of the first offset with the
    largest null mean, and that offset's null and power rows.  Only two
    offsets' rows are held at once, whatever the number of offsets.
    External means come from stream (seed, 0); the rows are exact
    conditional probabilities (:func:`_mc_conditional_rows`) or, in
    literal mode, raw decisions (:func:`_literal_mc_rows`).  Refuses an
    invalid ``nsim`` or ``thetaE`` and empty or non-finite offsets.
    """
    nsim = _check_count("nsim", nsim)
    thetaE = _check_finite("thetaE", thetaE)
    offs = _check_finite("offsets", [float(x) for x in offsets]).tolist()
    if not offs:
        raise DomainError("offsets must be non-empty")
    e = RngStream(seed, 0).generator().normal(thetaE, scen.seE, nsim)
    thcs = [float(thetaE) + x * scen.sigma for x in offs]
    rows = (_literal_mc_rows(scen, e, thcs, method, seed) if literal
            else _mc_conditional_rows(scen, e, thcs, method))
    t1e, power, k, best = [], [], 0, ()
    for o, (T, P) in enumerate(rows):
        t1e.append(_fsum(T) / nsim)
        power.append(_fsum(P) / nsim)
        if not best or t1e[o] > t1e[k]:
            k, best = o, (T, P)
    return (e, t1e, power, k, *best)


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
    _, t1e, power, k, _, _ = _random_two_arm_mc_grids(
        scen, thetaE, method, offs, nsim, seed, literal)
    return OCProfile(offs, t1e, t1e[k], offs[k], power_borrow=power,
                     power_calibrated=power_calibrated_two_arm(t1e[k], scen))
