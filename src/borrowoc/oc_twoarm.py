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
* Empirical Bayes weights require one Gaussian integral over the control
  mean: the u-line kernel :func:`_uline_reject` (below) gives every value,
  one kernel call per array of means;
* random external data add an outer expectation over the external mean --
  closed-form again for fixed weights, the kernel again for Empirical
  Bayes, and a seeded Monte Carlo variant for audit.  The Monte Carlo rows
  do not integrate per draw: a draw's conditional rejection probability
  depends only on d = theta_c - e, so each run tabulates one curve R(d) as
  Chebyshev panels from one u-line kernel call and evaluates it one offset
  and one block of ``statmath._BLOCK_ROWS`` draws at a time.  Each
  offset's rows are reduced to their means as they come, so such a run
  holds the rows of two offsets and no temporary longer than a block.

``_BATCH_NODES`` is the one node budget of the u-line kernel's node
arrays and the polish quadrature's integrand calls.

The reported level is the maximum of the null profile over the offset: a
scan of a 401-point grid brackets it and a golden-section polish refines
it.  The scan is two calls, 65 points in all: every 8th grid point, then
the points within 7 of the best of those.  Wherever the sampled profile
rises strictly to its first maximum and never rises after it, that picks
the cell of a dense scan.  Unimodality is measured, not proven: over 2,990
seeded profiles (README) the two scans picked the same cell every time,
and one extreme Empirical Bayes design sampled two strict local maxima
(``tests/test_oc_twoarm.py::TestMaximumScan``).  Under Empirical Bayes,
with the external mean fixed or random, the u-line kernel reports every
profile value: the requested offsets and the power, as the two rows of
one call, the scan and the checks that stop the search domain.  The EB
weight depends only on u = control mean - external mean, so each
rejection probability is one Gaussian integral over u, on one panel
lattice in u for every mean of a call, with the threshold evaluated once
per lattice node.  Only the polish's scalar calls run adaptive quadrature
(:func:`_fixed_engine`, :func:`_random_engine`), so the maximum and its
location are theirs.  Each lives for one profile, and with its one panel
plan (``statmath._integrate``) each integral after its first makes one
integrand call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .borrow import (BorrowingMethod, EMPIRICAL_BAYES, FIXED_POWER_PRIOR,
                     posterior_arrays)
from .oc_onearm import OCPoint, _z_power
from .scenarios import ScenarioTwoArm
# integrate and maximize_1d are no longer called here; the names stay for
# bench/tracing.py, which wraps oc_twoarm.integrate and oc_twoarm.maximize_1d
from .statmath import (_GAUSS_TRUNC, DomainError, Interval,
                       NonConvergenceError, RngStream, _blocks, _check_count,
                       _check_finite, _check_positive, _check_probability,
                       _cuts, _fsum, _integrate, _maximize, integrate,
                       maximize_1d, norm_cdf, norm_quantile)  # noqa: F401

_INNER_GL_NODES = 40
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_INNER_GL_NODES)
_SATURATION = 1.0 - 1e-9
_SLOPE_PROBE = 1e-3
# the maximum's scan evaluates every 8th grid point, then the best one's
# neighbours (_profile_max)
_SCAN_STRIDE = 8
_MAX_DOMAIN = 1536.0
# the one node budget of the two-arm arrays (module docstring), sized as
# the inner-rule nodes of 256 external means (3 segments of 40)
_BATCH_NODES = 256 * 3 * _INNER_GL_NODES
_WHOLE_LINE = Interval(-math.inf, math.inf)
_EB = BorrowingMethod.empirical_bayes()
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


def reject_prob_two_arm(scen: ScenarioTwoArm, theta_c: float, theta_t: float,
                        dE_mean: float,
                        method: BorrowingMethod) -> float | np.ndarray:
    """Rejection probability at true means (theta_c, theta_t) for one fixed
    external mean.

    Fixed weights and no borrowing use the linear-Gaussian closed form;
    Empirical Bayes uses one u-line kernel call (:func:`_uline_reject`) on
    the control and treatment means less the external mean.  The three
    means broadcast against each other: arrays give an array of
    probabilities, each equal to its scalar call; scalars give a float.
    """
    means = [_check_finite(name, v) for name, v in
             (("theta_c", theta_c), ("theta_t", theta_t), ("dE_mean", dE_mean))]
    if method.kind != EMPIRICAL_BAYES:
        return _closed_fixed(scen, *means, _method_delta(method))
    c, t, d = np.broadcast_arrays(*means)
    out = _uline_reject(scen, c - d, t - d, 0.0, 0.0, method)
    return float(out) if out.ndim == 0 else out


def _fixed_engine(scen: ScenarioTwoArm, tol: float):
    """``reject(c, t, d)``: the Empirical Bayes rejection probability at
    control and treatment means c and t for external mean d, as adaptive
    quadrature over the control mean at ``tol``, cut at d -+ the
    :func:`_cusp_cuts`; its constants worked out once and one panel plan
    kept (module docstring).  The polish engine of a fixed-external
    profile."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    dist = _cusp_cuts(scen, se_c)
    # a cusp more than 8 times narrower than se_c (two grades or more)
    # escapes the error estimate; a wider one needs only the cuts at +-r
    if dist.size < 3:
        dist = dist[:1]
    plan = []

    def reject(c, t, d):
        def f(x):
            mc, sc = posterior_arrays(x, d, scen.nc, scen.sigma,
                                      scen.nE, scen.sigmaE, _EB)
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
    call bit for bit.  Besides every EB profile value and every EB value of
    :func:`reject_prob_two_arm`, the kernel gives the node values of the
    Monte Carlo curve (:func:`_mc_conditional_rows`).

    The test rejects when S = treatment mean - external mean exceeds h(u),
    the threshold from ``posterior_arrays(u, 0, ...)``, because the fitted
    weight depends on u alone.  u ~ N(mu_u, s_u^2) with mu_u = theta_c -
    e_mean and s_u^2 = se_c^2 + e_var, and given u, S is Gaussian with mean
    m(u) = theta_t - e_mean + (e_var/s_u^2)(u - mu_u) and variance s^2 =
    se_t^2 + se_c^2 e_var/s_u^2, so each probability is
    E[Phi((m(u) - h(u))/s)].

    The rule: 40-node Gauss-Legendre panels no wider than width = 4 min(s,
    s_u), which resolves both the density and the Phi factor, on one
    lattice in u: [-r, r] in equal panels, then the panels between the
    +-:func:`_cusp_cuts` of that width, which shrink by factors of 8 into
    the threshold's cusp past +-r, then width-wide panels.  Each mean is
    integrated over the panels that meet its window mu_u -+ 8.5 s_u: from
    the one holding its lower end, those that start below its upper end,
    at most K, the most panels that a window of width 17 s_u can meet.  A
    panel past the window adds +0.0 to the K-term per-panel sum.  The
    lattice depends on the scenario and ``e_var`` alone, so h(u) is
    evaluated once per call at the nodes of the panels that some mean
    touches, and a value depends neither on the other means in the call
    nor on the chunking, bit for bit.  Over seeded fuzzes the values lie
    within 1e-13 of cusp-aware quadrature at tol 1e-13 for a fixed external
    mean (``tests/test_uline.py``), and within 1e-10 of the polish's nested
    quadrature :func:`_random_engine` at tol 1e-12 for a random one
    (``tests/test_twoarm_quadrature.py::TestKernelAgainstQuadrature``).
    The table is built, and the live pairs integrated, in chunks within
    ``_BATCH_NODES``.
    """
    if np.size(theta_c) == 0:
        return np.zeros(np.shape(theta_t))
    se_c2 = scen.sigma**2 / scen.nc
    se_t = scen.sigma / math.sqrt(scen.nt)
    s_u2 = se_c2 + e_var
    s_u = math.sqrt(s_u2)
    gain = e_var / s_u2                 # slope of m(u)
    s = math.sqrt(se_t**2 + se_c2 * gain)
    zc = norm_quantile(scen.c)
    width = 4.0 * min(s, s_u)
    cusp = _cusp_cuts(scen, width)
    r, reach = cusp[0], 2.0 * _GAUSS_TRUNC * s_u
    inner = np.sort(np.concatenate([-cusp[1:], cusp[1:], np.linspace(
        -r, r, math.ceil(2.0 * r / width) + 1)]))
    ext = width * np.arange(1, math.ceil(reach / width) + 2)
    line = np.concatenate([inner[0] - ext[::-1], inner, inner[-1] + ext])
    panels = 1 + int(np.max(np.searchsorted(line, line + reach)
                            - np.arange(line.size)))
    mu = np.ravel(theta_c) - e_mean
    a = mu - _GAUSS_TRUNC * s_u
    # panel p spans [edge p, edge p+1]; past inner's ends, width wide
    past = np.minimum(a - inner[0], 0.0) + np.maximum(a - inner[-1], 0.0)
    first = (np.maximum(np.searchsorted(inner, a, side="right") - 1, 0)
             + np.floor(past / width).astype(np.int64))
    ends = first[:, None] + np.arange(panels + 1)
    edges = inner.take(ends, mode="clip") + width * (
        np.minimum(ends, 0) + np.maximum(ends - inner.size + 1, 0))
    # the live (mean, panel) pairs: panels starting below the window's end
    mean, col = np.nonzero(edges[:, :-1] < (mu + _GAUSS_TRUNC * s_u)[:, None])
    table, at, idx = np.unique(ends[mean, col], return_index=True,
                               return_inverse=True)
    lower, upper = edges[mean, col][at], edges[mean, col + 1][at]
    half = 0.5 * (upper - lower)
    u = (lower + half)[:, None] + half[:, None] * _GL_X
    h_s = np.empty_like(u)              # -h(u)/s at the table's nodes
    step = max(1, _BATCH_NODES // _INNER_GL_NODES)
    for p in range(0, table.size, step):
        mc, sc = posterior_arrays(u[p:p + step], 0.0, scen.nc, scen.sigma,
                                  scen.nE, scen.sigmaE, method)
        h_s[p:p + step] = _threshold(mc, sc, zc, se_t) / -s
    lead = np.shape(theta_t)[:np.ndim(theta_t) - np.ndim(theta_c)]
    m0 = (np.reshape(theta_t, (math.prod(lead), mu.size)) - e_mean) / s
    part = np.zeros((*m0.shape, panels))     # each panel's integral, or 0
    for p in range(0, mean.size, step):
        i, j, t = mean[p:p + step], col[p:p + step], idx[p:p + step]
        z = (u[t] - mu[i, None]) / s_u
        pdf = np.exp(-0.5 * z * z) * _GL_W
        shift = h_s[t] + gain * s_u / s * z
        # einsum, not a BLAS product, whose rounding depends on shape
        for k, row in enumerate(m0):
            part[k, i, j] = half[t] * np.einsum(
                "ij,ij->i", pdf, ndtr(row[i, None] + shift))
    out = part.sum(axis=-1) / (s_u * math.sqrt(2.0 * math.pi))
    return np.clip(out, 0.0, 1.0).reshape(np.shape(theta_t))


def _offset_engines(scen: ScenarioTwoArm, e_mean: float, e_var: float,
                    method: BorrowingMethod, tol: float):
    """``(exact, values)``: two ways to compute ``f(x, effect)``, the
    rejection probability with the external mean N(e_mean, e_var)
    (``e_var`` = 0: fixed at e_mean), the control mean at offset x and the
    treatment mean ``effect`` above it.

    Fixed weights and no borrowing use the closed form for both.  Under
    Empirical Bayes ``values`` takes an array (or a float) of offsets to
    the u-line kernel :func:`_uline_reject`, and ``exact``, the polish
    engine, takes a float x to a float: adaptive quadrature at ``tol``,
    over the control mean for a fixed external mean
    (:func:`_fixed_engine`), nested over the external mean for a random
    one (:func:`_random_engine`), clipped to [0, 1].
    """
    def means(x, effect):
        thc = e_mean + np.asarray(x, dtype=float) * scen.sigma
        return thc, thc + effect

    if method.kind != EMPIRICAL_BAYES:
        def closed(x, effect):
            return _closed_fixed(scen, *means(x, effect), e_mean,
                                 _method_delta(method), external_var=e_var)
        return closed, closed

    reject, external = ((_fixed_engine(scen, tol), (e_mean,))
                        if e_var == 0.0 else
                        (_random_engine(scen, tol, e_mean), ()))

    def exact(x, effect):
        thc = e_mean + x * scen.sigma
        return min(max(reject(thc, thc + effect, *external), 0.0), 1.0)

    def values(x, effect):
        return _uline_reject(scen, *means(x, effect), e_mean, e_var, method)
    return exact, values


def _profile_max(exact, values, offsets) -> tuple[float, float]:
    """Maximize the type-I-error profile over offsets x: ``values(x, 0)``
    scans it and ``exact(x, 0)`` polishes (see :func:`_offset_engines`).

    Starts from the hull of [-6, 6] and the requested offsets; the upper
    end is doubled while ``values`` still climbs there and has not
    saturated at 1 (within 1e-9), so a supremum approached in the limit is
    localized deterministically.  The scan of the 401-point grid is two
    ``values`` calls, every 8th point and then the best one's neighbours
    (module docstring); the golden-section polish in its best cell makes
    scalar ``exact`` calls, and its value is the maximum unless a scanned
    value beats it.  Returns (max, argmax).
    """
    lo, hi = min([-6.0, *offsets]), max([6.0, *offsets])
    while True:
        end, probe = values([hi, hi - _SLOPE_PROBE], 0.0)
        if end > _SATURATION or probe >= end:
            break
        if hi >= _MAX_DOMAIN:
            raise NonConvergenceError(
                "type-I-error profile still climbing at offset "
                f"{hi}; maximization domain exhausted")
        hi *= 2.0

    def scan(xs):
        ys = np.full(xs.size, -np.inf)      # -inf: not evaluated
        ys[::_SCAN_STRIDE] = values(xs[::_SCAN_STRIDE], 0.0)
        best = int(np.argmax(ys))
        near = np.arange(max(best - _SCAN_STRIDE + 1, 0),
                         min(best + _SCAN_STRIDE, xs.size))
        near = near[near != best]
        ys[near] = values(xs[near], 0.0)
        return ys
    xstar, amax = _maximize(lambda x: exact(x, 0.0), scan, Interval(lo, hi))
    return min(amax, 1.0), xstar


def _profile(scen: ScenarioTwoArm, engines, offsets,
             power: bool = True) -> OCProfile:
    """Offset profile from ``engines = (exact, values)`` of
    :func:`_offset_engines`: the null rate per offset and, if ``power``,
    the power at theta1 per offset, as the two rows of one ``values`` call
    (each row equals its own call bit for bit); the maximum from
    :func:`_profile_max` (a requested offset whose value beats it wins; of
    equal ones the first in request order, as in
    :func:`oc_random_external_two_arm_mc`); and, if ``power``, the
    comparator calibrated to the maximum.
    """
    exact, values = engines
    offs = _check_finite("offsets", [float(x) for x in offsets])
    effect = [[0.0], [scen.theta1]] if power else [[0.0]]
    t1e, *rows = values(offs, np.array(effect)).tolist()
    amax, xstar = _profile_max(exact, values, offs.tolist())
    for x, v in zip(offs.tolist(), t1e):
        if v > amax:
            amax, xstar = v, x
    if not power:
        return OCProfile(offs, t1e, amax, xstar)
    return OCProfile(offs, t1e, amax, xstar, power_borrow=rows[0],
                     power_calibrated=power_calibrated_two_arm(amax, scen))


def t1e_profile(scen: ScenarioTwoArm, dE_mean: float,
                method: BorrowingMethod, offsets) -> OCProfile:
    """Null rejection rate at theta_c = theta_t = dE_mean + x*sigma for each
    offset x, with the maximized level and its location."""
    engines = _offset_engines(scen, _check_finite("dE_mean", dE_mean), 0.0,
                              method, _FIXED_TOL)
    return _profile(scen, engines, offsets, power=False)


def power_profile(scen: ScenarioTwoArm, dE_mean: float,
                  method: BorrowingMethod, offsets) -> OCProfile:
    """Full profile: null rejection rate and power (at effect theta1) per
    offset, plus the comparator calibrated to the maximized level."""
    engines = _offset_engines(scen, _check_finite("dE_mean", dE_mean), 0.0,
                              method, _FIXED_TOL)
    return _profile(scen, engines, offsets)


def oc_fixed_external_two_arm(scen: ScenarioTwoArm, dE_mean: float,
                              method: BorrowingMethod) -> OCPoint:
    """Point characteristics for one external mean: the maximized null
    rejection rate, the power at effect theta1 with the control mean at
    that maximizing offset, and the comparator calibrated to the maximum."""
    exact, values = _offset_engines(scen, _check_finite("dE_mean", dE_mean),
                                    0.0, method, _FIXED_TOL)
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
                     theta_t, zc: float) -> np.ndarray:
    """Empirical Bayes conditional rejection probabilities given each
    external mean in the 1-D array ``e``, integrating over the control mean
    with a segmented Gauss-Legendre rule: the inner rule of
    :func:`_random_engine`.  The control mean ``theta_c`` and the treatment
    mean ``theta_t`` are each a float or an array with one entry per
    external mean.

    Segment boundaries sit at e +- r (where the fitted weight stops
    saturating), clipped to the 8.5-sigma truncation window around the
    control mean's distribution; the integrand is smooth inside each
    segment.  Its treatment-arm factor is a step of width se_t in the
    control mean, so each segment is split into m = ceil(se_c/se_t) equal
    40-node pieces (one piece when nc >= nt).  Against adaptive quadrature
    at tol 1e-13 the rule agrees to 2e-13 when nt > nc (1.9e-13 at nc/nt =
    4/189, where one piece per segment erred by 1.8e-3) and to 7.5e-11 when
    nc >= nt; the worst rows have e more than 8.5 se_c + r from theta_c,
    where one 40-node segment spans the whole window.  Each segment is
    evaluated in place over its live rows (whole columns when all are live),
    so one clipped to zero width adds exactly +0.0.  The middle nodes lie
    within (1 - 0.0017/m) r of e, where the fitted weight is exactly 1: the
    threshold there is the weight-1 posterior mean plus a constant, bit for
    bit.  ``zc`` is the normal quantile of c.
    """
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    gl_x, gl_w = _gl_pieces(math.ceil(se_c / se_t))
    r = math.sqrt(se_c**2 + scen.seE**2)
    ends = np.empty((4, e.shape[0]))
    ends[0], ends[3] = theta_c - 8.5 * se_c, theta_c + 8.5 * se_c
    ends[1:3] = np.clip([e - r, e + r], ends[0], ends[3])
    # per segment: half-width, midpoint, then e, theta_c and theta_t by row
    tab = np.empty((3, 5, e.shape[0]))
    tab[:, 0] = 0.5 * np.maximum(ends[1:] - ends[:-1], 0.0)
    tab[:, 1] = 0.5 * (ends[:-1] + ends[1:])
    tab[:, 2], tab[:, 3], tab[:, 4] = e, theta_c, theta_t
    a, b = scen.nE / scen.sigmaE**2, scen.nc / scen.sigma**2
    sd = 1.0 / math.sqrt(a + b)
    k = zc * math.sqrt(se_t**2 + sd * sd)
    buf = np.empty((3, e.shape[0], gl_x.size))
    total = np.zeros(e.shape[0])
    for seg, cols in enumerate(tab):
        live = cols[0] > 0.0
        rows = slice(None) if live.all() else live
        h, mid, ee, ct, tt = cols[:, rows, None]
        x, t, w = buf[:, :h.shape[0]]
        np.add(np.multiply(h, gl_x, out=x), mid, out=x)
        if seg == 1:
            thr = np.multiply(x, b, out=t)      # (a e + b x)/(a + b) + k
            thr += a * ee
            thr /= a + b
            thr += k
        else:
            thr = _threshold(*posterior_arrays(x, ee, scen.nc, scen.sigma,
                             scen.nE, scen.sigmaE, _EB), zc, se_t)
        ndtr(np.divide(np.subtract(tt, thr, out=t), se_t, out=t), out=t)
        z = np.divide(np.subtract(x, ct, out=x), se_c, out=x)  # _norm_pdf
        np.exp(np.multiply(np.multiply(z, -0.5, out=w), z, out=w), out=w)
        t *= np.divide(w, se_c * math.sqrt(2.0 * math.pi), out=w)
        total[rows] += h[:, 0] * np.multiply(t, gl_w, out=t).sum(-1)
    return total


def _random_engine(scen: ScenarioTwoArm, tol: float, thetaE: float):
    """``reject(c, t)`` with the external mean N(thetaE, seE^2), as
    :func:`_fixed_engine`: an outer adaptive quadrature of the inner rule,
    each integrand call with as many external means as keep its nodes
    within ``_BATCH_NODES``.  The polish engine of a random-external
    profile."""
    zc = norm_quantile(scen.c)
    cuts = _cuts(_WHOLE_LINE, (), (thetaE, scen.seE))
    rows = _inner_rows(scen)
    plan = []

    def reject(c, t):
        def g(e):
            return (_norm_pdf(e, thetaE, scen.seE)
                    * _inner_reject_gl(scen, e, c, t, zc))
        return _integrate(g, cuts, tol, rows, plan)
    return reject


def oc_random_external_two_arm(scen: ScenarioTwoArm, thetaE: float,
                               method: BorrowingMethod, offsets,
                               tol: float = 1e-9) -> OCProfile:
    """Profile with the external mean integrated out, N(thetaE, sigmaE^2/nE).

    Offsets are standardized against thetaE: theta_c = thetaE + x*sigma.
    Produces the averaged null rejection rate per offset, its maximized
    value over offsets, the averaged power, and the comparator calibrated
    to the maximized averaged level.  ``tol`` must be finite and positive
    whatever the method; under Empirical Bayes it is the tolerance of the
    nested quadrature that polishes the maximum (see
    :func:`_offset_engines`).
    """
    tol = _check_positive("tol", tol)
    thetaE = _check_finite("thetaE", thetaE)
    return _profile(scen, _offset_engines(scen, thetaE, scen.seE**2, method,
                                          tol), offsets)


# the conditional rejection curve of the Monte Carlo rows: Chebyshev
# interpolants of degree 16 on panels of width min(se_c, se_t)
_CURVE_NODES = 17
_CHEB_ANGLES = math.pi * (np.arange(_CURVE_NODES) + 0.5) / _CURVE_NODES
_CHEB_X = np.cos(_CHEB_ANGLES)                  # first-kind nodes on [-1, 1]
# node values -> series coefficients (the constant term's weight halved)
_CHEB_FIT = (2.0 / _CURVE_NODES) * np.cos(
    np.outer(np.arange(_CURVE_NODES), _CHEB_ANGLES))
_CHEB_FIT[0] *= 0.5


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
    other draws, the other control means or the number of draws.  Every
    method computes the rows one block of draws at a time.
    """
    if method.kind != EMPIRICAL_BAYES:
        delta = _method_delta(method)

        def block(thc, de):
            return (_closed_fixed(scen, thc, thc, de, delta),
                    _closed_fixed(scen, thc, thc + scen.theta1, de, delta))
    else:
        w = 2.0 * scen.sigma / math.sqrt(max(scen.nc, scen.nt))
        panels = np.unique(np.concatenate(
            [np.unique(np.floor((thc - e[rows]) / w))
             for rows in _blocks(e.size) for thc in theta_cs]))
        d = (w * (panels[:, None] + 0.5 + 0.5 * _CHEB_X)).ravel()
        vals = _uline_reject(scen, d, np.stack([d, d + scen.theta1]), 0.0,
                             0.0, method)
        # per-panel sums, not a matrix product: a panel's coefficients must
        # not depend on how many other panels there are
        coef = [(v.reshape(-1, 1, _CURVE_NODES) * _CHEB_FIT).sum(axis=-1).T
                for v in vals]

        def block(thc, de):
            u = (thc - de) / w
            k = np.floor(u)
            t, idx = 2.0 * (u - k) - 1.0, np.searchsorted(panels, k)
            return [np.clip(np.polynomial.chebyshev.chebval(
                t, c[:, idx], tensor=False), 0.0, 1.0) for c in coef]
    for thc in theta_cs:
        pair = np.empty(e.size), np.empty(e.size)
        for rows in _blocks(e.size):
            pair[0][rows], pair[1][rows] = block(thc, e[rows])
        yield pair


def _literal_mc_rows(scen: ScenarioTwoArm, e: np.ndarray, theta_cs,
                     method: BorrowingMethod, seed: int):
    """Raw 0/1 decisions of the literal Monte Carlo: yields the
    ``(null, power)`` rows of each control mean in ``theta_cs`` in turn,
    the o-th drawn from stream (seed, o+1): control and treatment means
    under the null, then under the alternative, the treatment means drawn
    and decided one block at a time (the stream of one whole draw)."""
    nsim = e.shape[0]
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    for o, thc in enumerate(theta_cs):
        gen = RngStream(seed, o + 1).generator()
        pair = np.empty(nsim), np.empty(nsim)
        for tht, out in zip((thc, thc + scen.theta1), pair):
            dc = gen.normal(thc, se_c, nsim)
            for rows in _blocks(nsim):
                mc, sc = posterior_arrays(dc[rows], e[rows], scen.nc,
                                          scen.sigma, scen.nE, scen.sigmaE,
                                          method)
                dt = gen.normal(tht, se_t, rows.stop - rows.start)
                out[rows] = dt > _threshold(mc, sc, zc, se_t)
        yield pair


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
