"""The independent references of the test modules, and the scenarios and
methods they share.

- **Shared scenarios and methods**, and the seeded two-arm fuzz.
- **Quadrature one panel, one segment and one offset at a time.**
  ``integrate`` evaluates one Gauss-Kronrod panel per integrand call, and
  ``inner_reject_gl`` walks the three Gauss-Legendre segments (each cut
  into equal pieces when nt > nc) of the two-arm Empirical Bayes inner rule
  one at a time, for one treatment mean, with the normal quantile of the
  posterior threshold recomputed on every call.  ``profile`` builds a
  two-arm profile from them one offset at a time, with a scalar grid scan
  and golden-section polish for its maximum.  ``borrowoc.statmath._integrate``
  also computes one integral per call, but evaluates the first panels, and
  then both halves of each split, in one integrand call; the inner rule of
  ``borrowoc.oc_twoarm`` takes all segments of many external means at once.
  They do the same floating-point operations in fewer NumPy calls, so they
  must agree with these loops exactly, not to a tolerance.
- **Two-arm rejection probabilities by other routes**: quadrature with
  breakpoints graded into the threshold's cusp, a dense trapezoid rule
  written from scratch, and an outer integral over the external mean.
  With the ``engine="quadrature"`` keyword of ``borrowoc`` retired, these
  and the serial loops above are the quadrature cross-checks of the
  u-line kernel and the closed forms.
- **The u-line kernel over all K panels.**  ``all_panel_reject`` integrates
  each control mean over every panel of ``uline_panels``, the lattice
  rebuilt one edge at a time, with the kernel's node arithmetic; the kernel
  skips the panels past each mean's window, so the two differ only where a
  skipped panel's integral survives rounding.
- **Replicate runs.**  The runs work in row blocks and offset by offset;
  ``literal_onearm_arrays`` draws and decides all replicates of the literal
  one-arm audit at once, ``mc_grids`` stacks the two-arm Monte Carlo rows of
  every offset, and ``literal_rows`` draws the raw two-arm decisions one
  offset at a time.  ``mc_level_one_arm`` decides one-arm replicates
  through the scalar decision path.
- **One-arm rejection regions** by a dense scan, and the conflict roots of
  the closed-form quartic by companion-matrix eigenvalues.
"""

from __future__ import annotations

import heapq
import math
from unittest import mock

import numpy as np
from scipy.special import ndtr

from borrowoc import (ArmSummary, BorrowingMethod, DomainError, Interval,
                      NonConvergenceError, RejectionRegion, RngStream,
                      ScenarioOneArm, ScenarioTwoArm, decide_borrow,
                      find_root, norm_quantile, oc_twoarm, region)
from borrowoc.borrow import EMPIRICAL_BAYES, posterior_arrays, tail_arrays
from borrowoc.oc_twoarm import _threshold
from borrowoc.statmath import _GAUSS_TRUNC, _MAX_PANELS, _WG, _WGK, _XGK

# ---------------------------------------------------------------------------
# shared scenarios and methods

NONE = BorrowingMethod.none()
FIXED_HALF = BorrowingMethod.fixed_power_prior(0.5)
EB = BorrowingMethod.empirical_bayes()
METHODS = (NONE, FIXED_HALF, EB)
METHOD_IDS = ("none", "fixed", "eb")

ONE_ARM = ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025, nE=20,
                         theta1=0.5)
# the rejection region has two intervals for external means in about
# [0.056, 0.145]
ONE_ARM_BIG_EXT = ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                                 nE=1000, theta1=0.5)
# the benchmark's two-arm scenario
TWO_ARM = ScenarioTwoArm(nc=15, nt=15, nE=10, sigma=1.0, theta1=1.0,
                         alpha=0.025)
# nt > nc: the inner rule cuts each segment into ceil(se_c/se_t) = 2 pieces
WIDE = ScenarioTwoArm(nc=6, nt=20, nE=40, sigma=1.3, theta1=0.8, alpha=0.05,
                      sigmaE=0.9)
NT_GT_NC = ScenarioTwoArm(nc=10, nt=40, nE=25, sigma=1.0, theta1=0.9,
                          alpha=0.025, sigmaE=1.4)
# the null profile still climbs at offset 6, so its upper end doubles
FAR_PEAK = ScenarioTwoArm(nc=15, nt=15, nE=2, sigma=1.0, theta1=1.0,
                          alpha=0.025, sigmaE=10.0)
# treatment arm 47 times the control arm: the u-line kernel's panels are
# narrow, and one 40-node inner-rule piece per segment erred by 1.8e-3
LOPSIDED = ScenarioTwoArm(nc=4, nt=189, nE=10, sigma=1.0, theta1=1.0,
                          alpha=0.025)
# the threshold's cusp past r is 0.0061 wide, se_c 1.41
CUSP = ScenarioTwoArm(nc=2, nt=234, nE=5000, sigma=2.0, theta1=1.0,
                      alpha=0.025, c=0.999, sigmaE=0.7)


def fuzz_two_arm(rng, count, fields, first=()):
    """Seeded two-arm scenarios: those of ``first``, then
    ``ScenarioTwoArm(**fields(rng, i))`` for i = 0, 1, ... up to ``count``
    in all.  They are drawn lazily, so a caller's own draws from ``rng``
    between scenarios keep their place in the stream."""
    yield from first
    for i in range(count - len(first)):
        yield ScenarioTwoArm(**fields(rng, i))


def uniform_fields(rng, i):
    """NumPy draws: arm sizes in [2, 200), nE in [1, 2000), sigma and
    sigmaE in [0.2, 3), theta1 in [0.1, 2), alpha in [0.005, 0.3)."""
    return dict(nc=int(rng.integers(2, 200)), nt=int(rng.integers(2, 200)),
                nE=int(rng.integers(1, 2000)),
                sigma=float(rng.uniform(0.2, 3.0)),
                theta1=float(rng.uniform(0.1, 2.0)),
                alpha=float(rng.uniform(0.005, 0.3)),
                sigmaE=float(rng.uniform(0.2, 3.0)))


def unequal_fields(rng, i):
    """NumPy draws with nt != nc, sigmaE != sigma, c != 1 - alpha, and nE
    cycling through 2, 1000, 5000 and a random size."""
    nc, nt = int(rng.integers(2, 200)), int(rng.integers(2, 200))
    return dict(nc=nc, nt=nt + (nt == nc),
                alpha=float(rng.uniform(0.005, 0.3)),
                nE=(2, 1000, 5000, int(rng.integers(1, 300)))[i % 4],
                sigma=float(rng.uniform(0.2, 3.0)),
                theta1=float(rng.uniform(0.1, 2.0)),
                c=float(rng.uniform(0.5, 0.999)),
                sigmaE=float(rng.uniform(0.2, 3.0)))


def choice_fields(rng, i):
    """``random.Random`` draws: arm sizes log-uniform on [2, 300], theta1
    in [0.2, 1.5], alpha 0.025, and nE, sigma, c and sigmaE from short
    lists."""
    nc, nt = (round(math.exp(rng.uniform(math.log(2), math.log(300))))
              for _ in range(2))
    return dict(nc=nc, nt=nt, nE=rng.choice((2, 10, 200, 5000)),
                sigma=rng.choice((0.5, 1.0, 2.0)),
                theta1=rng.uniform(0.2, 1.5), alpha=0.025,
                c=rng.choice((0.9, 0.975, 0.999)),
                sigmaE=rng.choice((0.7, 1.0, 1.6)))


def extreme_fields(rng, i):
    """``random.Random`` draws far outside the other fuzzes: arm sizes
    log-uniform on [1, 5000], nE on [1, 10^6], sigma on [0.05, 20], theta1
    on [0.01, 5] and sigmaE on [0.01, 50], alpha 0.025, and c from a short
    list up to 0.9999."""
    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    nc, nt, nE = (round(log_uniform(1, hi)) for hi in (5000, 5000, 1e6))
    return dict(nc=nc, nt=nt, nE=nE, sigma=log_uniform(0.05, 20.0),
                theta1=log_uniform(0.01, 5.0), alpha=0.025,
                c=rng.choice((0.9, 0.975, 0.999, 0.9999)),
                sigmaE=log_uniform(0.01, 50.0))


# two hard cases that open the choice_fields fuzz: a lopsided design each way
CHOICE_FIRST = (LOPSIDED,
                ScenarioTwoArm(nc=282, nt=2, nE=200, sigma=1.0, theta1=1.0,
                               alpha=0.025, sigmaE=1.6))


def fuzz_ids(scens):
    return [f"nc{s.nc}-nt{s.nt}-nE{s.nE}" for s in scens]


# the u-line kernel's error bound for a fixed external mean
FIXED_ERR = 1e-13


def cusp_offsets(scen, e_var):
    """Control means (minus the external mean) on both sides of -r and r,
    as offsets in sigma units."""
    r = math.sqrt(scen.sigma**2 / scen.nc + scen.seE**2)
    s_u = math.sqrt(scen.sigma**2 / scen.nc + e_var)
    return np.array([-r - s_u, -0.5 * r, 0.0, 0.5 * r, r + 0.3 * s_u,
                     r + 2.0 * s_u, r + 30.0 * s_u]) / scen.sigma


# ---------------------------------------------------------------------------
# quadrature one panel, one segment and one offset at a time

GL_X, GL_W = np.polynomial.legendre.leggauss(40)


def _gk15(f, a: float, b: float):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = np.asarray(f(c + h * _XGK), dtype=float)
    if y.shape != _XGK.shape:
        raise DomainError("integrand must map a 1-D array to a same-shape array")
    resk = h * float(_WGK @ y)
    resg = h * float(_WG @ y)
    resasc = abs(h) * float(_WGK @ np.abs(y - resk / (b - a)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def integrate(f, domain, abs_tol: float = 1e-9, *, breakpoints=(),
              gaussian_hint=None) -> float:
    """Adaptive Gauss-Kronrod quadrature, one panel per call of ``f``."""
    if not abs_tol > 0.0:
        raise DomainError("abs_tol must be positive")
    mu, sd = (0.0, 1.0) if gaussian_hint is None else map(float, gaussian_hint)
    lo = mu - _GAUSS_TRUNC * sd if math.isinf(domain.lo) else domain.lo
    hi = mu + _GAUSS_TRUNC * sd if math.isinf(domain.hi) else domain.hi
    if not lo < hi:
        return 0.0
    cuts = sorted({lo, hi, *(float(b) for b in breakpoints if lo < float(b) < hi)})
    heap = []
    done = []
    serial = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, err = _gk15(f, a, b)
        heapq.heappush(heap, (-err, serial, a, b, val, err))
        serial += 1
    total_err = math.fsum(item[5] for item in heap)
    while total_err > abs_tol:
        if not heap or serial >= _MAX_PANELS:
            raise NonConvergenceError(
                f"quadrature error {total_err:.3e} above tolerance {abs_tol:.3e} "
                f"after {serial} panels")
        _, _, a, b, val, err = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            done.append((a, b, val, err))
            continue
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        heapq.heappush(heap, (-e1, serial, a, m, v1, e1))
        serial += 1
        heapq.heappush(heap, (-e2, serial, m, b, v2, e2))
        serial += 1
        total_err += e1 + e2 - err
    return math.fsum(item[4] for item in heap) + math.fsum(p[2] for p in done)


def _norm_pdf(x, mu, sd):
    z = (x - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def _conditional_reject(scen, x, dE_mean, method, theta_t):
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    mc, sc = posterior_arrays(x, dE_mean, scen.nc, scen.sigma,
                              scen.nE, scen.sigmaE, method)
    tau = mc + zc * np.sqrt(se_t**2 + sc**2)
    return ndtr((np.asarray(theta_t, float) - tau) / se_t)


def inner_reject_gl(scen, e, theta_c: float, theta_t: float, method):
    """Conditional rejection probability given each external mean in ``e``:
    three Gauss-Legendre segments, split at e -+ r and clipped to
    theta_c -+ 8.5 se_c, each cut into ceil(se_c/se_t) equal 40-node
    pieces, evaluated and added one segment at a time."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    m = math.ceil(se_c / se_t)
    nodes = np.concatenate([(2.0 * i + 1.0) / m - 1.0 + GL_X / m
                            for i in range(m)])
    weights = np.concatenate([GL_W / m] * m)
    lo = theta_c - 8.5 * se_c
    hi = theta_c + 8.5 * se_c
    r = math.sqrt(se_c**2 + scen.seE**2)
    b1 = np.clip(e - r, lo, hi)
    b2 = np.clip(e + r, lo, hi)
    total = np.zeros(e.shape, dtype=float)
    for a, b in ((np.full_like(e, lo), b1), (b1, b2), (b2, np.full_like(e, hi))):
        half = 0.5 * np.maximum(b - a, 0.0)
        mid = 0.5 * (a + b)
        x = mid[..., None] + half[..., None] * nodes
        vals = (_norm_pdf(x, theta_c, se_c)
                * _conditional_reject(scen, x, e[..., None], method, theta_t))
        total += half * (vals * weights).sum(axis=-1)
    return total


# ---------------------------------------------------------------------------
# serial two-arm profiles: one scalar integral per offset, one offset at a
# time, maximized by a scalar grid scan plus golden-section polish


def reject_prob_two_arm(scen, theta_c: float, theta_t: float, dE_mean: float,
                        method, tol: float = 1e-9) -> float:
    """Fixed-external rejection probability: one adaptive integral over the
    control mean, split at dE_mean -+ r under Empirical Bayes."""
    se_c = scen.sigma / math.sqrt(scen.nc)

    def f(x):
        return (_norm_pdf(x, theta_c, se_c)
                * _conditional_reject(scen, x, dE_mean, method, theta_t))

    breakpoints = ()
    if method.kind == EMPIRICAL_BAYES:
        r = math.sqrt(se_c**2 + scen.seE**2)
        breakpoints = (dE_mean - r, dE_mean + r)
    val = integrate(f, Interval(-math.inf, math.inf), tol,
                    breakpoints=breakpoints, gaussian_hint=(theta_c, se_c))
    return min(max(val, 0.0), 1.0)


def random_reject(scen, theta_c: float, theta_t: float, thetaE: float,
                  method, tol: float = 1e-9) -> float:
    """Rejection probability with the external mean N(thetaE, seE^2): an
    adaptive integral over the external mean of the segment-loop inner
    rule."""
    seE = scen.seE

    def g(e):
        return (_norm_pdf(e, thetaE, seE)
                * inner_reject_gl(scen, e, theta_c, theta_t, method))

    val = integrate(g, Interval(-math.inf, math.inf), tol,
                    gaussian_hint=(thetaE, seE))
    return min(max(val, 0.0), 1.0)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_1d(f, lo: float, hi: float, tol: float = 1e-10):
    """401-point scan, then golden section in the best grid cell, one
    scalar ``f(x)`` call per point."""
    xs = np.linspace(lo, hi, 401)
    ys = np.array([f(x) for x in xs], dtype=float)
    i = int(np.argmax(ys))
    best_x, best_y = float(xs[i]), float(ys[i])
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, 400)])
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    ym = float(f(xm))
    if ym > best_y or (ym == best_y and xm < best_x):
        best_x, best_y = xm, ym
    return best_x, best_y


def profile(scen, reject, offsets):
    """``(t1e, alphaB_max, argmax_offset, power)`` of a two-arm profile from
    a scalar ``reject(x, effect)``: the requested offsets one at a time, the
    upper end doubled while the null rate still climbs below 1 - 1e-9, the
    scalar scan-and-polish maximum, and a requested offset beating it."""
    offs = [float(x) for x in offsets]
    t1e = [reject(x, 0.0) for x in offs]
    lo = min([-6.0, *offs])
    hi = max([6.0, *offs])
    while True:
        end = reject(hi, 0.0)
        if end > 1.0 - 1e-9 or reject(hi - 1e-3, 0.0) >= end:
            break
        if hi >= 1536.0:
            raise NonConvergenceError("profile still climbing")
        hi *= 2.0
    xstar, amax = maximize_1d(lambda x: reject(x, 0.0), lo, hi)
    amax = min(amax, 1.0)
    for x, v in zip(offs, t1e):
        if v > amax:
            amax, xstar = v, x
    return t1e, amax, xstar, [reject(x, scen.theta1) for x in offs]


# ---------------------------------------------------------------------------
# two-arm rejection probabilities by other routes

def graded_reject(scen, theta_c, theta_t, dE):
    """Empirical Bayes P(reject) for a fixed external mean dE: adaptive
    quadrature over the control mean at tol 1e-13, with breakpoints at dE +-
    r and at dE +- (r + 4^k eps), eps being the width of the threshold's
    cusp past r."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    r = math.sqrt(se_c**2 + scen.seE**2)
    eps = (se_t**2 + (se_c * scen.seE / r) ** 2) * r**3 / (2.0 * se_c**4)
    grades = [r] + [r + eps * 4.0**k for k in range(-2, 12)
                    if eps * 4.0**k < 2.0 * se_c]
    cuts = [dE + sign * g for g in grades for sign in (-1.0, 1.0)]

    def f(x):
        return (_norm_pdf(x, theta_c, se_c)
                * _conditional_reject(scen, x, dE, EB, theta_t))

    return integrate(f, Interval(-math.inf, math.inf), 1e-13,
                     breakpoints=cuts, gaussian_hint=(theta_c, se_c))


def trapezoid_reject(scen, theta_c, theta_t, dE):
    """Empirical Bayes P(reject) for a fixed external mean dE, built from
    scratch: the weight, the posterior and the threshold written out, Phi
    through ``math.erfc``, and the trapezoid rule on 400,001 points over
    theta_c -+ 9 se_c."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    vc, vE = scen.sigma**2 / scen.nc, scen.sigmaE**2 / scen.nE
    b, a = scen.nc / scen.sigma**2, scen.nE / scen.sigmaE**2

    x = np.linspace(theta_c - 9.0 * se_c, theta_c + 9.0 * se_c, 400001)
    q = (x - dE) ** 2
    delta = np.where(q <= vc + vE, 1.0,
                     np.minimum(vE / np.maximum(q - vc, vE), 1.0))
    prec = b + delta * a
    mean = (b * x + delta * a * dE) / prec
    tau = mean + zc * np.sqrt(se_t**2 + 1.0 / prec)
    cond = 0.5 * np.vectorize(math.erfc)((tau - theta_t) / se_t / math.sqrt(2.0))
    dens = np.exp(-0.5 * ((x - theta_c) / se_c) ** 2) / (se_c * math.sqrt(2 * math.pi))
    return np.trapezoid(dens * cond, x)


def outer_random_reject(scen, theta_c, theta_t, thetaE):
    """Empirical Bayes P(reject) with the external mean N(thetaE, seE^2):
    an adaptive integral at tol 1e-14 over the external mean of the
    polish's fixed-external quadrature ``oc_twoarm._fixed_engine`` at tol
    1e-13, one call per external mean, clipped to [0, 1].  Its inner
    integral runs over the control mean, so it shares no rule with the
    u-line kernel."""
    seE = scen.seE

    def g(e):
        reject = oc_twoarm._fixed_engine(scen, 1e-13)
        inner = [min(max(reject(theta_c, theta_t, x), 0.0), 1.0)
                 for x in e.tolist()]
        return _norm_pdf(e, thetaE, seE) * np.array(inner)

    return integrate(g, Interval(-math.inf, math.inf), 1e-14,
                     gaussian_hint=(thetaE, seE))


# ---------------------------------------------------------------------------
# the u-line kernel's rule over all K panels, one control mean at a time

def uline_panels(scen, theta_c, e_mean: float, e_var: float):
    """``(lower, upper, s_u)``: the edges, each of shape (means, K), of the
    K consecutive panels of the u-line lattice (``oc_twoarm._uline_reject``)
    from the one holding u = theta_c - e_mean - 8.5 s_u, for each control
    mean in the 1-D ``theta_c``, and s_u.  K is the most panels that a
    window of width 17 s_u meets.  The lattice is rebuilt here from its
    definition, one edge at a time: [-r, r] in equal panels, the graded
    cuts of ``oc_twoarm._cusp_cuts`` on either side, then panels of the
    width 4 min(s, s_u) on both ends."""
    se_c2 = scen.sigma**2 / scen.nc
    se_t = scen.sigma / math.sqrt(scen.nt)
    s_u2 = se_c2 + e_var
    s_u = math.sqrt(s_u2)
    s = math.sqrt(se_t**2 + se_c2 * (e_var / s_u2))
    width = 4.0 * min(s, s_u)
    cusp = oc_twoarm._cusp_cuts(scen, width)
    r = cusp[0]
    inner = sorted([*(-cusp[1:]), *cusp[1:],
                    *np.linspace(-r, r, math.ceil(2.0 * r / width) + 1)])
    n = len(inner)

    def edge(p):
        if p < 0:
            return inner[0] + width * p
        return inner[min(p, n - 1)] + width * max(p - n + 1, 0)

    reach = 2.0 * _GAUSS_TRUNC * s_u
    out = math.ceil(reach / width) + 1
    line = [edge(p) for p in range(-out, n + out)]
    panels = 1 + max(sum(1 for b in line[i:] if b < a + reach)
                     for i, a in enumerate(line))
    lower, upper = [], []
    for mu in np.ravel(theta_c) - e_mean:
        a = mu - _GAUSS_TRUNC * s_u
        if a < inner[0]:
            first = math.floor((a - inner[0]) / width)
        elif a >= inner[-1]:
            first = n - 1 + math.floor((a - inner[-1]) / width)
        else:
            first = max(p for p in range(n) if inner[p] <= a)
        lower.append([edge(p) for p in range(first, first + panels)])
        upper.append([edge(p + 1) for p in range(first, first + panels)])
    return np.array(lower), np.array(upper), s_u


def all_panel_reject(scen, theta_c, theta_t, e_mean: float, e_var: float,
                     method):
    """``oc_twoarm._uline_reject`` with each control mean integrated over
    all K panels of :func:`uline_panels`, one mean at a time: the kernel's
    node arithmetic op for op, the per-panel integrals added in panel
    order.  The kernel skips the panels that start past a mean's window
    mu_u + 8.5 s_u; here they add their (tiny) integrals."""
    lower, upper, s_u = uline_panels(scen, theta_c, e_mean, e_var)
    se_c2 = scen.sigma**2 / scen.nc
    se_t = scen.sigma / math.sqrt(scen.nt)
    gain = e_var / (se_c2 + e_var)
    s = math.sqrt(se_t**2 + se_c2 * gain)
    zc = norm_quantile(scen.c)
    mu = np.ravel(theta_c) - e_mean
    rows = np.reshape(theta_t, (-1, mu.size))
    out = np.empty(rows.shape)
    for i in range(mu.size):
        half = 0.5 * (upper[i] - lower[i])
        u = (lower[i] + half)[:, None] + half[:, None] * GL_X
        h_s = _threshold(*posterior_arrays(u, 0.0, scen.nc, scen.sigma,
                                           scen.nE, scen.sigmaE, method),
                         zc, se_t) / -s
        z = (u - mu[i]) / s_u
        pdf = np.exp(-0.5 * z * z) * GL_W
        shift = h_s + gain * s_u / s * z
        for k in range(rows.shape[0]):
            part = half * np.einsum("ij,ij->i", pdf, ndtr(
                (rows[k, i] - e_mean) / s + shift))
            out[k, i] = part.sum() / (s_u * math.sqrt(2.0 * math.pi))
    return np.clip(out, 0.0, 1.0).reshape(np.shape(theta_t))


# ---------------------------------------------------------------------------
# replicate runs

def literal_onearm_arrays(scen, thetaE: float, method, nsim: int, seed: int):
    """``(de, t1e_j, power_j)`` of the literal one-arm random-external audit
    from whole draws: all external means, then all current means under
    theta0, then under theta1, from stream (seed, 0)."""
    gen = RngStream(seed, 0).generator()
    de = gen.normal(thetaE, scen.seE, nsim)
    d0 = gen.normal(scen.theta0, scen.se, nsim)
    d1 = gen.normal(scen.theta1, scen.se, nsim)
    args = (scen.n, scen.sigma, scen.nE, scen.sigmaE, method, scen.theta0)
    return (de, (tail_arrays(d0, de, *args) > scen.c).astype(float),
            (tail_arrays(d1, de, *args) > scen.c).astype(float))


def stack_rows(pairs):
    """``(T, P)``: the null and power rows of (null, power) row pairs, one
    row per pair."""
    T, P = zip(*pairs)
    return np.array(T), np.array(P)


def mc_grids(scen, thetaE: float, method, offsets, nsim: int, seed: int,
             literal: bool = False):
    """``(e, T, P)`` of one ``oc_twoarm._random_two_arm_mc_grids`` call:
    its draws and the (offset, replicate) null and power rows it reduced,
    recorded as they streamed.  Checks the call's means against
    ``math.fsum`` of each stacked row and its rows against the first
    maximizing offset's."""
    name = "_literal_mc_rows" if literal else "_mc_conditional_rows"
    source = getattr(oc_twoarm, name)
    seen = []

    def recording(*args):
        for pair in source(*args):
            seen.append(pair)
            yield pair

    with mock.patch.object(oc_twoarm, name, recording):
        e, t1e, power, k, Tk, Pk = oc_twoarm._random_two_arm_mc_grids(
            scen, thetaE, method, offsets, nsim, seed, literal)
    T, P = stack_rows(seen)
    assert t1e == [math.fsum(row) / nsim for row in T]
    assert power == [math.fsum(row) / nsim for row in P]
    assert k == int(np.argmax(t1e))
    assert np.array_equal(Tk, T[k]) and np.array_equal(Pk, P[k])
    return e, T, P


def literal_rows(scen, thetaE, method, offsets, nsim, seed):
    """The raw-decision two-arm Monte Carlo rows, drawn one offset at a
    time."""
    e = RngStream(seed, 0).generator().normal(thetaE, scen.seE, nsim)
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    rows = []
    for o, x in enumerate(offsets):
        thc = thetaE + x * scen.sigma
        gen = RngStream(seed, o + 1).generator()
        draws = (gen.normal(thc, se_c, nsim), gen.normal(thc, se_t, nsim),
                 gen.normal(thc, se_c, nsim),
                 gen.normal(thc + scen.theta1, se_t, nsim))
        for dc, dt in (draws[:2], draws[2:]):
            mc, sc = posterior_arrays(dc, e, scen.nc, scen.sigma, scen.nE,
                                      scen.sigmaE, method)
            rows.append((dt > _threshold(mc, sc, zc, se_t)).astype(float))
    return e, np.array(rows[0::2]), np.array(rows[1::2])


def mc_level_one_arm(scen: ScenarioOneArm, dE_mean: float,
                     method: BorrowingMethod, nsim: int,
                     stream_id: int) -> tuple[float, float]:
    """Seeded Monte Carlo null rejection rate at one external mean, and its
    standard error, through the scalar decision path (``decide_borrow``),
    which shares no code with the vectorized region engine."""
    gen = RngStream(0, stream_id).generator()
    external = ArmSummary(dE_mean, scen.nE, scen.sigmaE)
    hits = sum(decide_borrow(ArmSummary(float(d), scen.n, scen.sigma),
                             external, method, scen.theta0, scen.c)
               for d in gen.normal(scen.theta0, scen.se, nsim))
    p = hits / nsim
    return p, math.sqrt(p * (1.0 - p) / nsim)


# ---------------------------------------------------------------------------
# one-arm rejection regions
#
# ``scan_region`` finds the region without any algebra: the posterior tail
# is evaluated on a dense grid over the window theta0 +- 10 se joined with
# dE +- 10 seE, every sign change of ``tail > c`` is refined by Brent's
# method to 1e-10, and the grid is doubled once more when two densities
# disagree on the interval count.  Intervals narrower than a few grid steps
# can slip between grid points, so comparisons with it are only meaningful
# where every interval is wider than that.
#
# ``conflict_roots`` finds the roots of the conflict quartic
# w^4 + 2 alpha w^3 + (alpha^2 - 2 - z_c^2) w^2 - 2 alpha w + 1 + z_c^2 as
# the eigenvalues of a stack of 4x4 companion matrices (LAPACK through
# ``np.linalg.eigvals``), then applies the same regime filter and Newton
# steps on the unsquared margin as the engine.  ``boundary_arrays`` is
# ``region.boundary_arrays`` with these roots in place of the closed form,
# so the two differ only in how the quartic is solved.

BASE_POINTS = 4001
REFINE_TOL = 1e-10


def _count_intervals(reject: np.ndarray) -> int:
    up = int(np.count_nonzero(~reject[:-1] & reject[1:]))
    return up + int(reject[0])


def scan_region(scen, external_mean: float, method, c: float | None = None):
    """Return ``(region, step)``: the scanned rejection region and the grid
    step of the final scan."""
    external_mean = float(external_mean)
    c = scen.c if c is None else float(c)
    lo = min(scen.theta0 - 10.0 * scen.se, external_mean - 10.0 * scen.seE)
    hi = max(scen.theta0 + 10.0 * scen.se, external_mean + 10.0 * scen.seE)

    def tails(x: np.ndarray) -> np.ndarray:
        return tail_arrays(x, external_mean, scen.n, scen.sigma,
                           scen.nE, scen.sigmaE, method, scen.theta0)

    # one doubling up front: the halved grid is its stride-2 view
    m = 2 * (BASE_POINTS - 1) + 1
    xs = np.linspace(lo, hi, m)
    reject = tails(xs) > c
    if _count_intervals(reject) != _count_intervals(reject[::2]):
        m = 2 * (m - 1) + 1
        xs = np.linspace(lo, hi, m)
        reject = tails(xs) > c
    step = (hi - lo) / (m - 1)

    flips = np.nonzero(reject[:-1] != reject[1:])[0]
    if flips.size == 0:
        intervals = (Interval(-math.inf, math.inf),) if bool(reject[0]) else ()
        return RejectionRegion(intervals, Interval(lo, hi),
                               flagged=True), step

    def tail_minus_c(x: float) -> float:
        return float(tails(np.asarray([x]))[0]) - c

    roots = [find_root(tail_minus_c, Interval(xs[i], xs[i + 1]), tol=REFINE_TOL)
             for i in flips]
    intervals = []
    open_lo = -math.inf if bool(reject[0]) else None
    for r in roots:
        if open_lo is None:
            open_lo = r
        else:
            if r > open_lo:
                intervals.append(Interval(open_lo, r))
            open_lo = None
    if open_lo is not None:
        intervals.append(Interval(open_lo, math.inf))
    return RejectionRegion(tuple(intervals), Interval(lo, hi)), step


def conflict_roots(de: np.ndarray, scen, zc: float) -> np.ndarray:
    """Conflict-regime boundary candidates, shape (rows, 4), NaN if none.

    Eigenvalues of a near-double quartic root carry an imaginary part of
    order sqrt(machine eps), below ``region._IMAG_TOL``.
    """
    se = scen.se
    alpha = (de - scen.theta0) / se
    z2 = zc * zc
    comp = np.zeros((de.size, 4, 4))
    comp[:, 0] = np.stack([-2.0 * alpha, 2.0 + z2 - alpha * alpha, 2.0 * alpha,
                           np.full_like(alpha, -1.0 - z2)], axis=1)
    comp[:, (1, 2, 3), (0, 1, 2)] = 1.0
    eig = np.linalg.eigvals(comp)
    w = eig.real
    a = alpha[:, None]
    sw = np.sign(w)
    ok = ((np.abs(eig.imag) <= region._IMAG_TOL * (1.0 + np.abs(w)))
          & (w * w > 1.0))
    w = np.where(ok, w, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(region._NEWTON_STEPS):
            s = np.sqrt(w * w - 1.0)
            w = w - ((sw * (w * (w + a) - 1.0) - zc * s)
                     / (sw * (2.0 * w + a) - zc * w / s))
        r2 = 1.0 + scen.seE**2 / se**2          # (r / se)^2
        return np.where(w * w > r2, de[:, None] + w * se, np.nan)


def boundary_arrays(scen, de, method) -> region.Boundaries:
    """``region.boundary_arrays`` with the conflict roots from eigenvalues."""
    with mock.patch.object(region, "_conflict_roots", conflict_roots):
        return region.boundary_arrays(scen, de, method)
