"""Unfused quadrature kernels: bitwise oracles for the batched engines.

``integrate`` evaluates one Gauss-Kronrod panel per integrand call, and
``inner_reject_gl`` walks the three Gauss-Legendre segments (each cut into
equal pieces when nt > nc) of the two-arm Empirical Bayes inner rule one
at a time, for one treatment mean, with the normal quantile of the
posterior threshold recomputed on every call.  ``profile`` builds a two-arm
profile from them one offset at a time, with a scalar grid scan and
golden-section polish for its maximum.  The engines in
``borrowoc.statmath`` and ``borrowoc.oc_twoarm`` do the same
floating-point operations in fewer NumPy calls, so they must agree with
these loops exactly, not to a tolerance.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.special import ndtr

from borrowoc import DomainError, Interval, NonConvergenceError, norm_quantile
from borrowoc.borrow import EMPIRICAL_BAYES, posterior_arrays
from borrowoc.statmath import _GAUSS_TRUNC, _MAX_PANELS, _WG, _WGK, _XGK

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
