"""Numerical kernels shared by every other module.

Standard normal distribution functions, adaptive Gauss-Kronrod quadrature,
bracketed root finding, grid-plus-golden-section 1-D maximization, and
reproducible counter-based random streams, plus the argument checks the
record types share.  Only the standard normal family is supported; nothing
here knows about trials or borrowing.

The quadrature has one engine, :func:`_integrate_batch`, which runs many
integrals in lockstep and evaluates their new nodes in one integrand call
per round; :func:`integrate` is its one-integral case.  The maximizer has
one loop, :func:`_maximize`, whose grid scan is one call on all grid
points; :func:`maximize_1d` is its scalar-function case.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


class NumericsError(Exception):
    """Base class for numerical failures raised by this package."""


class NonConvergenceError(NumericsError):
    """Refinement budget exhausted before the requested tolerance was met."""


class InvalidBracketError(NumericsError, ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class DomainError(NumericsError, ValueError):
    """Argument outside the mathematical domain of the function."""


def _check_count(name: str, value) -> int:
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 1):
        raise DomainError(f"{name!r} must be a positive integer, got {value!r}")
    return int(value)


def _check_positive(name: str, value) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name!r} must be a positive finite real, got {value!r}")
    return v


def _check_finite(name: str, value):
    """``value`` as a float, or as a float array when it has dimensions;
    raises :class:`DomainError` naming the first NaN or infinite entry."""
    if np.ndim(value) == 0:
        v = float(value)
        if not math.isfinite(v):
            raise DomainError(f"{name!r} must be finite, got {value!r}")
        return v
    arr = np.asarray(value, dtype=float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise DomainError(f"{name!r} must be finite, got {float(bad[0])!r}")
    return arr


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) on the extended real line.

    Endpoints may be ``-inf`` / ``inf`` as explicit sentinels; NaN and
    degenerate (lo >= hi) intervals are rejected.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("interval endpoints must not be NaN")
        if not lo < hi:
            raise DomainError(f"interval requires lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


@dataclass(frozen=True)
class RngStream:
    """Independent, reproducible random stream keyed by (seed, stream_id).

    Streams are built on the counter-based Philox generator, with the
    stream_id mixed in through the seed-sequence spawn key, so the same pair
    yields bit-identical draws on any platform and distinct stream_ids are
    statistically independent.  Intended use: stream_id = replicate index.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise DomainError(f"{name!r} must be an integer, got {v!r}")
            if not 0 <= int(v) < 2**64:
                raise DomainError(f"{name!r} must fit in 64 unsigned bits, "
                                  f"got {v!r}")
            object.__setattr__(self, name, int(v))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


def norm_cdf(z):
    """Standard normal CDF Phi(z).

    Accepts a scalar or ndarray; +-inf map to 1/0.  Implemented through the
    erfc-based ``ndtr`` kernel, which keeps relative accuracy in the far
    tails (tail probabilities below 1e-3 appear throughout the operating
    characteristics and must not be swamped by absolute error).
    """
    out = ndtr(z)
    return float(out) if np.ndim(out) == 0 else out


def norm_quantile(p):
    """Standard normal quantile; inverse of :func:`norm_cdf`.

    p=0 and p=1 return -inf/+inf sentinels; p outside [0, 1] raises
    :class:`DomainError`.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(np.isnan(arr)) or np.any((arr < 0.0) | (arr > 1.0)):
        raise DomainError(f"quantile argument must lie in [0, 1], got {p}")
    out = ndtri(arr)
    return float(out) if np.ndim(out) == 0 else out


# 15-point Kronrod extension of 7-point Gauss on [-1, 1]; positive half.
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])        # ascending, 15 nodes
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])    # Gauss nodes are the odd ones

_GAUSS_TRUNC = 8.5     # tail mass beyond mu +- 8.5 sigma is < 2e-17
_MAX_PANELS = 4096


def _rowdot(y, w):
    """``w @ row`` for each row of ``y``.  The stacked product runs one
    dot product per row, the same kernel as a 1-D ``w @ row``; a
    matrix-vector product may sum in another order."""
    return np.matmul(y[:, None, :], w[:, None])[:, 0, 0]


def _gk15(f, owner, a, b, max_nodes):
    """Gauss-Kronrod panels (a[i], b[i]) of problems owner[i]: their nodes
    go through ``f(x, owner of each node)`` in calls of at most
    ``max_nodes`` nodes (all at once if None).  Returns lists of integrals
    and error estimates, one per panel, each from its own 15 values exactly
    as if evaluated alone."""
    if not owner:
        return [], []
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    x = ((0.5 * (a + b))[:, None] + h[:, None] * _XGK).ravel()
    k = np.repeat(np.asarray(owner, dtype=np.intp), _XGK.size)
    step = x.size if max_nodes is None else max_nodes
    parts = []
    for start in range(0, x.size, step):
        sl = slice(start, start + step)
        y = np.asarray(f(x[sl], k[sl]), dtype=float)
        if y.shape != x[sl].shape:
            raise DomainError(
                "integrand must map a 1-D array to a same-shape array")
        parts.append(y)
    y = np.concatenate(parts).reshape(-1, _XGK.size)
    resk = h * _rowdot(y, _WGK)
    errs = np.abs(resk - h * _rowdot(y, _WG)).tolist()
    # scaled error estimate: sharper than |K-G| on smooth panels, still
    # conservative near unresolved structure
    dev = np.abs(y - (resk / (b - a))[:, None])
    resasc = (np.abs(h) * _rowdot(dev, _WGK)).tolist()
    for i, (err, asc) in enumerate(zip(errs, resasc)):
        if asc != 0.0 and err != 0.0:
            errs[i] = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    return resk.tolist(), errs


def _cuts(domain: Interval, breakpoints=(), gaussian_hint=None) -> list:
    """Sorted edges of :func:`integrate`'s first panels: infinite ends
    truncated at mu +- 8.5 sigma of the hint, breakpoints inside added;
    empty when the hinted Gaussian lies outside a half-infinite domain."""
    mu, sd = (0.0, 1.0) if gaussian_hint is None else map(float, gaussian_hint)
    if not sd > 0.0:
        raise DomainError("gaussian_hint scale must be positive")
    lo = mu - _GAUSS_TRUNC * sd if math.isinf(domain.lo) else domain.lo
    hi = mu + _GAUSS_TRUNC * sd if math.isinf(domain.hi) else domain.hi
    if not lo < hi:
        return []
    inside = (float(b) for b in breakpoints if lo < float(b) < hi)
    return sorted({lo, hi, *inside})


def _integrate_batch(f, cuts, abs_tol: float, max_nodes=None) -> list:
    """K adaptive Gauss-Kronrod integrals in lockstep, one per entry of
    ``cuts`` (the edges of its first panels, from :func:`_cuts`).

    Each round, every unfinished integral takes its worst panels off its
    own heap exactly as :func:`integrate` alone would, setting aside
    panels at floating-point resolution, and splits the first splittable
    one; the new nodes of all integrals then go through one call
    ``f(x, k)``, k being the index of the integral each node belongs to
    (split into calls of at most ``max_nodes`` nodes).  Every integral
    therefore sees the same panels, values and error estimates as when
    integrated alone, and returns the same float.

    Raises the :class:`NonConvergenceError` of the first integral, in
    ``cuts`` order, whose panel budget runs out: integrals after it stop
    there, those before it run to the end.
    """
    _check_positive("abs_tol", abs_tol)
    n = len(cuts)
    # per integral: a heap of (-err, tiebreak, a, b, value, err), and the
    # values of panels too narrow to split
    heaps = [[] for _ in range(n)]
    done = [[] for _ in range(n)]
    serial = [0] * n
    owner = [k for k, c in enumerate(cuts) for _ in c[1:]]
    a = [lo for c in cuts for lo in c[:-1]]
    b = [hi for c in cuts for hi in c[1:]]
    first = _gk15(f, owner, a, b, max_nodes)
    for k, lo, hi, val, err in zip(owner, a, b, *first):
        heapq.heappush(heaps[k], (-err, serial[k], lo, hi, val, err))
        serial[k] += 1
    total_err = [math.fsum(item[5] for item in heap) for heap in heaps]
    live = [k for k in range(n) if total_err[k] > abs_tol]
    failed = None
    while live:
        split = []      # (integral, a, midpoint, b, err of the split panel)
        for k in live:
            heap = heaps[k]
            while heap and serial[k] < _MAX_PANELS:
                _, _, lo, hi, val, err = heapq.heappop(heap)
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:  # panel at floating-point resolution
                    done[k].append(val)
                    continue
                split.append((k, lo, mid, hi, err))
                break
            else:
                failed = NonConvergenceError(
                    f"quadrature error {total_err[k]:.3e} above tolerance "
                    f"{abs_tol:.3e} after {serial[k]} panels")
                break
        if not split:
            break
        # left halves, then right halves
        ks, los, mids, his, _ = zip(*split)
        vals, errs = _gk15(f, ks + ks, los + mids, mids + his, max_nodes)
        m = len(split)
        live = []
        for i, (k, lo, mid, hi, err) in enumerate(split):
            v1, e1, v2, e2 = vals[i], errs[i], vals[m + i], errs[m + i]
            heapq.heappush(heaps[k], (-e1, serial[k], lo, mid, v1, e1))
            heapq.heappush(heaps[k], (-e2, serial[k] + 1, mid, hi, v2, e2))
            serial[k] += 2
            total_err[k] += e1 + e2 - err
            if total_err[k] > abs_tol:
                live.append(k)
    if failed is not None:
        raise failed
    return [math.fsum(item[4] for item in heap) + math.fsum(vals)
            for heap, vals in zip(heaps, done)]


def integrate(f, domain: Interval, abs_tol: float = 1e-9, *,
              breakpoints=(), gaussian_hint=None) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over ``domain``.

    Parameters
    ----------
    f : callable
        Elementwise integrand: maps a 1-D float array of abscissae to a
        same-shape array of values, each value depending on its own
        abscissa only.  One call may cover the nodes of several panels.
    domain : Interval
        Integration range; endpoints may be infinite (see below).
    abs_tol : float
        Absolute error target; must be finite and positive.
    breakpoints : sequence of float, optional
        Known kink/jump locations; panels never straddle them, so piecewise
        smooth integrands converge at the smooth-integrand rate.
    gaussian_hint : (mu, sigma), optional
        Location/scale of the dominating Gaussian factor.  Infinite
        endpoints are truncated at mu +- 8.5 sigma, discarding < 2e-17 of
        Gaussian mass; defaults to (0, 1).

    Raises
    ------
    NonConvergenceError
        If the panel budget is exhausted before the error estimate drops
        below ``abs_tol``.
    """
    cuts = _cuts(domain, breakpoints, gaussian_hint)
    return _integrate_batch(lambda x, k: f(x), [cuts], abs_tol)[0]


def find_root(f, bracket: Interval, tol: float = 1e-10) -> float:
    """Root of ``f`` inside ``bracket`` by Brent's method.

    Requires a sign change across the bracket; raises
    :class:`InvalidBracketError` otherwise.  The returned point is inside a
    sub-bracket of width <= ``tol``, which must be finite and positive.
    """
    if not bracket.finite:
        raise DomainError("root bracket must be finite")
    _check_positive("tol", tol)
    # imported here so that loading the package does not load scipy.optimize
    from scipy.optimize import brentq
    try:
        return float(brentq(f, bracket.lo, bracket.hi, xtol=tol))
    except ValueError as exc:
        raise InvalidBracketError(str(exc)) from exc


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 401


def _maximize(f, scan, domain: Interval, tol: float = 1e-10):
    """:func:`maximize_1d` with its 401-point grid evaluated by one call
    ``scan(xs)`` (an array of the values of ``f`` at ``xs``) and the
    golden-section polish by scalar calls ``f(x)``."""
    if not domain.finite:
        raise DomainError("maximization domain must be finite")
    _check_positive("tol", tol)
    xs = np.linspace(domain.lo, domain.hi, _GRID_POINTS)
    ys = np.asarray(scan(xs), dtype=float)
    i = int(np.argmax(ys))                      # first occurrence = smallest x
    best_x, best_y = float(xs[i]), float(ys[i])

    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, _GRID_POINTS - 1)])
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:        # ties shrink toward the left endpoint
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


def maximize_1d(f, domain: Interval, tol: float = 1e-10):
    """Global 1-D maximization: coarse grid scan plus golden-section polish.

    Scans 401 equispaced points, then refines inside the cell around the
    best grid point with a golden-section search down to a bracket of width
    ``tol`` (finite and positive).  Ties -- including plateaus such as a
    type I error profile saturated at 1 -- resolve to the smallest argmax
    (to within the scan resolution).  ``f`` maps a float to a float.

    Returns ``(argmax, max)``.
    """
    return _maximize(f, lambda xs: [f(x) for x in xs], domain, tol)
