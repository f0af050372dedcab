"""Numerical kernels shared by every other module.

Standard normal distribution functions, adaptive Gauss-Kronrod quadrature,
bracketed root finding, grid-plus-golden-section 1-D maximization, and
reproducible counter-based random streams, plus the argument checks the
record types share.  Only the standard normal family is supported; nothing
here knows about trials or borrowing.

Replicate runs work in blocks of :data:`_BLOCK_ROWS` rows (:func:`_blocks`),
and :func:`_fsum` sums a column block by block.

The quadrature has one engine, :func:`_integrate`, which computes one
integral from the edges of its first panels and can cap the nodes of each
integrand call; :func:`integrate` is its public form.  A run of similar
integrals can share a panel plan: each one then evaluates the panels that the
last one's splits made together with its first panels, in the same calls.
The values cannot change, since each panel's value and error come from its
own 15 nodes alone: the heap sees the same panels in the same order and sums
the same numbers, and a wrong plan costs only time.  The maximizer has
one loop, :func:`_maximize`, whose grid scan is one call on all grid
points and whose polish makes scalar calls, possibly of another function;
:func:`maximize_1d` is its case of one scalar function.
"""

from __future__ import annotations

import heapq
import itertools
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


def _check_entries(value, ok, rule: str):
    """``value`` as a float, or as a float array when it has dimensions;
    raises :class:`DomainError` ``rule`` naming the first entry not ``ok``."""
    if np.ndim(value) == 0:
        v = float(value)
        bad = () if ok(v) else (v,)
    else:
        v = np.asarray(value, dtype=float)
        bad = v[~ok(v)]
    if len(bad):
        raise DomainError(f"{rule}, got {float(bad[0])!r}")
    return v


def _check_finite(name: str, value):
    """:func:`_check_entries`: NaN and infinities are refused."""
    return _check_entries(value, np.isfinite, f"{name!r} must be finite")


def _check_probability(name: str, value):
    """:func:`_check_entries`: entries outside [0, 1] and NaN are refused."""
    return _check_entries(value, lambda a: (a >= 0.0) & (a <= 1.0),
                          f"{name} must lie in [0, 1]")


# the one row budget of every replicate run: its engine calls, its sums and
# its records.csv chunks, so a run's peak memory is its columns plus one
# block whatever nsim
_BLOCK_ROWS = 2048


def _blocks(n: int):
    """Slices covering rows 0..n-1 in order, :data:`_BLOCK_ROWS` at a time."""
    return (slice(lo, min(lo + _BLOCK_ROWS, n))
            for lo in range(0, n, _BLOCK_ROWS))


def _fsum(col) -> float:
    """``math.fsum`` of a 1-D array, its entries made Python floats one
    block at a time; the same correctly rounded sum as one whole list."""
    return math.fsum(itertools.chain.from_iterable(
        col[rows].tolist() for rows in _blocks(len(col))))


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
    out = ndtri(_check_probability("quantile argument", p))
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


def _gk15(f, a, b, max_nodes):
    """Gauss-Kronrod panels (a[i], b[i]): their nodes go through ``f`` in
    calls of at most ``max_nodes`` nodes (all at once if None).  Returns
    ``(a[i], b[i], integral, error estimate)`` per panel, each from its own
    15 values exactly as if evaluated alone."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    x = ((0.5 * (a + b))[:, None] + h[:, None] * _XGK).ravel()
    step = x.size if max_nodes is None else max_nodes
    parts = []
    for start in range(0, x.size, step):
        sl = slice(start, start + step)
        y = np.asarray(f(x[sl]), dtype=float)
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
    return list(zip(a.tolist(), b.tolist(), resk.tolist(), errs))


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


def _integrate(f, cuts, abs_tol: float, max_nodes=None, plan=None) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` from the panels between
    consecutive ``cuts`` (from :func:`_cuts`; none: the integral is 0).

    Each step takes the panel of largest error off a heap, sets aside
    panels at floating-point resolution, and splits the first splittable
    one; the nodes of both halves go through ``f`` in calls of at most
    ``max_nodes`` nodes (all at once if None), unless they came with the
    first panels: ``plan``, a list kept across similar integrals, holds
    the last one's splits as paths from the first panels, and the panels
    those splits make are evaluated with the first ones (module docstring).
    """
    _check_positive("abs_tol", abs_tol)
    if not cuts:
        return 0.0
    # panel edges by path: (first panel index, then 0 left / 1 right halves)
    edges = {(i,): ab for i, ab in enumerate(zip(cuts[:-1], cuts[1:]))}
    for path in plan or ():
        lo, hi = edges.get(path, (0.0, 0.0))    # unknown path: no split
        mid = 0.5 * (lo + hi)
        if lo < mid < hi:           # as the loop splits it
            edges[path + (0,)], edges[path + (1,)] = (lo, mid), (mid, hi)
    panels = _gk15(f, *zip(*edges.values()), max_nodes)
    table = dict(zip(edges, panels))
    # a heap of (-err, tiebreak, path, a, b, value, err), and the values of
    # panels too narrow to split
    heap = [(-p[3], i, (i,), *p) for i, p in enumerate(panels[:len(cuts) - 1])]
    heapq.heapify(heap)
    done, splits = [], []
    serial = len(heap)
    total_err = math.fsum(item[6] for item in heap)
    while total_err > abs_tol:
        if not heap or serial >= _MAX_PANELS:
            raise NonConvergenceError(
                f"quadrature error {total_err:.3e} above tolerance "
                f"{abs_tol:.3e} after {serial} panels")
        _, _, path, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:      # panel at floating-point resolution
            done.append(val)
            continue
        splits.append(path)
        left, right = table.get(path + (0,)), table.get(path + (1,))
        if left is None:
            left, right = _gk15(f, (lo, mid), (mid, hi), max_nodes)
        heapq.heappush(heap, (-left[3], serial, path + (0,), *left))
        heapq.heappush(heap, (-right[3], serial + 1, path + (1,), *right))
        serial += 2
        total_err += left[3] + right[3] - err
    if plan is not None:
        plan[:] = splits
    return math.fsum(item[5] for item in heap) + math.fsum(done)


def integrate(f, domain: Interval, abs_tol: float = 1e-9, *,
              breakpoints=(), gaussian_hint=None) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over ``domain``.

    Parameters
    ----------
    f : callable
        Elementwise integrand: maps a 1-D float array of abscissae to a
        same-shape array of values, each value depending on its own
        abscissa only.  A call covers some panels of this one integral.
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
    return _integrate(f, _cuts(domain, breakpoints, gaussian_hint), abs_tol)


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
    ``scan(xs)`` (an array of values at ``xs``) and the golden-section
    polish by scalar calls ``f(x)``.  ``scan`` may be a cheaper
    approximation of ``f``: it only picks the cell to polish, and its best
    value is returned only if the polish does not beat it.
    """
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
