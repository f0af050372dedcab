"""Exact rejection regions in sample-mean space.

For a fixed external mean, the borrowing test rejects on a set of current
sample means.  Under a fixed power prior that set is a single upper
interval, but under Empirical Bayes re-weighting the posterior tail is not
monotone in the current mean and the region can split into disjoint
intervals (large external samples in mild conflict).

The boundaries are found algebraically, for a whole vector of external
means at once (:func:`boundary_arrays`).  With b = n/sigma^2, a(x) the
external precision delta nE/sigmaE^2 at current mean x, and z_c the normal
quantile of the threshold c, the test rejects iff the margin

    g(x) = a(x) (dE - theta0) + b (x - theta0) - z_c sqrt(a(x) + b)

is positive.  Three cases cover every boundary:

* fixed weight or no borrowing: a is constant, g is increasing and linear,
  one root;
* Empirical Bayes agreement, |x - dE| <= r with r^2 = sigma^2/n +
  sigmaE^2/nE: the weight is 1, a = nE/sigmaE^2, again one linear root;
* Empirical Bayes conflict, |x - dE| > r: a = 1/((x - dE)^2 - sigma^2/n).
  With w = (x - dE)/se and alpha = (dE - theta0)/se, g has the sign of
  sign(w) (w^2 + alpha w - 1) - z_c sqrt(w^2 - 1), whose roots are the
  roots of the quartic (w^2 + alpha w - 1)^2 = z_c^2 (w^2 - 1) on the
  branch where sign(w) (w^2 + alpha w - 1) has the sign of z_c.  The
  quartic is solved in closed form (Ferrari: a resolvent cubic, then two
  real quadratics; :func:`_conflict_roots`).

Probabilities then follow in closed form, with no Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# tail_arrays and find_root are no longer called here; the names stay for
# bench/tracing.py, which wraps region.tail_arrays and region.find_root
from .borrow import (EMPIRICAL_BAYES, NO_BORROWING, BorrowingMethod,  # noqa: F401
                     posterior_arrays, tail_arrays)
from .scenarios import ScenarioOneArm
from .statmath import (DomainError, Interval, _check_finite,  # noqa: F401
                       find_root, norm_cdf, norm_quantile)

_NEWTON_STEPS = 3
# a quadratic factor's near-double root comes out with an imaginary part of
# order sqrt(machine eps); a larger one belongs to a genuinely complex pair
_IMAG_TOL = 1e-6
_PLUS_MINUS = np.array([1.0, -1.0])
# Empirical Bayes refuses external means more than this many standard errors
# se from theta0.  A far-conflict boundary is formed as dE + w se with w near
# -(dE - theta0)/se, so it loses about 2e-16 (dE - theta0) to cancellation:
# at most about 2e-10 se within the bound (a 60-digit solve over 200
# scenarios), and no correct digit beyond 1e15 se.
_MAX_EB_DISTANCE = 1e6


@dataclass(frozen=True)
class RejectionRegion:
    """Union of disjoint open intervals of current sample means that reject.

    ``intervals`` are sorted ascending and pairwise disjoint; endpoints may
    be infinite.  ``scan_bounds`` is the window theta0 +- 10 sigma/sqrt(n),
    widened to cover external_mean +- 10 sigmaE/sqrt(nE), where the test's
    behaviour matters; boundaries outside it are still reported.
    ``flagged`` marks a region with no boundary in that window, so inside it
    the region is all or nothing.
    """

    intervals: tuple[Interval, ...]
    scan_bounds: Interval
    flagged: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        prev_hi = -math.inf
        for iv in self.intervals:
            if iv.lo < prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            prev_hi = iv.hi


def interval_count(region: RejectionRegion) -> int:
    """Number of disjoint intervals; >1 signals the non-monotone regime."""
    return len(region.intervals)


@dataclass(frozen=True)
class Boundaries:
    """Rejection regions of many external means as boundary arrays.

    Row j describes the region for external mean ``de[j]``: ``start[j]``
    says whether it rejects left of every boundary, ``roots[j]`` holds its
    boundaries in ascending order (``+inf`` pads unused slots) and
    ``signs[j]`` is +1 where rejection starts, -1 where it stops and 0 in
    the padding.  ``lo`` and ``hi`` are each row's window
    (``RejectionRegion.scan_bounds``); boundaries may lie outside it.
    """

    start: np.ndarray
    roots: np.ndarray
    signs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def prob(self, theta, se: float) -> np.ndarray:
        """P(current mean in the region) for means ~ N(theta, se^2).

        ``theta`` broadcasts against the rows (shape ``(m,)`` or ``(g, m)``).
        Each row is start + sum_k signs_k Phi(theta/se - r_k/se),
        accumulated in a fixed order; padding adds exactly zero, so a row's
        value does not depend on the other rows.
        """
        acc = np.broadcast_to(self.start.astype(float), np.broadcast_shapes(
            np.shape(theta), self.start.shape))
        z = np.asarray(theta) / se
        roots, signs = self.roots / se, self.signs
        for k in range(roots.shape[1]):
            acc = acc + signs[:, k] * ndtr(z - roots[:, k])
        return np.clip(acc, 0.0, 1.0)


def _conflict_roots(de: np.ndarray, scen: ScenarioOneArm, zc: float) -> np.ndarray:
    """Conflict-regime boundary candidates, shape (rows, 4), NaN if none.

    Roots of the quartic (w^2 + alpha w - 1)^2 - z_c^2 (w^2 - 1) by Ferrari's
    factorization.  With t the largest real root of the resolvent cubic
    2t^3 + (z_c^2 - 4 - alpha^2) t^2 - 4 z_c^2 t - z_c^4 and g^2 = z_c^2 + 2t,
    the quartic is (w^2 + alpha w - 1 + t)^2 - g^2 (w + t alpha / g^2)^2, the
    product of the real quadratics w^2 + (alpha -+ g) w + t - 1 -+ t alpha / g.
    The cubic is <= 0 at t = max(0, (4 + alpha^2 - z_c^2) / 2), so
    g^2 >= 4 + alpha^2, and t is a simple root, well apart from the other two
    once the cubic is scaled by 2 + alpha^2/2: Cardano's formula (one real
    root) or the trigonometric one (three) gives it to about 3e-16 relative
    (against a 40-digit solve), so t needs no polishing.  The Newton steps
    polish w, not t: on the unsquared margin
    sign(w)(w^2 + alpha w - 1) - z_c sqrt(w^2 - 1), and roots are then kept
    in the regime |w| > r/se.  The margin's roots stay simple where a small
    z_c makes near-double roots of the quartic.  There the computed sign of
    w^2 + alpha w - 1, which tells the two branches apart, is rounding
    noise, so candidates are not filtered by branch: one that is no
    boundary is dropped by the midpoint decisions.
    """
    se = scen.se
    alpha = (de - scen.theta0) / se
    z2 = zc * zc
    # the cubic in tau = t/S, S = 2 + alpha^2/2 (which keeps alpha^6 from
    # overflowing), made monic, tau^3 + b tau^2 + c tau + d, and depressed by
    # tau = s - b/3 to s^3 + p s + q; p = c - b^2/3 < 0, as c < 0 or b = -1
    scale = 2.0 + 0.5 * alpha * alpha
    zs = z2 / scale
    b, c, d = 0.5 * zs - 1.0, -2.0 * zs / scale, -0.5 * zs * zs / scale
    p = c - b * b / 3.0
    q = (2.0 * b * b - 9.0 * c) * b / 27.0 + d
    disc = 0.25 * q * q + p * p * p / 27.0
    m = np.sqrt(-p / 3.0)
    a = alpha[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc), q))
        trig = 2.0 * m * np.cos(np.arccos(np.clip(-0.5 * q / m**3, -1.0, 1.0)) / 3.0)
        tau = np.where(disc > 0.0, u - p / (3.0 * u), trig) - b / 3.0
        t = (scale * tau)[:, None]
        g = np.sqrt(z2 + 2.0 * t) * _PLUS_MINUS
        mid = 0.5 * (g - a)             # -(alpha -+ g)/2, the quadratics' centres
        dq = mid * mid - (t - 1.0 - t / g * a)
        half = np.sqrt(np.abs(dq))
        span = np.where(dq >= 0.0, half, 0.0)
        w = np.concatenate([mid + span, mid - span], axis=1)
        imag = np.concatenate([half - span] * 2, axis=1)
        sw = np.sign(w)
        ok = (imag <= _IMAG_TOL * (1.0 + np.abs(w))) & (w * w > 1.0)
        w = np.where(ok, w, np.nan)
        for _ in range(_NEWTON_STEPS):
            s = np.sqrt(w * w - 1.0)
            w = w - ((sw * (w * (w + a) - 1.0) - zc * s)
                     / (sw * (2.0 * w + a) - zc * w / s))
        r2 = 1.0 + scen.seE**2 / se**2          # (r / se)^2
        return np.where(w * w > r2, de[:, None] + w * se, np.nan)


def boundary_arrays(scen: ScenarioOneArm, de, method: BorrowingMethod) -> Boundaries:
    """Rejection regions for a vector of external means, as boundaries.

    Collects every finite linear and quartic root of the margin (module
    docstring), wherever it lies, and reads the decision of every segment
    between consecutive candidates at its midpoint; the outer segments end
    at the row's window (theta0 +- 10 se joined with dE +- 10 seE) or, for
    a root outside it, one window width beyond that root.  The decision
    there is the posterior z-score test (mean - theta0)/sd > z_c, which is
    the posterior-tail test ``tail > c`` without the normal CDF's underflow.
    A candidate whose two neighbouring segments decide alike (a tangency,
    or no root at all) is dropped.  Every step is elementwise in the rows,
    so a row's result does not depend on the rest of the batch; only the
    padded width of ``roots`` does.  Under Empirical Bayes an external
    mean more than ``_MAX_EB_DISTANCE`` standard errors from theta0 raises
    :class:`DomainError`: within that bound every boundary is good to 1e-9
    se, and beyond it the far-conflict boundary loses its digits.
    """
    de = np.atleast_1d(_check_finite("external_mean", de))
    zc = norm_quantile(scen.c)
    se, seE, theta0 = scen.se, scen.seE, scen.theta0
    if method.kind == EMPIRICAL_BAYES:
        far = np.abs(de - theta0) > _MAX_EB_DISTANCE * se
        if far.any():
            raise DomainError(
                f"external mean {float(de[far][0])!r} lies more than "
                f"{_MAX_EB_DISTANCE:g} standard errors from theta0; its "
                "Empirical Bayes boundaries would lose their precision")
    lo = np.minimum(theta0 - 10.0 * se, de - 10.0 * seE)
    hi = np.maximum(theta0 + 10.0 * se, de + 10.0 * seE)
    v = se * se

    # fixed weight, no borrowing and EB agreement: one linear root each
    delta = {NO_BORROWING: 0.0, EMPIRICAL_BAYES: 1.0}.get(method.kind, method.delta)
    a = delta * scen.nE / scen.sigmaE**2
    cand = (theta0 + v * (zc * math.sqrt(a + 1.0 / v) - a * (de - theta0)))[:, None]
    if method.kind == EMPIRICAL_BAYES:
        agree = np.abs(cand - de[:, None]) <= math.sqrt(v + seE * seE)
        cand = np.where(agree, cand, np.nan)
        cand = np.concatenate([cand, _conflict_roots(de, scen, zc)], axis=1)

    roots = np.sort(np.where(np.isfinite(cand), cand, np.inf), axis=1)
    # outer segments end at the window, or beyond the outermost root
    first = roots[:, 0]
    last = np.max(np.where(np.isinf(roots), -np.inf, roots), axis=1)
    left = np.where(first <= lo, first - (hi - lo), lo)
    right = np.where(last >= hi, last + (hi - lo), hi)
    edges = np.concatenate([left[:, None], np.minimum(roots, right[:, None]),
                            right[:, None]], axis=1)
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    mean, sd = posterior_arrays(mids, de[:, None], scen.n, scen.sigma, scen.nE,
                                scen.sigmaE, method)
    reject = (mean - theta0) / sd > zc
    # keep the candidates where the decision changes, in ascending order
    signs = np.diff(reject.astype(np.int8), axis=1).astype(float)
    signs[np.isinf(roots)] = 0.0        # padded slots are no boundaries
    roots = np.where(signs != 0.0, roots, np.inf)
    order = np.argsort(roots, axis=1, kind="stable")
    width = int(np.count_nonzero(signs, axis=1).max(initial=0))
    roots = np.take_along_axis(roots, order[:, :width], axis=1)
    signs = np.take_along_axis(signs, order[:, :width], axis=1)
    return Boundaries(reject[:, 0], roots, signs, lo, hi)


def _region_row(b: Boundaries, j: int) -> RejectionRegion:
    """The :class:`RejectionRegion` of row ``j`` of a boundary batch."""
    live = b.roots[j][b.signs[j] != 0.0].tolist()
    ends = [-math.inf] * bool(b.start[j]) + live    # alternate lo, hi, lo, ...
    if len(ends) % 2:
        ends.append(math.inf)
    # coincident roots bound no interval; drop them
    intervals = [Interval(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi]
    window = Interval(b.lo[j], b.hi[j])
    flagged = not any(window.lo < r < window.hi for r in live)
    return RejectionRegion(tuple(intervals), window, flagged=flagged)


def rejection_region(scen: ScenarioOneArm, external_mean: float,
                     method: BorrowingMethod) -> RejectionRegion:
    """Rejection region for one fixed external mean.

    The one-row case of :func:`boundary_arrays` (a table over many external
    means is one batch call, cut into regions row by row): its boundaries
    are the exact roots of the decision margin, and it is ``flagged`` when
    none of them lies inside ``scan_bounds``.
    """
    return _region_row(boundary_arrays(scen, float(external_mean), method), 0)


def rejection_prob(region: RejectionRegion, theta: float, n: int,
                   sigma: float) -> float:
    """P(sample mean lands in the region) when the mean estimator is
    N(theta, sigma^2/n); exact sum of normal CDF differences."""
    s = sigma / math.sqrt(n)
    total = math.fsum(
        norm_cdf((iv.hi - theta) / s) - norm_cdf((iv.lo - theta) / s)
        for iv in region.intervals)
    return min(max(total, 0.0), 1.0)
