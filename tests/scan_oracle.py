"""Dense-scan rejection regions: the independent oracle for the algebraic
boundaries of ``borrowoc.region``.

The region is found without any algebra: the posterior tail is evaluated on
a dense grid over the window theta0 +- 10 se joined with dE +- 10 seE, every
sign change of ``tail > c`` is refined by Brent's method to 1e-10, and the
grid is doubled once more when two densities disagree on the interval
count.  Intervals narrower than a few grid steps can slip between grid
points, so comparisons with this oracle are only meaningful where every
interval is wider than that.
"""

from __future__ import annotations

import math

import numpy as np

from borrowoc import Interval, RejectionRegion, find_root
from borrowoc.borrow import tail_arrays

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
        return RejectionRegion(intervals, Interval(lo, hi), REFINE_TOL,
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
    return RejectionRegion(tuple(intervals), Interval(lo, hi), REFINE_TOL), step
