"""Replicate runs in row blocks: block seams change no value, and the
working memory stays one block whatever nsim.

Every replicate run works in blocks of ``statmath._BLOCK_ROWS`` rows: the
one-arm engine calls, the literal audit's draws, the summaries' sums and
the records.csv chunks.  The two-arm Monte Carlo reduces its rows one
offset at a time and computes each offset's rows one block at a time.  The
whole-array forms are the oracles, and the values must equal them bit for
bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from borrowoc import RngStream, oc_random_external_two_arm_mc, run_algorithm2
from borrowoc import oc_onearm
from borrowoc.oc_onearm import _random_external_arrays, region_oc_arrays
from borrowoc.oc_twoarm import _mc_conditional_rows
from borrowoc.region import boundary_arrays
from borrowoc.runner import DEFAULT_TWO_ARM_OFFSETS, ReplicateColumns
from borrowoc.statmath import _BLOCK_ROWS, _fsum

import oracles
from oracles import (EB, METHODS, METHOD_IDS as IDS, NONE, ONE_ARM as SCEN,
                     ONE_ARM_BIG_EXT as SCEN_BIG_EXT, TWO_ARM as SCEN2)

B = _BLOCK_ROWS
MIB = 2.0**20


def _seam_means():
    """2B + 1 external means; the two-interval band of SCEN_BIG_EXT,
    [0.09, 0.11], fills the rows on both sides of each seam."""
    de = np.linspace(-1.0, 2.0, 2 * B + 1)
    band = np.linspace(0.09, 0.11, 6)
    de[B - 3:B + 3] = band
    de[-4:] = band[:4]
    return de


@pytest.mark.parametrize("method", METHODS, ids=IDS)
@pytest.mark.parametrize("scen", (SCEN, SCEN_BIG_EXT), ids=("nE20", "nE1000"))
def test_region_blocks_are_one_call(scen, method):
    de = _seam_means()
    whole = boundary_arrays(scen, de, method)
    t1e, power = region_oc_arrays(scen, de, method)
    ref = whole.prob(np.array([[scen.theta0], [scen.theta1]]), scen.se)
    assert np.array_equal(t1e, ref[0]) and np.array_equal(power, ref[1])
    if scen is SCEN_BIG_EXT and method is EB:
        pieces = np.count_nonzero(whole.signs, axis=1)
        assert (pieces[[B - 1, B, 2 * B - 1, 2 * B]] == 3).all()


def test_region_blocks_raise_like_one_call():
    # a NaN in a later block is named before an out-of-range mean in an
    # earlier one, as one call over all rows does
    de = np.zeros(B + 2)
    de[0], de[-1] = 1e9, math.nan
    with pytest.raises(ValueError, match="'external_mean' must be finite"):
        region_oc_arrays(SCEN, de, EB)


def test_chunked_normal_draws_are_one_draw():
    whole = RngStream(17, 0).generator().normal(0.3, 2.0, 3 * B + 5)
    gen = RngStream(17, 0).generator()
    parts = [gen.normal(0.3, 2.0, size) for size in (1, B, 7, B - 3, B)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("method", METHODS, ids=IDS)
def test_literal_audit_is_the_whole_array_run(method):
    nsim = 2 * B + 3
    got = _random_external_arrays(SCEN, 0.2, method, nsim, 9, literal=True)
    ref = oracles.literal_onearm_arrays(SCEN, 0.2, method, nsim, 9)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    rep = run_algorithm2(SCEN, 0.2, method, nsim, 9, literal=True)
    assert np.array_equal(rep.records.t1e_borrow, ref[1])
    assert np.array_equal(rep.records.power_borrow, ref[2])


@pytest.mark.parametrize("method", METHODS, ids=IDS)
def test_two_arm_rows_cross_the_seams(method):
    # literal rows against whole draws; conditional rows against calls on
    # the draws around each seam alone (an entry depends on its own draw)
    offsets, nsim = (-0.5, 1.25), 2 * B + 3
    got = oracles.mc_grids(SCEN2, -0.2, method, offsets, nsim, 2, True)
    ref = oracles.literal_rows(SCEN2, -0.2, method, offsets, nsim, 2)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    e, T, P = oracles.mc_grids(SCEN2, -0.2, method, offsets, nsim, 2)
    thcs = [-0.2 + x * SCEN2.sigma for x in offsets]
    for rows in (slice(B - 3, B + 3), slice(2 * B - 1, nsim)):
        t, p = oracles.stack_rows(_mc_conditional_rows(SCEN2, e[rows], thcs,
                                                       method))
        assert np.array_equal(T[:, rows], t) and np.array_equal(P[:, rows], p)


def test_block_sum_is_the_whole_sum():
    # terms that cancel across the seams: any rounding would show
    col = np.tile([1e16, 1.0, -1e16, 1e-3], B)
    assert _fsum(col) == math.fsum(col.tolist())
    # a strided view and a zero-stride broadcast (a report's constant
    # column) are summed as their entries; nan, the infinities and -0.0
    # come out as math.fsum gives them
    strided = np.tile([1e16, 7.0, 1.0, 5.0, -1e16, 3.0], B)[::2]
    shared = np.broadcast_to(np.float64(0.1), (B + 3,))
    assert shared.strides == (0,) and _fsum(strided) == 1.0 * B
    for col in (strided, shared, np.array([-0.0, -0.0]), np.array([-0.0]),
                np.array([-0.0, 0.0]), np.array([1.0, math.inf, 2.0]),
                np.array([-math.inf, -0.0]), np.array([1.0, math.nan, 2.0]),
                np.array([math.nan, math.inf])):
        assert repr(_fsum(col)) == repr(math.fsum(col.tolist()))
    for fsum in (_fsum, math.fsum):
        with pytest.raises(ValueError):
            fsum(np.array([math.inf, -math.inf]))


class TestColumns:
    def test_owned_arrays_are_kept_and_constants_broadcast(self):
        n = 5
        owned = np.arange(n) / (n - 1.0)
        shared = np.broadcast_to(np.float64(0.25), (n,))
        wide = np.linspace(0.0, 1.0, 2 * n)[::2]
        cols = ReplicateColumns(np.arange(n), owned, shared, wide, shared,
                                owned)
        assert cols.dE_mean is owned and not owned.flags.writeable
        assert cols.t1e_borrow.strides == (0,)
        assert not np.shares_memory(cols.power_borrow, wide)
        assert np.array_equal(cols.power_borrow, wide)

    def test_iteration_crosses_the_seams(self):
        rep = run_algorithm2(SCEN, 0.0, NONE, 2 * B + 1, 1)
        cols = rep.records
        assert list(cols) == [cols[i] for i in range(2 * B + 1)]

    def test_run_columns_are_not_copies(self):
        rep = run_algorithm2(SCEN, 0.0, EB, 50, 1)
        cols = rep.records
        assert cols.power_calibrated.strides == (0,)
        for name in ("replicate", "dE_mean", "t1e_borrow", "power_borrow",
                     "power_diff"):
            assert getattr(cols, name).base is None, name


def test_engine_sees_one_block_at_a_time(monkeypatch):
    rows = []

    def counting(scen, de, method):
        rows.append(len(de))
        return boundary_arrays(scen, de, method)

    monkeypatch.setattr(oc_onearm, "boundary_arrays", counting)
    nsim = 3 * B + 5
    run_algorithm2(SCEN, 0.1, EB, nsim, 4)
    assert rows == [B, B, B, 5]


def _peak_mib(fn, *args, **kwargs) -> float:
    """Peak of traced allocations during ``fn(*args, **kwargs)``, above what
    was held before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - before) / MIB
    finally:
        tracemalloc.stop()


def test_one_arm_run_memory():
    # the report's five full columns take 7.6 MiB at nsim = 200k; one
    # call over all rows peaked at 99.6 MiB
    assert _peak_mib(run_algorithm2, SCEN, 0.1, EB, 200_000, 2) < 24.0


def test_two_arm_monte_carlo_memory():
    # 25 default offsets at nsim = 40k, where one column takes 0.31 MiB: the
    # whole (offset, replicate) grids peaked at 32.1 MiB, and the whole rows
    # of one offset at a time at 4.6 MiB (conditional) and 5.5 MiB
    # (literal); rows computed one block at a time take 3.6 and 2.8 MiB
    for literal in (False, True):
        assert _peak_mib(run_algorithm2, SCEN2, 0.3, EB, 40_000, 1,
                         literal=literal) < 4.25
        assert _peak_mib(oc_random_external_two_arm_mc, SCEN2, 0.3, EB,
                         DEFAULT_TWO_ARM_OFFSETS, 40_000, 1,
                         literal=literal) < 4.25
