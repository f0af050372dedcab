"""The conditional rejection curve behind the two-arm Monte Carlo rows.

Under Empirical Bayes each Monte Carlo row is the conditional rejection
probability given one drawn external mean, a function of d = theta_c - e
alone.  ``_mc_conditional_rows`` interpolates it on Chebyshev panels
tabulated from the u-line kernel; the direct kernel at each d is the
reference.  Fixed-weight rows are the closed form, literal rows the raw
decisions of ``oracles.literal_rows``, and the rows of all offsets at once
equal single-offset calls exactly.  The curve is evaluated by an in-place
recurrence that must equal NumPy's ``chebval`` bit for bit, and a two-arm
``run_algorithm2``, which builds power rows at its chosen offset alone,
must report exactly the rows of the all-offsets run.
"""

import inspect
import math

import numpy as np
import pytest

from borrowoc import RngStream, ScenarioTwoArm, run_algorithm2
from borrowoc import oc_twoarm, runner
from borrowoc.oc_twoarm import (_chebval, _closed_fixed, _mc_conditional_rows,
                                _random_two_arm_mc_grids, _uline_reject)

import oracles
from oracles import (CUSP, EB, FIXED_HALF, LOPSIDED, METHODS, NONE,
                     TWO_ARM as SCEN)


def _width(scen):
    return 2.0 * scen.sigma / math.sqrt(max(scen.nc, scen.nt))


def _direct_rows(scen, e, thc):
    d = thc - e
    return _uline_reject(scen, d, np.stack([d, d + scen.theta1]), 0.0, 0.0,
                         EB)


class TestConditionalCurve:
    def test_matches_kernel_over_fuzz(self):
        worst = 0.0
        rng = np.random.default_rng(8080)
        for scen in oracles.fuzz_two_arm(rng, 40, oracles.unequal_fields):
            assert scen.c != 1.0 - scen.alpha and scen.sigmaE != scen.sigma
            thetaE = float(rng.normal(0.0, 2.0))
            e = rng.normal(thetaE, scen.seE * rng.uniform(0.5, 30.0), 300)
            thcs = thetaE + scen.sigma * rng.uniform(-4.0, 4.0, 3)
            T, P = oracles.stack_rows(_mc_conditional_rows(scen, e, thcs, EB))
            for o, thc in enumerate(thcs):
                ref = _direct_rows(scen, e, thc)
                worst = max(worst, np.abs(T[o] - ref[0]).max(),
                            np.abs(P[o] - ref[1]).max())
        assert worst <= 1e-11

    def test_cusp_rows_match_kernel(self):
        # tabulated from the inner rule, which misses the cusp, the rows
        # were up to 1.8e-6 off the kernel at these offsets
        offsets = np.arange(-3.0, 3.125, 0.25)
        e, T, P = oracles.mc_grids(CUSP, 0.3, EB, offsets, 500, seed=1)
        for o, x in enumerate(offsets):
            ref = _direct_rows(CUSP, e, 0.3 + x * CUSP.sigma)
            assert np.abs(T[o] - ref[0]).max() <= 1e-12
            assert np.abs(P[o] - ref[1]).max() <= 1e-12

    @pytest.mark.parametrize("nc, nt", [(15, 15), (20, 60), (60, 20)])
    def test_panel_edges(self, nc, nt):
        scen = ScenarioTwoArm(nc=nc, nt=nt, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025)
        edges = _width(scen) * np.arange(-12.0, 13.0)
        d = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
        T, P = oracles.stack_rows(_mc_conditional_rows(scen, -d, (0.0,), EB))
        ref = _direct_rows(scen, -d, 0.0)
        assert np.abs(T[0] - ref[0]).max() <= 1e-11
        assert np.abs(P[0] - ref[1]).max() <= 1e-11
        # both panels meeting at an edge give the same value there
        n = edges.size
        for rows in (T[0], P[0]):
            assert np.abs(rows[n:2 * n] - rows[2 * n:]).max() <= 1e-11

    def test_row_depends_only_on_its_own_offset(self):
        e = RngStream(3, 0).generator().normal(0.2, SCEN.seE, 500)
        T, P = oracles.stack_rows(_mc_conditional_rows(SCEN, e,
                                                      (-0.5, 0.3, 1.9), EB))
        other = np.concatenate([e[:200], [-40.0, 7.5, 0.21]])
        T2, P2 = oracles.stack_rows(_mc_conditional_rows(SCEN, other,
                                                        (0.3, 25.0), EB))
        assert np.array_equal(T2[0, :200], T[1, :200])
        assert np.array_equal(P2[0, :200], P[1, :200])

    def test_rows_do_not_depend_on_nsim(self):
        offsets = (-1.0, 0.25, 2.0)
        e1, T1, P1 = oracles.mc_grids(SCEN, 0.3, EB, offsets, 400, seed=21)
        e2, T2, P2 = oracles.mc_grids(SCEN, 0.3, EB, offsets[1:], 3000,
                                     seed=21)
        assert np.array_equal(e2[:400], e1)
        assert np.array_equal(T2[:, :400], T1[1:])
        assert np.array_equal(P2[:, :400], P1[1:])

    def test_node_batches_do_not_change_rows(self, monkeypatch):
        e = RngStream(6, 0).generator().normal(0.0, SCEN.seE, 300)
        thcs = (-3.0, 0.0, 2.5)
        whole = oracles.stack_rows(_mc_conditional_rows(SCEN, e, thcs, EB))
        # 6,000 nodes per kernel chunk: 16 curve nodes of 9 panels each
        monkeypatch.setattr(oc_twoarm, "_BATCH_NODES",
                            50 * 3 * oc_twoarm._INNER_GL_NODES)
        batched = oracles.stack_rows(_mc_conditional_rows(SCEN, e, thcs, EB))
        assert all(np.array_equal(a, b) for a, b in zip(whole, batched))

    def test_node_budget_bounds_every_kernel_node_array(self, monkeypatch):
        # at nc/nt = 4/189 the curve's panels are 2 se_t wide and the
        # kernel's own panels are narrow: its per-mean node arrays (the
        # arguments of ndtr) come in chunks, and so would a threshold
        # table (posterior_arrays) too large for one
        scen = LOPSIDED
        nodes, table = [], []

        def recording(fn, sizes):
            def wrapped(x, *args):
                sizes.append(np.size(x))
                return fn(x, *args)
            return wrapped

        monkeypatch.setattr(oc_twoarm, "ndtr",
                            recording(oc_twoarm.ndtr, nodes))
        monkeypatch.setattr(oc_twoarm, "posterior_arrays",
                            recording(oc_twoarm.posterior_arrays, table))
        _random_two_arm_mc_grids(scen, 0.3, EB, (-1.0, 0.0, 1.0), 2500, seed=1)
        assert len(nodes) > 2           # the null and power rows per chunk
        assert max(nodes + table) <= oc_twoarm._BATCH_NODES

    def test_far_apart_offsets_tabulate_only_the_panels_they_hit(
            self, monkeypatch):
        rows = []

        def counting(scen, theta_c, *args):
            rows.append(theta_c.size)
            return _uline_reject(scen, theta_c, *args)

        monkeypatch.setattr(oc_twoarm, "_uline_reject", counting)
        e, T, P = oracles.mc_grids(SCEN, 0.0, EB, (-500.0, 500.0), 2000,
                                  seed=5)
        w = _width(SCEN)
        hit = set()
        for thc in (-500.0, 500.0):
            hit.update(np.floor((thc - e) / w).tolist())
        assert sum(rows) == 17 * len(hit)
        assert len(hit) < 40            # against 1,950 panels from -500 to 500
        for o, thc in enumerate((-500.0, 500.0)):
            ref = _direct_rows(SCEN, e, thc)
            assert np.abs(T[o] - ref[0]).max() <= 1e-11
            assert np.abs(P[o] - ref[1]).max() <= 1e-11


class TestOtherRowsUnchanged:
    @pytest.mark.parametrize("method", [NONE, FIXED_HALF],
                             ids=["none", "fixed"])
    def test_fixed_weight_rows_are_the_closed_form(self, method):
        offsets = (-0.5, 0.0, 1.25)
        e, T, P = oracles.mc_grids(SCEN, -0.2, method, offsets, 700, seed=2)
        delta = method.delta if method is FIXED_HALF else 0.0
        for o, x in enumerate(offsets):
            thc = -0.2 + x * SCEN.sigma
            assert np.array_equal(T[o], _closed_fixed(SCEN, thc, thc, e,
                                                      delta))
            assert np.array_equal(P[o], _closed_fixed(
                SCEN, thc, thc + SCEN.theta1, e, delta))

    @pytest.mark.parametrize("method", METHODS, ids=oracles.METHOD_IDS)
    def test_literal_rows_are_the_raw_decisions(self, method):
        offsets = (-0.5, 0.0, 1.25)
        got = oracles.mc_grids(SCEN, -0.2, method, offsets, 700, seed=2,
                              literal=True)
        ref = oracles.literal_rows(SCEN, -0.2, method, offsets, 700, seed=2)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


class TestRowsMatchSingleOffsetCalls:
    """The Monte Carlo rows of all offsets at once equal single-offset calls
    exactly.  Empirical Bayes rows come from an interpolated curve, so they
    match the u-line kernel to a tolerance (``TestOtherRowsUnchanged``
    checks the fixed-weight rows against the closed form)."""

    @pytest.mark.parametrize("method", METHODS, ids=oracles.METHOD_IDS)
    def test_null_and_power_rows_match_single_mean_calls(self, method):
        offsets = (-0.5, 0.7)
        nsim = 549
        e, T, P = oracles.mc_grids(SCEN, 0.1, method, offsets, nsim, seed=11)
        for o, x in enumerate(offsets):
            thc = 0.1 + x * SCEN.sigma
            null, alt = oracles.stack_rows(_mc_conditional_rows(
                SCEN, e, (thc,), method))
            assert np.array_equal(T[o], null[0])
            assert np.array_equal(P[o], alt[0])
            if method is EB:
                d = thc - e
                ref = _uline_reject(SCEN, d, np.stack([d, d + SCEN.theta1]),
                                    0.0, 0.0, method)
                assert np.abs(T[o] - ref[0]).max() <= 1e-11
                assert np.abs(P[o] - ref[1]).max() <= 1e-11


class TestInPlaceRecurrence:
    @pytest.mark.parametrize("n", [1, 452, 2048])
    def test_equals_chebval_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for scale in 10.0 ** np.arange(-13, 1):
            # (panels, 17) coefficients read through their transpose, as
            # the curve stores them; a constant term of 0.5 and the rest
            # at most 0.5 in all keep the values inside [0, 1] unclipped
            c = rng.uniform(-1.0, 1.0, (40, oc_twoarm._CURVE_NODES))
            c *= scale * 0.5 / (oc_twoarm._CURVE_NODES - 1)
            c[:, 0] = 0.5
            t = rng.uniform(-1.0, 1.0, n)
            t[:4] = [-1.0, 1.0, np.nextafter(-1.0, 0.0),
                     np.nextafter(1.0, 0.0)][:n]
            idx = rng.integers(0, 40, n)
            ref = np.polynomial.chebyshev.chebval(t, c.T[:, idx],
                                                  tensor=False)
            assert np.all((ref >= 0.0) & (ref <= 1.0))
            out = np.empty(n)
            assert _chebval(t, c.T, idx, out) is out
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
            # values past [0, 1] are clipped, as the rows' np.clip did
            c[:, 0] = rng.choice([-3.0, 4.0], 40)
            ref = np.clip(np.polynomial.chebyshev.chebval(
                t, c.T[:, idx], tensor=False), 0.0, 1.0)
            assert np.array_equal(_chebval(t, c.T, idx, out), ref)


def _chosen_offset_report(scen, thetaE, method, offsets, nsim, seed,
                          literal):
    """The report of a two-arm ``run_algorithm2`` rebuilt from the rows
    that ``oracles.mc_grids`` records on the all-offsets path."""
    e, T, P = oracles.mc_grids(scen, thetaE, method, offsets, nsim, seed,
                               literal)
    t1e = [math.fsum(row) / nsim for row in T]
    k = t1e.index(max(t1e))
    cols = runner._replicate_columns(
        e, T[k], P[k], oc_twoarm.power_calibrated_two_arm(t1e[k], scen))
    echo = runner.scenario_echo(scen, method, thetaE,
                                {"argmax_offset": float(offsets[k])})
    return t1e, k, runner.summarize(cols, seed, nsim, echo)


class TestPowerAtTheChosenOffset:
    """A two-arm ``run_algorithm2`` computes the null rows at every offset
    and the power row at the first maximizing offset k alone; its report
    equals the one built from the rows of every offset."""

    @pytest.mark.parametrize("literal", [False, True],
                             ids=["conditional", "literal"])
    @pytest.mark.parametrize("method", METHODS, ids=oracles.METHOD_IDS)
    @pytest.mark.parametrize("offsets", [
        (-1.0, 0.25, 0.75, 2.0), (-0.5, 0.75, 0.75), (0.5,)],
        ids=["grid", "tie", "one-offset"])
    def test_report_equals_the_all_offsets_rows(self, offsets, method,
                                                literal):
        nsim = 700
        t1e, k, ref = _chosen_offset_report(SCEN, 0.1, method, offsets,
                                            nsim, 9, literal)
        got = run_algorithm2(SCEN, 0.1, method, nsim, 9, literal=literal,
                             offsets=offsets)
        assert got == ref
        if not literal and (method is NONE or len(offsets) == 3) \
                and len(offsets) > 1:
            # tied means, none's at every offset and the others' at the
            # repeated 0.75: the first of them wins
            tied = [o for o, v in enumerate(t1e) if v == max(t1e)]
            assert len(tied) >= 2 and k == tied[0]

    @pytest.mark.parametrize("literal", [False, True],
                             ids=["conditional", "literal"])
    @pytest.mark.parametrize("method", METHODS, ids=oracles.METHOD_IDS)
    def test_power_rows_at_exactly_one_offset(self, monkeypatch, method,
                                              literal):
        name = "_literal_mc_rows" if literal else "_mc_conditional_rows"
        source, calls = getattr(oc_twoarm, name), []

        def recording(*args):
            call = inspect.signature(source).bind(*args)
            call.apply_defaults()
            calls.append(call.arguments)
            yield from source(*args)

        kernel, kernel_rows = oc_twoarm._uline_reject, []

        def counting(scen, theta_c, theta_t, *args):
            kernel_rows.append(np.shape(theta_t))
            return kernel(scen, theta_c, theta_t, *args)

        monkeypatch.setattr(oc_twoarm, name, recording)
        monkeypatch.setattr(oc_twoarm, "_uline_reject", counting)
        offsets, nsim, seed = (-1.0, 0.0, 0.75, 1.5, 3.0), 2100, 3
        rep = run_algorithm2(SCEN, -0.2, method, nsim, seed,
                             literal=literal, offsets=offsets)
        k = offsets.index(rep.scenario["argmax_offset"])
        thcs = [-0.2 + x * SCEN.sigma for x in offsets]
        assert [list(c["theta_cs"]) for c in calls] == [thcs, [thcs[k]]]
        assert [tuple(c["sides"]) for c in calls] == [(0,), (1,)]
        if literal:
            # k's rows come from its own stream, (seed, k + 1)
            assert calls[1]["start"] == k
            e, T, P = oracles.literal_rows(SCEN, -0.2, method, offsets,
                                           nsim, seed)
            assert np.array_equal(rep.records.t1e_borrow, T[k])
            assert np.array_equal(rep.records.power_borrow, P[k])
        if method is EB and not literal:
            # one kernel row for the null curve on every offset's panels,
            # then one for the power curve on offset k's panels alone
            e = RngStream(seed, 0).generator().normal(-0.2, SCEN.seE, nsim)
            hit = np.unique(np.floor((thcs[k] - e) / _width(SCEN))).size
            assert kernel_rows[1] == (1, 17 * hit)
            assert kernel_rows[0][0] == 1 and kernel_rows[0][1] > 17 * hit
        else:
            assert not kernel_rows
