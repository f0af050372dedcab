"""The conditional rejection curve behind the two-arm Monte Carlo rows, and
the nested engine's inner rule when the treatment arm is the larger.

Under Empirical Bayes each Monte Carlo row is the conditional rejection
probability given one drawn external mean, a function of d = theta_c - e
alone.  ``_mc_conditional_rows`` interpolates it on Chebyshev panels
tabulated from the u-line kernel; the direct kernel at each d is the
reference.
"""

import math

import numpy as np
import pytest

import kernel_oracle as oracle
from borrowoc import (
    BorrowingMethod,
    RngStream,
    ScenarioTwoArm,
    norm_quantile,
    oc_random_external_two_arm,
    reject_prob_two_arm,
)
from borrowoc import oc_twoarm
from borrowoc.borrow import posterior_arrays
from borrowoc.oc_twoarm import (_closed_fixed, _inner_reject_gl,
                                _mc_conditional_rows,
                                _random_two_arm_mc_grids, _threshold,
                                _uline_reject)

EB = BorrowingMethod.empirical_bayes()
NONE = BorrowingMethod.none()
FIXED_HALF = BorrowingMethod.fixed_power_prior(0.5)
SCEN = ScenarioTwoArm(nc=15, nt=15, nE=10, sigma=1.0, theta1=1.0, alpha=0.025)
# treatment arm larger than the control arm: one 40-node piece per segment
# erred by up to 1e-3 on the last two
LARGE_TREATMENT = ((20, 40), (20, 60), (10, 100), (11, 178), (4, 189))
# the threshold's cusp past u = +-r is far narrower than se_c here
CUSP = ScenarioTwoArm(nc=2, nt=234, nE=5000, sigma=2.0, theta1=1.0,
                      alpha=0.025, c=0.999, sigmaE=0.7)


def _width(scen):
    return 2.0 * scen.sigma / math.sqrt(max(scen.nc, scen.nt))


def _direct_rows(scen, e, thc):
    d = thc - e
    return _uline_reject(scen, d, np.stack([d, d + scen.theta1]), 0.0, 0.0,
                         EB)


class TestInnerRuleLargeTreatmentArm:
    @pytest.mark.parametrize("nc, nt", LARGE_TREATMENT)
    def test_matches_adaptive_quadrature(self, nc, nt):
        scen = ScenarioTwoArm(nc=nc, nt=nt, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025)
        zc = norm_quantile(scen.c)
        e = np.linspace(-2.0, 2.0, 9)
        for theta_t in (0.0, scen.theta1):
            rule = _inner_reject_gl(scen, e, 0.0, theta_t, EB, zc)
            adaptive = [reject_prob_two_arm(scen, 0.0, theta_t, float(de), EB,
                                            tol=1e-12) for de in e]
            assert np.abs(rule - adaptive).max() <= 1e-10

    def test_monte_carlo_rows_match_adaptive_quadrature(self):
        scen = ScenarioTwoArm(nc=4, nt=189, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025)
        e, T, P = oracle.mc_grids(scen, 0.0, EB, (-1.0, 1.5), 6, seed=4)
        for o, x in enumerate((-1.0, 1.5)):
            for rows, effect in ((T, 0.0), (P, scen.theta1)):
                adaptive = [reject_prob_two_arm(scen, x, x + effect,
                                                float(de), EB, tol=1e-12)
                            for de in e]
                assert np.abs(rows[o] - adaptive).max() <= 1e-10

    def test_quadrature_within_4se_of_monte_carlo(self):
        scen = ScenarioTwoArm(nc=10, nt=100, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025)
        exact = oc_random_external_two_arm(scen, 0.0, EB, (0.7,))
        nsim = 20_000
        for literal in (False, True):
            _, T, P = oracle.mc_grids(scen, 0.0, EB, (0.7,), nsim, seed=8,
                                      literal=literal)
            for rows, value in ((T[0], exact.t1e[0]),
                                (P[0], exact.power_borrow[0])):
                se = rows.std(ddof=1) / math.sqrt(nsim)
                assert abs(rows.mean() - value) <= 4.0 * se


def _fuzz_scenarios(n, seed=8080):
    """Scenarios with nt != nc, sigmaE != sigma, c != 1 - alpha, and nE
    cycling through 2, 1000, 5000 and a random size."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        nc = int(rng.integers(2, 200))
        nt = int(rng.integers(2, 200))
        if nt == nc:
            nt += 1
        alpha = float(rng.uniform(0.005, 0.3))
        scen = ScenarioTwoArm(
            nc=nc, nt=nt, nE=(2, 1000, 5000, int(rng.integers(1, 300)))[i % 4],
            sigma=float(rng.uniform(0.2, 3.0)),
            theta1=float(rng.uniform(0.1, 2.0)), alpha=alpha,
            c=float(rng.uniform(0.5, 0.999)),
            sigmaE=float(rng.uniform(0.2, 3.0)))
        assert scen.c != 1.0 - alpha and scen.sigmaE != scen.sigma
        yield scen, rng


class TestConditionalCurve:
    def test_matches_kernel_over_fuzz(self):
        worst = 0.0
        for scen, rng in _fuzz_scenarios(40):
            thetaE = float(rng.normal(0.0, 2.0))
            e = rng.normal(thetaE, scen.seE * rng.uniform(0.5, 30.0), 300)
            thcs = thetaE + scen.sigma * rng.uniform(-4.0, 4.0, 3)
            T, P = oracle.stack_rows(_mc_conditional_rows(scen, e, thcs, EB))
            for o, thc in enumerate(thcs):
                ref = _direct_rows(scen, e, thc)
                worst = max(worst, np.abs(T[o] - ref[0]).max(),
                            np.abs(P[o] - ref[1]).max())
        assert worst <= 1e-11

    def test_cusp_rows_match_kernel(self):
        # tabulated from the inner rule, which misses the cusp, the rows
        # were up to 1.8e-6 off the kernel at these offsets
        offsets = np.arange(-3.0, 3.125, 0.25)
        e, T, P = oracle.mc_grids(CUSP, 0.3, EB, offsets, 500, seed=1)
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
        T, P = oracle.stack_rows(_mc_conditional_rows(scen, -d, (0.0,), EB))
        ref = _direct_rows(scen, -d, 0.0)
        assert np.abs(T[0] - ref[0]).max() <= 1e-11
        assert np.abs(P[0] - ref[1]).max() <= 1e-11
        # both panels meeting at an edge give the same value there
        n = edges.size
        for rows in (T[0], P[0]):
            assert np.abs(rows[n:2 * n] - rows[2 * n:]).max() <= 1e-11

    def test_row_depends_only_on_its_own_offset(self):
        e = RngStream(3, 0).generator().normal(0.2, SCEN.seE, 500)
        T, P = oracle.stack_rows(_mc_conditional_rows(SCEN, e,
                                                      (-0.5, 0.3, 1.9), EB))
        other = np.concatenate([e[:200], [-40.0, 7.5, 0.21]])
        T2, P2 = oracle.stack_rows(_mc_conditional_rows(SCEN, other,
                                                        (0.3, 25.0), EB))
        assert np.array_equal(T2[0, :200], T[1, :200])
        assert np.array_equal(P2[0, :200], P[1, :200])

    def test_rows_do_not_depend_on_nsim(self):
        offsets = (-1.0, 0.25, 2.0)
        e1, T1, P1 = oracle.mc_grids(SCEN, 0.3, EB, offsets, 400, seed=21)
        e2, T2, P2 = oracle.mc_grids(SCEN, 0.3, EB, offsets[1:], 3000,
                                     seed=21)
        assert np.array_equal(e2[:400], e1)
        assert np.array_equal(T2[:, :400], T1[1:])
        assert np.array_equal(P2[:, :400], P1[1:])

    def test_node_batches_do_not_change_rows(self, monkeypatch):
        e = RngStream(6, 0).generator().normal(0.0, SCEN.seE, 300)
        thcs = (-3.0, 0.0, 2.5)
        whole = oracle.stack_rows(_mc_conditional_rows(SCEN, e, thcs, EB))
        # 6,000 nodes per kernel chunk: 16 curve nodes of 9 panels each
        monkeypatch.setattr(oc_twoarm, "_BATCH_NODES",
                            50 * 3 * oc_twoarm._INNER_GL_NODES)
        batched = oracle.stack_rows(_mc_conditional_rows(SCEN, e, thcs, EB))
        assert all(np.array_equal(a, b) for a, b in zip(whole, batched))

    def test_node_budget_bounds_every_kernel_node_array(self, monkeypatch):
        # at nc/nt = 4/189 the curve's panels are 2 se_t wide and the
        # kernel's own panels are narrow: its node arrays come in chunks
        scen = ScenarioTwoArm(nc=4, nt=189, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025)
        nodes = []
        posterior = oc_twoarm.posterior_arrays

        def counting(x, *args):
            nodes.append(np.size(x))
            return posterior(x, *args)

        monkeypatch.setattr(oc_twoarm, "posterior_arrays", counting)
        _random_two_arm_mc_grids(scen, 0.3, EB, (-1.0, 0.0, 1.0), 2500, seed=1)
        assert len(nodes) > 1
        assert max(nodes) <= oc_twoarm._BATCH_NODES

    def test_far_apart_offsets_tabulate_only_the_panels_they_hit(
            self, monkeypatch):
        rows = []

        def counting(scen, theta_c, *args):
            rows.append(theta_c.size)
            return _uline_reject(scen, theta_c, *args)

        monkeypatch.setattr(oc_twoarm, "_uline_reject", counting)
        e, T, P = oracle.mc_grids(SCEN, 0.0, EB, (-500.0, 500.0), 2000,
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


def _literal_rows(scen, thetaE, method, offsets, nsim, seed):
    """The raw-decision Monte Carlo rows, drawn one offset at a time."""
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


class TestOtherRowsUnchanged:
    @pytest.mark.parametrize("method", [NONE, FIXED_HALF],
                             ids=["none", "fixed"])
    def test_fixed_weight_rows_are_the_closed_form(self, method):
        offsets = (-0.5, 0.0, 1.25)
        e, T, P = oracle.mc_grids(SCEN, -0.2, method, offsets, 700, seed=2)
        delta = method.delta if method is FIXED_HALF else 0.0
        for o, x in enumerate(offsets):
            thc = -0.2 + x * SCEN.sigma
            assert np.array_equal(T[o], _closed_fixed(SCEN, thc, thc, e,
                                                      delta))
            assert np.array_equal(P[o], _closed_fixed(
                SCEN, thc, thc + SCEN.theta1, e, delta))

    @pytest.mark.parametrize("method", [NONE, FIXED_HALF, EB],
                             ids=["none", "fixed", "eb"])
    def test_literal_rows_are_the_raw_decisions(self, method):
        offsets = (-0.5, 0.0, 1.25)
        got = oracle.mc_grids(SCEN, -0.2, method, offsets, 700, seed=2,
                              literal=True)
        ref = _literal_rows(SCEN, -0.2, method, offsets, 700, seed=2)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
