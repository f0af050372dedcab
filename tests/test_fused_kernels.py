"""Batched quadrature kernels against their unfused oracles, bit for bit.

``tests/kernel_oracle.py`` keeps the one-panel-per-call ``integrate`` and
the segment-by-segment two-arm inner rule.  The engines evaluate the panels
of one integral and the segments of many external means in fewer NumPy
calls with the same floating-point operations, and the u-line kernel
serves several treatment means from one threshold pass, so every
comparison here is exact equality.
"""

import math

import numpy as np
import pytest

import kernel_oracle as oracle
from borrowoc import (
    BorrowingMethod,
    Interval,
    NonConvergenceError,
    ScenarioTwoArm,
    integrate,
    norm_quantile,
    reject_prob_two_arm,
)
from borrowoc import oc_twoarm
from borrowoc.oc_twoarm import (_inner_reject_gl, _mc_conditional_rows,
                                _uline_reject)
from borrowoc.statmath import _cuts, _integrate

METHODS = (BorrowingMethod.none(), BorrowingMethod.fixed_power_prior(0.5),
           BorrowingMethod.empirical_bayes())
EB = METHODS[2]
SCEN = ScenarioTwoArm(nc=15, nt=15, nE=10, sigma=1.0, theta1=1.0, alpha=0.025)


def _fuzz_scenarios(n, seed=20260):
    rng = np.random.default_rng(seed)
    for i in range(n):
        scen = ScenarioTwoArm(
            nc=int(rng.integers(2, 200)), nt=int(rng.integers(2, 200)),
            nE=int(rng.integers(1, 2000)), sigma=float(rng.uniform(0.2, 3.0)),
            theta1=float(rng.uniform(0.1, 2.0)),
            alpha=float(rng.uniform(0.005, 0.3)),
            sigmaE=float(rng.uniform(0.2, 3.0)))
        yield scen, METHODS[i % 3], float(rng.normal(0.0, 2.0)), rng


def _external_means(scen, theta_c, rng):
    """Random external means plus rows whose e -+ r clip one or two of the
    three segments to zero width on either side of the window."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    r = math.sqrt(se_c**2 + scen.seE**2)
    edge = 8.5 * se_c
    spread = rng.uniform(0.1, 20.0) * se_c
    special = [theta_c + edge + 0.5 * r, theta_c - edge - 0.5 * r,   # one
               theta_c + edge + 2.0 * r, theta_c - edge - 2.0 * r]   # two
    return np.concatenate([theta_c + spread * rng.normal(size=28), special])


def _empty_segments(scen, e, theta_c):
    se_c = scen.sigma / math.sqrt(scen.nc)
    r = math.sqrt(se_c**2 + scen.seE**2)
    lo, hi = theta_c - 8.5 * se_c, theta_c + 8.5 * se_c
    ends = np.stack([np.full_like(e, lo), np.clip(e - r, lo, hi),
                     np.clip(e + r, lo, hi), np.full_like(e, hi)], axis=1)
    return np.count_nonzero(np.diff(ends, axis=1) <= 0.0, axis=1)


class TestInnerRuleMatchesSegmentLoop:
    def test_scenario_fuzz(self):
        empty = set()
        for scen, method, thc, rng in _fuzz_scenarios(60):
            e = _external_means(scen, thc, rng)
            empty.update(_empty_segments(scen, e, thc).tolist())
            zc = norm_quantile(scen.c)
            for theta_t in (thc, thc + scen.theta1):
                ref = oracle.inner_reject_gl(scen, e, thc, theta_t, method)
                got = _inner_reject_gl(scen, e, thc, theta_t, method, zc)
                assert np.array_equal(got, ref)
        assert empty == {0, 1, 2}


class TestKernelRowsMatchSingleMeanCalls:
    @pytest.mark.parametrize("random", [False, True], ids=["fixed", "random"])
    def test_scenario_fuzz(self, random):
        for scen, _, thetaE, rng in _fuzz_scenarios(30):
            var = scen.seE**2 if random else 0.0
            thc = thetaE + scen.sigma * rng.uniform(-6.0, 6.0, 41)
            means = np.stack([thc, thc + scen.theta1, thc - 0.5])
            rows = _uline_reject(scen, thc, means, thetaE, var, EB)
            assert rows.shape == means.shape
            for k in range(3):
                single = _uline_reject(scen, thc, means[k], thetaE, var, EB)
                assert np.array_equal(rows[k], single)

    @pytest.mark.parametrize("var", [0.0, SCEN.seE**2],
                             ids=["fixed", "random"])
    def test_no_control_means(self, var):
        none = np.empty(0)
        assert _uline_reject(SCEN, none, none, 0.2, var, EB).shape == (0,)
        assert _uline_reject(SCEN, none, np.empty((2, 0)), 0.2, var,
                             EB).shape == (2, 0)


class TestIntegrateMatchesPanelLoop:
    @pytest.mark.parametrize("f, domain, kwargs", [
        (lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
         Interval(-math.inf, math.inf), {}),
        (lambda x: 3.0 * x**2, Interval(0.0, 2.0), {}),
        (lambda x: np.exp(-0.5 * ((x - 50.0) / 2.0) ** 2)
         / (2.0 * math.sqrt(2 * math.pi)),
         Interval(-math.inf, math.inf), {"gaussian_hint": (50.0, 2.0)}),
        (np.abs, Interval(-1.0, 1.0), {"breakpoints": (0.0,)}),
        (lambda x: np.exp(-np.abs(x - 0.3)) * np.cos(5.0 * x),
         Interval(-2.0, 3.0), {"breakpoints": (0.3, -1.0, 7.0),
                               "abs_tol": 1e-12}),
        (lambda x: 1.0 / (1.0 + x * x), Interval(0.0, math.inf),
         {"gaussian_hint": (1.0, 3.0)}),
        (lambda x: x, Interval(0.0, math.inf), {"gaussian_hint": (-20.0, 1.0)}),
    ], ids=["normal", "poly", "hint", "abs-kink", "breakpoints",
            "half-infinite", "hint-outside"])
    def test_results_identical(self, f, domain, kwargs):
        assert integrate(f, domain, **kwargs) == oracle.integrate(
            f, domain, **kwargs)

    def test_panel_at_float_resolution(self):
        # [1, 1 + ulp] cannot be split, and its round-off error estimate
        # (0.66 from values of 1e30) exceeds the other panel's, while the
        # two together exceed the tolerance: the loop sets it aside as done
        # and then refines the kink panel until the total drops below 1.
        one_ulp = 1.0 + 2.0**-52

        def f(x):
            return np.where(x <= one_ulp, 1e30, 4.0 * np.abs(x - 1.4))

        _, err_tiny = oracle._gk15(f, 1.0, one_ulp)
        _, err_kink = oracle._gk15(f, one_ulp, 2.0)
        assert 0.5 * (1.0 + one_ulp) in (1.0, one_ulp)
        assert err_kink < err_tiny <= 1.0 < err_tiny + err_kink
        kwargs = {"abs_tol": 1.0, "breakpoints": (one_ulp,)}
        assert integrate(f, Interval(1.0, 2.0), **kwargs) == oracle.integrate(
            f, Interval(1.0, 2.0), **kwargs)

    def test_nonconvergence_message(self):
        def f(x):
            return np.sin(4000.0 * x)

        with pytest.raises(NonConvergenceError) as got:
            integrate(f, Interval(0.0, 30.0), abs_tol=1e-13)
        with pytest.raises(NonConvergenceError) as ref:
            oracle.integrate(f, Interval(0.0, 30.0), abs_tol=1e-13)
        assert str(got.value) == str(ref.value)

    def test_unsplittable_panel_fails(self):
        # [1, 1 + ulp] cannot be split: the heap empties with its error
        # estimate still above the tolerance
        one_ulp = 1.0 + 2.0**-52

        def f(x):
            return np.full_like(x, 1e30)

        with pytest.raises(NonConvergenceError) as got:
            integrate(f, Interval(1.0, one_ulp), abs_tol=1e-13)
        with pytest.raises(NonConvergenceError) as ref:
            oracle.integrate(f, Interval(1.0, one_ulp), abs_tol=1e-13)
        assert str(got.value) == str(ref.value)
        assert "after 1 panels" in str(got.value)

    def test_node_cap_bounds_every_call(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-np.abs(x - 0.3)) * np.cos(5.0 * x)

        cuts = _cuts(Interval(-2.0, 3.0), (0.3, -1.0, 7.0))
        capped = _integrate(f, cuts, 1e-12, 37)
        assert max(sizes) == 37
        assert capped == integrate(f, Interval(-2.0, 3.0), 1e-12,
                                   breakpoints=(0.3, -1.0, 7.0))

    def test_two_arm_integrals(self):
        thc = np.repeat([-0.4, 0.7, 2.5], 2)
        tht = thc + np.tile([0.0, SCEN.theta1], 3)
        serial = [oracle.reject_prob_two_arm(SCEN, c, t, 0.0, EB)
                  for c, t in zip(thc.tolist(), tht.tolist())]
        assert reject_prob_two_arm(SCEN, thc, tht, 0.0, EB).tolist() == serial
        assert [reject_prob_two_arm(SCEN, c, t, 0.0, EB)
                for c, t in zip(thc, tht)] == serial
        random = oc_twoarm._random_reject(SCEN, thc[:2], tht[:2], 0.1, EB,
                                          1e-9)
        assert random.tolist() == [
            oracle.random_reject(SCEN, c, t, 0.1, EB)
            for c, t in zip(thc[:2].tolist(), tht[:2].tolist())]


class TestFusedMonteCarloRows:
    """The Monte Carlo rows of all offsets at once equal single-offset calls
    exactly.  Empirical Bayes rows come from an interpolated curve, so they
    match the u-line kernel to a tolerance (``tests/test_mc_curve.py``
    checks the fixed-weight rows against the closed form)."""

    @pytest.mark.parametrize("method", METHODS, ids=["none", "fixed", "eb"])
    def test_null_and_power_rows_match_single_mean_calls(self, method):
        offsets = (-0.5, 0.7)
        nsim = 549
        e, T, P = oracle.mc_grids(SCEN, 0.1, method, offsets, nsim, seed=11)
        for o, x in enumerate(offsets):
            thc = 0.1 + x * SCEN.sigma
            null, alt = oracle.stack_rows(_mc_conditional_rows(
                SCEN, e, (thc,), method))
            assert np.array_equal(T[o], null[0])
            assert np.array_equal(P[o], alt[0])
            if method is EB:
                d = thc - e
                ref = _uline_reject(SCEN, d, np.stack([d, d + SCEN.theta1]),
                                    0.0, 0.0, method)
                assert np.abs(T[o] - ref[0]).max() <= 1e-11
                assert np.abs(P[o] - ref[1]).max() <= 1e-11
