"""Single-arm operating characteristics: exact engines and Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from borrowoc import (
    BorrowingMethod,
    DomainError,
    OCPoint,
    ScenarioOneArm,
    ScenarioTwoArm,
    norm_cdf,
    norm_quantile,
    oc_fixed_external,
    oc_random_external_fixed_pp,
    oc_random_external_mc,
    power_calibrated,
    t1e_closed_form_fixed_pp,
)
from borrowoc.oc_onearm import region_oc_arrays
from borrowoc.region import boundary_arrays

from oracles import (EB, FIXED_HALF, METHODS, NONE, ONE_ARM as SCEN,
                     ONE_ARM_BIG_EXT as SCEN_BIG_EXT)


class TestOCPoint:
    def test_fills_power_difference(self):
        pt = OCPoint(0.02, 0.6, 0.7)
        assert pt.power_diff == pytest.approx(-0.1, abs=1e-15)

    def test_explicit_difference_is_preserved(self):
        # Monte Carlo paths supply a difference estimated their own way;
        # the container keeps it verbatim
        pt = OCPoint(0.02, 0.6, 0.7, power_diff=-0.09)
        assert pt.power_diff == -0.09

    def test_rejects_non_probabilities(self):
        with pytest.raises(DomainError):
            OCPoint(-0.01, 0.6, 0.7)
        with pytest.raises(DomainError):
            OCPoint(0.02, 1.2, 0.7)

    @pytest.mark.parametrize("bad", [-1e-300, 1.5, math.nan])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_refusal_names_the_field(self, field, bad):
        names = ("t1e_borrow", "power_borrow", "power_calibrated")
        values = [0.02, 0.6, 0.7]
        values[field] = bad
        with pytest.raises(DomainError,
                           match=rf"^{names[field]} must lie in \[0, 1\]"):
            OCPoint(*values)


class TestPowerCalibrated:
    def test_golden(self):
        assert power_calibrated(0.0171, SCEN) == pytest.approx(
            0.6488784596719762, abs=1e-14)

    def test_nominal_level_recovers_design_power(self):
        # at the design level the calibrated test is the design z-test
        assert power_calibrated(0.025, SCEN) == pytest.approx(
            0.7054139024424571, abs=1e-14)

    def test_edges(self):
        assert power_calibrated(0.0, SCEN) == 0.0
        assert power_calibrated(1.0, SCEN) == 1.0

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            power_calibrated(1.3, SCEN)

    LEVELS = (0.0, 5e-324, 1e-300, 0.0171, 0.025, 0.5, 1.0 - 1e-16, 1.0)

    def test_array_is_the_scalar_map(self):
        want = [power_calibrated(a, SCEN) for a in self.LEVELS]
        assert all(type(v) is float for v in want)
        got = power_calibrated(np.array(self.LEVELS), SCEN)
        assert isinstance(got, np.ndarray) and got.shape == (len(want),)
        assert got.tolist() == want             # bit for bit
        grid = power_calibrated(np.array(self.LEVELS).reshape(2, 4), SCEN)
        assert grid.ravel().tolist() == want

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.3, 1.5])
    @pytest.mark.parametrize("where", [0, 3, 7])
    def test_array_domain_covers_every_entry(self, bad, where):
        levels = np.array(self.LEVELS)
        levels[where] = bad
        with pytest.raises(DomainError, match="alphaB must lie in"):
            power_calibrated(levels, SCEN)
        with pytest.raises(DomainError, match="alphaB must lie in"):
            power_calibrated(bad, SCEN)

    def test_monotone_in_level(self):
        levels = np.linspace(0.001, 0.999, 101)
        vals = [power_calibrated(float(a), SCEN) for a in levels]
        assert all(x < y for x, y in zip(vals, vals[1:]))


class TestFixedExternalClosedForm:
    def test_null_external_goldens(self):
        pt = oc_fixed_external(SCEN, 0.0, FIXED_HALF)
        assert pt.t1e_borrow == pytest.approx(0.010195873707045288, abs=1e-9)
        assert pt.power_borrow == pytest.approx(0.5717924048435208, abs=1e-9)
        assert pt.power_diff == pytest.approx(
            pt.power_borrow - pt.power_calibrated, abs=1e-15)

    def test_optimistic_external_inflates_size(self):
        pt = oc_fixed_external(SCEN, 0.5, FIXED_HALF)
        assert pt.t1e_borrow == pytest.approx(0.09357441671659445, abs=1e-9)
        assert pt.t1e_borrow > SCEN.alpha

    def test_t1e_shortcut_matches_full_point(self):
        for de in (-0.8, -0.2, 0.0, 0.3, 1.1):
            assert t1e_closed_form_fixed_pp(SCEN, de, 0.5) == pytest.approx(
                oc_fixed_external(SCEN, de, FIXED_HALF).t1e_borrow, abs=1e-12)

    def test_no_borrow_reduces_to_design_z_test(self):
        pt = oc_fixed_external(SCEN, 0.9, NONE)
        assert pt.t1e_borrow == pytest.approx(0.025, abs=1e-12)
        assert pt.power_borrow == pytest.approx(0.7054139024424571, abs=1e-9)
        assert abs(pt.power_diff) < 1e-12

    def test_matched_level_power_identity_fixed_weight(self):
        # calibrating the plain z-test to the borrowing test's size
        # reproduces the borrowing test's power exactly (single threshold,
        # same test-statistic distribution family); 1e-9 leaves room for
        # quantile round-trips through sizes as small as 1e-11
        for de in (-1.0, 0.0, 0.4, 1.6):
            for delta in (0.1, 0.5, 1.0):
                pt = oc_fixed_external(SCEN, de,
                                       BorrowingMethod.fixed_power_prior(delta))
                assert abs(pt.power_diff) < 1e-9


class TestEmpiricalBayesFixedExternal:
    def test_single_interval_regime_keeps_matched_level_identity(self):
        # wherever the region stays one upper half-line, any size-matched
        # threshold test is the same test, so the power gap vanishes
        pt = oc_fixed_external(SCEN, 1.2, EB)
        assert abs(pt.power_diff) < 1e-9

    def test_scan_engine_matches_scalar_region_engine(self):
        de = np.array([-0.6, -0.35, 0.0, 0.25, 0.46, 0.56, 0.9, 1.4])
        t1e, power = region_oc_arrays(SCEN, de, EB)
        for k, d in enumerate(de):
            pt = oc_fixed_external(SCEN, float(d), EB)
            # both engines bisect boundaries to 1e-10 from different bracket
            # sequences; agreement contract is 1e-9
            assert t1e[k] == pytest.approx(pt.t1e_borrow, abs=1e-9)
            assert power[k] == pytest.approx(pt.power_borrow, abs=1e-9)

    def test_scan_engine_matches_closed_form_for_fixed_weight(self):
        de = np.linspace(-1.0, 1.5, 11)
        t1e, _ = region_oc_arrays(SCEN, de, FIXED_HALF)
        for k, d in enumerate(de):
            assert t1e[k] == pytest.approx(
                t1e_closed_form_fixed_pp(SCEN, float(d), 0.5), abs=1e-9)

    def test_two_interval_regime_handled(self):
        pt = oc_fixed_external(SCEN_BIG_EXT, 0.10, EB)
        assert 0.0 < pt.t1e_borrow < 1.0
        assert pt.power_calibrated > pt.power_borrow


class TestOneEngine:
    # the scalar, batch and grid paths are one computation: each row is
    # computed independently of the others, so they agree bit for bit
    DE = np.linspace(-1.0, 1.8, 281)

    @pytest.mark.parametrize("scen", (SCEN, SCEN_BIG_EXT), ids=("nE20", "nE1000"))
    def test_fixed_external_is_its_batch_row(self, scen):
        for method in METHODS:
            t1e, power = region_oc_arrays(scen, self.DE, method)
            for k, d in enumerate(self.DE):
                pt = oc_fixed_external(scen, float(d), method)
                assert (pt.t1e_borrow, pt.power_borrow) == (t1e[k], power[k])

    @pytest.mark.parametrize("scen", (SCEN, SCEN_BIG_EXT), ids=("nE20", "nE1000"))
    def test_rows_do_not_depend_on_the_batch(self, scen):
        for method in METHODS:
            t1e, power = region_oc_arrays(scen, self.DE, method)
            t1e_far, power_far = region_oc_arrays(scen, np.append(self.DE, 20.0), method)
            assert np.array_equal(t1e_far[:-1], t1e)
            assert np.array_equal(power_far[:-1], power)

    def test_boundary_beyond_the_window_counts(self):
        # the fixed-weight threshold 0.3259 lies above the window edge
        # theta0 + 10 se = 0.3162, but power at theta1 = 0.5 depends on it
        scen = ScenarioOneArm(n=1000, sigma=1.0, theta0=0.0, alpha=0.025,
                              nE=1000, theta1=0.5)
        de, a, b = -0.5, 0.5 * 1000, 1000.0
        thr = (norm_quantile(scen.c) * math.sqrt(a + b) - a * de) / b
        assert thr > scen.theta0 + 10.0 * scen.se
        t1e, power = region_oc_arrays(scen, [de], FIXED_HALF)
        assert power[0] == pytest.approx(norm_cdf((scen.theta1 - thr) / scen.se),
                                         abs=1e-12)
        assert t1e[0] == pytest.approx(
            t1e_closed_form_fixed_pp(scen, de, 0.5), rel=1e-9)

    def test_rejects_non_finite_external_mean(self):
        for method in METHODS:
            with pytest.raises(ValueError):
                region_oc_arrays(SCEN, [0.0, math.nan], method)
            with pytest.raises(ValueError):
                oc_fixed_external(SCEN, math.inf, method)


class TestNeymanPearson:
    # the z-test calibrated to the borrowing test's size is uniformly most
    # powerful at that size (Kopp-Schneider et al. 2020, Biom. J.), so no
    # fixed-external row may show a power gain beyond rounding
    DE = np.concatenate([np.arange(-2000, 5001) / 1000.0,
                         np.linspace(0.05, 0.15, 1001)])

    @pytest.mark.parametrize("n,nE", ((25, 20), (25, 1000), (10, 50),
                                      (100, 30)))
    def test_calibrated_z_test_is_never_beaten(self, n, nE):
        scen = ScenarioOneArm(n=n, sigma=1.0, theta0=0.0, alpha=0.025,
                              nE=nE, theta1=0.5)
        shift = (scen.theta1 - scen.theta0) / scen.se
        for method in METHODS:
            t1e, power = region_oc_arrays(scen, self.DE, method)
            # power_calibrated row by row, as one array expression
            power_diff = power - norm_cdf(shift + norm_quantile(t1e))
            assert power_diff.max() <= 1e-12, method.kind


class TestLevelIsTheNullBoundary:
    # region_oc_arrays reports P(theta0) as the level; its docstring proves
    # that this is the supremum over the null for every c >= 1/2
    @given(n=st.integers(2, 400), nE=st.integers(2, 6000),
           sigma=st.floats(0.2, 3.0), sigmaE=st.floats(0.2, 3.0),
           theta0=st.floats(-2.0, 2.0), t=st.floats(-3.0, 6.0),
           c=st.floats(0.5, 0.999))
    @example(n=25, nE=1000, sigma=1.0, sigmaE=1.0, theta0=0.0, t=0.5,
             c=0.975)
    def test_lemma(self, n, nE, sigma, sigmaE, theta0, t, c):
        scen = ScenarioOneArm(n=n, sigma=sigma, theta0=theta0, alpha=0.025,
                              nE=nE, theta1=theta0 + 1.0, c=c, sigmaE=sigmaE)
        se = scen.se
        # external means dE = theta0 + t se: the drawn t and a sweep that
        # holds every two-piece region (0 < t < z_c <= 3.09) and those a
        # threshold below 1/2 would add at t < 0
        de = theta0 + se * np.append(np.linspace(-3.0, 3.1, 245), t)
        b = boundary_arrays(scen, de, EB)
        pieces = np.count_nonzero(b.signs > 0, axis=1)
        assert not b.start.any() and pieces.max() <= 2
        multi = pieces == 2
        lowest_mid = b.roots[multi, :2].mean(axis=1)
        assert np.all(lowest_mid >= de[multi]) and np.all(de[multi] >= theta0)
        t1e, _ = region_oc_arrays(scen, de, EB)
        grid = np.linspace(theta0 - 10.0 * se, theta0, 401)
        assert np.all(b.prob(grid[:, None], se) <= t1e + 1e-15)

    def test_thresholds_below_one_half_are_refused(self):
        one = dict(n=25, sigma=1.0, theta0=0.0, nE=20, theta1=0.5)
        two = dict(nc=15, nt=15, nE=10, sigma=1.0, theta1=1.0)
        for cls, kw in ((ScenarioOneArm, one), (ScenarioTwoArm, two)):
            with pytest.raises(DomainError, match="'c'"):
                cls(**kw, alpha=0.025, c=0.3)
            with pytest.raises(DomainError, match="'alpha'"):
                cls(**kw, alpha=0.7)        # c = 1 - alpha = 0.3
            assert cls(**kw, alpha=0.5).c == 0.5


class TestRandomExternalClosedForm:
    def test_null_centred_external_goldens(self):
        pt = oc_random_external_fixed_pp(SCEN, 0.0, 0.5)
        assert pt.t1e_borrow == pytest.approx(0.017129794, abs=1e-7)
        assert pt.power_borrow == pytest.approx(0.56559659, abs=1e-7)
        assert pt.power_calibrated == pytest.approx(0.64913898, abs=1e-7)

    def test_optimistic_external_goldens(self):
        pt = oc_random_external_fixed_pp(SCEN, 0.5, 0.5)
        assert pt.t1e_borrow == pytest.approx(0.11426926, abs=1e-7)
        assert pt.power_borrow == pytest.approx(0.85949321, abs=1e-7)
        assert pt.power_calibrated == pytest.approx(0.90248949, abs=1e-7)

    def test_zero_weight_recovers_design_test(self):
        pt = oc_random_external_fixed_pp(SCEN, 0.7, 0.0)
        assert pt.t1e_borrow == pytest.approx(0.025, abs=1e-12)
        assert pt.power_borrow == pytest.approx(0.7054139024424571, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_external_means(self, bad):
        # an infinite thetaE used to give all-1 (or all-0) OCs, and NaN a
        # complaint about alphaB
        with pytest.raises(DomainError, match="'thetaE' must be finite"):
            oc_random_external_fixed_pp(SCEN, bad, 0.5)
        with pytest.raises(DomainError, match="'dE_mean' must be finite"):
            t1e_closed_form_fixed_pp(SCEN, bad, 0.5)
        with pytest.raises(DomainError, match="'thetaE' must be finite"):
            oc_random_external_mc(SCEN, bad, EB, nsim=10, seed=1)

    def test_averages_fixed_external_curve(self):
        # the closed form is the Gaussian mixture of the fixed-external
        # closed form; check against a dense midpoint quadrature
        thetaE, delta = 0.25, 0.5
        grid = np.linspace(thetaE - 8 * SCEN.seE, thetaE + 8 * SCEN.seE, 20001)
        w = np.exp(-0.5 * ((grid - thetaE) / SCEN.seE) ** 2)
        w /= w.sum()
        mix = sum(wi * t1e_closed_form_fixed_pp(SCEN, float(g), delta)
                  for wi, g in zip(w, grid))
        pt = oc_random_external_fixed_pp(SCEN, thetaE, delta)
        assert pt.t1e_borrow == pytest.approx(mix, abs=1e-6)


class TestRandomExternalMonteCarlo:
    def test_deterministic_given_seed(self):
        a = oc_random_external_mc(SCEN, 0.0, FIXED_HALF, nsim=2000, seed=11)
        b = oc_random_external_mc(SCEN, 0.0, FIXED_HALF, nsim=2000, seed=11)
        assert (a.t1e_borrow, a.power_borrow) == (b.t1e_borrow, b.power_borrow)

    def test_seed_changes_draws(self):
        a = oc_random_external_mc(SCEN, 0.0, FIXED_HALF, nsim=2000, seed=11)
        b = oc_random_external_mc(SCEN, 0.0, FIXED_HALF, nsim=2000, seed=12)
        assert a.t1e_borrow != b.t1e_borrow

    def test_matches_closed_form_within_mc_error(self):
        nsim = 20000
        pt = oc_random_external_mc(SCEN, 0.5, FIXED_HALF, nsim=nsim, seed=3)
        exact = oc_random_external_fixed_pp(SCEN, 0.5, 0.5)
        se = math.sqrt(exact.t1e_borrow * (1 - exact.t1e_borrow) / nsim)
        assert abs(pt.t1e_borrow - exact.t1e_borrow) < 4 * se

    def test_literal_mode_agrees_with_exact_inner(self):
        # raw 0/1 inner decisions vs their conditional expectation: same
        # estimand, so the two estimators agree within combined MC error
        nsim = 40000
        lit = oc_random_external_mc(SCEN, 0.0, EB, nsim=nsim, seed=5,
                                    literal=True)
        ex = oc_random_external_mc(SCEN, 0.0, EB, nsim=nsim, seed=5)
        se = math.sqrt(max(ex.t1e_borrow * (1 - ex.t1e_borrow), 1e-4) / nsim)
        assert abs(lit.t1e_borrow - ex.t1e_borrow) < 5 * se
        assert abs(lit.power_borrow - ex.power_borrow) < 5 * math.sqrt(0.25 / nsim)

    def test_far_conflict_value(self):
        # external draws 100 standard errors from theta0: the regression
        # value from the dense-scan engine, whose cost grew with the distance
        pt = oc_random_external_mc(SCEN, 20.0, EB, nsim=2000, seed=0)
        assert pt.t1e_borrow == pytest.approx(0.025607953502, abs=1e-9)

    def test_rejects_empty_simulation(self):
        with pytest.raises(DomainError):
            oc_random_external_mc(SCEN, 0.0, FIXED_HALF, nsim=0, seed=1)


class TestScenarioValidation:
    def test_alternative_must_exceed_null(self):
        with pytest.raises(DomainError):
            ScenarioOneArm(n=25, sigma=1.0, theta0=0.5, alpha=0.025,
                           nE=20, theta1=0.5)

    def test_defaults(self):
        assert SCEN.c == 0.975
        assert SCEN.sigmaE == 1.0
        assert SCEN.se == pytest.approx(0.2, abs=1e-15)
        assert SCEN_BIG_EXT.seE == pytest.approx(1.0 / math.sqrt(1000.0), abs=1e-15)

    def test_threshold_range(self):
        with pytest.raises(DomainError):
            ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                           nE=20, theta1=0.5, c=1.0)
