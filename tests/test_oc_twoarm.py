"""Two-arm hybrid-control operating characteristics."""

import math

import numpy as np
import pytest

from borrowoc import (
    DomainError,
    OCProfile,
    ScenarioTwoArm,
    norm_cdf,
    norm_quantile,
    oc_fixed_external_two_arm,
    oc_random_external_two_arm,
    oc_random_external_two_arm_mc,
    power_calibrated_two_arm,
    power_profile,
    reject_prob_two_arm,
    t1e_profile,
)

from oracles import (EB, FIXED_HALF, METHOD_IDS, METHODS, NONE,
                     TWO_ARM as SCEN)

NO_BORROW_POWER = 0.7819066888284272


class TestPowerCalibratedTwoArm:
    def test_design_level_golden(self):
        assert power_calibrated_two_arm(0.025, SCEN) == pytest.approx(
            NO_BORROW_POWER, abs=1e-14)

    def test_edges_and_validation(self):
        assert power_calibrated_two_arm(0.0, SCEN) == 0.0
        assert power_calibrated_two_arm(1.0, SCEN) == 1.0
        with pytest.raises(DomainError):
            power_calibrated_two_arm(-0.2, SCEN)

    @pytest.mark.parametrize("bad", [1.5, math.nan])
    def test_refusal_names_alphaB(self, bad):
        with pytest.raises(DomainError, match=r"^alphaB must lie in \[0, 1\]"):
            power_calibrated_two_arm(bad, SCEN)

    def test_is_phi_of_shift_plus_quantile_bit_for_bit(self):
        ses = SCEN.sigma * math.sqrt(1.0 / SCEN.nt + 1.0 / SCEN.nc)
        for a in (0.0, 1e-300, 0.0171, 0.025, 0.5, 1.0):
            assert power_calibrated_two_arm(a, SCEN) == norm_cdf(
                SCEN.theta1 / ses + norm_quantile(a))


class TestClosedFormFixedWeights:
    def test_no_borrow_is_level_and_design_power(self):
        for thc in (-1.0, 0.0, 2.0):
            assert reject_prob_two_arm(SCEN, thc, thc, 5.0, NONE) == pytest.approx(
                0.025, abs=1e-12)
            assert reject_prob_two_arm(SCEN, thc, thc + 1.0, -3.0, NONE) == pytest.approx(
                NO_BORROW_POWER, abs=1e-12)

    def test_sweet_spot_goldens(self):
        # external mean equal to the true control mean, half weight: the
        # null rejection rate drops below the design level while power rises
        t1e = reject_prob_two_arm(SCEN, 0.0, 0.0, 0.0, FIXED_HALF)
        power = reject_prob_two_arm(SCEN, 0.0, 1.0, 0.0, FIXED_HALF)
        assert t1e == pytest.approx(0.019028935295440752, abs=1e-12)
        assert power == pytest.approx(0.8471191456089183, abs=1e-12)
        assert t1e < 0.025
        assert power > NO_BORROW_POWER

    def test_threshold_and_spread_algebra(self):
        # independent recomputation of the linear-statistic pieces
        zc = norm_quantile(0.975)
        thr = zc * math.sqrt(1.0 / 15.0 + 1.0 / 20.0)
        sS = math.sqrt(1.0 / 15.0 + 0.75**2 / 15.0)
        assert thr == pytest.approx(0.6694551484211978, abs=1e-14)
        assert sS == pytest.approx(0.3227486121839514, abs=1e-14)
        # Phi(-thr/sS) spelled through erfc to avoid reusing norm_cdf
        expect = 0.5 * math.erfc(thr / sS / math.sqrt(2.0))
        assert reject_prob_two_arm(SCEN, 0.0, 0.0, 0.0, FIXED_HALF) == pytest.approx(
            expect, abs=1e-14)

    def test_engine_validation(self):
        for engine in ("closed", "series"):
            for method in (EB, FIXED_HALF, NONE):
                with pytest.raises(DomainError, match="unknown engine"):
                    reject_prob_two_arm(SCEN, 0.0, 0.0, 0.0, method,
                                        engine=engine)


class TestT1eProfile:
    def test_no_borrow_profile_is_flat_at_design_level(self):
        prof = t1e_profile(SCEN, 0.0, NONE, offsets=[-2.0, 0.0, 2.0])
        for v in prof.t1e:
            assert v == pytest.approx(0.025, abs=1e-12)
        assert prof.alphaB_max == pytest.approx(0.025, abs=1e-9)

    def test_fixed_weight_profile_increases_and_saturates(self):
        # the control estimate is pulled toward the external mean, so the
        # null rejection rate climbs without bound in the offset and the
        # supremum search runs past the requested grid to the plateau at 1
        offsets = [-2.0, -1.0, 0.0, 1.0, 2.0]
        prof = t1e_profile(SCEN, 0.0, FIXED_HALF, offsets)
        assert all(a < b for a, b in zip(prof.t1e, prof.t1e[1:]))
        assert prof.alphaB_max > 0.999999
        assert prof.argmax_offset > max(offsets)

    def test_empirical_bayes_peak_golden(self):
        prof = t1e_profile(SCEN, 0.0, EB, offsets=[0.0, 0.7])
        assert prof.alphaB_max == pytest.approx(0.07032546174593321, abs=1e-9)
        assert prof.argmax_offset == pytest.approx(0.6769116285317722, abs=1e-6)

    def test_profile_is_external_mean_invariant(self):
        offs = [-1.0, 0.0, 1.0]
        a = t1e_profile(SCEN, 0.0, EB, offs)
        b = t1e_profile(SCEN, 0.8, EB, offs)
        for va, vb in zip(a.t1e, b.t1e):
            assert vb == pytest.approx(va, abs=1e-9)
        assert b.alphaB_max == pytest.approx(a.alphaB_max, abs=1e-9)


class TestPowerProfile:
    def test_calibrated_power_single_number_and_dominant(self):
        offs = [-1.0, 0.0, 0.7, 2.0]
        prof = power_profile(SCEN, 0.0, EB, offs)
        assert prof.power_calibrated == pytest.approx(
            power_calibrated_two_arm(prof.alphaB_max, SCEN), abs=1e-12)
        assert len(prof.power_borrow) == len(offs)
        for d in prof.power_diff:
            assert d < 0.0

    def test_power_diff_is_borrow_minus_calibrated(self):
        prof = power_profile(SCEN, 0.0, FIXED_HALF, offsets=[0.0, 1.0])
        for pb, d in zip(prof.power_borrow, prof.power_diff):
            assert d == pytest.approx(pb - prof.power_calibrated, abs=1e-12)


class TestOcFixedExternalTwoArm:
    def test_point_summarizes_profile_maximum(self):
        pt = oc_fixed_external_two_arm(SCEN, 0.0, EB)
        prof = t1e_profile(SCEN, 0.0, EB, offsets=[])
        assert pt.t1e_borrow == pytest.approx(prof.alphaB_max, abs=1e-9)
        assert pt.power_calibrated == pytest.approx(
            power_calibrated_two_arm(pt.t1e_borrow, SCEN), abs=1e-12)


class TestOCProfileValidation:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            OCProfile((0.0, 1.0), (0.02,), 0.02, 0.0)

    def test_t1e_range(self):
        with pytest.raises(DomainError):
            OCProfile((0.0,), (1.2,), 1.0, 0.0)

    def test_max_consistency(self):
        with pytest.raises(DomainError):
            OCProfile((0.0, 1.0), (0.02, 0.05), 0.03, 1.0)

    def test_power_length_mismatch(self):
        with pytest.raises(DomainError):
            OCProfile((0.0, 1.0), (0.02, 0.05), 0.05, 1.0,
                      power_borrow=(0.5,), power_calibrated=0.7)

    @pytest.mark.parametrize("power, match", [
        ({"power_calibrated": 7.0}, "require power_borrow"),
        ({"power_diff": (-0.2, -0.1)}, "require power_borrow"),
        ({"power_borrow": (0.5, 0.6)}, "requires power_calibrated"),
        ({"power_borrow": (0.5, 0.6), "power_calibrated": 0.7,
          "power_diff": (-0.2,)}, "power_diff length must match grid"),
    ], ids=["calibrated-alone", "diff-alone", "no-calibrated", "short-diff"])
    def test_inconsistent_power_fields(self, power, match):
        with pytest.raises(DomainError, match=match):
            OCProfile((0.0, 1.0), (0.02, 0.05), 0.05, 1.0, **power)

    @pytest.mark.parametrize("bad", [-1e-300, 1.5, math.nan])
    @pytest.mark.parametrize("field", ["t1e", "alphaB_max", "power_borrow",
                                       "power_calibrated"])
    def test_refusal_names_the_field(self, field, bad):
        args = {"grid": (0.0, 1.0), "t1e": (0.02, 0.05), "alphaB_max": 0.05,
                "argmax_offset": 1.0, "power_borrow": (0.5, 0.6),
                "power_calibrated": 0.7}
        if field in ("t1e", "power_borrow"):
            args[field] = (args[field][0], bad)
        else:
            args[field] = bad
        with pytest.raises(DomainError,
                           match=rf"^{field} must lie in \[0, 1\], got "):
            OCProfile(**args)

    def test_power_diff_autofill(self):
        prof = OCProfile((0.0, 1.0), (0.02, 0.05), 0.05, 1.0,
                         power_borrow=(0.5, 0.6), power_calibrated=0.7)
        assert prof.power_diff == pytest.approx((-0.2, -0.1), abs=1e-15)


class TestRandomExternal:
    def test_no_borrow_unaffected_by_external_randomness(self):
        prof = oc_random_external_two_arm(SCEN, 0.3, NONE, offsets=[-1.0, 0.5])
        for v in prof.t1e:
            assert v == pytest.approx(0.025, abs=1e-12)
        for p in prof.power_borrow:
            assert p == pytest.approx(NO_BORROW_POWER, abs=1e-12)

    def test_fixed_weight_closed_form_averages_fixed_external(self):
        # mixture of the fixed-external closed form over the external mean,
        # by midpoint quadrature, against the one-shot Gaussian closed form
        thetaE, x = 0.5, 0.8
        thc = thetaE + x * SCEN.sigma
        seE = SCEN.seE
        grid = np.linspace(thetaE - 8 * seE, thetaE + 8 * seE, 40001)
        w = np.exp(-0.5 * ((grid - thetaE) / seE) ** 2)
        w /= w.sum()
        mix = math.fsum(
            wi * reject_prob_two_arm(SCEN, thc, thc, float(g), FIXED_HALF)
            for wi, g in zip(w, grid) if wi > 1e-12)
        prof = oc_random_external_two_arm(SCEN, thetaE, FIXED_HALF, offsets=[x])
        assert prof.t1e[0] == pytest.approx(mix, abs=1e-6)

    def test_engine_validation(self):
        with pytest.raises(DomainError):
            oc_random_external_two_arm(SCEN, 0.0, EB, offsets=[0.0],
                                       engine="closed")


class TestRandomExternalMonteCarlo:
    def test_deterministic_and_seed_sensitive(self):
        kw = dict(offsets=[0.0, 0.7], nsim=500)
        a = oc_random_external_two_arm_mc(SCEN, 0.0, EB, seed=9, **kw)
        b = oc_random_external_two_arm_mc(SCEN, 0.0, EB, seed=9, **kw)
        c = oc_random_external_two_arm_mc(SCEN, 0.0, EB, seed=10, **kw)
        assert a.t1e == b.t1e and a.power_borrow == b.power_borrow
        assert a.t1e != c.t1e

    def test_matches_quadrature_within_mc_error(self):
        offs = [0.0, 0.7]
        nsim = 4000
        mc = oc_random_external_two_arm_mc(SCEN, 0.0, EB, offs, nsim, seed=2)
        exact = oc_random_external_two_arm(SCEN, 0.0, EB, offs)
        for o in range(len(offs)):
            p = exact.t1e[o]
            se = math.sqrt(max(p * (1 - p), 1e-4) / nsim)
            assert abs(mc.t1e[o] - p) < 4 * se

    def test_grid_maximum_reported(self):
        mc = oc_random_external_two_arm_mc(SCEN, 0.0, FIXED_HALF,
                                           offsets=[-1.0, 0.0, 1.0],
                                           nsim=200, seed=4)
        k = int(np.argmax(mc.t1e))
        assert mc.alphaB_max == mc.t1e[k]
        assert mc.argmax_offset == mc.grid[k]

    def test_literal_mode_agrees_with_exact_inner(self):
        offs = [0.7]
        nsim = 20000
        lit = oc_random_external_two_arm_mc(SCEN, 0.0, FIXED_HALF, offs, nsim,
                                            seed=6, literal=True)
        ex = oc_random_external_two_arm_mc(SCEN, 0.0, FIXED_HALF, offs, nsim,
                                           seed=6)
        se = math.sqrt(0.25 / nsim)
        assert abs(lit.t1e[0] - ex.t1e[0]) < 5 * se
        assert abs(lit.power_borrow[0] - ex.power_borrow[0]) < 5 * se

    def test_rejects_empty_offsets_and_nsim(self):
        with pytest.raises(DomainError):
            oc_random_external_two_arm_mc(SCEN, 0.0, EB, offsets=[],
                                          nsim=100, seed=0)
        with pytest.raises(DomainError):
            oc_random_external_two_arm_mc(SCEN, 0.0, EB, offsets=[0.0],
                                          nsim=0, seed=0)


class TestNonFiniteInputs:
    """NaN or infinite offsets and means raise ``DomainError``; they used
    to give a level of 0, NaN, or a non-convergence error under fixed-pp
    only."""

    BAD = (math.nan, math.inf, -math.inf)

    @pytest.mark.parametrize("method", [EB, FIXED_HALF], ids=["eb", "fixed"])
    @pytest.mark.parametrize("bad", BAD)
    def test_profiles(self, method, bad):
        with pytest.raises(DomainError, match="'offsets' must be finite"):
            power_profile(SCEN, 0.0, method, [0.0, bad])
        with pytest.raises(DomainError, match="'offsets' must be finite"):
            oc_random_external_two_arm_mc(SCEN, 0.0, method, [bad], 10, 1)
        with pytest.raises(DomainError, match="'dE_mean' must be finite"):
            t1e_profile(SCEN, bad, method, [0.0])
        with pytest.raises(DomainError, match="'dE_mean' must be finite"):
            oc_fixed_external_two_arm(SCEN, bad, method)
        with pytest.raises(DomainError, match="'thetaE' must be finite"):
            oc_random_external_two_arm(SCEN, bad, method, [0.0])
        with pytest.raises(DomainError, match="'thetaE' must be finite"):
            oc_random_external_two_arm_mc(SCEN, bad, method, [0.0], 10, 1)

    @pytest.mark.parametrize("method", [EB, FIXED_HALF], ids=["eb", "fixed"])
    @pytest.mark.parametrize("bad", BAD)
    def test_rejection_probability(self, method, bad):
        for args, name in (((bad, 0.0, 0.0), "theta_c"),
                           ((0.0, bad, 0.0), "theta_t"),
                           ((0.0, 0.0, bad), "dE_mean"),
                           ((np.array([0.0, bad]), 0.0, 0.0), "theta_c")):
            with pytest.raises(DomainError, match=f"'{name}' must be finite"):
                reject_prob_two_arm(SCEN, *args, method)

    @pytest.mark.parametrize("method", METHODS, ids=METHOD_IDS)
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_is_checked_before_the_engine_is_chosen(self, method, tol):
        # the closed forms used to ignore tol, and EB named it 'abs_tol'
        with pytest.raises(DomainError, match="'tol' must be a positive"):
            reject_prob_two_arm(SCEN, 0.0, 0.0, 0.0, method, tol=tol)
        with pytest.raises(DomainError, match="'tol' must be a positive"):
            oc_random_external_two_arm(SCEN, 0.0, method, [0.0], tol=tol)


class TestScenarioTwoArmValidation:
    def test_effect_must_be_positive(self):
        with pytest.raises(DomainError):
            ScenarioTwoArm(nc=15, nt=15, nE=10, sigma=1.0, theta1=0.0,
                           alpha=0.025)

    def test_defaults(self):
        assert SCEN.c == 0.975
        assert SCEN.sigmaE == 1.0
        assert SCEN.seE == pytest.approx(1.0 / math.sqrt(10.0), abs=1e-15)
