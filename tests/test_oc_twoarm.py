"""Two-arm hybrid-control operating characteristics."""

import math
import random

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
from borrowoc import oc_twoarm
from borrowoc.statmath import _GRID_POINTS

import oracles
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
        # one engine per method: the retired engine and tol keywords are
        # refused, not ignored
        for method in (EB, FIXED_HALF, NONE):
            for keyword in ({"engine": "quadrature"}, {"tol": 1e-9}):
                with pytest.raises(TypeError, match="unexpected keyword"):
                    reject_prob_two_arm(SCEN, 0.0, 0.0, 0.0, method,
                                        **keyword)


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


def _scans(scen, method, e_var):
    """The maximum's two-call scan and one dense ``values`` call, each over
    the grid that :func:`oc_twoarm._profile_max` scans for the null
    profile of ``scen`` with the external mean N(0, ``e_var``)."""
    exact, values = oc_twoarm._offset_engines(scen, 0.0, e_var, method,
                                              1e-9)
    seen = []

    def recording(f, scan, domain):
        seen.append((scan, np.linspace(domain.lo, domain.hi, _GRID_POINTS)))
        return 0.0, 0.0                 # no polish
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oc_twoarm, "_maximize", recording)
        oc_twoarm._profile_max(exact, values, [])
    (scan, xs), = seen
    return scan(xs), values(xs, 0.0)


def _same_cell(scen, method, e_var):
    """Asserts that the two-call scan picks the dense scan's grid index
    with the dense call's values at no more than 65 points; returns the
    index, the dense values and the sampled profile's count of strict
    local maxima (a plateau counts once)."""
    ys, dense = _scans(scen, method, e_var)
    assert np.argmax(ys) == np.argmax(dense)
    seen = ~np.isneginf(ys)
    assert ys[seen].tolist() == dense[seen].tolist()
    assert np.count_nonzero(seen) <= 65
    steps = np.sign(np.diff(dense))
    steps = steps[steps != 0]
    peaks = int(np.sum((steps[:-1] > 0) & (steps[1:] < 0)))
    return int(np.argmax(dense)), dense, peaks


SCAN_FUZZ = [
    *oracles.fuzz_two_arm(random.Random(36), 10, oracles.choice_fields,
                          oracles.CHOICE_FIRST),
    *oracles.fuzz_two_arm(np.random.default_rng(36), 6,
                          oracles.unequal_fields),
    # the named scenarios; CHOICE_FIRST holds LOPSIDED
    oracles.TWO_ARM, oracles.WIDE, oracles.NT_GT_NC, oracles.FAR_PEAK,
    oracles.CUSP,
    *oracles.fuzz_two_arm(random.Random(2026), 6, oracles.extreme_fields),
]


class TestMaximumScan:
    """The maximum's scan evaluates every 8th point of the 401-point grid,
    then the points within 7 of the best of those, and must pick the grid
    index of one dense ``values`` call over all 401 points."""

    @pytest.mark.parametrize("e_var", ["fixed", "random"])
    def test_empirical_bayes_fuzz(self, e_var):
        for scen in SCAN_FUZZ:
            *_, peaks = _same_cell(
                scen, EB, 0.0 if e_var == "fixed" else scen.seE**2)
            assert peaks == 1

    @pytest.mark.parametrize("e_var", ["fixed", "random"])
    def test_two_local_maxima(self, e_var):
        # se_t = 0.054 against se_c = 3.2: the level jumps from 0.05 to
        # 0.73 between offsets -0.03 and 0.09, dips by 0.002, and peaks
        # again about 0.01 higher at 0.36
        scen = ScenarioTwoArm(nc=1, nt=3554, nE=746412, sigma=3.1948,
                              theta1=1.86, alpha=0.025, c=0.9, sigmaE=34.658)
        *_, peaks = _same_cell(
            scen, EB, 0.0 if e_var == "fixed" else scen.seE**2)
        assert peaks == 2

    def test_flat_profile_peaks_at_the_lower_end(self):
        # no borrowing: every grid value ties, and the first one wins
        index, dense, _ = _same_cell(SCEN, NONE, 0.0)
        assert index == 0 and np.unique(dense).size == 1

    def test_peak_at_the_doubled_upper_end(self):
        # the fixed weight's profile climbs over the whole grid, doubled
        # once to [-6, 12]
        index, dense, _ = _same_cell(SCEN, FIXED_HALF, 0.0)
        assert index == _GRID_POINTS - 1 and dense[-1] < 1.0

    @pytest.mark.parametrize("e_var", ["fixed", "random"])
    def test_plateau_saturated_at_one(self, e_var):
        # the first of the tied 1.0 values lies between two coarse points
        scen = ScenarioTwoArm(nc=5, nt=15, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025, sigmaE=0.5)
        index, dense, _ = _same_cell(
            scen, FIXED_HALF, 0.0 if e_var == "fixed" else scen.seE**2)
        assert dense[index] == 1.0 and np.sum(dense == 1.0) > 16
        assert index % oc_twoarm._SCAN_STRIDE != 0


class TestStackedRows:
    """``_profile`` takes the null and the power rows from one ``values``
    call; each must equal its own call bit for bit."""

    @pytest.mark.parametrize("method, e_var", [
        (EB, 0.0),
        (EB, SCEN.seE**2),
        (FIXED_HALF, 0.0),
        (FIXED_HALF, SCEN.seE**2),
        (NONE, 0.0),
    ], ids=["eb-fixed", "eb-random", "fixed-pp", "fixed-pp-random", "none"])
    def test_rows_match_their_own_calls(self, monkeypatch, method, e_var):
        offs = (-1.0, 0.0, 0.7, 2.5)
        exact, values = oc_twoarm._offset_engines(SCEN, 0.3, e_var, method,
                                                  1e-9)
        # the maximum is checked elsewhere; any value below the rows will do
        monkeypatch.setattr(oc_twoarm, "_profile_max", lambda *a: (0.0, 0.0))
        prof = oc_twoarm._profile(SCEN, (exact, values), offs)
        null = values(np.array(offs), 0.0).tolist()
        power = values(np.array(offs), SCEN.theta1).tolist()
        assert prof.t1e == tuple(null)
        assert prof.power_borrow == tuple(power)
        assert prof.power_calibrated == power_calibrated_two_arm(max(null),
                                                                 SCEN)
        assert prof.power_diff == tuple(v - prof.power_calibrated
                                        for v in power)
        bare = oc_twoarm._profile(SCEN, (exact, values), offs, power=False)
        assert bare.t1e == tuple(null)


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
        # one engine per method: the retired engine keyword is refused,
        # not ignored
        with pytest.raises(TypeError, match="unexpected keyword"):
            oc_random_external_two_arm(SCEN, 0.0, EB, offsets=[0.0],
                                       engine="quadrature")


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
