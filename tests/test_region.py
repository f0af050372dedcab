"""Rejection-region extraction and exact region probabilities."""

import dataclasses
import math

import numpy as np
import pytest
import quartic_oracle
from hypothesis import given, strategies as st
from scan_oracle import scan_region

from borrowoc import (
    ArmSummary,
    BorrowingMethod,
    DomainError,
    Interval,
    RejectionRegion,
    ScenarioOneArm,
    decide_borrow,
    interval_count,
    norm_cdf,
    norm_quantile,
    oc_fixed_external,
    rejection_prob,
    rejection_region,
)
from borrowoc.oc_onearm import region_oc_arrays
from borrowoc.region import _conflict_roots, _region_row, boundary_arrays

SCEN = ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                      nE=20, theta1=0.5)
SCEN_BIG_EXT = ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                              nE=1000, theta1=0.5)


class TestNoBorrowRegion:
    def test_single_upper_interval_at_z_threshold(self):
        region = rejection_region(SCEN, 0.0, BorrowingMethod.none())
        assert interval_count(region) == 1
        (iv,) = region.intervals
        # classical one-sided z-test cutoff theta0 + q(1 - alpha) * se
        assert iv.lo == pytest.approx(norm_quantile(0.975) / 5.0, abs=1e-9)
        assert iv.hi == math.inf

    def test_region_ignores_external_mean(self):
        a = rejection_region(SCEN, -3.0, BorrowingMethod.none())
        b = rejection_region(SCEN, 3.0, BorrowingMethod.none())
        assert a.intervals[0].lo == pytest.approx(b.intervals[0].lo, abs=1e-9)


class TestFixedPpRegion:
    def test_boundary_golden_at_null_external(self):
        region = rejection_region(SCEN, 0.0, BorrowingMethod.fixed_power_prior(0.5))
        assert interval_count(region) == 1
        # root of the posterior-tail threshold equation, frozen from an
        # independent 50-digit bisection of the closed-form boundary
        assert region.intervals[0].lo == pytest.approx(
            0.46381213218163133, abs=1e-9)
        assert region.intervals[0].hi == math.inf

    def test_boundary_shifts_down_with_favorable_external(self):
        lo_at = {}
        for de in (-0.5, 0.0, 0.5):
            region = rejection_region(SCEN, de, BorrowingMethod.fixed_power_prior(0.5))
            assert interval_count(region) == 1
            lo_at[de] = region.intervals[0].lo
        assert lo_at[-0.5] > lo_at[0.0] > lo_at[0.5]

    def test_full_weight_matches_pooled_algebra(self):
        # delta = 1 pools both samples: threshold solves
        # (n dbar + nE dE) / (n + nE) = q(c) / sqrt(n + nE)
        region = rejection_region(SCEN, 0.2, BorrowingMethod.fixed_power_prior(1.0))
        expected = (norm_quantile(0.975) * math.sqrt(45.0) - 20.0 * 0.2) / 25.0
        assert region.intervals[0].lo == pytest.approx(expected, abs=1e-9)


class TestEmpiricalBayesRegion:
    def test_mild_conflict_splits_into_two_intervals(self):
        region = rejection_region(SCEN_BIG_EXT, 0.10, BorrowingMethod.empirical_bayes())
        assert interval_count(region) == 2
        first, second = region.intervals
        assert first.hi < second.lo
        assert second.hi == math.inf
        # the detached piece sits around the external mean, where the
        # re-estimated weight snaps to full borrowing
        assert first.lo < 0.10 < first.hi

    def test_agreement_and_strong_conflict_stay_single(self):
        for de in (0.0, 0.20):
            region = rejection_region(SCEN_BIG_EXT, de, BorrowingMethod.empirical_bayes())
            assert interval_count(region) == 1

    def test_moderate_external_sample_single_interval(self):
        for de in (-0.5, 0.0, 0.56, 1.5):
            region = rejection_region(SCEN, de, BorrowingMethod.empirical_bayes())
            assert interval_count(region) == 1


class TestNarrowSliver:
    # at this external mean the region has a detached piece 2.3e-4 wide,
    # narrower than the 5e-4 step of an 8001-point scan of the window
    DE = 0.056286
    # roots of the decision margin from a 40-digit mpmath solve
    LO, HI, UPPER = 0.25853857878077648, 0.25877112658218246, 0.43870903999012150

    def test_two_intervals(self):
        region = rejection_region(SCEN_BIG_EXT, self.DE, BorrowingMethod.empirical_bayes())
        assert interval_count(region) == 2
        sliver, upper = region.intervals
        assert sliver.lo == pytest.approx(self.LO, abs=1e-9)
        assert sliver.hi == pytest.approx(self.HI, abs=1e-9)
        assert upper.lo == pytest.approx(self.UPPER, abs=1e-9)
        assert upper.hi == math.inf

    def test_scalar_decision_confirms_the_sliver(self):
        external = ArmSummary(self.DE, 1000, 1.0)
        eb = BorrowingMethod.empirical_bayes()

        def decide(x):
            return decide_borrow(ArmSummary(x, 25, 1.0), external, eb, 0.0, 0.975)

        assert decide(0.5 * (self.LO + self.HI)) == 1
        assert decide(self.LO - 1e-6) == 0
        assert decide(self.HI + 1e-6) == 0

    def test_conditional_t1e_counts_the_sliver(self):
        # the same 40-digit solve: Phi sums over the two pieces at theta0
        pt = oc_fixed_external(SCEN_BIG_EXT, self.DE, BorrowingMethod.empirical_bayes())
        assert pt.t1e_borrow == pytest.approx(0.0143350631066737, abs=1e-9)


ORACLE_SCENARIOS = {
    "base": SCEN_BIG_EXT,
    # z_c = 0: the near-double quartic roots of region._conflict_roots
    "c=0.5": ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                            nE=1000, theta1=0.5, c=0.5),
    "sigmaE!=sigma": ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                                    nE=300, theta1=0.5, sigmaE=1.7),
    "theta0!=0": ScenarioOneArm(n=40, sigma=2.0, theta0=0.7, alpha=0.05,
                                nE=600, theta1=1.5),
}
ORACLE_METHODS = {"none": BorrowingMethod.none(),
                  "fixed-pp": BorrowingMethod.fixed_power_prior(0.5),
                  "eb-pp": BorrowingMethod.empirical_bayes()}
# a sweep; both edges of the base scenario's two-interval band (0.05628 and
# 0.14522) and points inside it, among them the narrow piece of
# TestNarrowSliver; points inside the other scenarios' two-interval bands
# (about 0.1295..0.1452 and 0.810..0.872; at c = 0.5 there is none); far
# conflict on either side
ORACLE_DE = (*np.linspace(-1.0, 1.5, 26).round(10),
             0.0562, 0.056286, 0.0563, 0.0564, 0.08, 0.1, 0.12, 0.135, 0.14,
             0.1451, 0.1452, 0.1453, 0.83, 0.85, -20.0, 20.0)


def _seen_by_scan(region, scen, de, method, step):
    """The region as the scan oracle can see it.

    Pieces narrower than 4 scan steps fall between grid points; each is
    checked with scalar decisions at its midpoint and 1e-6 outside each end,
    then left out.  What remains is cut to the scan window, and a piece
    reaching an edge of the window extends to that infinity, as in the scan.
    """
    external = ArmSummary(de, scen.nE, scen.sigmaE)

    def decide(x):
        return decide_borrow(ArmSummary(x, scen.n, scen.sigma), external,
                             method, scen.theta0, scen.c)

    lo, hi = region.scan_bounds.lo, region.scan_bounds.hi
    seen = []
    for iv in region.intervals:
        if iv.width <= 4.0 * step:
            assert decide(0.5 * (iv.lo + iv.hi)) == 1, (de, iv)
            assert decide(iv.lo - 1e-6) == 0, (de, iv)
            assert decide(iv.hi + 1e-6) == 0, (de, iv)
        elif iv.hi > lo and iv.lo < hi:
            seen.append(Interval(-math.inf if iv.lo <= lo else iv.lo,
                                 math.inf if iv.hi >= hi else iv.hi))
    return seen


@pytest.mark.parametrize("scen", ORACLE_SCENARIOS.values(), ids=ORACLE_SCENARIOS.keys())
@pytest.mark.parametrize("method", ORACLE_METHODS.values(), ids=ORACLE_METHODS.keys())
def test_algebraic_region_matches_dense_scan(scen, method):
    compared = 0
    for de in ORACLE_DE:
        region = rejection_region(scen, de, method)
        oracle, step = scan_region(scen, de, method)
        assert region.scan_bounds == oracle.scan_bounds
        if min((iv.width for iv in oracle.intervals), default=math.inf) <= 4.0 * step:
            continue    # a piece the scan cannot resolve
        edges = (region.scan_bounds.lo, region.scan_bounds.hi)
        if any(abs(x - e) <= 1e-9 for iv in region.intervals
               for x in (iv.lo, iv.hi) for e in edges):
            continue    # a boundary on the window's edge: a rounding tie
        compared += 1
        seen = _seen_by_scan(region, scen, de, method, step)
        assert len(seen) == interval_count(oracle), de
        assert region.flagged == oracle.flagged, de
        for got, want in zip(seen, oracle.intervals):
            for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                if math.isinf(b):
                    assert a == b, de
                else:
                    assert a == pytest.approx(b, abs=1e-9), de
    assert compared >= len(ORACLE_DE) - 4


# the benchmark's region grid: 601 points from about -1 in steps of 0.005,
# across the nE = 1000 two-interval band [0.05, 0.15]; far external means
# within the 1e6 se bound, where fixed weights leave no boundary in the
# window (flagged) and Empirical Bayes is in far conflict
BENCH_GRID = tuple(-0.9975 + 0.005 * k for k in range(601))
FAR_DE = (-1e5, -1e4, -50.0, 50.0, 1e4, 1e5)


def test_region_is_its_batch_row():
    # the region table is one boundary_arrays call cut into rows; each row
    # must be the one-row call's region: intervals, window and flag; the
    # last eight points (theta0 = 0 among them) are the earlier test's
    de = BENCH_GRID + FAR_DE + (-20.0, -0.4, 0.0, 0.056286, 0.1, 0.1452,
                                 0.7, 20.0)
    eb = BorrowingMethod.empirical_bayes()
    for scen, method, multi, flagged in (
            (SCEN_BIG_EXT, eb, 21, 0), (SCEN, eb, 0, 0),
            (SCEN, BorrowingMethod.fixed_power_prior(0.5), 0, 8),
            (SCEN, BorrowingMethod.none(), 0, 0)):
        batch = boundary_arrays(scen, de, method)
        rows = [_region_row(batch, j) for j in range(len(de))]
        assert rows == [rejection_region(scen, d, method) for d in de]
        assert sum(interval_count(r) > 1 for r in rows) == multi
        assert sum(r.flagged for r in rows) == flagged


# 3 x 4 x 4 x 2 = 96 designs; c = 0.5 is z_c = 0, where every root of the
# conflict quartic is double
FUZZ_DESIGNS = [ScenarioOneArm(n=n, sigma=1.0, theta0=0.0, alpha=0.025, nE=nE,
                               theta1=0.5, c=c, sigmaE=sigmaE)
                for n in (4, 25, 200) for nE in (2, 20, 1000, 5000)
                for c in (0.5, 0.6, 0.975, 0.999) for sigmaE in (1.0, 1.7)]


class TestClosedFormQuartic:
    """The closed-form conflict roots against companion-matrix eigenvalues."""

    def test_boundaries_match_eigenvalue_oracle(self):
        rng = np.random.default_rng(13)
        eb = BorrowingMethod.empirical_bayes()
        rows = multi = 0
        for scen in FUZZ_DESIGNS:
            # alpha = (dE - theta0)/se: dense where agreement, the split
            # regions and conflict meet, sparser in far conflict
            alpha = np.concatenate([rng.uniform(-8.0, 8.0, 825),
                                    rng.uniform(-60.0, 60.0, 275)])
            de = scen.theta0 + alpha * scen.se
            got = boundary_arrays(scen, de, eb)
            want = quartic_oracle.boundary_arrays(scen, de, eb)
            np.testing.assert_array_equal(got.start, want.start)
            np.testing.assert_array_equal(got.signs, want.signs)
            live = np.isfinite(want.roots)
            np.testing.assert_array_equal(np.isfinite(got.roots), live)
            np.testing.assert_allclose(got.roots[live], want.roots[live],
                                       rtol=0.0, atol=1e-12)
            for theta in (scen.theta0, scen.theta1):
                np.testing.assert_allclose(got.prob(theta, scen.se),
                                           want.prob(theta, scen.se),
                                           rtol=0.0, atol=1e-12)
            rows += de.size
            pieces = want.start + np.count_nonzero(want.signs > 0.0, axis=1)
            multi += np.count_nonzero(pieces > 1)
        assert rows >= 100_000
        assert multi >= 500     # the split regime is reached (934 rows)

    @given(n=st.integers(2, 1000), nE=st.integers(2, 10_000),
           sigmaE=st.floats(0.2, 5.0), theta0=st.floats(-2.0, 2.0))
    def test_every_near_double_root_is_kept(self, n, nE, sigmaE, theta0):
        scen = ScenarioOneArm(n=n, sigma=1.0, theta0=theta0, alpha=0.025, nE=nE,
                              theta1=theta0 + 0.5, c=0.5, sigmaE=sigmaE)
        zc = norm_quantile(scen.c)
        assert zc == 0.0
        de = theta0 + scen.se * np.linspace(-30.0, 30.0, 601)
        want = quartic_oracle.conflict_roots(de, scen, zc)
        got = np.nan_to_num(_conflict_roots(de, scen, zc), nan=np.inf)
        gap = np.min(np.abs(got[:, None, :] - want[:, :, None]), axis=2)
        kept = np.isfinite(want)
        assert np.all(gap[kept] <= 1e-12 * (1.0 + np.abs(want[kept])))


ALWAYS = RejectionRegion((Interval(-math.inf, math.inf),),
                         Interval(-5.0, 5.0), flagged=True)


class TestFlaggedDegenerateScan:
    def test_always_reject_threshold(self):
        assert rejection_prob(ALWAYS, 0.0, SCEN.n, SCEN.sigma) == 1.0

    def test_boundary_below_the_window_is_flagged(self):
        # full borrowing of a favourable external mean puts the only
        # boundary near -9.5, below the window edge theta0 - 10 se = -2
        region = rejection_region(dataclasses.replace(SCEN, nE=1000), 0.3,
                                  BorrowingMethod.fixed_power_prior(1.0))
        assert region.flagged
        (iv,) = region.intervals
        assert iv.lo < region.scan_bounds.lo == -2.0 and iv.hi == math.inf

    def test_empty_region_has_zero_mass(self):
        region = RejectionRegion((), Interval(-5.0, 5.0), flagged=True)
        assert rejection_prob(region, 0.0, SCEN.n, SCEN.sigma) == 0.0

    def test_rejects_non_finite_external_mean(self):
        with pytest.raises(ValueError):
            rejection_region(SCEN, math.inf, BorrowingMethod.none())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_external_mean_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match="'external_mean' must be finite"):
            boundary_arrays(SCEN, np.array([0.1, bad]),
                            BorrowingMethod.empirical_bayes())


class TestFarExternalMeans:
    """Empirical Bayes refuses external means beyond _MAX_EB_DISTANCE
    standard errors from theta0, where the far-conflict boundary would lose
    its digits; at the bound it is still good to 1e-9 se."""

    # the boundary near theta0 + z_c se; its 20-digit value from a 60-digit
    # mpmath solve of the decision margin
    AT_BOUND = ((0.999e6, 0.3919925967072214244),
                (-0.999e6, 0.39199299710762182748))

    @pytest.mark.parametrize("dE", [1e10, 1e15, 1e20, 1e155, -1e300,
                                    1.001e6 * SCEN.se])
    def test_scalar_route_refuses(self, dE):
        with pytest.raises(DomainError, match="standard errors from theta0"):
            rejection_region(SCEN, dE, BorrowingMethod.empirical_bayes())

    def test_array_route_refuses(self):
        de = np.array([0.0, 0.3, -1e15, 0.5])
        with pytest.raises(DomainError, match="-1000000000000000.0 lies"):
            region_oc_arrays(SCEN, de, BorrowingMethod.empirical_bayes())

    @pytest.mark.parametrize("distance, boundary", AT_BOUND)
    def test_boundary_at_the_bound(self, distance, boundary):
        de = SCEN.theta0 + distance * SCEN.se
        for region in (rejection_region(SCEN, de, BorrowingMethod.empirical_bayes()),
                       _region_row(boundary_arrays(
                           SCEN, [0.1, de], BorrowingMethod.empirical_bayes()), 1)):
            (iv,) = region.intervals
            assert iv.hi == math.inf
            assert abs(iv.lo - boundary) <= 1e-9 * SCEN.se
        t1e, _ = region_oc_arrays(SCEN, np.array([de]),
                                  BorrowingMethod.empirical_bayes())
        assert t1e[0] == pytest.approx(
            1.0 - norm_cdf((boundary - SCEN.theta0) / SCEN.se), abs=1e-9)

    def test_fixed_weights_are_not_refused(self):
        for method in (BorrowingMethod.none(),
                       BorrowingMethod.fixed_power_prior(0.5)):
            (iv,) = rejection_region(SCEN, 1e10, method).intervals
            assert math.isfinite(iv.lo)


class TestRejectionRegionValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            RejectionRegionFactory()

    def test_touching_endpoints_allowed(self):
        from borrowoc import RejectionRegion
        RejectionRegion((Interval(0.0, 1.0), Interval(1.0, 2.0)),
                        Interval(-5.0, 5.0))


def RejectionRegionFactory():
    from borrowoc import RejectionRegion
    return RejectionRegion((Interval(0.0, 2.0), Interval(1.0, 3.0)),
                           Interval(-5.0, 5.0))


class TestRejectionProb:
    def test_single_interval_golden(self):
        region = rejection_region(SCEN, 0.0, BorrowingMethod.fixed_power_prior(0.5))
        # null rejection rate and power frozen from the closed form
        assert rejection_prob(region, 0.0, 25, 1.0) == pytest.approx(
            0.010195873707045288, abs=1e-9)
        assert rejection_prob(region, 0.5, 25, 1.0) == pytest.approx(
            0.5717924048435208, abs=1e-9)

    def test_half_line_region(self):
        region = rejection_region(SCEN, 0.0, BorrowingMethod.none())
        assert rejection_prob(region, 0.0, 25, 1.0) == pytest.approx(0.025, abs=1e-9)

    def test_two_piece_mass_adds_up(self):
        region = rejection_region(SCEN_BIG_EXT, 0.10, BorrowingMethod.empirical_bayes())
        total = rejection_prob(region, 0.0, 25, 1.0)
        parts = [
            rejection_prob(
                type(region)((iv,), region.scan_bounds),
                0.0, 25, 1.0)
            for iv in region.intervals
        ]
        assert total == pytest.approx(math.fsum(parts), abs=1e-12)
        assert all(p > 0.0 for p in parts)

    def test_clipped_to_unit_interval(self):
        assert rejection_prob(ALWAYS, 100.0, 25, 1.0) == 1.0
