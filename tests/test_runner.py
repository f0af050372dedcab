"""Replicate studies, grid sweeps, and their order-deterministic summaries."""

import math

import pytest

from borrowoc import (
    BorrowingMethod,
    DomainError,
    ReplicateRecord,
    ScenarioOneArm,
    ScenarioTwoArm,
    oc_fixed_external,
    power_calibrated,
    run_algorithm1,
    run_algorithm2,
    run_grid,
    summarize,
)

SCEN = ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                      nE=20, theta1=0.5)
SCEN2 = ScenarioTwoArm(nc=15, nt=15, nE=10, sigma=1.0, theta1=1.0, alpha=0.025)
FIXED_HALF = BorrowingMethod.fixed_power_prior(0.5)
EB = BorrowingMethod.empirical_bayes()


class TestReplicateRecord:
    def test_fills_power_difference(self):
        r = ReplicateRecord(0, 0.1, 0.02, 0.6, 0.7)
        assert r.power_diff == pytest.approx(-0.1, abs=1e-15)

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            ReplicateRecord(-1, 0.1, 0.02, 0.6, 0.7)


class TestSummarize:
    RECORDS = (
        ReplicateRecord(2, 0.3, 0.03, 0.5, 0.6),
        ReplicateRecord(0, 0.1, 0.01, 0.7, 0.6),
        ReplicateRecord(1, 0.2, 0.02, 0.6, 0.6),
    )

    def test_sorts_and_aggregates(self):
        rep = summarize(self.RECORDS, seed=5, nsim=3, scenario={"design": "x"})
        assert [r.replicate for r in rep.records] == [0, 1, 2]
        assert rep.mean_t1e == pytest.approx(0.02, abs=1e-15)
        assert rep.t1e_min == 0.01 and rep.t1e_max == 0.03
        assert rep.t1e_median == 0.02
        assert rep.mean_power_diff == pytest.approx(0.0, abs=1e-15)
        assert rep.power_diff_min == pytest.approx(-0.1, abs=1e-15)
        assert rep.power_diff_max == pytest.approx(0.1, abs=1e-15)
        assert rep.power_diff_median == pytest.approx(0.0, abs=1e-15)
        assert rep.seed == 5 and rep.nsim == 3

    def test_empty_is_an_error(self):
        with pytest.raises(DomainError):
            summarize((), seed=0, nsim=0, scenario={})


class TestRunAlgorithm1:
    def test_reproducible_and_seed_sensitive(self):
        a = run_algorithm1(SCEN, 0.0, FIXED_HALF, nsim=8, seed=1)
        b = run_algorithm1(SCEN, 0.0, FIXED_HALF, nsim=8, seed=1)
        c = run_algorithm1(SCEN, 0.0, FIXED_HALF, nsim=8, seed=2)
        assert a == b
        assert a != c

    def test_worker_count_does_not_change_report(self):
        serial = run_algorithm1(SCEN, 0.0, EB, nsim=12, seed=7, workers=1)
        threaded = run_algorithm1(SCEN, 0.0, EB, nsim=12, seed=7, workers=4)
        assert serial == threaded

    def test_records_match_conditional_engine(self):
        rep = run_algorithm1(SCEN, 0.0, FIXED_HALF, nsim=5, seed=3)
        for r in rep.records:
            pt = oc_fixed_external(SCEN, r.dE_mean, FIXED_HALF)
            assert r.t1e_borrow == pytest.approx(pt.t1e_borrow, abs=1e-12)
            assert r.power_borrow == pytest.approx(pt.power_borrow, abs=1e-12)
            assert r.power_calibrated == pytest.approx(pt.power_calibrated,
                                                       abs=1e-12)

    def test_external_draws_follow_requested_center(self):
        rep = run_algorithm1(SCEN, 0.5, FIXED_HALF, nsim=60, seed=11)
        mean = math.fsum(r.dE_mean for r in rep.records) / 60
        # standard error of the mean of 60 draws at seE ~ 0.224 is ~0.029
        assert mean == pytest.approx(0.5, abs=0.12)

    def test_literal_external_draw_agrees_in_distribution(self):
        # audit mode assembles the external mean from nE raw observations;
        # its conditional rates stay within inner-MC noise of the exact ones
        rep = run_algorithm1(SCEN, 0.0, FIXED_HALF, nsim=4, seed=9,
                             literal=True, audit_inner_nsim=4000)
        for r in rep.records:
            pt = oc_fixed_external(SCEN, r.dE_mean, FIXED_HALF)
            se = math.sqrt(max(pt.t1e_borrow * (1 - pt.t1e_borrow), 1e-3)
                           / 4000)
            assert abs(r.t1e_borrow - pt.t1e_borrow) < 5 * se

    def test_two_arm_records_use_profile_maximum(self):
        rep = run_algorithm1(SCEN2, 0.0, EB, nsim=3, seed=2)
        from borrowoc import oc_fixed_external_two_arm
        for r in rep.records:
            pt = oc_fixed_external_two_arm(SCEN2, r.dE_mean, EB)
            assert r.t1e_borrow == pytest.approx(pt.t1e_borrow, abs=1e-9)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            run_algorithm1(SCEN, math.inf, FIXED_HALF)
        with pytest.raises(DomainError):
            run_algorithm1(SCEN, 0.0, FIXED_HALF, nsim=0)
        with pytest.raises(DomainError):
            run_algorithm1(SCEN, 0.0, FIXED_HALF, workers=0)

    def test_engine_errors_propagate_unchanged(self, monkeypatch):
        import borrowoc.runner as runner_mod

        def boom(scen, de, method):
            raise ValueError("engine failure")

        monkeypatch.setattr(runner_mod, "region_oc_arrays", boom)
        with pytest.raises(ValueError, match="^engine failure$"):
            run_algorithm1(SCEN, 0.0, FIXED_HALF, nsim=2, seed=0)

    def test_two_arm_runs_one_maximization(self, monkeypatch):
        # two-arm characteristics depend only on the control-minus-external
        # offset, so one maximization serves every replicate
        import borrowoc.runner as runner_mod
        from borrowoc import oc_fixed_external_two_arm
        calls = []

        def counted(scen, de, method):
            calls.append(de)
            return oc_fixed_external_two_arm(scen, de, method)

        monkeypatch.setattr(runner_mod, "oc_fixed_external_two_arm", counted)
        rep = run_algorithm1(SCEN2, 0.0, EB, nsim=3, seed=2)
        assert len(calls) == 1
        pt = oc_fixed_external_two_arm(SCEN2, rep.records[0].dE_mean, EB)
        want = (pt.t1e_borrow, pt.power_borrow, pt.power_calibrated)
        assert len({r.dE_mean for r in rep.records}) == 3
        for r in rep.records:
            assert (r.t1e_borrow, r.power_borrow, r.power_calibrated) == want

    def test_eb_two_interval_band_records_equal_pointwise_engine(self):
        # nE=1000 around thetaE=0.1: regions split into two intervals, so
        # the batched null supremum is exercised row by row
        scen = ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                              nE=1000, theta1=0.5)
        rep = run_algorithm1(scen, 0.1, EB, nsim=40, seed=4)
        for r in rep.records:
            pt = oc_fixed_external(scen, r.dE_mean, EB)
            assert (r.t1e_borrow, r.power_borrow, r.power_calibrated,
                    r.power_diff) == (pt.t1e_borrow, pt.power_borrow,
                                      pt.power_calibrated, pt.power_diff)


class TestRunAlgorithm2:
    def test_one_arm_records_share_calibration_to_mean_level(self):
        rep = run_algorithm2(SCEN, 0.0, FIXED_HALF, nsim=400, seed=5)
        pc = power_calibrated(rep.mean_t1e, SCEN)
        for r in rep.records[:10]:
            assert r.power_calibrated == pytest.approx(pc, abs=1e-12)

    def test_reproducible(self):
        a = run_algorithm2(SCEN, 0.5, FIXED_HALF, nsim=300, seed=8)
        b = run_algorithm2(SCEN, 0.5, FIXED_HALF, nsim=300, seed=8)
        assert a == b

    def test_two_arm_selects_offset_with_largest_mean_level(self):
        offs = (-1.0, 0.0, 1.0)
        rep = run_algorithm2(SCEN2, 0.0, FIXED_HALF, nsim=50, seed=4,
                             offsets=offs)
        assert rep.scenario["argmax_offset"] in offs
        # fixed weights inflate with the offset, so the top of this grid wins
        assert rep.scenario["argmax_offset"] == 1.0

    def test_two_arm_rejects_empty_offsets(self):
        with pytest.raises(DomainError):
            run_algorithm2(SCEN2, 0.0, FIXED_HALF, nsim=10, seed=0, offsets=())


class TestRunGrid:
    def test_one_arm_grid_matches_pointwise_engine(self):
        pts = (-0.5, 0.0, 0.5)
        rep = run_grid(SCEN, pts, FIXED_HALF)
        assert rep.seed is None
        assert rep.nsim == len(pts)
        assert rep.scenario["grid_axis"] == "dE_mean"
        for r, g in zip(rep.records, pts):
            pt = oc_fixed_external(SCEN, g, FIXED_HALF)
            assert r.dE_mean == g
            assert r.t1e_borrow == pytest.approx(pt.t1e_borrow, abs=1e-12)

    def test_two_arm_grid_calibrates_to_profile_maximum(self):
        rep = run_grid(SCEN2, (-1.0, 0.0, 1.0), EB)
        assert rep.scenario["grid_axis"] == "offset"
        assert rep.scenario["alphaB_max"] == pytest.approx(0.07032546174593321,
                                                           abs=1e-9)
        pcs = {r.power_calibrated for r in rep.records}
        assert len(pcs) == 1

    def test_rejects_empty_or_nonfinite_grid(self):
        with pytest.raises(DomainError):
            run_grid(SCEN, (), FIXED_HALF)
        with pytest.raises(DomainError):
            run_grid(SCEN, (0.0, math.nan), FIXED_HALF)
