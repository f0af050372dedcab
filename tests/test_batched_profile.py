"""Two-arm profiles against a serial oracle.

``kernel_oracle.profile`` evaluates every offset on its own: one adaptive
integral per offset through the one-panel-per-call ``kernel_oracle.integrate``,
and a scalar 401-point scan plus golden-section polish for the maximum.
Under Empirical Bayes the engines in ``borrowoc.oc_twoarm`` take the profile
values and the scan from the u-line kernel and polish with the exact
engine, so the maximized level and its location must come out exactly the
oracle's, and each value within the oracle's tolerance plus 1e-12.  The
``engine="quadrature"`` route runs one adaptive integral of the exact
engine per offset, its panels evaluated together, so its values must
equal the oracle's exactly.
"""

import json

import numpy as np
import pytest

import kernel_oracle as oracle
from borrowoc import (
    BorrowingMethod,
    NonConvergenceError,
    ScenarioTwoArm,
    oc_fixed_external_two_arm,
    oc_random_external_two_arm,
    power_profile,
    reject_prob_two_arm,
)
from borrowoc import oc_twoarm
from borrowoc.cli import EXIT_NUMERICS, main

EB = BorrowingMethod.empirical_bayes()
FIXED = BorrowingMethod.fixed_power_prior(0.5)
SCEN = ScenarioTwoArm(nc=15, nt=15, nE=10, sigma=1.0, theta1=1.0, alpha=0.025)
# nt > nc: the inner rule cuts each segment into ceil(se_c/se_t) = 2 pieces
WIDE = ScenarioTwoArm(nc=6, nt=20, nE=40, sigma=1.3, theta1=0.8, alpha=0.05,
                      sigmaE=0.9)
NT_GT_NC = ScenarioTwoArm(nc=10, nt=40, nE=25, sigma=1.0, theta1=0.9,
                          alpha=0.025, sigmaE=1.4)
# the null profile still climbs at offset 6, so its upper end doubles
FAR_PEAK = ScenarioTwoArm(nc=15, nt=15, nE=2, sigma=1.0, theta1=1.0,
                          alpha=0.025, sigmaE=10.0)
OFFSETS = (-1.0, 0.0, 0.7)


def _fixed(scen, dE, method):
    def reject(x, effect):
        thc = dE + x * scen.sigma
        return oracle.reject_prob_two_arm(scen, thc, thc + effect, dE, method)
    return reject


def _random(scen, thetaE, method, tol):
    def reject(x, effect):
        thc = thetaE + x * scen.sigma
        return oracle.random_reject(scen, thc, thc + effect, thetaE, method,
                                    tol)
    return reject


def _assert_same(prof, ref, gap):
    """The maximum and its location bit for bit; the null rate and the
    power per offset within ``gap`` of the oracle's."""
    t1e, amax, xstar, power = ref
    assert prof.alphaB_max == amax
    assert prof.argmax_offset == xstar
    assert np.abs(np.subtract(prof.t1e, t1e)).max() <= gap
    assert np.abs(np.subtract(prof.power_borrow, power)).max() <= gap


class TestFixedExternal:
    """The u-line kernel scans all 401 grid points and gives the values;
    the oracle scans and polishes with quadrature at tol 1e-9."""

    @pytest.mark.parametrize("scen, dE", [(SCEN, 0.0), (SCEN, -0.7353),
                                          (WIDE, 0.3), (NT_GT_NC, -0.2),
                                          (FAR_PEAK, 0.1)],
                             ids=["equal-arms", "shifted", "nt>nc",
                                  "nt>>nc", "hi-doubles"])
    def test_eb_profile(self, scen, dE):
        _assert_same(power_profile(scen, dE, EB, OFFSETS),
                     oracle.profile(scen, _fixed(scen, dE, EB), OFFSETS),
                     1e-9 + 1e-12)

    def test_eb_point(self):
        self.test_eb_point_elsewhere(SCEN, 0.25)

    @pytest.mark.parametrize("scen, dE", [(WIDE, -0.1), (FAR_PEAK, 0.0)],
                             ids=["nt>nc", "hi-doubles"])
    def test_eb_point_elsewhere(self, scen, dE):
        point = oc_fixed_external_two_arm(scen, dE, EB)
        reject = _fixed(scen, dE, EB)
        _, amax, xstar, _ = oracle.profile(scen, reject, ())
        assert point.t1e_borrow == amax
        assert abs(point.power_borrow - reject(xstar, scen.theta1)) <= (
            1e-9 + 1e-12)

    def test_fixed_weight_quadrature(self):
        for thc, tht, dE in ((0.0, 0.0, 0.0), (-0.8, 0.2, 0.5),
                             (1.7, 1.7, -0.3)):
            assert reject_prob_two_arm(
                SCEN, thc, tht, dE, FIXED, engine="quadrature"
            ) == oracle.reject_prob_two_arm(SCEN, thc, tht, dE, FIXED)


class TestRandomExternal:
    @pytest.mark.parametrize("scen, thetaE, method, tol, engine", [
        (SCEN, 0.4, EB, 1e-9, "auto"),
        (WIDE, -0.2, EB, 1e-6, "auto"),
        (SCEN, -0.6, FIXED, 1e-6, "quadrature"),
    ], ids=["eb", "eb-nt>nc", "fixed-quadrature"])
    def test_profile(self, scen, thetaE, method, tol, engine):
        prof = oc_random_external_two_arm(scen, thetaE, method, OFFSETS, tol,
                                          engine=engine)
        _assert_same(prof, oracle.profile(
            scen, _random(scen, thetaE, method, tol), OFFSETS),
            0.0 if engine == "quadrature" else tol + 1e-12)

    def test_first_failing_offset_names_the_failure(self):
        # at tol 1e-19 the offset -3 converges while 0.5 and 0 exhaust the
        # panel budget with different error estimates; the quadrature route
        # raises what the serial loop raises for 0.5, the first failing
        # offset
        with pytest.raises(NonConvergenceError) as ref:
            oracle.random_reject(SCEN, 0.5, 0.5, 0.0, EB, 1e-19)
        assert oracle.random_reject(SCEN, -3.0, -3.0, 0.0, EB, 1e-19) > 0.0
        with pytest.raises(NonConvergenceError) as got:
            oc_random_external_two_arm(SCEN, 0.0, EB, (-3.0, 0.5, 0.0),
                                       tol=1e-19, engine="quadrature")
        assert str(got.value) == str(ref.value)
        assert "after 4097 panels" in str(ref.value)

    def test_polish_fails_at_an_unreachable_tolerance(self, tmp_path, capsys):
        # the kernel gives the values, but the polish still runs the nested
        # engine at the requested tolerance, and the CLI maps its failure
        # to exit code 3
        with pytest.raises(NonConvergenceError, match="after 4097 panels"):
            oc_random_external_two_arm(SCEN, 0.0, EB, (-3.0, 0.5, 0.0),
                                       tol=1e-19)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"design": "two-arm", "nc": 15, "nt": 15, "nE": 10, "sigma": 1.0,
             "theta1": 1.0, "alpha": 0.025, "method": "eb-pp", "thetaE": 0.0,
             "grid": {"start": -3.0, "stop": 0.5, "step": 3.5}}),
            encoding="utf-8")
        rc = main(["two-arm-random", "--config", str(config),
                   "--out", str(tmp_path / "out"), "--tol", "1e-19"])
        assert rc == EXIT_NUMERICS == 3
        assert "after 4097 panels" in capsys.readouterr().err


class TestBatchMemory:
    """No integrand call of an adaptive integral gets more than
    ``_BATCH_NODES`` nodes, counting the inner-rule nodes behind each
    external mean of the nested one, and the u-line kernel builds no larger
    node array."""

    @pytest.fixture
    def largest(self, monkeypatch):
        seen = {"x": 0, "rows": 0, "uline": 0}
        integrate = oc_twoarm._integrate
        inner = oc_twoarm._inner_reject_gl
        kernel = oc_twoarm._uline_reject
        posterior = oc_twoarm.posterior_arrays
        in_kernel = []

        def recording_integrate(f, cuts, tol, max_nodes=None):
            def g(x):
                seen["x"] = max(seen["x"], x.size)
                return f(x)
            return integrate(g, cuts, tol, max_nodes)

        def recording_inner(scen, e, *args):
            seen["rows"] = max(seen["rows"], e.size)
            return inner(scen, e, *args)

        def recording_kernel(*args):
            in_kernel.append(True)
            try:
                return kernel(*args)
            finally:
                in_kernel.pop()

        def recording_posterior(x, *args):
            if in_kernel:
                seen["uline"] = max(seen["uline"], np.size(x))
            return posterior(x, *args)

        monkeypatch.setattr(oc_twoarm, "_integrate", recording_integrate)
        monkeypatch.setattr(oc_twoarm, "_inner_reject_gl", recording_inner)
        monkeypatch.setattr(oc_twoarm, "_uline_reject", recording_kernel)
        monkeypatch.setattr(oc_twoarm, "posterior_arrays", recording_posterior)
        return seen

    def test_fixed_external_scan(self, largest):
        power_profile(SCEN, 0.0, EB, OFFSETS)
        assert 0 < largest["x"] <= oc_twoarm._BATCH_NODES
        assert largest["rows"] == 0
        assert 0 < largest["uline"] <= oc_twoarm._BATCH_NODES

    @pytest.mark.parametrize("scen, rows", [(SCEN, 256), (WIDE, 128)],
                             ids=["one-piece", "two-pieces"])
    def test_random_external_scan(self, largest, scen, rows):
        # the quadrature route runs its 401-point scan one integral at a
        # time: each call gets the 30 nodes of one split, below the cap
        oc_random_external_two_arm(scen, 0.0, EB, OFFSETS, tol=1e-6,
                                   engine="quadrature")
        assert oc_twoarm._inner_rows(scen) == rows
        assert largest["x"] == largest["rows"] == 30
        assert largest["uline"] == 0

    def test_random_external_integral(self, largest):
        # se_c/se_t = 10: each external mean costs the inner rule 3 x 10
        # pieces of 40 nodes, so the cap admits 25 external means per call,
        # fewer than the 30 nodes of one split
        scen = ScenarioTwoArm(nc=1, nt=100, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025)
        got = oc_twoarm._random_reject(scen, 0.3, 0.3, 0.0, EB, 1e-6)
        assert largest["x"] == largest["rows"] == 25
        assert 25 * 3 * 10 * oc_twoarm._INNER_GL_NODES <= oc_twoarm._BATCH_NODES
        assert got == oracle.random_reject(scen, 0.3, 0.3, 0.0, EB, 1e-6)

    @pytest.mark.parametrize("scen", [
        ScenarioTwoArm(nc=4, nt=189, nE=10, sigma=1.0, theta1=1.0, alpha=0.025),
        ScenarioTwoArm(nc=2, nt=300, nE=5000, sigma=1.0, theta1=1.0,
                       alpha=0.025, sigmaE=1.6),
    ], ids=["4/189", "2/300"])
    def test_uline_kernel_on_narrow_panels(self, largest, scen):
        thc = np.linspace(-6.0, 6.0, 401)
        assert np.all(np.isfinite(
            oc_twoarm._uline_reject(scen, thc, thc, 0.0, 0.0, EB)))
        assert 0 < largest["uline"] <= oc_twoarm._BATCH_NODES

    def test_default_profiles_call_the_exact_engines_with_scalars(
            self, monkeypatch):
        # under engine="auto" the kernel gives every array of values; the
        # exact engines see only the polish's scalar calls
        calls = []

        def recording(engine):
            def call(scen, theta_c, theta_t, *args, **kwargs):
                calls.append(np.ndim(theta_c) + np.ndim(theta_t)
                             + np.ndim(args[0]))
                return engine(scen, theta_c, theta_t, *args, **kwargs)
            return call

        for name in ("reject_prob_two_arm", "_random_reject"):
            monkeypatch.setattr(oc_twoarm, name,
                                recording(getattr(oc_twoarm, name)))
        power_profile(SCEN, 0.0, EB, OFFSETS)
        oc_fixed_external_two_arm(SCEN, 0.2, EB)
        fixed = len(calls)
        oc_random_external_two_arm(SCEN, 0.0, EB, OFFSETS, tol=1e-6)
        assert 0 < fixed < len(calls)
        assert not any(calls)
