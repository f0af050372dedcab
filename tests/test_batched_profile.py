"""Two-arm profiles against a serial oracle.

``kernel_oracle.profile`` evaluates every offset on its own: one adaptive
integral per offset through the one-panel-per-call ``kernel_oracle.integrate``,
and a scalar 401-point scan plus golden-section polish for the maximum.
Under Empirical Bayes the engines in ``borrowoc.oc_twoarm`` take the profile
values and the scan from the u-line kernel and polish with the exact
engine, so the maximized level and its location must come out exactly the
oracle's, and each value within the oracle's tolerance plus 1e-12.  The
``engine="quadrature"`` route batches offsets and panels of the exact
engine, so its values must equal the oracle's exactly.
"""

import json
import math

import numpy as np
import pytest

import kernel_oracle as oracle
from borrowoc import (
    BorrowingMethod,
    Interval,
    NonConvergenceError,
    ScenarioTwoArm,
    oc_fixed_external_two_arm,
    oc_random_external_two_arm,
    power_profile,
    reject_prob_two_arm,
)
from borrowoc import oc_twoarm
from borrowoc.cli import EXIT_NUMERICS, main
from borrowoc.statmath import _cuts, _integrate_batch

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


def _dispatch(fs):
    """``f(x, k)`` applying ``fs[k]`` to the nodes of integral k."""
    def f(x, k):
        out = np.empty_like(x)
        for j in np.unique(k):
            out[k == j] = fs[j](x[k == j])
        return out
    return f


ONE_ULP = 1.0 + 2.0**-52


def _ulp_spike(x):
    # [1, 1 + ulp] cannot be split and its round-off error estimate
    # dominates: the loop sets it aside and refines the kink panel
    return np.where(x <= ONE_ULP, 1e30, 4.0 * np.abs(x - 1.4))


# (integrand, domain, breakpoints, gaussian hint); integrals of order 1e9,
# so that the shared tolerance 1 asks for about 1e-9 relative accuracy
PROBLEMS = (
    (lambda x: 1e9 * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
     Interval(-math.inf, math.inf), (), None),
    (lambda x: 3e9 * x**2, Interval(0.0, 2.0), (), None),
    (_ulp_spike, Interval(1.0, 2.0), (ONE_ULP,), None),
    (lambda x: 1e9 * np.exp(-np.abs(x - 0.3)) * np.cos(5.0 * x),
     Interval(-2.0, 3.0), (0.3, -1.0, 7.0), None),
    (lambda x: 1e9 / (1.0 + x * x), Interval(0.0, math.inf), (), (1.0, 3.0)),
    (lambda x: x, Interval(0.0, math.inf), (), (-20.0, 1.0)),
)


class TestLockstepEngine:
    """``statmath._integrate_batch`` against one serial integral each."""

    def _serial(self, problems, tol):
        return [oracle.integrate(f, dom, tol, breakpoints=bp, gaussian_hint=hint)
                for f, dom, bp, hint in problems]

    def _batch(self, problems, tol, max_nodes=None):
        cuts = [_cuts(dom, bp, hint) for _, dom, bp, hint in problems]
        return _integrate_batch(_dispatch([p[0] for p in problems]), cuts,
                                tol, max_nodes)

    def test_each_integral_as_if_alone(self):
        assert 0.5 * (1.0 + ONE_ULP) in (1.0, ONE_ULP)
        assert self._batch(PROBLEMS, 1.0) == self._serial(PROBLEMS, 1.0)
        assert self._batch(PROBLEMS[::-1], 1.0) == self._serial(PROBLEMS[::-1], 1.0)

    def test_node_cap_bounds_every_call(self):
        sizes = []

        def f(x, k):
            sizes.append(x.size)
            return _dispatch([p[0] for p in PROBLEMS])(x, k)

        cuts = [_cuts(dom, bp, hint) for _, dom, bp, hint in PROBLEMS]
        capped = _integrate_batch(f, cuts, 1.0, 37)
        assert max(sizes) == 37
        assert capped == self._serial(PROBLEMS, 1.0)

    def test_empty_batch_and_empty_domain(self):
        assert _integrate_batch(_dispatch([]), [], 1e-9) == []
        # the hinted Gaussian lies outside the half-infinite domain
        assert _cuts(*PROBLEMS[-1][1:]) == []
        assert self._batch(PROBLEMS[-1:], 1e-9) == [0.0]

    def test_first_failing_integral_raises_even_if_it_fails_last(self):
        # integral 1 exhausts its panel budget after 2,000 rounds; integral
        # 3 runs out of splittable panels in the first round.  A serial
        # loop meets integral 1 first, so its message is the one raised.
        poly = (lambda x: 3.0 * x**2, Interval(0.0, 2.0), (), None)
        problems = (poly,
                    (lambda x: np.sin(4000.0 * x), Interval(0.0, 30.0), (), None),
                    poly,
                    (lambda x: np.full_like(x, 1e30), Interval(1.0, ONE_ULP),
                     (), None))
        with pytest.raises(NonConvergenceError) as ref:
            oracle.integrate(problems[1][0], problems[1][1], 1e-13)
        with pytest.raises(NonConvergenceError) as late:
            oracle.integrate(problems[3][0], problems[3][1], 1e-13)
        assert "after 1 panels" in str(late.value)
        assert oracle.integrate(poly[0], poly[1], 1e-13) == pytest.approx(8.0)
        with pytest.raises(NonConvergenceError) as got:
            self._batch(problems, 1e-13)
        assert str(got.value) == str(ref.value)
        with pytest.raises(NonConvergenceError) as got:
            self._batch(problems[2:], 1e-13)
        assert str(got.value) == str(late.value)


class TestBatchMemory:
    """A batch of profile integrals hands the integrand a bounded number of
    nodes per call, whatever the number of offsets, and the u-line kernel
    builds no node array larger than the same cap."""

    @pytest.fixture
    def largest(self, monkeypatch):
        seen = {"x": 0, "rows": 0, "uline": 0}
        batch = oc_twoarm._integrate_batch
        inner = oc_twoarm._inner_reject_gl
        kernel = oc_twoarm._uline_reject
        posterior = oc_twoarm.posterior_arrays
        in_kernel = []

        def recording_batch(f, cuts, tol, max_nodes=None):
            def g(x, k):
                seen["x"] = max(seen["x"], x.size)
                return f(x, k)
            return batch(g, cuts, tol, max_nodes)

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

        monkeypatch.setattr(oc_twoarm, "_integrate_batch", recording_batch)
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
        # the quadrature route evaluates its 401-point scan as one batch,
        # which reaches the cap
        oc_random_external_two_arm(scen, 0.0, EB, OFFSETS, tol=1e-6,
                                   engine="quadrature")
        assert largest["x"] == largest["rows"] == rows
        assert largest["uline"] == 0

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
