"""The two-arm quadrature routes: the nested random-external engine, the
golden-section polish, ``engine="quadrature"`` and the fixed-external
adaptive integral of ``reject_prob_two_arm``, and every check that uses
one of them as its reference.

``oracles.profile`` evaluates every offset on its own: one adaptive
integral per offset through the one-panel-per-call ``oracles.integrate``,
and a scalar 401-point scan plus golden-section polish for the maximum.
Under Empirical Bayes the engines in ``borrowoc.oc_twoarm`` take the profile
values and the scan from the u-line kernel and polish with the exact
engine, so the maximized level and its location must come out exactly the
oracle's, and each value within the oracle's tolerance plus 1e-12.  The
``engine="quadrature"`` route runs one adaptive integral of the exact
engine per offset, its panels evaluated together, so its values must
equal the oracle's exactly.  The nested engine (``_random_reject`` over
the inner rule ``_inner_reject_gl``) must equal the oracle's loops bit for
bit as well.
"""

import json
import math
import random

import numpy as np
import pytest

from borrowoc import (
    NonConvergenceError,
    ScenarioTwoArm,
    norm_quantile,
    oc_fixed_external_two_arm,
    oc_random_external_two_arm,
    power_profile,
    reject_prob_two_arm,
)
from borrowoc import oc_twoarm
from borrowoc.cli import EXIT_NUMERICS, main
from borrowoc.oc_twoarm import _inner_reject_gl

import oracles
from oracles import (CUSP, EB, FAR_PEAK, FIXED_HALF, LOPSIDED, METHODS,
                     NT_GT_NC, WIDE, TWO_ARM as SCEN)

OFFSETS = (-1.0, 0.0, 0.7)
RANDOM_ERR = 1e-10
RANDOM_FUZZ = list(oracles.fuzz_two_arm(random.Random(20232), 8,
                                        oracles.choice_fields,
                                        oracles.CHOICE_FIRST))


def _fixed(scen, dE, method):
    def reject(x, effect):
        thc = dE + x * scen.sigma
        return oracles.reject_prob_two_arm(scen, thc, thc + effect, dE, method)
    return reject


def _random(scen, thetaE, method, tol):
    def reject(x, effect):
        thc = thetaE + x * scen.sigma
        return oracles.random_reject(scen, thc, thc + effect, thetaE, method,
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
                     oracles.profile(scen, _fixed(scen, dE, EB), OFFSETS),
                     1e-9 + 1e-12)

    @pytest.mark.parametrize("scen, dE", [(SCEN, 0.25), (WIDE, -0.1),
                                          (FAR_PEAK, 0.0)],
                             ids=["equal-arms", "nt>nc", "hi-doubles"])
    def test_eb_point(self, scen, dE):
        point = oc_fixed_external_two_arm(scen, dE, EB)
        reject = _fixed(scen, dE, EB)
        _, amax, xstar, _ = oracles.profile(scen, reject, ())
        assert point.t1e_borrow == amax
        assert abs(point.power_borrow - reject(xstar, scen.theta1)) <= (
            1e-9 + 1e-12)

    def test_fixed_weight_quadrature(self):
        for thc, tht, dE in ((0.0, 0.0, 0.0), (-0.8, 0.2, 0.5),
                             (1.7, 1.7, -0.3)):
            assert reject_prob_two_arm(
                SCEN, thc, tht, dE, FIXED_HALF, engine="quadrature"
            ) == oracles.reject_prob_two_arm(SCEN, thc, tht, dE, FIXED_HALF)


class TestRandomExternal:
    @pytest.mark.parametrize("scen, thetaE, method, tol, engine", [
        (SCEN, 0.4, EB, 1e-9, "auto"),
        (WIDE, -0.2, EB, 1e-6, "auto"),
        (SCEN, -0.6, FIXED_HALF, 1e-6, "quadrature"),
    ], ids=["eb", "eb-nt>nc", "fixed-quadrature"])
    def test_profile(self, scen, thetaE, method, tol, engine):
        prof = oc_random_external_two_arm(scen, thetaE, method, OFFSETS, tol,
                                          engine=engine)
        _assert_same(prof, oracles.profile(
            scen, _random(scen, thetaE, method, tol), OFFSETS),
            0.0 if engine == "quadrature" else tol + 1e-12)

    def test_first_failing_offset_names_the_failure(self):
        # at tol 1e-19 the offset -3 converges while 0.5 and 0 exhaust the
        # panel budget with different error estimates; the quadrature route
        # raises what the serial loop raises for 0.5, the first failing
        # offset
        with pytest.raises(NonConvergenceError) as ref:
            oracles.random_reject(SCEN, 0.5, 0.5, 0.0, EB, 1e-19)
        assert oracles.random_reject(SCEN, -3.0, -3.0, 0.0, EB, 1e-19) > 0.0
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


class TestNodeBudget:
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

        def recording_integrate(f, cuts, tol, max_nodes=None, plan=None):
            def g(x):
                seen["x"] = max(seen["x"], x.size)
                return f(x)
            return integrate(g, cuts, tol, max_nodes, plan)

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
        # time, each call within the cap: at most _inner_rows(scen) external
        # means, and so at most _BATCH_NODES inner-rule nodes
        oc_random_external_two_arm(scen, 0.0, EB, OFFSETS, tol=1e-6,
                                   engine="quadrature")
        assert oc_twoarm._inner_rows(scen) == rows
        assert 0 < largest["x"] == largest["rows"] <= rows
        pieces = math.ceil(math.sqrt(scen.nt / scen.nc))     # se_c / se_t
        assert (largest["rows"] * 3 * pieces * oc_twoarm._INNER_GL_NODES
                <= oc_twoarm._BATCH_NODES)
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
        assert got == oracles.random_reject(scen, 0.3, 0.3, 0.0, EB, 1e-6)

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


def _polish_points(run):
    """The offsets and values of the golden-section polish's calls while
    ``run()`` runs, with the exact engines' panel plans started afresh."""
    oc_twoarm._fixed_engine.cache_clear()
    oc_twoarm._random_engine.cache_clear()
    points = []
    maximize = oc_twoarm._maximize

    def recording(f, scan, domain):
        def g(x):
            points.append((x, f(x)))
            return points[-1][1]
        return maximize(g, scan, domain)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oc_twoarm, "_maximize", recording)
        run()
    return points


class TestPolishPlan:
    """The exact engines keep one panel plan per scenario, method and
    tolerance (``statmath._integrate``): at the benchmark scenario every
    polish integral after the first makes one integrand call within the
    node cap, and the polish's values are the public engines' and the
    oracle's one-panel-per-call integrals, bit for bit."""

    @pytest.mark.parametrize("external", [-0.6, 0.2, 0.9])
    @pytest.mark.parametrize("random_external", [False, True],
                             ids=["fixed", "random"])
    def test_one_integrand_call_per_integral(self, monkeypatch, external,
                                             random_external):
        calls = []
        integrate = oc_twoarm._integrate

        def recording(f, cuts, tol, max_nodes=None, plan=None):
            sizes = []
            calls.append(sizes)

            def g(x):
                sizes.append(x.size)
                return f(x)
            return integrate(g, cuts, tol, max_nodes, plan)

        monkeypatch.setattr(oc_twoarm, "_integrate", recording)
        if random_external:
            points = _polish_points(lambda: (
                oc_random_external_two_arm(SCEN, external, EB, OFFSETS)))
            nodes = 3 * oc_twoarm._INNER_GL_NODES       # per external mean
        else:
            points = _polish_points(lambda: power_profile(
                SCEN, external, EB, OFFSETS))
            nodes = 1
        # under engine="auto" the polish makes every exact integral
        assert len(calls) == len(points) > 40
        assert [len(sizes) for sizes in calls[1:]] == [1] * (len(calls) - 1)
        assert 0 < max(map(max, calls)) * nodes <= oc_twoarm._BATCH_NODES

    def test_fixed_external_values(self):
        dE = 0.2
        points = _polish_points(lambda: power_profile(SCEN, dE, EB, OFFSETS))
        xs, ys = map(list, zip(*points))
        thc = dE + np.array(xs) * SCEN.sigma
        oc_twoarm._fixed_engine.cache_clear()
        assert reject_prob_two_arm(SCEN, thc, thc, dE, EB).tolist() == ys
        oracle = _fixed(SCEN, dE, EB)
        assert [oracle(x, 0.0) for x in xs[-3:]] == ys[-3:]

    def test_random_external_values(self):
        thetaE = 0.3
        points = _polish_points(lambda: (
            oc_random_external_two_arm(SCEN, thetaE, EB, OFFSETS)))
        xs, ys = map(list, zip(*points))
        oc_twoarm._random_engine.cache_clear()
        prof = oc_random_external_two_arm(SCEN, thetaE, EB, xs,
                                          engine="quadrature")
        assert list(prof.t1e) == ys
        oracle = _random(SCEN, thetaE, EB, 1e-9)
        assert [oracle(x, 0.0) for x in xs[-2:]] == ys[-2:]


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


class TestMatchesSerialLoops:
    """The inner rule and the adaptive integrals against the oracle's
    one-segment and one-panel loops, bit for bit."""

    def test_inner_rule_scenario_fuzz(self):
        empty = set()
        rng = np.random.default_rng(20260)
        for i, scen in enumerate(oracles.fuzz_two_arm(
                rng, 60, oracles.uniform_fields)):
            method, thc = METHODS[i % 3], float(rng.normal(0.0, 2.0))
            e = _external_means(scen, thc, rng)
            empty.update(_empty_segments(scen, e, thc).tolist())
            zc = norm_quantile(scen.c)
            for theta_t in (thc, thc + scen.theta1):
                ref = oracles.inner_reject_gl(scen, e, thc, theta_t, method)
                got = _inner_reject_gl(scen, e, thc, theta_t, method, zc)
                assert np.array_equal(got, ref)
        assert empty == {0, 1, 2}

    def test_two_arm_integrals(self):
        thc = np.repeat([-0.4, 0.7, 2.5], 2)
        tht = thc + np.tile([0.0, SCEN.theta1], 3)
        serial = [oracles.reject_prob_two_arm(SCEN, c, t, 0.0, EB)
                  for c, t in zip(thc.tolist(), tht.tolist())]
        assert reject_prob_two_arm(SCEN, thc, tht, 0.0, EB).tolist() == serial
        assert [reject_prob_two_arm(SCEN, c, t, 0.0, EB)
                for c, t in zip(thc, tht)] == serial
        random = oc_twoarm._random_reject(SCEN, thc[:2], tht[:2], 0.1, EB,
                                          1e-9)
        assert random.tolist() == [
            oracles.random_reject(SCEN, c, t, 0.1, EB)
            for c, t in zip(thc[:2].tolist(), tht[:2].tolist())]


class TestKernelAgainstQuadrature:
    """The u-line kernel against the exact engines: the fixed-external
    quadrature at tol 1e-13 where the cusp is as wide as se_c, and the
    nested engine at tol 1e-12."""

    def test_fixed_external_mean_engine(self):
        # where the cusp is as wide as se_c, the engine needs no extra
        # breakpoints and agrees with the kernel as well
        dE = -0.4
        thc = dE + oracles.cusp_offsets(SCEN, 0.0) * SCEN.sigma
        for effect in (0.0, SCEN.theta1):
            got = oc_twoarm._uline_reject(SCEN, thc, thc + effect, dE, 0.0, EB)
            ref = reject_prob_two_arm(SCEN, thc, thc + effect, dE, EB,
                                      tol=1e-13)
            assert np.abs(got - ref).max() <= oracles.FIXED_ERR

    @pytest.mark.parametrize("scen", RANDOM_FUZZ,
                             ids=oracles.fuzz_ids(RANDOM_FUZZ))
    def test_random_external_mean(self, scen):
        # the nested route of oc_random_external_two_arm(engine="quadrature")
        # at the offsets alone, without its 401-point scan
        thetaE, var = -0.2, scen.seE**2
        thc = thetaE + oracles.cusp_offsets(scen, var) * scen.sigma
        for effect in (0.0, scen.theta1):
            got = oc_twoarm._uline_reject(scen, thc, thc + effect, thetaE, var,
                                          EB)
            ref = oc_twoarm._random_reject(scen, thc, thc + effect, thetaE, EB,
                                           1e-12)
            assert np.abs(got - ref).max() <= RANDOM_ERR

    def test_random_profile_values(self):
        offs = oracles.cusp_offsets(SCEN, SCEN.seE**2).tolist()
        prof = oc_random_external_two_arm(SCEN, 0.0, EB, offs, tol=1e-12,
                                          engine="quadrature")
        thc = np.asarray(offs) * SCEN.sigma
        var = SCEN.seE**2
        null = oc_twoarm._uline_reject(SCEN, thc, thc, 0.0, var, EB)
        power = oc_twoarm._uline_reject(SCEN, thc, thc + SCEN.theta1, 0.0,
                                        var, EB)
        assert np.abs(null - prof.t1e).max() <= RANDOM_ERR
        assert np.abs(power - prof.power_borrow).max() <= RANDOM_ERR


class TestPolishedProfiles:
    """``engine="auto"`` scans with the kernel and reports its values;
    ``"quadrature"`` scans every grid point with the nested engine.  Both
    polish with the nested engine."""

    @pytest.mark.parametrize("scen, thetaE, tol", [
        (SCEN, 0.0, 1e-9),
        (WIDE, -0.2, 1e-6),
        (NT_GT_NC, 0.5, 1e-6),
        (FAR_PEAK, 0.0, 1e-6),
    ], ids=["benchmark", "wide", "nt>nc", "hi-doubles"])
    def test_random_external_bit_for_bit(self, scen, thetaE, tol):
        offs = (-1.0, 0.0, 0.7)
        auto = oc_random_external_two_arm(scen, thetaE, EB, offs, tol)
        quad = oc_random_external_two_arm(scen, thetaE, EB, offs, tol,
                                          engine="quadrature")
        assert (auto.alphaB_max, auto.argmax_offset) == (
            quad.alphaB_max, quad.argmax_offset)
        for got, ref in ((auto.t1e, quad.t1e),
                         (auto.power_borrow, quad.power_borrow)):
            assert np.abs(np.subtract(got, ref)).max() <= tol + 1e-12

    def test_upper_end_doubles(self):
        exact, values = oc_twoarm._offset_engines(
            FAR_PEAK, 0.0, 0.0, EB, "auto", oc_twoarm._FIXED_TOL)
        assert values(6.0 - 1e-3, 0.0) < values(6.0, 0.0)
        assert exact(6.0 - 1e-3, 0.0) < exact(6.0, 0.0)

    @pytest.mark.parametrize("e_var", [0.0, SCEN.seE**2],
                             ids=["fixed", "random"])
    def test_requested_offset_at_the_polished_argmax(self, e_var):
        engines = oc_twoarm._offset_engines(SCEN, 0.0, e_var, EB, "auto",
                                            1e-9)
        polished = oc_twoarm._profile(SCEN, engines, (), power=False)
        xstar = polished.argmax_offset
        prof = oc_twoarm._profile(SCEN, engines, (xstar,), power=False)
        assert prof.alphaB_max >= max(prof.t1e)
        assert (prof.alphaB_max, prof.argmax_offset) in (
            (polished.alphaB_max, xstar), (prof.t1e[0], xstar))

    def test_requested_offset_beating_the_polish_wins(self):
        exact, values = oc_twoarm._offset_engines(SCEN, 0.0, 0.0, EB, "auto",
                                                  1e-9)
        polished = oc_twoarm._profile(SCEN, (exact, values), (), power=False)
        xstar = polished.argmax_offset

        def high(x, effect):
            return values(x, effect) + 1e-9
        prof = oc_twoarm._profile(SCEN, (exact, high), (-1.0, xstar),
                                  power=False)
        assert prof.t1e[1] > polished.alphaB_max
        assert (prof.alphaB_max, prof.argmax_offset) == (prof.t1e[1], xstar)

        # a tie above the maximum: the first offset in request order wins,
        # sorted or not
        def tied(x, effect):
            return np.where(np.isin(x, (0.5, 0.7)), 0.9, values(x, effect))
        for offsets in ((0.7, 0.5), (0.5, 0.7)):
            prof = oc_twoarm._profile(SCEN, (exact, tied), offsets,
                                      power=False)
            assert prof.t1e == (0.9, 0.9) and 0.9 > polished.alphaB_max
            assert (prof.alphaB_max, prof.argmax_offset) == (0.9, offsets[0])


class TestPrintedValues:
    """Values the exact engines used to print wrong."""

    # (theta_c, theta_t, P(reject)) at external mean 0.3, from 30-digit
    # mpmath integrals over the control mean with breakpoints graded into
    # the cusp
    MPMATH = ((0.3, 0.3, 0.00124440867403414051552656398),
              (-0.7, 0.3, 0.00603840572809203731923444239),
              (0.8, 0.8, 0.502157418299394127293639946))

    @pytest.mark.parametrize("thc, tht, ref", MPMATH,
                             ids=["null-0", "alternative--0.5", "null-0.25"])
    def test_fixed_external_quadrature_at_the_cusp(self, thc, tht, ref):
        got = reject_prob_two_arm(CUSP, thc, tht, 0.3, EB, tol=1e-13)
        assert abs(got - ref) <= 1e-13

    def test_random_external_far_offsets(self):
        # the nested engine's inner rule erred by up to 6.9e-11 here; the
        # reference is an outer adaptive integral over the external mean
        # of the fixed-mean quadrature
        prof = oc_random_external_two_arm(SCEN, 0.0, EB, (-3.0, 3.0))
        for x, t1e, power in zip(prof.grid, prof.t1e, prof.power_borrow):
            assert abs(t1e - oracles.outer_random_reject(
                SCEN, x, x, 0.0, EB)) <= 1e-12
            assert abs(power - oracles.outer_random_reject(
                SCEN, x, x + SCEN.theta1, 0.0, EB)) <= 1e-12


class TestInnerRuleLargeTreatmentArm:
    # treatment arm larger than the control arm: one 40-node piece per
    # segment erred by up to 1e-3 on the last two
    @pytest.mark.parametrize("nc, nt", [(20, 40), (20, 60), (10, 100),
                                        (11, 178), (4, 189)])
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
        scen = LOPSIDED
        e, T, P = oracles.mc_grids(scen, 0.0, EB, (-1.0, 1.5), 6, seed=4)
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
            _, T, P = oracles.mc_grids(scen, 0.0, EB, (0.7,), nsim, seed=8,
                                       literal=literal)
            for rows, value in ((T[0], exact.t1e[0]),
                                (P[0], exact.power_borrow[0])):
                se = rows.std(ddof=1) / math.sqrt(nsim)
                assert abs(rows.mean() - value) <= 4.0 * se


class TestClosedFormFixedWeights:
    def test_quadrature_cross_checks_closed_form(self):
        for thc, tht, de in ((0.0, 0.0, 0.0), (0.3, 1.1, -0.4), (-0.5, 0.2, 0.6)):
            closed = reject_prob_two_arm(SCEN, thc, tht, de, FIXED_HALF,
                                         engine="auto")
            quad = reject_prob_two_arm(SCEN, thc, tht, de, FIXED_HALF,
                                       engine="quadrature")
            assert quad == pytest.approx(closed, abs=1e-6)


class TestEmpiricalBayesQuadrature:
    @pytest.mark.parametrize("offset", [-1.0, 0.7, 2.0])
    def test_matches_dense_trapezoid_oracle(self, offset):
        # brute-force integral over the control mean, built from scratch
        thc = offset * SCEN.sigma
        tht = thc        # null configuration
        engine = reject_prob_two_arm(SCEN, thc, tht, 0.0, EB)
        assert engine == pytest.approx(
            oracles.trapezoid_reject(SCEN, thc, tht, 0.0), abs=1e-7)

    def test_shift_invariance(self):
        base = reject_prob_two_arm(SCEN, 0.4, 0.9, 0.1, EB)
        for s in (-2.0, 1.5):
            shifted = reject_prob_two_arm(SCEN, 0.4 + s, 0.9 + s, 0.1 + s, EB)
            assert shifted == pytest.approx(base, abs=1e-9)


class TestArrayArguments:
    @pytest.mark.parametrize("method", METHODS, ids=oracles.METHOD_IDS)
    @pytest.mark.parametrize("engine", ["auto", "quadrature"])
    def test_reject_prob_broadcasts_like_scalar_calls(self, method, engine):
        thc = np.array([[-0.4], [0.7]])
        tht = thc + np.array([0.0, SCEN.theta1, 2.0])
        got = reject_prob_two_arm(SCEN, thc, tht, 0.3, method, engine=engine)
        assert got.shape == (2, 3)
        for i, j in np.ndindex(got.shape):
            assert got[i, j] == reject_prob_two_arm(
                SCEN, float(thc[i, 0]), float(tht[i, j]), 0.3, method,
                engine=engine)
        scalar = reject_prob_two_arm(SCEN, 0.1, 0.1, 0.3, method,
                                     engine=engine)
        assert type(scalar) is float
