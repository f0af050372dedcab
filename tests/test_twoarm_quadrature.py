"""The two-arm quadrature: the polish engines of the level search, and
every check that uses quadrature as its reference.

Under Empirical Bayes every value, of ``reject_prob_two_arm`` and of every
profile, comes from the u-line kernel; adaptive quadrature runs only in
the golden-section polish of a profile's maximum: ``_fixed_engine`` over
the control mean, ``_random_engine`` over the external mean with the
inner rule ``_inner_reject_gl``.  ``oracles.profile`` evaluates every
offset on its own: one adaptive integral per offset through the
one-panel-per-call ``oracles.integrate``, and a scalar scan of all 401
grid points plus golden-section polish for the maximum.  The profiles scan
65 of the 401 grid points with the kernel in two calls (every 8th, then
the best one's neighbours), which picks the dense scan's cell wherever the
sampled profile is unimodal (``test_oc_twoarm.py::TestMaximumScan`` fuzzes
that).  So the maximized level and its location must come out exactly the
oracle's, and each value within the oracle's tolerance plus 1e-12.  The
polish engines must equal the oracle's loops bit for bit; the kernel and
the closed forms are checked against them and against the independent
oracles (``graded_reject``, ``random_reject``, ``outer_random_reject``).
"""

import json
import math
import random

import numpy as np
import pytest

from borrowoc import (
    BorrowingMethod,
    NonConvergenceError,
    ScenarioTwoArm,
    norm_quantile,
    oc_fixed_external_two_arm,
    oc_random_external_two_arm,
    power_profile,
    reject_prob_two_arm,
)
from borrowoc import oc_twoarm
from borrowoc.borrow import posterior_arrays
from borrowoc.cli import EXIT_NUMERICS, main
from borrowoc.oc_twoarm import _inner_reject_gl

import oracles
from oracles import (CUSP, EB, FAR_PEAK, FIXED_HALF, LOPSIDED, METHODS,
                     NONE, NT_GT_NC, WIDE, TWO_ARM as SCEN)

OFFSETS = (-1.0, 0.0, 0.7)
RANDOM_ERR = 1e-10
RANDOM_FUZZ = list(oracles.fuzz_two_arm(random.Random(20232), 8,
                                        oracles.choice_fields,
                                        oracles.CHOICE_FIRST))


def _fixed_polish(scen, tol):
    """The fixed-external polish engine at ``tol``: ``reject(c, t, d)`` as
    one float in [0, 1] per call."""
    reject = oc_twoarm._fixed_engine(scen, tol)
    return lambda c, t, d: min(max(reject(c, t, d), 0.0), 1.0)


def _random_polish(scen, tol, thetaE):
    """The random-external polish engine at ``tol``: ``reject(c, t)`` as one
    float in [0, 1] per call."""
    reject = oc_twoarm._random_engine(scen, tol, thetaE)
    return lambda c, t: min(max(reject(c, t), 0.0), 1.0)


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
    """The u-line kernel scans 65 of the 401 grid points and gives the
    values; the oracle scans all 401 and polishes with quadrature at tol
    1e-9."""

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
        # the closed form against the oracle's quadrature over the control
        # mean
        for method in (NONE, FIXED_HALF):
            for thc, tht, dE in ((0.0, 0.0, 0.0), (-0.8, 0.2, 0.5),
                                 (1.7, 1.7, -0.3)):
                closed = reject_prob_two_arm(SCEN, thc, tht, dE, method)
                quad = oracles.reject_prob_two_arm(SCEN, thc, tht, dE, method,
                                                   tol=1e-13)
                assert abs(closed - quad) <= 1e-12


class TestRandomExternal:
    @pytest.mark.parametrize("scen, thetaE, tol", [
        (SCEN, 0.4, 1e-9),
        (WIDE, -0.2, 1e-6),
    ], ids=["eb", "eb-nt>nc"])
    def test_profile(self, scen, thetaE, tol):
        prof = oc_random_external_two_arm(scen, thetaE, EB, OFFSETS, tol)
        _assert_same(prof, oracles.profile(
            scen, _random(scen, thetaE, EB, tol), OFFSETS), tol + 1e-12)

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
        # the kernel scans; the polish's nested integrals call the inner
        # rule within the cap: at most _inner_rows(scen) external means,
        # and so at most _BATCH_NODES inner-rule nodes
        oc_random_external_two_arm(scen, 0.0, EB, OFFSETS, tol=1e-6)
        assert oc_twoarm._inner_rows(scen) == rows
        assert 0 < largest["x"] == largest["rows"] <= rows
        pieces = math.ceil(math.sqrt(scen.nt / scen.nc))     # se_c / se_t
        assert (largest["rows"] * 3 * pieces * oc_twoarm._INNER_GL_NODES
                <= oc_twoarm._BATCH_NODES)
        assert 0 < largest["uline"] <= oc_twoarm._BATCH_NODES

    def test_random_external_integral(self, largest):
        # se_c/se_t = 10: each external mean costs the inner rule 3 x 10
        # pieces of 40 nodes, so the cap admits 25 external means per call,
        # fewer than the 30 nodes of one split
        scen = ScenarioTwoArm(nc=1, nt=100, nE=10, sigma=1.0, theta1=1.0,
                              alpha=0.025)
        got = _random_polish(scen, 1e-6, 0.0)(0.3, 0.3)
        assert largest["x"] == largest["rows"] == 25
        assert 25 * 3 * 10 * oc_twoarm._INNER_GL_NODES <= oc_twoarm._BATCH_NODES
        assert got == oracles.random_reject(scen, 0.3, 0.3, 0.0, EB, 1e-6)

    def test_default_profiles_call_the_exact_engines_with_scalars(
            self, monkeypatch):
        # the kernel gives every array of values; the exact engines are
        # evaluated once per polish point, on floats
        calls = []

        def recording(factory):
            def build(*args):
                reject = factory(*args)

                def call(*means):
                    calls.append(means)
                    return reject(*means)
                return call
            return build

        for name in ("_fixed_engine", "_random_engine"):
            monkeypatch.setattr(oc_twoarm, name,
                                recording(getattr(oc_twoarm, name)))
        points = _polish_points(lambda: (
            power_profile(SCEN, 0.0, EB, OFFSETS),
            oc_fixed_external_two_arm(SCEN, 0.2, EB)))
        fixed = len(calls)
        points += _polish_points(lambda: oc_random_external_two_arm(
            SCEN, 0.0, EB, OFFSETS, tol=1e-6))
        assert 0 < fixed < len(calls) == len(points)
        assert all(type(v) is float for means in calls for v in means)


def _polish_points(run):
    """The offsets and values of the golden-section polish's calls while
    ``run()`` runs."""
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
    """Each profile's exact engine keeps one panel plan
    (``statmath._integrate``) and no engine outlives its profile: at the
    benchmark scenario every polish integral after the profile's first
    makes one integrand call within the node cap, and the polish's values
    are a fresh engine's and the oracle's one-panel-per-call integrals,
    bit for bit."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The sizes of each adaptive integral's integrand calls, one list
        per integral, in call order."""
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
        return calls

    @pytest.mark.parametrize("external", [-0.6, 0.2, 0.9])
    @pytest.mark.parametrize("random_external", [False, True],
                             ids=["fixed", "random"])
    def test_one_integrand_call_per_integral(self, calls, external,
                                             random_external):
        if random_external:
            points = _polish_points(lambda: (
                oc_random_external_two_arm(SCEN, external, EB, OFFSETS)))
            nodes = 3 * oc_twoarm._INNER_GL_NODES       # per external mean
        else:
            points = _polish_points(lambda: power_profile(
                SCEN, external, EB, OFFSETS))
            nodes = 1
        # the polish makes every exact integral
        assert len(calls) == len(points) > 40
        assert [len(sizes) for sizes in calls[1:]] == [1] * (len(calls) - 1)
        assert 0 < max(map(max, calls)) * nodes <= oc_twoarm._BATCH_NODES

    @pytest.mark.parametrize("profile",
                             [power_profile, oc_random_external_two_arm],
                             ids=["fixed", "random"])
    def test_repeated_profile_starts_afresh(self, calls, profile):
        # a second identical profile in the same process inherits no plan:
        # it makes the same integrand calls, its first integral's included
        profile(SCEN, 0.2, EB, OFFSETS)
        first = calls[:]
        calls.clear()
        profile(SCEN, 0.2, EB, OFFSETS)
        assert calls == first and len(first[0]) > 1

    def test_fixed_external_values(self):
        dE = 0.2
        points = _polish_points(lambda: power_profile(SCEN, dE, EB, OFFSETS))
        xs, ys = map(list, zip(*points))
        fresh = _fixed_polish(SCEN, oc_twoarm._FIXED_TOL)
        thc = (dE + np.array(xs) * SCEN.sigma).tolist()
        assert [fresh(c, c, dE) for c in thc] == ys
        oracle = _fixed(SCEN, dE, EB)
        assert [oracle(x, 0.0) for x in xs[-3:]] == ys[-3:]

    def test_random_external_values(self):
        thetaE = 0.3
        points = _polish_points(lambda: (
            oc_random_external_two_arm(SCEN, thetaE, EB, OFFSETS)))
        xs, ys = map(list, zip(*points))
        fresh = _random_polish(SCEN, 1e-9, thetaE)
        thc = (thetaE + np.array(xs) * SCEN.sigma).tolist()
        assert [fresh(c, c) for c in thc] == ys
        oracle = _random(SCEN, thetaE, EB, 1e-9)
        assert [oracle(x, 0.0) for x in xs[-2:]] == ys[-2:]

    @pytest.mark.parametrize("e_var", [0.0, SCEN.seE**2],
                             ids=["fixed", "random"])
    def test_exact_takes_floats_to_floats(self, e_var):
        # exact(x, effect) calls the engine on float means; a fresh engine
        # of its own, called in the same order, gives the same bits
        e_mean, tol = 0.2, 1e-9
        exact, _ = oc_twoarm._offset_engines(SCEN, e_mean, e_var, EB, tol)
        reject, external = (
            (_fixed_polish(SCEN, tol), (e_mean,)) if e_var == 0
            else (_random_polish(SCEN, tol, e_mean), ()))
        for x in np.random.default_rng(33).uniform(-6.0, 6.0, 20).tolist():
            for effect in (0.0, SCEN.theta1):
                thc = e_mean + x * SCEN.sigma
                got = exact(x, effect)
                ref = reject(thc, thc + effect, *external)
                assert type(got) is float and got == ref


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


def _inner_rule_calls(scen, theta_c, rng):
    """(kind, e, theta_c) calls of the inner-rule fuzz: the mixed rows of
    :func:`_external_means`; rows with all three segments live, where the
    window leaves room for them; rows that empty the upper, then the lower
    segment in every row; and, at far = +-1e3 r or +-1e6 r, external means
    far from theta_c (one segment live), then control means at far with
    the external means around them."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    r = math.sqrt(se_c**2 + scen.seE**2)
    edge = 8.5 * se_c
    yield "mixed", _external_means(scen, theta_c, rng), theta_c
    if r < edge:
        yield ("unclipped",
               theta_c + (edge - r) * rng.uniform(-0.99, 0.99, 16), theta_c)
    for sign in (1.0, -1.0):
        e = theta_c + sign * (edge + r * rng.uniform(-1.0, 1.0, 16))
        yield "one empty", e, theta_c
    far = r * rng.choice([1e3, -1e3, 1e6, -1e6])
    yield "far e", theta_c + far + se_c * rng.normal(size=8), theta_c
    yield "far means", far + (edge + r) * rng.uniform(-1.5, 1.5, 16), far


def _inner_rule_fuzz():
    """(scen, kind, e, theta_c) of the seeded inner-rule fuzz: 60
    ``uniform_fields`` scenarios (nt > nc in about half), each with the
    calls of :func:`_inner_rule_calls`."""
    rng = np.random.default_rng(20260)
    for scen in oracles.fuzz_two_arm(rng, 60, oracles.uniform_fields):
        thc = float(rng.normal(0.0, 2.0))
        for call in list(_inner_rule_calls(scen, thc, rng)):
            yield scen, *call


def _segment_ends(scen, e, theta_c):
    """Per row, the inner rule's segment ends: the window's, e -+ r
    clipped to it, the window's."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    r = math.sqrt(se_c**2 + scen.seE**2)
    lo, hi = theta_c - 8.5 * se_c, theta_c + 8.5 * se_c
    return np.stack([np.full_like(e, lo), np.clip(e - r, lo, hi),
                     np.clip(e + r, lo, hi), np.full_like(e, hi)], axis=1)


class TestMatchesSerialLoops:
    """The inner rule and the adaptive integrals against the oracle's
    one-segment and one-panel loops, bit for bit."""

    def test_inner_rule_scenario_fuzz(self):
        empty, seen = set(), set()
        for scen, kind, e, thc in _inner_rule_fuzz():
            live = np.diff(_segment_ends(scen, e, thc), axis=1) > 0.0
            empty.update(np.count_nonzero(~live, axis=1).tolist())
            seen.update([(kind,), ("nt > nc", scen.nt > scen.nc),
                         ("all live", bool(live.all()))])
            seen.update(("none live", s)
                        for s in np.flatnonzero(~live.any(axis=0)).tolist())
            zc = norm_quantile(scen.c)
            for theta_t in (thc, thc + scen.theta1):
                ref = oracles.inner_reject_gl(scen, e, thc, theta_t, EB)
                got = _inner_reject_gl(scen, e, thc, theta_t, zc)
                assert np.array_equal(got, ref)
        assert empty == {0, 1, 2}
        assert seen == {
            ("mixed",), ("unclipped",), ("one empty",), ("far e",),
            ("far means",), ("nt > nc", True), ("nt > nc", False),
            ("all live", True), ("all live", False), ("none live", 0),
            ("none live", 1), ("none live", 2)}

    def test_middle_segment_weight_is_one(self):
        # the premise of the rule's scalar middle-segment threshold: at
        # every middle node of the fuzz the EB posterior is the weight-1
        # posterior, mean and sd bit for bit
        saturated = BorrowingMethod.fixed_power_prior(1.0)
        nodes = 0
        for scen, _, e, thc in _inner_rule_fuzz():
            se_c = scen.sigma / math.sqrt(scen.nc)
            se_t = scen.sigma / math.sqrt(scen.nt)
            gl_x, _ = oc_twoarm._gl_pieces(math.ceil(se_c / se_t))
            _, a, b, _ = _segment_ends(scen, e, thc).T
            keep = b > a
            mid, half = 0.5 * (a + b)[keep, None], 0.5 * (b - a)[keep, None]
            x = mid + half * gl_x
            args = (x, e[keep, None], scen.nc, scen.sigma, scen.nE,
                    scen.sigmaE)
            for got, want in zip(posterior_arrays(*args, EB),
                                 posterior_arrays(*args, saturated)):
                assert np.array_equal(got, want)
            nodes += x.size
        assert nodes > 100_000

    def test_two_arm_integrals(self):
        thc = np.repeat([-0.4, 0.7, 2.5], 2).tolist()
        tht = (np.array(thc) + np.tile([0.0, SCEN.theta1], 3)).tolist()
        fixed = _fixed_polish(SCEN, 1e-9)
        assert [fixed(c, t, 0.0) for c, t in zip(thc, tht)] == [
            oracles.reject_prob_two_arm(SCEN, c, t, 0.0, EB)
            for c, t in zip(thc, tht)]
        random = _random_polish(SCEN, 1e-9, 0.1)
        assert [random(c, t) for c, t in zip(thc[:2], tht[:2])] == [
            oracles.random_reject(SCEN, c, t, 0.1, EB)
            for c, t in zip(thc[:2], tht[:2])]


class TestKernelAgainstQuadrature:
    """The u-line kernel against the polish engines: the fixed-external
    quadrature at tol 1e-13 where the cusp is as wide as se_c, and the
    nested engine at tol 1e-12."""

    def test_fixed_external_mean_engine(self):
        # where the cusp is as wide as se_c, the engine needs no extra
        # breakpoints and agrees with the kernel as well
        dE = -0.4
        thc = dE + oracles.cusp_offsets(SCEN, 0.0) * SCEN.sigma
        for effect in (0.0, SCEN.theta1):
            got = oc_twoarm._uline_reject(SCEN, thc, thc + effect, dE, 0.0, EB)
            ref = _fixed_polish(SCEN, 1e-13)
            assert np.abs(got - [ref(c, c + effect, dE)
                                 for c in thc.tolist()]).max() <= (
                oracles.FIXED_ERR)

    @pytest.mark.parametrize("scen", RANDOM_FUZZ,
                             ids=oracles.fuzz_ids(RANDOM_FUZZ))
    def test_random_external_mean(self, scen):
        # the polish's nested engine at the offsets alone
        thetaE, var = -0.2, scen.seE**2
        thc = thetaE + oracles.cusp_offsets(scen, var) * scen.sigma
        for effect in (0.0, scen.theta1):
            got = oc_twoarm._uline_reject(scen, thc, thc + effect, thetaE, var,
                                          EB)
            ref = _random_polish(scen, 1e-12, thetaE)
            assert np.abs(got - [ref(c, c + effect)
                                 for c in thc.tolist()]).max() <= RANDOM_ERR

    def test_random_profile_values(self):
        # the public profile's values against the nested engine
        offs = oracles.cusp_offsets(SCEN, SCEN.seE**2).tolist()
        prof = oc_random_external_two_arm(SCEN, 0.0, EB, offs)
        ref = _random_polish(SCEN, 1e-12, 0.0)
        thc = (np.asarray(offs) * SCEN.sigma).tolist()
        null = [ref(c, c) for c in thc]
        power = [ref(c, c + SCEN.theta1) for c in thc]
        assert np.abs(np.subtract(prof.t1e, null)).max() <= RANDOM_ERR
        assert np.abs(np.subtract(prof.power_borrow, power)).max() <= (
            RANDOM_ERR)


class TestPolishedProfiles:
    """The kernel scans and reports every value; the polish engine places
    the maximum."""

    @pytest.mark.parametrize("scen, thetaE, tol", [
        (SCEN, 0.0, 1e-9),
        (WIDE, -0.2, 1e-6),
        (NT_GT_NC, 0.5, 1e-6),
        (FAR_PEAK, 0.0, 1e-6),
    ], ids=["benchmark", "wide", "nt>nc", "hi-doubles"])
    def test_random_external_bit_for_bit(self, scen, thetaE, tol):
        # the maximum is the nested engine's value at its location, bit for
        # bit; every value lies within tol + 1e-12 of the nested engine
        offs = (-1.0, 0.0, 0.7)
        prof = oc_random_external_two_arm(scen, thetaE, EB, offs, tol)
        ref = _random_polish(scen, tol, thetaE)
        xstar = thetaE + prof.argmax_offset * scen.sigma
        assert prof.alphaB_max == ref(xstar, xstar)
        thc = [thetaE + x * scen.sigma for x in offs]
        for got, effect in ((prof.t1e, 0.0),
                            (prof.power_borrow, scen.theta1)):
            assert np.abs(np.subtract(got, [ref(c, c + effect)
                                             for c in thc])).max() <= (
                tol + 1e-12)

    def test_upper_end_doubles(self):
        exact, values = oc_twoarm._offset_engines(
            FAR_PEAK, 0.0, 0.0, EB, oc_twoarm._FIXED_TOL)
        assert values(6.0 - 1e-3, 0.0) < values(6.0, 0.0)
        assert exact(6.0 - 1e-3, 0.0) < exact(6.0, 0.0)

    @pytest.mark.parametrize("e_var", [0.0, FAR_PEAK.seE**2],
                             ids=["fixed", "random"])
    def test_end_checks_in_one_call(self, e_var):
        # each end check is one values call at [hi, hi - probe]; then the
        # scan calls values on every 8th point of the 401-point grid, and
        # once more on the points within 7 of the best of those.  Every
        # entry equals its single-offset call bit for bit
        exact, values = oc_twoarm._offset_engines(
            FAR_PEAK, 0.0, e_var, EB, 1e-9)
        calls = []

        def spy(x, effect):
            calls.append(np.array(x, dtype=float))
            return values(x, effect)
        oc_twoarm._profile_max(exact, spy, [])
        *ends, coarse, window = calls
        assert [x.tolist() for x in ends] == [
            [hi, hi - oc_twoarm._SLOPE_PROBE]
            for hi in 6.0 * 2.0 ** np.arange(len(ends))]
        assert len(ends) > 1
        xs = np.linspace(-6.0, ends[-1][0], 401)
        assert coarse.tolist() == xs[::8].tolist()
        best = 8 * int(np.argmax(values(coarse, 0.0)))
        assert 7 < best < 393
        assert window.tolist() == np.delete(xs[best - 7:best + 8], 7).tolist()
        for x in calls:
            assert values(x, 0.0).tolist() == [float(values(v, 0.0))
                                               for v in x]

    @pytest.mark.parametrize("e_var", ["fixed", "random"])
    def test_scan_point_budget(self, monkeypatch, e_var):
        # a default-domain EB profile: the requested offsets' stacked rows,
        # one end check, then at most 65 of the 401 grid points in two calls
        sizes = []
        kernel = oc_twoarm._uline_reject

        def recording(scen, theta_c, *args):
            sizes.append(np.size(theta_c))
            return kernel(scen, theta_c, *args)
        monkeypatch.setattr(oc_twoarm, "_uline_reject", recording)
        if e_var == "fixed":
            power_profile(SCEN, 0.0, EB, OFFSETS)
        else:
            oc_random_external_two_arm(SCEN, 0.0, EB, OFFSETS, tol=1e-6)
        rows, end, *scan = sizes
        assert (rows, end) == (len(OFFSETS), 2)
        assert len(scan) == 2 and sum(scan) <= 65

    def test_end_checks_stop_at_the_domain(self):
        calls = []

        def climbing(x, effect):
            calls.append(np.shape(x))
            return np.asarray(x, dtype=float) / 1e4
        with pytest.raises(NonConvergenceError, match="offset 1536.0;"):
            oc_twoarm._profile_max(climbing, climbing, [])
        assert calls == [(2,)] * 9

    @pytest.mark.parametrize("e_var", [0.0, SCEN.seE**2],
                             ids=["fixed", "random"])
    def test_requested_offset_at_the_polished_argmax(self, e_var):
        engines = oc_twoarm._offset_engines(SCEN, 0.0, e_var, EB, 1e-9)
        polished = oc_twoarm._profile(SCEN, engines, (), power=False)
        xstar = polished.argmax_offset
        prof = oc_twoarm._profile(SCEN, engines, (xstar,), power=False)
        assert prof.alphaB_max >= max(prof.t1e)
        assert (prof.alphaB_max, prof.argmax_offset) in (
            (polished.alphaB_max, xstar), (prof.t1e[0], xstar))

    def test_requested_offset_beating_the_polish_wins(self):
        exact, values = oc_twoarm._offset_engines(SCEN, 0.0, 0.0, EB, 1e-9)
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
        # the kernel behind reject_prob_two_arm, and the polish's
        # quadrature at tol 1e-13
        assert abs(reject_prob_two_arm(CUSP, thc, tht, 0.3, EB) - ref) <= 1e-13
        assert abs(_fixed_polish(CUSP, 1e-13)(thc, tht, 0.3) - ref) <= 1e-13

    @pytest.mark.parametrize("scen", [
        CUSP,
        ScenarioTwoArm(nc=3, nt=106, nE=200, sigma=0.5, theta1=1.0,
                       alpha=0.025, c=0.999, sigmaE=1.6),
    ], ids=["cusp", "graded-cusp"])
    def test_reject_prob_matches_graded_quadrature(self, scen):
        # the adaptive quadrature that reject_prob_two_arm ran erred by
        # 1.3e-10 and 2.6e-12 here at tol 1e-9: its error estimate misses
        # part of the cusp even with graded cuts
        dE = 0.3
        r = math.sqrt(scen.sigma**2 / scen.nc + scen.seE**2)
        thc = dE + np.linspace(-3.0 * r, 3.0 * r, 13)
        for effect in (0.0, scen.theta1):
            got = reject_prob_two_arm(scen, thc, thc + effect, dE, EB)
            ref = [oracles.graded_reject(scen, c, c + effect, dE)
                   for c in thc.tolist()]
            assert np.abs(got - ref).max() <= 1e-13

    def test_random_external_far_offsets(self):
        # the nested engine's inner rule erred by up to 6.9e-11 here; the
        # reference is an outer adaptive integral over the external mean
        # of the fixed-mean quadrature
        prof = oc_random_external_two_arm(SCEN, 0.0, EB, (-3.0, 3.0))
        for x, t1e, power in zip(prof.grid, prof.t1e, prof.power_borrow):
            assert abs(t1e - oracles.outer_random_reject(
                SCEN, x, x, 0.0)) <= 1e-12
            assert abs(power - oracles.outer_random_reject(
                SCEN, x, x + SCEN.theta1, 0.0)) <= 1e-12


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
            rule = _inner_reject_gl(scen, e, 0.0, theta_t, zc)
            adaptive = [_fixed_polish(scen, 1e-12)(0.0, theta_t, de)
                        for de in e.tolist()]
            assert np.abs(rule - adaptive).max() <= 1e-10

    def test_monte_carlo_rows_match_adaptive_quadrature(self):
        scen = LOPSIDED
        e, T, P = oracles.mc_grids(scen, 0.0, EB, (-1.0, 1.5), 6, seed=4)
        reject = _fixed_polish(scen, 1e-12)
        for o, x in enumerate((-1.0, 1.5)):
            for rows, effect in ((T, 0.0), (P, scen.theta1)):
                adaptive = [reject(x, x + effect, de) for de in e.tolist()]
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
        # the random-external closed form against the oracle's nested
        # quadrature over the external and the control mean
        for method in (NONE, FIXED_HALF):
            for thetaE in (-0.6, 0.4):
                prof = oc_random_external_two_arm(SCEN, thetaE, method,
                                                  OFFSETS)
                thc = [thetaE + x * SCEN.sigma for x in OFFSETS]
                for got, effect in ((prof.t1e, 0.0),
                                    (prof.power_borrow, SCEN.theta1)):
                    quad = [oracles.random_reject(SCEN, c, c + effect, thetaE,
                                                  method, 1e-12) for c in thc]
                    assert np.abs(np.subtract(got, quad)).max() <= 1e-11


class TestEmpiricalBayesQuadrature:
    """The Empirical Bayes values of ``reject_prob_two_arm`` (the u-line
    kernel) against a trapezoid rule written from scratch, and under a
    common shift of all three means."""

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
    def test_reject_prob_broadcasts_like_scalar_calls(self, method):
        thc = np.array([[-0.4], [0.7]])
        tht = thc + np.array([0.0, SCEN.theta1, 2.0])
        got = reject_prob_two_arm(SCEN, thc, tht, 0.3, method)
        assert got.shape == (2, 3)
        for i, j in np.ndindex(got.shape):
            assert got[i, j] == reject_prob_two_arm(
                SCEN, float(thc[i, 0]), float(tht[i, j]), 0.3, method)
        scalar = reject_prob_two_arm(SCEN, 0.1, 0.1, 0.3, method)
        assert type(scalar) is float
