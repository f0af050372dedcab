"""The u-line kernel of the two-arm Empirical Bayes test, which gives every
value of a profile, and the exact engines that polish its maximum.

``oc_twoarm._uline_reject`` integrates over u = control mean - external
mean only.  Its values are checked over a seeded scenario fuzz: a fixed
external mean against adaptive quadrature over the control mean at tol
1e-13, and a random one against the nested quadrature behind
``oc_random_external_two_arm(engine="quadrature")`` at tol 1e-12.  The
maximized level and its location come from the exact engine's polish, so
``engine="auto"`` must give the ``"quadrature"`` profile's maximum bit for
bit and its values within the quadrature's tolerance.

The fixed-mean reference is ``reject_prob_two_arm``'s integral with extra
breakpoints at the square-root cusp of the threshold just past the
external mean +- r.  ``reject_prob_two_arm`` grades its panels into that
cusp only where it is much narrower than se_c (nc/nt = 2/234, nE = 5000
below); there it is checked against 30-digit mpmath integrals, since it
then shares the reference's idea of breakpoints.
"""

import math
import random

import numpy as np
import pytest
from scipy.special import ndtr

import kernel_oracle as oracle

from borrowoc import (
    BorrowingMethod,
    Interval,
    ScenarioTwoArm,
    oc_random_external_two_arm,
    reject_prob_two_arm,
    t1e_profile,
)
from borrowoc import norm_quantile, oc_twoarm
from borrowoc.borrow import posterior_arrays

EB = BorrowingMethod.empirical_bayes()
SCEN = ScenarioTwoArm(nc=15, nt=15, nE=10, sigma=1.0, theta1=1.0, alpha=0.025)
WIDE = ScenarioTwoArm(nc=6, nt=20, nE=40, sigma=1.3, theta1=0.8, alpha=0.05,
                      sigmaE=0.9)
# the null profile still climbs at offset 6, so its upper end doubles
FAR_PEAK = ScenarioTwoArm(nc=15, nt=15, nE=2, sigma=1.0, theta1=1.0,
                          alpha=0.025, sigmaE=10.0)
FIXED_ERR = 1e-13
RANDOM_ERR = 1e-10


def _fuzz_scenarios(count, seed):
    rng = random.Random(seed)
    scens = [ScenarioTwoArm(nc=4, nt=189, nE=10, sigma=1.0, theta1=1.0,
                            alpha=0.025),
             ScenarioTwoArm(nc=282, nt=2, nE=200, sigma=1.0, theta1=1.0,
                            alpha=0.025, sigmaE=1.6)]
    while len(scens) < count:
        nc, nt = (round(math.exp(rng.uniform(math.log(2), math.log(300))))
                  for _ in range(2))
        scens.append(ScenarioTwoArm(
            nc=nc, nt=nt, nE=rng.choice((2, 10, 200, 5000)),
            sigma=rng.choice((0.5, 1.0, 2.0)), theta1=rng.uniform(0.2, 1.5),
            alpha=0.025, c=rng.choice((0.9, 0.975, 0.999)),
            sigmaE=rng.choice((0.7, 1.0, 1.6))))
    return scens


def _offsets(scen, e_var):
    """Control means (minus the external mean) on both sides of -r and r,
    as offsets in sigma units."""
    r = math.sqrt(scen.sigma**2 / scen.nc + scen.seE**2)
    s_u = math.sqrt(scen.sigma**2 / scen.nc + e_var)
    return np.array([-r - s_u, -0.5 * r, 0.0, 0.5 * r, r + 0.3 * s_u,
                     r + 2.0 * s_u, r + 30.0 * s_u]) / scen.sigma


def _fixed_reference(scen, theta_c, theta_t, dE):
    """P(reject) for a fixed external mean dE: adaptive quadrature over the
    control mean at tol 1e-13, with breakpoints at dE +- r and at dE +- (r +
    4^k eps), eps being the width of the threshold's cusp past r."""
    se_c = scen.sigma / math.sqrt(scen.nc)
    se_t = scen.sigma / math.sqrt(scen.nt)
    zc = norm_quantile(scen.c)
    r = math.sqrt(se_c**2 + scen.seE**2)
    eps = (se_t**2 + (se_c * scen.seE / r) ** 2) * r**3 / (2.0 * se_c**4)
    grades = [r] + [r + eps * 4.0**k for k in range(-2, 12)
                    if eps * 4.0**k < 2.0 * se_c]
    cuts = [dE + sign * g for g in grades for sign in (-1.0, 1.0)]

    def f(x):
        mc, sc = posterior_arrays(x, dE, scen.nc, scen.sigma, scen.nE,
                                  scen.sigmaE, EB)
        tau = mc + zc * np.sqrt(se_t**2 + sc**2)
        z = (x - theta_c) / se_c
        return (np.exp(-0.5 * z * z) / (se_c * math.sqrt(2.0 * math.pi))
                * ndtr((theta_t - tau) / se_t))

    return oracle.integrate(f, Interval(-math.inf, math.inf), 1e-13,
                            breakpoints=cuts, gaussian_hint=(theta_c, se_c))


def _ids(scens):
    return [f"nc{s.nc}-nt{s.nt}-nE{s.nE}" for s in scens]


FIXED_FUZZ = _fuzz_scenarios(24, seed=20231)
RANDOM_FUZZ = _fuzz_scenarios(8, seed=20232)


class TestKernelAccuracy:
    @pytest.mark.parametrize("scen", FIXED_FUZZ, ids=_ids(FIXED_FUZZ))
    def test_fixed_external_mean(self, scen):
        dE = 0.3
        thc = dE + _offsets(scen, 0.0) * scen.sigma
        for effect in (0.0, scen.theta1):
            got = oc_twoarm._uline_reject(scen, thc, thc + effect, dE, 0.0, EB)
            ref = [_fixed_reference(scen, c, c + effect, dE) for c in thc]
            assert np.abs(got - ref).max() <= FIXED_ERR

    def test_fixed_external_mean_engine(self):
        # where the cusp is as wide as se_c, the engine needs no extra
        # breakpoints and agrees with the kernel as well
        dE = -0.4
        thc = dE + _offsets(SCEN, 0.0) * SCEN.sigma
        for effect in (0.0, SCEN.theta1):
            got = oc_twoarm._uline_reject(SCEN, thc, thc + effect, dE, 0.0, EB)
            ref = reject_prob_two_arm(SCEN, thc, thc + effect, dE, EB,
                                      tol=1e-13)
            assert np.abs(got - ref).max() <= FIXED_ERR

    @pytest.mark.parametrize("scen", RANDOM_FUZZ, ids=_ids(RANDOM_FUZZ))
    def test_random_external_mean(self, scen):
        # the nested route of oc_random_external_two_arm(engine="quadrature")
        # at the offsets alone, without its 401-point scan
        thetaE, var = -0.2, scen.seE**2
        thc = thetaE + _offsets(scen, var) * scen.sigma
        for effect in (0.0, scen.theta1):
            got = oc_twoarm._uline_reject(scen, thc, thc + effect, thetaE, var,
                                          EB)
            ref = oc_twoarm._random_reject(scen, thc, thc + effect, thetaE, EB,
                                           1e-12)
            assert np.abs(got - ref).max() <= RANDOM_ERR

    def test_random_profile_values(self):
        offs = _offsets(SCEN, SCEN.seE**2).tolist()
        prof = oc_random_external_two_arm(SCEN, 0.0, EB, offs, tol=1e-12,
                                          engine="quadrature")
        thc = np.asarray(offs) * SCEN.sigma
        var = SCEN.seE**2
        null = oc_twoarm._uline_reject(SCEN, thc, thc, 0.0, var, EB)
        power = oc_twoarm._uline_reject(SCEN, thc, thc + SCEN.theta1, 0.0,
                                        var, EB)
        assert np.abs(null - prof.t1e).max() <= RANDOM_ERR
        assert np.abs(power - prof.power_borrow).max() <= RANDOM_ERR

    def test_chunks_do_not_change_the_values(self, monkeypatch):
        # 120-node chunks: one offset per chunk, three panels per call
        thc = np.linspace(-2.0, 3.0, 7)
        var = WIDE.seE**2
        whole = oc_twoarm._uline_reject(WIDE, thc, thc, 0.1, var, EB)
        monkeypatch.setattr(oc_twoarm, "_BATCH_NODES",
                            3 * oc_twoarm._INNER_GL_NODES)
        chunked = oc_twoarm._uline_reject(WIDE, thc, thc, 0.1, var, EB)
        np.testing.assert_allclose(chunked, whole, rtol=0.0, atol=1e-15)
        assert chunked.shape == thc.shape


class TestScreenedProfiles:
    """``engine="auto"`` scans with the kernel and reports its values;
    ``"quadrature"`` scans every grid point with the nested engine.  Both
    polish with the nested engine."""

    @pytest.mark.parametrize("scen, thetaE, tol", [
        (SCEN, 0.0, 1e-9),
        (WIDE, -0.2, 1e-6),
        (ScenarioTwoArm(nc=10, nt=40, nE=25, sigma=1.0, theta1=0.9,
                        alpha=0.025, sigmaE=1.4), 0.5, 1e-6),
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


class TestPrintedValues:
    """Values the exact engines used to print wrong."""

    # ROADMAP item 8: the threshold's cusp past r is 0.0061 wide, se_c 1.41
    CUSP = ScenarioTwoArm(nc=2, nt=234, nE=5000, sigma=2.0, theta1=1.0,
                          alpha=0.025, c=0.999, sigmaE=0.7)
    # (theta_c, theta_t, P(reject)) at external mean 0.3, from 30-digit
    # mpmath integrals over the control mean with breakpoints graded into
    # the cusp
    MPMATH = ((0.3, 0.3, 0.00124440867403414051552656398),
              (-0.7, 0.3, 0.00603840572809203731923444239),
              (0.8, 0.8, 0.502157418299394127293639946))

    @pytest.mark.parametrize("thc, tht, ref", MPMATH,
                             ids=["null-0", "alternative--0.5", "null-0.25"])
    def test_fixed_external_quadrature_at_the_cusp(self, thc, tht, ref):
        got = reject_prob_two_arm(self.CUSP, thc, tht, 0.3, EB, tol=1e-13)
        assert abs(got - ref) <= 1e-13

    def test_fixed_external_profile_at_the_cusp(self):
        prof = t1e_profile(self.CUSP, 0.3, EB, [0.25])
        ref = _fixed_reference(self.CUSP, 0.8, 0.8, 0.3)
        assert abs(prof.t1e[0] - ref) <= 1e-9

    def test_random_external_far_offsets(self):
        # the nested engine's inner rule erred by up to 6.9e-11 here; the
        # reference is an outer adaptive integral over the external mean
        # of the fixed-mean quadrature
        seE = SCEN.seE

        def reference(thc, tht):
            def g(e):
                return (np.exp(-0.5 * (e / seE) ** 2)
                        / (seE * math.sqrt(2.0 * math.pi))
                        * reject_prob_two_arm(SCEN, thc, tht, e, EB,
                                              tol=1e-13))
            return oracle.integrate(g, Interval(-math.inf, math.inf), 1e-14,
                                    gaussian_hint=(0.0, seE))

        prof = oc_random_external_two_arm(SCEN, 0.0, EB, (-3.0, 3.0))
        for x, t1e, power in zip(prof.grid, prof.t1e, prof.power_borrow):
            assert abs(t1e - reference(x, x)) <= 1e-12
            assert abs(power - reference(x, x + SCEN.theta1)) <= 1e-12
