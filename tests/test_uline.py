"""The u-line kernel of the two-arm Empirical Bayes test, which gives every
value of a profile and the node values of the Monte Carlo curve.

``oc_twoarm._uline_reject`` integrates over u = control mean - external
mean only.  For a fixed external mean its values are checked over a seeded
scenario fuzz against ``oracles.graded_reject``: adaptive quadrature over
the control mean at tol 1e-13, with breakpoints at the external mean +- r
and graded into the square-root cusp of the threshold just past it.  Rows
of several treatment means, and each of many control means, must equal
their own calls bit for bit, whatever the chunking; the threshold is
evaluated once per lattice node and call, and no node array may exceed
``_BATCH_NODES``.  The checks against the polish engines (the nested
random-external quadrature, the fixed-external quadrature) and of
``reject_prob_two_arm``, which calls the kernel under Empirical Bayes, are
in ``test_twoarm_quadrature.py``.
"""

import random

import numpy as np
import pytest

from borrowoc import ScenarioTwoArm, t1e_profile
from borrowoc import oc_twoarm

import oracles
from oracles import CUSP, EB, LOPSIDED, WIDE, TWO_ARM as SCEN

FIXED_FUZZ = list(oracles.fuzz_two_arm(random.Random(20231), 24,
                                       oracles.choice_fields,
                                       oracles.CHOICE_FIRST))


class TestKernelAccuracy:
    @pytest.mark.parametrize("scen", FIXED_FUZZ,
                             ids=oracles.fuzz_ids(FIXED_FUZZ))
    def test_fixed_external_mean(self, scen):
        dE = 0.3
        thc = dE + oracles.cusp_offsets(scen, 0.0) * scen.sigma
        for effect in (0.0, scen.theta1):
            got = oc_twoarm._uline_reject(scen, thc, thc + effect, dE, 0.0, EB)
            ref = [oracles.graded_reject(scen, c, c + effect, dE) for c in thc]
            assert np.abs(got - ref).max() <= oracles.FIXED_ERR

    def test_fixed_external_profile_at_the_cusp(self):
        prof = t1e_profile(CUSP, 0.3, EB, [0.25])
        ref = oracles.graded_reject(CUSP, 0.8, 0.8, 0.3)
        assert abs(prof.t1e[0] - ref) <= 1e-9

    def test_chunks_do_not_change_the_values(self, monkeypatch):
        # 120-node chunks: one offset per chunk, three panels per call
        thc = np.linspace(-2.0, 3.0, 7)
        var = WIDE.seE**2
        whole = oc_twoarm._uline_reject(WIDE, thc, thc, 0.1, var, EB)
        monkeypatch.setattr(oc_twoarm, "_BATCH_NODES",
                            3 * oc_twoarm._INNER_GL_NODES)
        chunked = oc_twoarm._uline_reject(WIDE, thc, thc, 0.1, var, EB)
        assert np.array_equal(chunked, whole)
        assert chunked.shape == thc.shape


def _rows_fuzz(random):
    """Seeded scenarios with the external mean, its variance (0 unless
    ``random``), 44 control means, 41 within 6 sigma of it and 3 that are
    40 to 1500 sigma away, and three rows of treatment means."""
    rng = np.random.default_rng(20260)
    for scen in oracles.fuzz_two_arm(rng, 30, oracles.uniform_fields):
        thetaE = float(rng.normal(0.0, 2.0))
        var = scen.seE**2 if random else 0.0
        x = np.append(rng.uniform(-6.0, 6.0, 41),
                      rng.uniform(40.0, 1500.0, 3) * [-1.0, 1.0, 1.0])
        thc = thetaE + scen.sigma * x
        yield (scen, thetaE, var, thc,
               np.stack([thc, thc + scen.theta1, thc - 0.5]))


class TestKernelRowsMatchSingleMeanCalls:
    @pytest.mark.parametrize("random", [False, True], ids=["fixed", "random"])
    def test_scenario_fuzz(self, random):
        # each row against its own call, and each control mean, whether
        # near the others or 40 to 1500 sigma away, against its own call
        for scen, thetaE, var, thc, means in _rows_fuzz(random):
            rows = oc_twoarm._uline_reject(scen, thc, means, thetaE, var, EB)
            assert rows.shape == means.shape
            for k in range(3):
                single = oc_twoarm._uline_reject(scen, thc, means[k], thetaE,
                                                 var, EB)
                assert np.array_equal(rows[k], single)
            for i in range(thc.size):
                one = oc_twoarm._uline_reject(scen, thc[i:i + 1],
                                              means[:, i:i + 1], thetaE, var,
                                              EB)
                assert np.array_equal(rows[:, i:i + 1], one)

    @pytest.mark.parametrize("random", [False, True], ids=["fixed", "random"])
    def test_within_two_ulps_of_all_panels(self, random):
        # the panels that start past a mean's window are skipped; each
        # value stays within 4.4e-16 of the sum over all K panels
        for scen, thetaE, var, thc, means in _rows_fuzz(random):
            rows = oc_twoarm._uline_reject(scen, thc, means, thetaE, var, EB)
            ref = oracles.all_panel_reject(scen, thc, means, thetaE, var, EB)
            assert np.abs(rows - ref).max() <= 4.4e-16

    @pytest.mark.parametrize("var", [0.0, SCEN.seE**2],
                             ids=["fixed", "random"])
    def test_no_control_means(self, monkeypatch, var):
        # the empty result comes before the lattice is built
        def no_lattice(*args):
            raise AssertionError("lattice built for no control means")
        monkeypatch.setattr(oc_twoarm, "_cusp_cuts", no_lattice)
        none = np.empty(0)
        assert oc_twoarm._uline_reject(SCEN, none, none, 0.2, var,
                                       EB).shape == (0,)
        assert oc_twoarm._uline_reject(SCEN, none, np.empty((2, 0)), 0.2, var,
                                       EB).shape == (2, 0)


class TestNodeBudget:
    @pytest.mark.parametrize("scen", [
        LOPSIDED,
        ScenarioTwoArm(nc=2, nt=300, nE=5000, sigma=1.0, theta1=1.0,
                       alpha=0.025, sigmaE=1.6),
    ], ids=["4/189", "2/300"])
    def test_uline_kernel_on_narrow_panels(self, monkeypatch, scen):
        # the threshold table's chunks (posterior_arrays) and the per-mean
        # node arrays (ndtr), with a table of one chunk and of several
        tables, sizes = [], []
        monkeypatch.setattr(oc_twoarm, "posterior_arrays", _recording(
            oc_twoarm.posterior_arrays, tables))
        monkeypatch.setattr(oc_twoarm, "ndtr", _recording(oc_twoarm.ndtr,
                                                          sizes))
        for span, chunks in ((6.0, 1), (400.0, 2)):
            tables.clear()
            thc = np.linspace(-span, span, 401)
            assert np.all(np.isfinite(
                oc_twoarm._uline_reject(scen, thc, thc, 0.0, 0.0, EB)))
            assert len(tables) >= chunks
            assert 0 < max(tables + sizes) <= oc_twoarm._BATCH_NODES

    @pytest.mark.parametrize("var", [0.0, SCEN.seE**2],
                             ids=["fixed", "random"])
    def test_threshold_once_per_lattice_node(self, monkeypatch, var):
        # one table of h(u) per call: each node through posterior_arrays
        # once, however many control means share it (one pass per mean
        # and node would send 1601/401 times as many for the finer grid)
        posterior = oc_twoarm.posterior_arrays
        nodes = []

        def recording(x, *args):
            nodes.append(np.ravel(x))
            return posterior(x, *args)

        monkeypatch.setattr(oc_twoarm, "posterior_arrays", recording)
        counts = []
        for n in (401, 1601):
            nodes.clear()
            thc = np.linspace(-6.0, 6.0, n)
            oc_twoarm._uline_reject(SCEN, thc, thc, 0.0, var, EB)
            sent = np.concatenate(nodes)
            assert np.unique(sent).size == sent.size
            counts.append(sent.size)
        assert counts[0] == counts[1]
        assert counts[0] % oc_twoarm._INNER_GL_NODES == 0
        assert counts[0] < 401 * oc_twoarm._INNER_GL_NODES

    @pytest.mark.parametrize("var, panels", [(0.0, 8), (SCEN.seE**2, 9)],
                             ids=["fixed", "random"])
    def test_ndtr_only_inside_each_window(self, monkeypatch, var, panels):
        # a 401-point scan at the benchmark scenario: each mean's K panels
        # from the one holding mu_u - 8.5 s_u, of which only those that
        # start below mu_u + 8.5 s_u send their 40 nodes through ndtr
        sizes = []
        monkeypatch.setattr(oc_twoarm, "ndtr", _recording(oc_twoarm.ndtr,
                                                          sizes))
        thc = np.linspace(-6.0, 6.0, 401)
        oc_twoarm._uline_reject(SCEN, thc, thc, 0.0, var, EB)
        lower, _, s_u = oracles.uline_panels(SCEN, thc, 0.0, var)
        inside = np.sum(lower < (thc + 8.5 * s_u)[:, None])
        assert lower.shape == (401, panels)
        assert sum(sizes) == oc_twoarm._INNER_GL_NODES * inside
        assert sum(sizes) < 401 * panels * oc_twoarm._INNER_GL_NODES


def _recording(fn, sizes):
    def wrapped(x, *args):
        sizes.append(np.size(x))
        return fn(x, *args)
    return wrapped
