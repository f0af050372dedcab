"""Numerical kernels: normal functions, quadrature, roots, maximizer, RNG.

``integrate`` must equal ``oracles.integrate``, which evaluates one
Gauss-Kronrod panel per integrand call, bit for bit: it evaluates the
first panels, and then both halves of each split, in one call with the
same floating-point operations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from borrowoc import (
    DomainError,
    Interval,
    InvalidBracketError,
    NonConvergenceError,
    RngStream,
    find_root,
    integrate,
    maximize_1d,
    norm_cdf,
    norm_quantile,
)
from borrowoc.statmath import _check_probability, _cuts, _integrate

import oracles

# Golden normal values frozen from a 50-digit mpmath erfc evaluation.
PHI_1959964 = 0.9750000009035576
PHI_MINUS_1 = 0.15865525393145705
Q_975 = 1.9599639845400545
Q_900 = 1.2815515655446004


class TestNormCdf:
    def test_golden_values(self):
        assert norm_cdf(1.959964) == pytest.approx(PHI_1959964, abs=1e-15)
        assert norm_cdf(-1.0) == pytest.approx(PHI_MINUS_1, abs=1e-15)
        assert norm_cdf(0.0) == 0.5

    def test_far_tail_keeps_relative_accuracy(self):
        # absolute-error implementations return 0 long before -37
        assert 0.0 < norm_cdf(-30.0) < 1e-190
        assert norm_cdf(-10.0) == pytest.approx(7.61985302416053e-24, rel=1e-12)

    def test_infinite_sentinels(self):
        assert norm_cdf(math.inf) == 1.0
        assert norm_cdf(-math.inf) == 0.0

    def test_vectorized(self):
        out = norm_cdf(np.array([-1.0, 0.0, 1.959964]))
        assert out.shape == (3,)
        assert out[1] == 0.5

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, z):
        assert norm_cdf(z) + norm_cdf(-z) == pytest.approx(1.0, abs=1e-14)

    def test_monotone(self):
        zs = np.linspace(-6.0, 6.0, 1001)
        assert np.all(np.diff(norm_cdf(zs)) > 0.0)


class TestNormQuantile:
    def test_golden_values(self):
        assert norm_quantile(0.975) == pytest.approx(Q_975, abs=1e-14)
        assert norm_quantile(0.9) == pytest.approx(Q_900, abs=1e-14)
        assert norm_quantile(0.5) == 0.0

    def test_edge_sentinels(self):
        assert norm_quantile(0.0) == -math.inf
        assert norm_quantile(1.0) == math.inf

    def test_rejects_outside_unit_interval(self):
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(DomainError):
                norm_quantile(bad)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_roundtrip(self, z):
        # beyond |z| ~ 5 the double-precision spacing of Phi(z) near 1 caps
        # the recoverable accuracy, so the property is stated on [-5, 5]
        assert norm_quantile(norm_cdf(z)) == pytest.approx(z, abs=1e-9)


class TestCheckProbability:
    @pytest.mark.parametrize("v", [0.0, 1.0, 0.025, 5e-324, 1.0 - 1e-16])
    def test_scalar_inside_is_the_same_float(self, v):
        got = _check_probability("p", v)
        assert type(got) is float and got == v
        assert type(_check_probability("p", np.float64(v))) is float

    def test_array_inside_keeps_entries_and_shape(self):
        levels = np.array([[0.0, 0.5], [1e-300, 1.0]])
        got = _check_probability("p", levels)
        assert isinstance(got, np.ndarray) and got.shape == (2, 2)
        assert got.tolist() == levels.tolist()
        assert _check_probability("p", [0.25, 0.75]).tolist() == [0.25, 0.75]
        assert _check_probability("p", ()).shape == (0,)

    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2**-52, 1.5, -math.inf,
                                     math.nan])
    def test_scalar_outside_names_field_and_value(self, bad):
        with pytest.raises(DomainError,
                           match=rf"^level must lie in \[0, 1\], got {bad!r}$"):
            _check_probability("level", bad)

    def test_one_plus_1e_16_rounds_to_one(self):
        # 1 + 1e-16 is the double 1.0, which is a probability
        assert _check_probability("p", 1 + 1e-16) == 1.0

    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2**-52, math.nan])
    def test_array_names_first_bad_entry(self, bad):
        levels = np.array([0.5, bad, 2.0])
        with pytest.raises(DomainError,
                           match=rf"^level must lie in \[0, 1\], got {bad!r}$"):
            _check_probability("level", levels)


class TestIntegrate:
    def test_gaussian_density_over_reals(self):
        val = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
                        Interval(-math.inf, math.inf))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_exact(self):
        assert integrate(lambda x: 3.0 * x**2, Interval(0.0, 2.0)) == pytest.approx(8.0, abs=1e-12)

    def test_gaussian_hint_recentres_truncation(self):
        # N(50, 2) mass over the reals: without the hint the default window
        # [-8.5, 8.5] sees none of it
        val = integrate(lambda x: np.exp(-0.5 * ((x - 50.0) / 2.0) ** 2)
                        / (2.0 * math.sqrt(2 * math.pi)),
                        Interval(-math.inf, math.inf), gaussian_hint=(50.0, 2.0))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_breakpoints_resolve_kinks(self):
        val = integrate(np.abs, Interval(-1.0, 1.0), breakpoints=(0.0,))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, Interval(0.0, 1.0), abs_tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_rejects_unusable_tolerance(self, tol):
        # an infinite tolerance would accept the first panels unrefined
        with pytest.raises(DomainError):
            integrate(lambda x: x, Interval(0.0, 1.0), abs_tol=tol)

    @pytest.mark.parametrize("f, domain, kwargs", [
        (lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
         Interval(-math.inf, math.inf), {}),
        (lambda x: 3.0 * x**2, Interval(0.0, 2.0), {}),
        (lambda x: np.exp(-0.5 * ((x - 50.0) / 2.0) ** 2)
         / (2.0 * math.sqrt(2 * math.pi)),
         Interval(-math.inf, math.inf), {"gaussian_hint": (50.0, 2.0)}),
        (np.abs, Interval(-1.0, 1.0), {"breakpoints": (0.0,)}),
        (lambda x: np.exp(-np.abs(x - 0.3)) * np.cos(5.0 * x),
         Interval(-2.0, 3.0), {"breakpoints": (0.3, -1.0, 7.0),
                               "abs_tol": 1e-12}),
        (lambda x: 1.0 / (1.0 + x * x), Interval(0.0, math.inf),
         {"gaussian_hint": (1.0, 3.0)}),
        (lambda x: x, Interval(0.0, math.inf), {"gaussian_hint": (-20.0, 1.0)}),
    ], ids=["normal", "poly", "hint", "abs-kink", "breakpoints",
            "half-infinite", "hint-outside"])
    def test_results_identical(self, f, domain, kwargs):
        assert integrate(f, domain, **kwargs) == oracles.integrate(
            f, domain, **kwargs)

    def test_panel_at_float_resolution(self):
        # [1, 1 + ulp] cannot be split, and its round-off error estimate
        # (0.66 from values of 1e30) exceeds the other panel's, while the
        # two together exceed the tolerance: the loop sets it aside as done
        # and then refines the kink panel until the total drops below 1.
        one_ulp = 1.0 + 2.0**-52

        def f(x):
            return np.where(x <= one_ulp, 1e30, 4.0 * np.abs(x - 1.4))

        _, err_tiny = oracles._gk15(f, 1.0, one_ulp)
        _, err_kink = oracles._gk15(f, one_ulp, 2.0)
        assert 0.5 * (1.0 + one_ulp) in (1.0, one_ulp)
        assert err_kink < err_tiny <= 1.0 < err_tiny + err_kink
        kwargs = {"abs_tol": 1.0, "breakpoints": (one_ulp,)}
        assert integrate(f, Interval(1.0, 2.0), **kwargs) == oracles.integrate(
            f, Interval(1.0, 2.0), **kwargs)

    def test_nonconvergence_message(self):
        def f(x):
            return np.sin(4000.0 * x)

        with pytest.raises(NonConvergenceError) as got:
            integrate(f, Interval(0.0, 30.0), abs_tol=1e-13)
        with pytest.raises(NonConvergenceError) as ref:
            oracles.integrate(f, Interval(0.0, 30.0), abs_tol=1e-13)
        assert str(got.value) == str(ref.value)

    def test_unsplittable_panel_fails(self):
        # [1, 1 + ulp] cannot be split: the heap empties with its error
        # estimate still above the tolerance
        one_ulp = 1.0 + 2.0**-52

        def f(x):
            return np.full_like(x, 1e30)

        with pytest.raises(NonConvergenceError) as got:
            integrate(f, Interval(1.0, one_ulp), abs_tol=1e-13)
        with pytest.raises(NonConvergenceError) as ref:
            oracles.integrate(f, Interval(1.0, one_ulp), abs_tol=1e-13)
        assert str(got.value) == str(ref.value)
        assert "after 1 panels" in str(got.value)

    def test_node_cap_bounds_every_call(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-np.abs(x - 0.3)) * np.cos(5.0 * x)

        cuts = _cuts(Interval(-2.0, 3.0), (0.3, -1.0, 7.0))
        capped = _integrate(f, cuts, 1e-12, 37)
        assert max(sizes) == 37
        assert capped == integrate(f, Interval(-2.0, 3.0), 1e-12,
                                   breakpoints=(0.3, -1.0, 7.0))


class TestFindRoot:
    def test_quantile_by_inversion(self):
        root = find_root(lambda x: norm_cdf(x) - 0.975, Interval(0.0, 4.0))
        assert root == pytest.approx(Q_975, abs=1e-9)

    def test_sqrt_two(self):
        assert find_root(lambda x: x * x - 2.0, Interval(1.0, 2.0)) == pytest.approx(
            math.sqrt(2.0), abs=1e-9)

    def test_no_sign_change_raises(self):
        with pytest.raises(InvalidBracketError):
            find_root(lambda x: x * x + 1.0, Interval(-1.0, 1.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            find_root(lambda x: x - 0.5, Interval(0.0, 1.0), tol=tol)


class TestMaximize1d:
    def test_parabola(self):
        x, y = maximize_1d(lambda x: -((x - 2.0) ** 2), Interval(0.0, 5.0))
        assert x == pytest.approx(2.0, abs=1e-8)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_plateau_reports_smallest_argmax(self):
        x, y = maximize_1d(lambda x: min(x, 1.0), Interval(0.0, 3.0))
        assert y == pytest.approx(1.0, abs=1e-10)
        assert x == pytest.approx(1.0, abs=2e-2)   # scan-resolution tie-break

    def test_narrow_spike_found_by_grid(self):
        # width 0.02 spike: invisible to golden-section alone, caught by the
        # 401-point scan
        x, _ = maximize_1d(lambda x: math.exp(-((x - 0.57) / 0.01) ** 2),
                           Interval(0.0, 1.0))
        assert x == pytest.approx(0.57, abs=1e-6)

    def test_infinite_domain_rejected(self):
        with pytest.raises(DomainError):
            maximize_1d(lambda x: -x * x, Interval(0.0, math.inf))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        # a non-positive tolerance never ends the golden-section loop around
        # an interior maximum; NaN and inf skip the loop
        with pytest.raises(DomainError):
            maximize_1d(lambda x: -((x - 0.3) ** 2), Interval(0.0, 1.0),
                        tol=tol)


class TestInterval:
    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.nan)

    def test_width_and_finiteness(self):
        assert Interval(1.0, 3.5).width == 2.5
        assert not Interval(0.0, math.inf).finite


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(7, 3).generator().normal(size=5)
        b = RngStream(7, 3).generator().normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(7, 0).generator().normal(size=5)
        b = RngStream(7, 1).generator().normal(size=5)
        assert not np.array_equal(a, b)

    def test_key_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(0, 2**64)
        with pytest.raises(DomainError):
            RngStream(True, 0)
