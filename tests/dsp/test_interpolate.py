"""Tests for interpolation primitives (linear, natural cubic spline)."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from repro.dsp import (
    cubic_spline_interp,
    linear_interp,
    natural_cubic_spline_coeffs,
)
from repro.errors import DataError, ShapeError


@pytest.fixture
def knots(rng):
    x = np.sort(rng.uniform(0, 10, 12))
    x += np.arange(12) * 1e-3  # ensure strictly increasing
    y = np.sin(x) + 0.1 * rng.standard_normal(12)
    return x, y


class TestLinear:
    def test_exact_at_knots(self, knots):
        x, y = knots
        assert np.allclose(linear_interp(x, x, y), y)

    def test_midpoint(self):
        out = linear_interp([0.5], [0.0, 1.0], [0.0, 2.0])
        assert np.isclose(out[0], 1.0)

    def test_clamps_outside(self):
        out = linear_interp([-1.0, 5.0], [0.0, 1.0], [2.0, 3.0])
        assert np.allclose(out, [2.0, 3.0])

    def test_non_monotone_x_raises(self):
        with pytest.raises(DataError):
            linear_interp([0.5], [1.0, 0.0], [0.0, 1.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            linear_interp([0.5], [0.0, 1.0], [0.0])

    def test_query_shape_is_kept(self):
        q = np.array([[0.25, 0.5], [0.75, 1.0]])
        out = linear_interp(q, [0.0, 1.0], [0.0, 4.0])
        np.testing.assert_allclose(out, 4.0 * q)


class TestCubicSpline:
    def test_matches_scipy_natural(self, knots):
        x, y = knots
        q = np.linspace(x[0], x[-1], 100)
        ours = cubic_spline_interp(q, x, y)
        theirs = CubicSpline(x, y, bc_type="natural")(q)
        assert np.abs(ours - theirs).max() < 1e-9

    def test_exact_at_knots(self, knots):
        x, y = knots
        assert np.allclose(cubic_spline_interp(x, x, y), y, atol=1e-10)

    def test_two_knots_linear(self):
        out = cubic_spline_interp([0.5], [0.0, 1.0], [0.0, 2.0])
        assert np.isclose(out[0], 1.0)

    def test_smooth_function_accuracy(self):
        x = np.linspace(0, 2 * np.pi, 30)
        q = np.linspace(0.2, 2 * np.pi - 0.2, 200)
        out = cubic_spline_interp(q, x, np.sin(x))
        assert np.abs(out - np.sin(q)).max() < 1e-3

    def test_clamps_outside(self, knots):
        x, y = knots
        out = cubic_spline_interp([x[0] - 1.0, x[-1] + 1.0], x, y)
        np.testing.assert_allclose(out, [y[0], y[-1]], rtol=0, atol=1e-12)

    def test_reproduces_a_line(self, knots):
        x, _ = knots
        q = np.linspace(x[0], x[-1], 57)
        out = cubic_spline_interp(q, x, 3.0 * x - 2.0)
        np.testing.assert_allclose(out, 3.0 * q - 2.0, rtol=0, atol=1e-9)

    def test_single_knot_is_constant(self):
        out = cubic_spline_interp([-1.0, 0.0, 4.0], [0.0], [2.5])
        np.testing.assert_array_equal(out, [2.5, 2.5, 2.5])

    def test_non_monotone_x_raises(self):
        with pytest.raises(DataError):
            cubic_spline_interp([0.5], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            cubic_spline_interp([0.5], [0.0, 1.0, 2.0], [0.0, 1.0])


class TestSplineCoefficients:
    def test_match_scipy_second_derivatives(self, knots):
        x, y = knots
        ours = natural_cubic_spline_coeffs(x, y)
        theirs = CubicSpline(x, y, bc_type="natural")(x, 2)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-8)
        assert ours[0] == 0.0 and ours[-1] == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_knots_are_straight(self, n):
        x = np.arange(n, dtype=float)
        np.testing.assert_array_equal(
            natural_cubic_spline_coeffs(x, x ** 2), np.zeros(n)
        )
