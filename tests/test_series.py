"""Power series of the planar exponential kernel and its contraction radius."""

import numpy as np
import pytest
import scipy.special

from sheetlab import (
    f_series,
    f_series_derivative,
    find_r0,
    picard_series_partial_sums,
    x_seq,
)

R0 = 1.4457964907366958  # first zero of f(-r), pinned independently


class TestFSeries:
    def test_value_at_zero_is_one(self):
        assert f_series(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_value_at_one(self):
        # sum over n of 1/(n!)^2, cross-checked against arbitrary-precision
        assert f_series(1.0) == pytest.approx(2.279585302336067, abs=1e-13)

    def test_negative_axis_is_bessel_j0(self):
        # f(-t) = J0(2 sqrt(t)): independent special-function oracle
        t = np.linspace(0.0, 25.0, 101)
        got = f_series(-t)
        want = scipy.special.j0(2.0 * np.sqrt(t))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_whole_guarded_domain_is_bessel(self):
        # f(-t) = J0(2 sqrt t), f'(-t) = J1(2 sqrt t) / sqrt t, f(t) = I0(2 sqrt t) and
        # f'(t) = I1(2 sqrt t) / sqrt t, on every |y| <= 700 the evaluation accepts
        t = np.linspace(0.0, 700.0, 2801)[1:]
        s = np.sqrt(t)
        np.testing.assert_allclose(f_series(-t), scipy.special.j0(2.0 * s), rtol=0, atol=1e-13)
        np.testing.assert_allclose(f_series_derivative(-t), scipy.special.j1(2.0 * s) / s, rtol=0, atol=1e-13)
        np.testing.assert_allclose(f_series(t), scipy.special.i0(2.0 * s), rtol=1e-13)
        np.testing.assert_allclose(f_series_derivative(t), scipy.special.i1(2.0 * s) / s, rtol=1e-13)
        for y in (-700.0, -300.0, -25.5, 700.0):
            assert f_series(y) == pytest.approx(float(f_series(np.array([y]))[0]), abs=1e-13, rel=1e-13)
        assert f_series(0.0) == 1.0 and f_series_derivative(0.0) == 1.0

    def test_vectorized_matches_scalar(self):
        ys = np.array([-2.0, -0.5, 0.0, 0.3, 1.7])
        np.testing.assert_allclose(f_series(ys), [f_series(v) for v in ys], atol=1e-14)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for y in (-1.5, -0.2, 0.0, 0.8):
            fd = (f_series(y + h) - f_series(y - h)) / (2 * h)
            assert f_series_derivative(y) == pytest.approx(fd, abs=1e-6)


class TestRootFinder:
    def test_first_zero_value(self):
        assert find_r0(1e-12) == pytest.approx(R0, abs=1e-9)

    def test_is_a_sign_change(self):
        r = find_r0(1e-10)
        assert f_series(-(r - 1e-6)) > 0.0
        assert f_series(-(r + 1e-6)) < 0.0

    def test_positive_below_the_zero(self):
        r = find_r0(1e-10)
        for frac in (0.1, 0.5, 0.9, 0.99):
            assert f_series(-frac * r) > 0.0

    def test_matches_bessel_zero(self):
        # first zero of J0 is 2.404825557695773; r0 = (that/2)^2
        assert find_r0(1e-12) == pytest.approx((2.404825557695773 / 2.0) ** 2, abs=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            find_r0(tol)


class TestMajorantSeries:
    def test_coefficient_recursion_start(self):
        x = x_seq(4)
        assert x[0] == pytest.approx(1.0, abs=1e-15)
        assert x[1] == pytest.approx(1.0, abs=1e-15)
        assert x[2] == pytest.approx(0.75, abs=1e-13)

    def test_coefficients_positive_and_decreasing(self):
        x = x_seq(60)
        assert np.all(x > 0)
        assert np.all(np.diff(x[1:]) < 0)

    def test_partial_sums_converge_inside_radius(self):
        K = 0.9 * np.sqrt(R0)
        sums = picard_series_partial_sums(K, 1.0, 120)
        gaps = np.abs(np.diff(sums))
        assert gaps[-1] < 1e-8
        assert np.isfinite(sums[-1])

    def test_partial_sums_blow_up_outside_radius(self):
        K = 1.2 * np.sqrt(R0)
        sums = picard_series_partial_sums(K, 1.0, 40)
        assert np.max(np.abs(sums)) > 1e6

    def test_zero_gain_sums_to_one(self):
        np.testing.assert_allclose(picard_series_partial_sums(0.0, 1.0, 5), np.ones(6))
