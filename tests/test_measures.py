"""Empirical measures, the Gaussian-weighted Fourier metric, and the norm bound."""

import numpy as np
import pytest

from sheetlab import (
    EmpiricalMeasure,
    MQuadrature,
    est_inequality_check,
    fourier_batch,
    m_dist_sq,
    m_inner,
)


def delta(point):
    return EmpiricalMeasure(samples=np.full((1, 1), float(point)))


class TestEmpiricalMeasure:
    def test_dim_and_size(self):
        mu = EmpiricalMeasure(samples=np.zeros((4, 2)))
        assert mu.dim == 2 and mu.size == 4

    @pytest.mark.parametrize("shape", [(), (2,), (0, 1), (2, 1, 1)])
    def test_rejects_samples_that_are_not_a_nonempty_cloud(self, shape):
        with pytest.raises(ValueError, match="nonempty"):
            EmpiricalMeasure(samples=np.zeros(shape))

    def test_fourier_hand_value(self):
        mu = EmpiricalMeasure(samples=np.array([[0.0], [2.0]]))
        w = 1.5
        want = 0.5 * (1.0 + np.exp(-1j * w * 2.0))
        assert fourier_batch(mu, np.full((1, 1), w))[0] == pytest.approx(want, abs=1e-14)

    def test_fourier_batch_matches_loop(self):
        rng = np.random.default_rng(0)
        mu = EmpiricalMeasure(samples=rng.normal(size=(6, 2)))
        freqs = rng.normal(size=(5, 2))
        batch = fourier_batch(mu, freqs)
        loop = np.array([np.mean(np.exp(-1j * (mu.samples @ w))) for w in freqs])
        np.testing.assert_allclose(batch, loop, atol=1e-13)

    def test_fourier_at_zero_is_total_mass(self):
        mu = EmpiricalMeasure(samples=np.array([[1.0], [3.0], [-2.0]]))
        assert fourier_batch(mu, np.zeros((1, 1)))[0] == pytest.approx(1.0, abs=1e-14)


class TestMetric:
    def test_point_mass_distance_closed_form(self):
        quad = MQuadrature(dim=1, order=40)
        for c in (0.1, 1.0, 10.0):
            got = m_dist_sq(delta(0.0), delta(c), quad)
            want = 2.0 * np.sqrt(np.pi) * (1.0 - np.exp(-(c**2) / 4.0))
            assert got == pytest.approx(want, abs=1e-6)

    def test_distance_to_self_is_zero(self):
        quad = MQuadrature(dim=1, order=20)
        rng = np.random.default_rng(3)
        mu = EmpiricalMeasure(samples=rng.normal(size=(8, 1)))
        assert m_dist_sq(mu, mu, quad) == pytest.approx(0.0, abs=1e-12)

    def test_polarization_identity(self):
        quad = MQuadrature(dim=1, order=30)
        rng = np.random.default_rng(5)
        mu = EmpiricalMeasure(samples=rng.normal(size=(5, 1)))
        eta = EmpiricalMeasure(samples=rng.normal(size=(7, 1)) + 0.5)
        lhs = m_dist_sq(mu, eta, quad)
        rhs = m_inner(mu, mu, quad) + m_inner(eta, eta, quad) - 2.0 * m_inner(mu, eta, quad)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_distance_increases_then_saturates(self):
        # the metric is bounded: far-apart point masses approach 2 sqrt(pi)
        quad = MQuadrature(dim=1, order=40)
        d_small = m_dist_sq(delta(0.0), delta(0.5), quad)
        d_mid = m_dist_sq(delta(0.0), delta(2.0), quad)
        # keep the separation inside what an order-40 rule resolves: the
        # Fourier cross term oscillates like cos(c w), and c = 10 is already
        # within 5e-11 of the saturation value
        d_far = m_dist_sq(delta(0.0), delta(10.0), quad)
        assert d_small < d_mid < 2.0 * np.sqrt(np.pi) + 1e-9
        assert d_far == pytest.approx(2.0 * np.sqrt(np.pi), abs=1e-3)

    def test_two_dimensional_measures_supported(self):
        quad = MQuadrature(dim=2, order=12)
        mu = EmpiricalMeasure(samples=np.zeros((1, 2)))
        eta = EmpiricalMeasure(samples=np.array([[1.0, 0.0]]))
        assert m_dist_sq(mu, eta, quad) > 0.0

    def test_dimension_mismatch_rejected(self):
        quad = MQuadrature(dim=1, order=10)
        mu2 = EmpiricalMeasure(samples=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m_dist_sq(mu2, mu2, quad)


class TestNormBound:
    """||mu - nu||_M^2 <= pi E[(Y1 - Y2)^2] on coupled sample pairs."""

    def test_gaussian_couplings_pass(self):
        quad = MQuadrature(dim=1, order=40)
        rng = np.random.default_rng(1)
        pairs = []
        for _ in range(40):
            base = rng.normal(size=(128, 1))
            m1, m2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.5, 1.5, size=2)
            pairs.append((m1 + s1 * base, m2 + s2 * base))
        report = est_inequality_check(pairs, quad, slack=0.02)
        assert report.passed
        assert report.lhs <= report.rhs * 1.02

    def test_point_mass_pair_far_inside_bound(self):
        quad = MQuadrature(dim=1, order=40)
        c = 1.0
        report = est_inequality_check(
            [(np.zeros((1, 1)), np.full((1, 1), c))], quad, slack=0.0
        )
        # lhs = 2 sqrt(pi)(1 - e^{-1/4}) ~ 0.78, rhs = pi
        assert report.lhs == pytest.approx(
            2.0 * np.sqrt(np.pi) * (1.0 - np.exp(-0.25)), abs=1e-6
        )
        assert report.rhs == pytest.approx(np.pi, abs=1e-12)
        assert report.passed

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ValueError):
            est_inequality_check([], MQuadrature(dim=1, order=10))

    def test_saturation_margin_shrinks_with_separation(self):
        # ratio lhs/rhs -> 0 as the coupling separates: bound never tight there
        quad = MQuadrature(dim=1, order=40)
        r_small = est_inequality_check([(np.zeros((1, 1)), np.full((1, 1), 0.1))], quad)
        r_large = est_inequality_check([(np.zeros((1, 1)), np.full((1, 1), 10.0))], quad)
        assert r_small.lhs / r_small.rhs > r_large.lhs / r_large.rhs
        assert r_small.passed and r_large.passed
