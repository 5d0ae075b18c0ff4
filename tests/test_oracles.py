"""The reference implementations of ``oracles.py`` against hand algebra,
brute force and one another: the pointwise kernels, the quarter order, the
lower-corner quadrature, the second-type stochastic integral, the five-term
pair loop, and the scalar recursion's impulse response."""

from math import comb

import numpy as np
import pytest

from sheetlab import Grid, Point, mean_reversion_field, sample_sheet, solve_conditional_mkv
from sheetlab.solver import coefficient_table

from oracles import (
    KernelContext,
    double_ito_integral,
    double_rect_integral,
    five_term_sums,
    impulse_response,
    kernel_a,
    quarter_indicator,
    rect_integral,
)


def square_grid(k, t=1.0, x=1.0):
    return Grid(horizon=Point(t, x), nt=k, nx=k)


class TestKernels:
    """Pointwise kernel values against hand algebra (n=1, m=2, w=2)."""

    @pytest.fixture()
    def ctx(self):
        return KernelContext(
            alpha=np.array([0.5]),
            beta=np.array([[0.7, 0.3]]),
            alpha_p=np.array([-0.2]),
            beta_p=np.array([[0.4, 0.1]]),
        )

    def test_drift_diffusion_kernel(self, ctx):
        # wa = 1, wq = 1.96 + 0.36
        assert kernel_a(1, 2.0, ctx) == pytest.approx(-1.16 - 1.0j, abs=1e-14)

    def test_single_channel_quadratic_part(self):
        # pure unit diffusion on one channel at w = 2: a1 = -(1/2) * 4 = -2
        ctx = KernelContext(alpha=np.array([0.0]), beta=np.array([[1.0]]))
        assert kernel_a(1, 2.0, ctx) == pytest.approx(-2.0 + 0.0j, abs=1e-14)

    def test_common_noise_kernel_uses_first_channel_only(self, ctx):
        assert kernel_a(2, 2.0, ctx) == pytest.approx(-1.4j, abs=1e-14)

    def test_pair_kernels(self, ctx):
        assert kernel_a(3, 2.0, ctx) == pytest.approx(-1.12 + 0.0j, abs=1e-14)
        assert kernel_a(4, 2.0, ctx) == pytest.approx(-0.24 + 1.404j, abs=1e-14)
        assert kernel_a(5, 2.0, ctx) == pytest.approx(0.7944 - 0.124j, abs=1e-14)

    def test_last_kernel_vanishes_off_the_quarter_order(self, ctx):
        ordered = KernelContext(
            alpha=ctx.alpha, beta=ctx.beta, alpha_p=ctx.alpha_p, beta_p=ctx.beta_p,
            zeta=Point(0.3, 0.8), zeta_p=Point(0.5, 0.2),
        )
        off = KernelContext(
            alpha=ctx.alpha, beta=ctx.beta, alpha_p=ctx.alpha_p, beta_p=ctx.beta_p,
            zeta=Point(0.5, 0.2), zeta_p=Point(0.3, 0.8),
        )
        assert kernel_a(5, 2.0, ordered) == pytest.approx(0.7944 - 0.124j, abs=1e-14)
        assert kernel_a(5, 2.0, off) == 0.0

    def test_pair_kernels_need_primed_coefficients(self):
        bare = KernelContext(alpha=np.array([0.0]), beta=np.array([[1.0, 0.0]]))
        for idx in (3, 4, 5):
            with pytest.raises(ValueError):
                kernel_a(idx, 1.0, bare)

    def test_unknown_index_rejected(self, ctx):
        with pytest.raises(ValueError):
            kernel_a(6, 1.0, ctx)


class TestQuarterOrder:
    def test_indicator_ties_included(self):
        assert quarter_indicator(Point(0.2, 0.9), Point(0.7, 0.3)) == 1
        assert quarter_indicator(Point(0.7, 0.3), Point(0.2, 0.9)) == 0
        # ties on either axis count
        assert quarter_indicator(Point(0.5, 0.5), Point(0.5, 0.5)) == 1
        assert quarter_indicator(Point(0.2, 0.5), Point(0.7, 0.5)) == 1

    def test_indicator_broadcasts(self):
        a = Point(np.array([0.1, 0.9]), np.array([0.8, 0.8]))
        b = Point(0.5, 0.5)
        np.testing.assert_array_equal(quarter_indicator(a, b), [1, 0])


class TestRectIntegral:
    def test_constant_is_exact(self):
        g = square_grid(7, t=0.9, x=1.4)
        got = rect_integral(lambda p: np.full(np.shape(p.t), 3.0), Point(0.9, 1.4), g)
        assert got == pytest.approx(3.0 * 0.9 * 1.4, abs=1e-12)

    def test_bilinear_converges_first_order(self):
        target = 0.25  # integral of s*v over the unit square
        errs = []
        for k in (8, 16, 32):
            g = square_grid(k)
            got = rect_integral(lambda p: p.t * p.x, Point(1.0, 1.0), g)
            errs.append(abs(got - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_separable_double_integral_factorizes(self):
        g = square_grid(6, t=0.8, x=1.1)
        z = Point(0.8, 1.1)
        f = lambda p: 1.0 + p.t  # noqa: E731
        h = lambda p: np.cos(p.x)  # noqa: E731
        double = double_rect_integral(lambda a, b: f(a) * h(b), z, g)
        product = rect_integral(f, z, g) * rect_integral(h, z, g)
        assert double == pytest.approx(product, abs=1e-12)

    @pytest.mark.parametrize(
        "h, f",
        [(lambda a, b: 1.0, lambda p: 1.0), (lambda a, b: a.t, lambda p: p.t)],
        ids=["scalar", "first-point-only"],
    )
    def test_double_integral_counts_every_pair_of_a_broadcast_kernel(self, h, f):
        # 256 cells are two blocks of first cells: a scalar counted once per
        # block read 3.05e-5, not 1.0
        g, z = square_grid(16), Point(1.0, 1.0)
        assert double_rect_integral(h, z, g) == pytest.approx(rect_integral(f, z, g), abs=1e-12)


class TestDoubleItoIntegral:
    def test_empty_rectangle_vanishes(self):
        sh = sample_sheet(square_grid(4), 1, seed=0)
        assert double_ito_integral(None, sh, 0, 0, Point(1.0, 0.0)) == 0.0

    def test_double_integral_vs_pair_loop(self):
        g = square_grid(4)
        sh = sample_sheet(g, 2, seed=6)
        z = Point(1.0, 1.0)
        psi = lambda a, b: 1.0 + a.t * b.x  # noqa: E731
        got = double_ito_integral(psi, sh, 0, 1, z)
        d0 = sh.increments[0]
        d1 = sh.increments[1]
        want = 0.0
        for p in range(4):
            for q in range(4):
                for r in range(4):
                    for s in range(4):
                        if (p, q) == (r, s):
                            continue  # identical-cell pairs are excluded
                        want += (1.0 + (p / 4) * (s / 4)) * d0[p, q] * d1[r, s]
        assert got == pytest.approx(want, abs=1e-12)

    def test_double_integral_constant_shortcut_matches_callable(self):
        g = square_grid(5)
        sh = sample_sheet(g, 1, seed=8)
        z = Point(1.0, 1.0)
        one = lambda a, b: np.ones(np.broadcast(a.t + a.x, b.t + b.x).shape)  # noqa: E731
        assert double_ito_integral(None, sh, 0, 0, z) == pytest.approx(
            double_ito_integral(one, sh, 0, 0, z), abs=1e-12
        )


class TestFiveTermPairLoop:
    def test_one_cell_keeps_only_the_a5_self_pair(self):
        # on a single cell the only pair is the self pair: a5 dzeta^2 counts,
        # a3 and a4 do not; kernels by hand algebra, n = 1 and m = 2
        grid = square_grid(1, t=0.6, x=0.9)
        ens = solve_conditional_mkv(mean_reversion_field(0.5, (0.7, 0.5)), 1.0, 5, grid, seed=3)
        alpha, beta = coefficient_table(ens.coeffs, ens.values, grid, 1, 1)
        dtdx, dB = grid.dt * grid.dx, ens.common_increments[0, 0]
        W = np.array([[1.0], [-2.0]])
        want = []
        for (w,) in W:
            wa = w * alpha[:, 0, 0, 0]
            wb = w * beta[:, 0, 0, 0, :]
            wq = np.sum(wb**2, axis=-1)
            a1, a2 = -1j * wa - 0.5 * wq, -1j * wb[:, 0]
            a5 = -wa * wa + 1j * wa * wq + 0.25 * wq * wq
            phase = np.exp(-1j * w * ens.values[:, 0, 0, 0])
            want.append(np.mean((a1 * dtdx + a2 * dB + a5 * dtdx**2) * phase))
        np.testing.assert_allclose(five_term_sums(ens, W, 1, 1), want, rtol=0, atol=1e-14)


class TestImpulseResponse:
    @pytest.mark.parametrize("rate", [-1.5, 0.8, 0.0])
    def test_is_the_binomial_riemann_sum(self, rate):
        # h[k + 1, l + 1] = sum_n (rate dtdx)^n C(k, n) C(l, n): at -rate it is
        # the discrete Riemann function of the OU deviation, and it tends to
        # the paper's f(rate t x) as the cells shrink
        nt, nx, dtdx = 7, 5, 0.25
        h = impulse_response(rate, nt, nx, dtdx)
        want = [
            [sum((rate * dtdx) ** n * comb(k, n) * comb(l, n) for n in range(min(k, l) + 1)) for l in range(nx)]
            for k in range(nt)
        ]
        np.testing.assert_allclose(h[1:, 1:], want, rtol=0, atol=1e-12)
        assert not h[0].any() and not h[:, 0].any()
