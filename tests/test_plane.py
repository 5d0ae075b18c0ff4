"""Geometry of the parameter plane: points, grids, quarter order, quadrature."""

import numpy as np
import pytest

from sheetlab import (
    Grid,
    Point,
    diff_double_integral_identity_check,
    double_rect_integral,
    mixed_partial,
    quarter_indicator,
    rect_integral,
)


def square_grid(k, t=1.0, x=1.0):
    return Grid(horizon=Point(t, x), nt=k, nx=k)


class TestPoint:
    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            Point(-0.1, 1.0)
        with pytest.raises(ValueError):
            Point(1.0, -2.0)

    @pytest.mark.parametrize(
        "bad",
        [-1, np.float64(-0.5), np.int64(-2), np.float32(-0.5), np.array([0.0, 0.3, -0.1]), [0.2, -1.0]],
    )
    def test_rejects_negative_scalar_and_array_entries(self, bad):
        with pytest.raises(ValueError):
            Point(bad, 1.0)
        with pytest.raises(ValueError):
            Point(np.zeros(3), bad)

    def test_nan_coordinates_pass_validation(self):
        Point(float("nan"), 1.0)
        Point(np.array([0.0, np.nan]), np.float64(np.nan))

    def test_area(self):
        assert Point(0.5, 2.0).area == pytest.approx(1.0)
        assert Point(0.0, 3.0).area == 0.0


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid(horizon=Point(1.0, 2.0), nt=4, nx=8)
        assert g.dt == pytest.approx(0.25)
        assert g.dx == pytest.approx(0.25)
        np.testing.assert_allclose(g.t_nodes(), np.linspace(0, 1, 5))
        np.testing.assert_allclose(g.x_nodes(), np.linspace(0, 2, 9))

    @pytest.mark.parametrize("cells", [2.5, 4.0, np.nan, np.inf, 0, -3])
    @pytest.mark.parametrize("name", ["nt", "nx"])
    def test_names_a_cell_count_that_is_no_positive_integer(self, name, cells):
        counts = {"nt": 4, "nx": 4, name: cells}
        with pytest.raises(ValueError, match=rf"\b{name}="):
            Grid(Point(1.0, 1.0), **counts)

    def test_accepts_numpy_integer_cell_counts(self):
        assert Grid(Point(1.0, 1.0), np.int64(3), np.int32(2)).dx == 0.5

    @pytest.mark.parametrize(
        "horizon", [(0.0, 1.0), (1.0, 0.0), (np.inf, 1.0), (1.0, np.nan), (np.nan, np.nan)]
    )
    def test_rejects_a_degenerate_horizon(self, horizon):
        # a zero, infinite or NaN side leaves dt or dx without meaning
        with pytest.raises(ValueError, match="horizon"):
            Grid(horizon=Point(*horizon), nt=4, nx=4)

    def test_node_index_roundtrip(self):
        g = square_grid(8)
        for i in range(9):
            for j in range(9):
                assert g.node_index(Point(i / 8, j / 8)) == (i, j)

    def test_node_index_rejects_off_node_points(self):
        g = square_grid(8)
        with pytest.raises(ValueError):
            g.node_index(Point(0.3, 0.5))
        with pytest.raises(ValueError):
            g.node_index(Point(0.5, 1.7))

    def test_corner_points_are_cell_lower_corners(self):
        g = Grid(horizon=Point(1.0, 2.0), nt=4, nx=8)
        c = g.corner_points(4, 8)
        assert c.t.shape == (4, 8)
        assert c.t[2, 0] == pytest.approx(0.5)
        assert c.x[0, 3] == pytest.approx(0.75)
        assert c.t[0, 0] == 0.0 and c.x[0, 0] == 0.0


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


class TestMixedPartial:
    def test_recovers_second_mixed_derivative(self):
        F = lambda p: p.t**2 * p.x  # noqa: E731  d2F/dtdx = 2t
        got = mixed_partial(F, Point(1.0, 1.0), 1e-4)
        assert got == pytest.approx(2.0, abs=1e-3)

    def test_exact_for_bilinear(self):
        F = lambda p: 2.0 + 3.0 * p.t * p.x  # noqa: E731
        assert mixed_partial(F, Point(0.5, 0.5), 0.1) == pytest.approx(3.0, abs=1e-10)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            mixed_partial(lambda p: p.t, Point(1.0, 1.0), 0.0)


class TestDifferentiationIdentity:
    """d^2/dtdx of a double integral vs its two boundary terms.

    The two-term form holds only for kernels vanishing on quarter-ordered
    pairs; for full-support kernels the dropped cross-edge terms leave an
    O(1) residual, which these cases pin down numerically.
    """

    def test_constant_kernel_residual_is_two(self):
        # F(z) = (tx)^2, mixed derivative 4tx; boundary terms give 2tx.
        one = lambda a, b: np.ones(np.broadcast(a.t + a.x, b.t + b.x).shape)  # noqa: E731
        res = diff_double_integral_identity_check(one, Point(1.0, 1.0), square_grid(32), 1e-3)
        assert res == pytest.approx(2.0040010000907955, rel=1e-6)

    def test_separable_kernel_residual(self):
        f = lambda a, b: a.t * b.x  # noqa: E731
        res = diff_double_integral_identity_check(f, Point(1.0, 1.0), square_grid(64), 1e-3)
        assert res == pytest.approx(1.2002259251036413, rel=1e-6)

    def test_off_quarter_kernel_residual_decays(self):
        # supported strictly off the quarter order: identity holds in the limit
        def masked(a, b):
            return a.t * b.x * (a.t < b.t) * (a.x < b.x)

        res = [
            diff_double_integral_identity_check(masked, Point(1.0, 1.0), square_grid(k), 1e-3)
            for k in (16, 32, 64)
        ]
        np.testing.assert_allclose(res, [0.095499, 0.050471, 0.025566], atol=5e-6)
        assert res[0] > res[1] > res[2]
        assert res[0] / res[1] > 1.5 and res[1] / res[2] > 1.5

    def test_rejects_empty_rectangle(self):
        one = lambda a, b: np.ones(np.broadcast(a.t + a.x, b.t + b.x).shape)  # noqa: E731
        with pytest.raises(ValueError):
            diff_double_integral_identity_check(one, Point(0.0, 1.0), square_grid(8), 1e-3)

    def test_rejects_nonpositive_step(self):
        one = lambda a, b: np.ones(np.broadcast(a.t + a.x, b.t + b.x).shape)  # noqa: E731
        with pytest.raises(ValueError, match="stencil step must be positive"):
            diff_double_integral_identity_check(one, Point(1.0, 1.0), square_grid(8), 0.0)
