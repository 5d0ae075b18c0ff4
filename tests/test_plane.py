"""Geometry of the parameter plane: points, grids, the mixed difference stencil."""

import numpy as np
import pytest

from sheetlab import Grid, Point, mixed_partial


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
