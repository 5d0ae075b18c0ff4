"""Brownian sheets: sampling, increments, stochastic integrals, file format."""

import struct

import numpy as np
import pytest

from sheetlab import (
    DOMAIN_CHAOS,
    DOMAIN_SHEET,
    Grid,
    Point,
    coarsen_increments,
    double_ito_integral,
    ito_integral,
    load_sheet,
    rect_increment,
    sample_sheet,
    save_sheet,
    sheet_from_increments,
    substream,
)
from sheetlab.noise import _draw_cells, _node_values


def square_grid(k, t=1.0, x=1.0):
    return Grid(horizon=Point(t, x), nt=k, nx=k)


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, DOMAIN_SHEET, stream=3, channel=2).normal(size=8)
        b = substream(7, DOMAIN_SHEET, stream=3, channel=2).normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_separated_by_every_index(self):
        base = substream(7, DOMAIN_SHEET, stream=3, channel=2).normal(size=8)
        for other in (
            substream(8, DOMAIN_SHEET, stream=3, channel=2),
            substream(7, DOMAIN_CHAOS, stream=3, channel=2),
            substream(7, DOMAIN_SHEET, stream=4, channel=2),
            substream(7, DOMAIN_SHEET, stream=3, channel=3),
        ):
            assert not np.allclose(base, other.normal(size=8))

    def test_numpy_integer_coordinates_are_their_python_values(self):
        # a numpy integer's & with the 64-bit mask used to overflow its dtype
        base = substream(-7, DOMAIN_SHEET, stream=3, channel=2).normal(size=8)
        same = substream(np.int64(-7), np.int32(DOMAIN_SHEET), stream=np.int64(3), channel=np.uint8(2))
        np.testing.assert_array_equal(base, same.normal(size=8))


class TestDrawCells:
    def test_slabs_are_the_scaled_draws_of_their_substreams(self):
        # dt * dx = 0.25 * 0.5: a sampler that loses the scale, or reads
        # another stream's words, differs from normal(0, sqrt(dt * dx))
        g = Grid(horizon=Point(1.0, 2.0), nt=4, nx=4 + 3)
        words = [(0, 0), (0, 1), (5, 0), (2, 3)]
        cells = _draw_cells(g, 11, DOMAIN_CHAOS, words)
        assert cells.shape == (4, 4, 7)
        for slab, (stream, channel) in zip(cells, words):
            gen = substream(11, DOMAIN_CHAOS, stream=stream, channel=channel)
            assert np.array_equal(slab, gen.normal(0.0, np.sqrt(g.dt * g.dx), (g.nt, g.nx)))


class TestSampleSheet:
    def test_shape_and_zero_boundary(self):
        g = Grid(horizon=Point(1.0, 2.0), nt=4, nx=6)
        sh = sample_sheet(g, 3, seed=0)
        assert sh.values.shape == (3, 5, 7)
        assert sh.channels == 3
        np.testing.assert_array_equal(sh.values[:, 0, :], 0.0)
        np.testing.assert_array_equal(sh.values[:, :, 0], 0.0)

    def test_streams_differ(self):
        g = square_grid(4)
        a = sample_sheet(g, 1, seed=0, stream=0)
        b = sample_sheet(g, 1, seed=0, stream=1)
        assert not np.allclose(a.values, b.values)

    def test_cell_increments_are_rectangle_differences(self):
        g = square_grid(5)
        sh = sample_sheet(g, 2, seed=1)
        v = sh.values[1]
        d = sh.increments[1]
        manual = v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]
        np.testing.assert_allclose(d, manual, atol=1e-14)

    def test_rect_increment_matches_node_values(self):
        g = square_grid(8)
        sh = sample_sheet(g, 1, seed=3)
        lo, hi = Point(0.25, 0.375), Point(0.75, 1.0)
        v = sh.values[0]
        want = v[6, 8] - v[6, 3] - v[2, 8] + v[2, 3]
        assert rect_increment(sh, 0, lo, hi) == pytest.approx(want, abs=1e-14)


class TestIncrementsRoundTrip:
    def test_sheet_from_increments_inverts_cell_increments(self):
        g = square_grid(6)
        sh = sample_sheet(g, 2, seed=9)
        incr = sh.increments
        rebuilt = sheet_from_increments(g, incr, seed=9)
        np.testing.assert_allclose(rebuilt.values, sh.values, atol=1e-12)

    def test_sample_sheet_keeps_the_drawn_increments_read_only(self):
        g = Grid(horizon=Point(1.0, 2.0), nt=5, nx=3)
        sh = sample_sheet(g, 3, seed=4, stream=2)
        drawn = _draw_cells(g, 4, DOMAIN_SHEET, [(2, c) for c in range(3)])
        assert np.array_equal(sh.increments, drawn)
        for array in (sh.increments, sh.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sheet_from_increments_names_increments_that_are_not_finite(self, bad):
        incr = np.zeros((1, 2, 2))
        incr[0, 1, 0] = bad
        with pytest.raises(ValueError, match="^increments must be finite"):
            sheet_from_increments(square_grid(2), incr)

    def test_sheet_from_increments_copies_its_input(self):
        g = square_grid(3)
        incr = np.ones((2, 3, 3))
        sh = sheet_from_increments(g, incr)
        incr[0, 0, 0] = 5.0
        assert sh.increments[0, 0, 0] == 1.0
        assert not np.shares_memory(sh.increments, incr)
        assert not sh.increments.flags.writeable and incr.flags.writeable
        np.testing.assert_array_equal(sh.values[0, -1], [0.0, 3.0, 6.0, 9.0])

    def test_values_are_the_node_values_of_the_increments(self):
        g = Grid(horizon=Point(1.0, 1.0), nt=4, nx=7)
        sh = sample_sheet(g, 2, seed=11)
        assert np.array_equal(sh.values, _node_values(sh.increments))
        assert sh.values is sh.values  # derived once

    def test_coarsen_sums_blocks_and_matches_coarse_nodes(self):
        fine = square_grid(8)
        coarse = square_grid(4)
        sh = sample_sheet(fine, 1, seed=5)
        incr = sh.increments[:1]
        down = coarsen_increments(incr, 2)
        assert down.shape == (1, 4, 4)
        assert down[0, 0, 0] == pytest.approx(incr[0, :2, :2].sum(), abs=1e-14)
        rebuilt = sheet_from_increments(coarse, down, seed=5)
        # coarse node values agree with the fine sheet at shared nodes
        np.testing.assert_allclose(rebuilt.values[0], sh.values[0][::2, ::2], atol=1e-12)

    def test_coarsen_rejects_indivisible_shapes(self):
        with pytest.raises(ValueError):
            coarsen_increments(np.zeros((1, 6, 6)), 4)


class TestItoIntegrals:
    def test_constant_integrand_gives_sheet_value(self):
        g = square_grid(8)
        sh = sample_sheet(g, 1, seed=2)
        phi = lambda p: np.ones(np.shape(p.t))  # noqa: E731
        got = ito_integral(phi, sh, 0, Point(1.0, 1.0))
        assert got == pytest.approx(sh.values[0, 8, 8], abs=1e-12)
        # restriction to a sub-rectangle
        got_half = ito_integral(phi, sh, 0, Point(0.5, 1.0))
        assert got_half == pytest.approx(sh.values[0, 4, 8], abs=1e-12)

    def test_node_array_must_cover_the_rectangle(self):
        g = square_grid(4)
        sh = sample_sheet(g, 1, seed=0)
        z = Point(1.0, 1.0)
        full = ito_integral(np.ones((5, 5)), sh, 0, z)
        assert full == pytest.approx(sh.values[0, 4, 4], abs=1e-12)
        for shape in [(1, 1), (4, 1)]:
            with pytest.raises(ValueError, match="cannot cover 4 x 4 cell corners"):
                ito_integral(np.ones(shape), sh, 0, z)

    def test_empty_rectangle_vanishes(self):
        g = square_grid(4)
        sh = sample_sheet(g, 1, seed=0)
        phi = lambda p: p.t  # noqa: E731
        assert ito_integral(phi, sh, 0, Point(0.0, 1.0)) == 0.0
        assert double_ito_integral(None, sh, 0, 0, Point(1.0, 0.0)) == 0.0

    def test_linearity(self):
        g = square_grid(6)
        sh = sample_sheet(g, 1, seed=4)
        z = Point(1.0, 1.0)
        f = lambda p: p.t  # noqa: E731
        h = lambda p: p.x**2  # noqa: E731
        combo = lambda p: 2.0 * p.t + 3.0 * p.x**2  # noqa: E731
        got = ito_integral(combo, sh, 0, z)
        want = 2.0 * ito_integral(f, sh, 0, z) + 3.0 * ito_integral(h, sh, 0, z)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("channel", [-1, 2, 1.0])
    def test_readers_name_a_channel_that_is_not_one_of_the_sheet(self, channel):
        # -1 would read the last channel as numpy counts from the end
        sh = sample_sheet(square_grid(2), 2, seed=0)
        lo, z = Point(0.0, 0.0), Point(1.0, 1.0)
        with pytest.raises(ValueError, match=r"^channel must be"):
            rect_increment(sh, channel, lo, z)
        with pytest.raises(ValueError, match=r"^channel must be"):
            ito_integral(lambda p: 1.0, sh, channel, z)
        with pytest.raises(ValueError, match=r"^ch1 must be"):
            double_ito_integral(None, sh, channel, 0, z)
        with pytest.raises(ValueError, match=r"^ch2 must be"):
            double_ito_integral(None, sh, 1, channel, z)

    def test_readers_take_every_channel_of_the_sheet(self):
        sh = sample_sheet(square_grid(2), 2, seed=0)
        z = Point(1.0, 1.0)
        for c in (0, np.int64(1)):
            assert rect_increment(sh, c, Point(0.0, 0.0), z) == pytest.approx(sh.values[c, 2, 2], abs=1e-15)
            assert ito_integral(lambda p: 1.0, sh, c, z) == pytest.approx(sh.values[c, 2, 2], abs=1e-15)

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


class TestMoments:
    """Small-sample sanity on the sheet's covariance structure.

    Tight statistical verification lives in the acceptance suite; these
    checks only guard against gross scaling errors.
    """

    def test_variance_scales_with_area(self):
        g = Grid(horizon=Point(2.0, 0.5), nt=4, nx=4)
        vals = np.array([sample_sheet(g, 1, 0, stream=r).values[0, 4, 4] for r in range(1500)])
        assert np.var(vals) == pytest.approx(1.0, abs=0.12)

    def test_disjoint_rectangles_uncorrelated(self):
        g = square_grid(4)
        a = np.empty(1500)
        b = np.empty(1500)
        for r in range(1500):
            sh = sample_sheet(g, 1, 1, stream=r)
            a[r] = rect_increment(sh, 0, Point(0.0, 0.0), Point(0.5, 0.5))
            b[r] = rect_increment(sh, 0, Point(0.5, 0.5), Point(1.0, 1.0))
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.1


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        g = Grid(horizon=Point(1.5, 2.0), nt=6, nx=4)
        sh = sample_sheet(g, 3, seed=42, stream=5)
        fn = str(tmp_path / "sheet.bin")
        save_sheet(sh, fn)
        with open(fn, "rb") as fh:
            assert struct.unpack("<I", fh.read(8)[4:])[0] == 2  # dumps hold increments
        back = load_sheet(fn)
        np.testing.assert_array_equal(back.increments, sh.increments)
        np.testing.assert_array_equal(back.values, sh.values)
        assert back.grid == sh.grid
        assert back.seed == sh.seed

    def test_rejects_a_version_1_dump(self, tmp_path):
        # version 1 dumps held node values
        sh = sample_sheet(Grid(horizon=Point(1.5, 2.0), nt=6, nx=4), 2, seed=42, stream=5)
        fn = tmp_path / "sheet_v1.bin"
        header = struct.pack("<IIIIqdd", 1, 6, 4, 2, 42, 1.5, 2.0)
        fn.write_bytes(b"SHTL" + header + sh.values.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="^unsupported sheet dump version 1$"):
            load_sheet(str(fn))

    def test_rejects_corrupt_magic(self, tmp_path):
        g = square_grid(4)
        fn = str(tmp_path / "sheet.bin")
        save_sheet(sample_sheet(g, 1, seed=0), fn)
        blob = bytearray(open(fn, "rb").read())
        blob[:4] = b"XXXX"
        open(fn, "wb").write(bytes(blob))
        with pytest.raises(ValueError):
            load_sheet(fn)

    def test_rejects_truncated_header(self, tmp_path):
        fn = tmp_path / "sheet.bin"
        fn.write_bytes(b"SHTL" + struct.pack("<I", 2))
        with pytest.raises(ValueError, match="^sheet dump header has 4 bytes, expected 40$"):
            load_sheet(str(fn))
