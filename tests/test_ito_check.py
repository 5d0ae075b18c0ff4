"""Discrete planar change-of-variables: term factorization and residual decay."""

import tracemalloc

import numpy as np
import pytest

from sheetlab import (
    CoefficientField,
    Grid,
    Point,
    TestFunction as ScalarTestFunction,  # aliased so pytest does not collect it
    cell_increments,
    double_ito_integral,
    ito_refinement_study,
    ito_terms,
    mean_reversion_field,
    sample_sheet,
    scalar_function,
    solve_goursat,
)
from sheetlab.plane import quarter_indicator


def square_grid(k):
    return Grid(horizon=Point(1.0, 1.0), nt=k, nx=k)


def constant_field(alpha, betas):
    betas = np.asarray(betas, dtype=float)
    return CoefficientField(
        n=1,
        m=betas.size,
        drift=lambda z, y, mu: np.full(y.shape, alpha),
        diffusion=lambda z, y, mu: np.broadcast_to(betas, y.shape + (betas.size,)),
        depends_on_state=False,
        depends_on_measure=False,
    )


def quartic():
    return scalar_function(
        lambda y: y**4,
        lambda y: 4.0 * y**3,
        lambda y: 12.0 * y**2,
        lambda y: 24.0 * y,
        lambda y: 24.0,
    )


class TestScalarFunction:
    def test_wraps_scalar_constants(self):
        f = scalar_function(
            lambda y: y**2, lambda y: 2.0 * y, lambda y: 2.0, lambda y: 0.0, lambda y: 0.0
        )
        ys = np.ones((3, 4, 1))
        assert np.asarray(f.hess(ys)).shape == (3, 4, 1, 1)
        assert np.asarray(f.fourth(ys)).shape == (3, 4, 1, 1, 1, 1)

    def test_value_is_scalar_per_point(self):
        f = scalar_function(
            lambda y: np.sin(y), np.cos, lambda y: -np.sin(y), lambda y: -np.cos(y), np.sin
        )
        ys = np.full((5, 1), 0.3)
        np.testing.assert_allclose(np.asarray(f.value(ys)), np.sin(0.3), atol=1e-14)

    def test_is_a_test_function(self):
        f = quartic()
        assert isinstance(f, ScalarTestFunction)


class TestLinearExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
    def test_residual_vanishes_for_affine_functions(self, seed):
        g = square_grid(12)
        co = CoefficientField(
            n=1,
            m=2,
            drift=lambda z, y, mu: 0.4 - 0.6 * y,
            diffusion=lambda z, y, mu: np.stack([0.5 + 0.0 * y, 0.1 * y], axis=-1),
            depends_on_measure=False,
        )
        sh = sample_sheet(g, 2, seed)
        field = solve_goursat(co, 1.0, sh, g)
        f = scalar_function(
            lambda y: 3.0 * y + 2.0, lambda y: 3.0, lambda y: 0.0, lambda y: 0.0, lambda y: 0.0
        )
        rep = ito_terms(f, co, field, sh, Point(1.0, 1.0))
        assert rep.residual < 1e-10
        # only the first-order terms survive
        assert abs(rep.t3) + abs(rep.t4) + abs(rep.t7) == 0.0

    def test_empty_rectangle_gives_zero(self):
        g = square_grid(4)
        co = constant_field(1.0, [1.0])
        sh = sample_sheet(g, 1, 0)
        field = solve_goursat(co, 1.0, sh, g)
        rep = ito_terms(quartic(), co, field, sh, Point(0.0, 1.0))
        assert rep.residual == 0.0
        assert rep.total == 0.0


@pytest.fixture(scope="module")
def pair_case():
    g = square_grid(8)
    alpha, b1, b2 = 0.7, 0.45, -0.3
    co = constant_field(alpha, [b1, b2])
    sh = sample_sheet(g, 2, seed=11)
    field = solve_goursat(co, 0.2, sh, g)
    k = 8
    dtdx = g.dt * g.dx
    dB = np.stack([cell_increments(sh, c)[:k, :k] for c in range(2)], axis=-1)
    bD = dB @ np.array([b1, b2])
    aD = np.full((k, k), alpha * dtdx)
    qD = np.full((k, k), (b1 * b1 + b2 * b2) * dtdx)
    Y = field.values[:k, :k, 0]
    report = ito_terms(quartic(), co, field, sh, Point(1.0, 1.0))
    return g, sh, (b1, b2), (aD, bD, qD), (12.0 * Y**2, 24.0 * Y, np.full((k, k), 24.0)), report


class TestPairTermFactorization:
    """The cumulated column/row factorization vs explicit pair enumeration.

    Every ordered pair of distinct cells with the first below the second in
    the quarter order contributes at the sup of its two corners; the fast
    path reorganizes that double sum into running sums sharing the join node.
    """

    def test_each_pair_term_matches_the_loop(self, pair_case):
        _, _, _, (aD, bD, qD), (g2v, g3v, g4v), report = pair_case
        k = 8
        T4 = T5 = T6 = T7 = 0.0
        for p in range(k):
            for jj in range(k):
                for it in range(k):
                    for q in range(k):
                        # pair (cell (p, jj), cell (it, q)) in quarter order
                        if not (p <= it and jj >= q):
                            continue
                        same = (p == it) and (jj == q)
                        w2, w3, w4 = g2v[it, jj], g3v[it, jj], g4v[it, jj]
                        if not same:
                            T4 += w2 * bD[p, jj] * bD[it, q]
                            T5 += w2 * aD[p, jj] * bD[it, q] + 0.5 * w3 * qD[p, jj] * bD[it, q]
                            T6 += w2 * bD[p, jj] * aD[it, q] + 0.5 * w3 * bD[p, jj] * qD[it, q]
                        T7 += (
                            w2 * aD[p, jj] * aD[it, q]
                            + 0.5 * w3 * qD[p, jj] * aD[it, q]
                            + 0.5 * w3 * qD[it, q] * aD[p, jj]
                            + 0.25 * w4 * qD[p, jj] * qD[it, q]
                        )
        assert abs(report.t4 - T4) < 1e-12
        assert abs(report.t5 - T5) < 1e-12
        assert abs(report.t6 - T6) < 1e-12
        assert abs(report.t7 - T7) < 1e-12

    def test_noise_pair_term_against_direct_double_integral(self, pair_case):
        g, sh, (b1, b2), _, (g2v, _, _), report = pair_case

        def join_weight(first, second):
            it = np.rint(np.asarray(second.t) / g.dt).astype(int)
            jx = np.rint(np.asarray(first.x) / g.dx).astype(int)
            it, jx = np.broadcast_arrays(it, jx)
            return g2v[it, jx] * quarter_indicator(first, second)

        got = 0.0
        for c1, w1 in enumerate((b1, b2)):
            for c2, w2 in enumerate((b1, b2)):
                got += w1 * w2 * double_ito_integral(join_weight, sh, c1, c2, Point(1.0, 1.0))
        assert abs(report.t4 - got) < 1e-12

    def test_report_is_self_consistent(self, pair_case):
        _, _, _, _, _, report = pair_case
        total = report.t1 + report.t2 + report.t3 + report.t4 + report.t5 + report.t6 + report.t7
        assert report.total == pytest.approx(total, abs=1e-14)
        assert report.residual == pytest.approx(abs(report.lhs - report.total), abs=1e-14)


class TestRefinement:
    def test_quadratic_residual_halves_per_grid_doubling(self):
        f = scalar_function(
            lambda y: y**2, lambda y: 2.0 * y, lambda y: 2.0, lambda y: 0.0, lambda y: 0.0
        )
        co = CoefficientField(
            n=1,
            m=2,
            drift=lambda z, y, mu: 0.5 - 0.3 * y,
            diffusion=lambda z, y, mu: np.broadcast_to(np.array([0.6, 0.4]), y.shape + (2,)),
            depends_on_measure=False,
        )
        grids = [square_grid(k) for k in (8, 16, 32)]
        study = ito_refinement_study(f, co, 1.0, Point(1.0, 1.0), grids, replications=60, seed=0)
        means = [r[1] for r in study.rows]
        assert study.monotone
        assert means[0] / means[1] > 1.4
        assert means[1] / means[2] > 1.4

    def test_csv_dump(self, tmp_path):
        f = scalar_function(
            lambda y: y**2, lambda y: 2.0 * y, lambda y: 2.0, lambda y: 0.0, lambda y: 0.0
        )
        co = constant_field(0.0, [1.0])
        study = ito_refinement_study(
            f, co, 0.0, Point(1.0, 1.0), [square_grid(4), square_grid(8)], 5, 0
        )
        fn = str(tmp_path / "study.csv")
        study.to_csv(fn)
        lines = open(fn).read().strip().splitlines()
        assert len(lines) == 3  # header + one row per grid
        assert lines[1].startswith("4,")
        assert lines[2].startswith("8,")

    @pytest.mark.parametrize("replications", [0, 1])
    def test_needs_two_replications(self, replications):
        # one replication has no standard error, none has no mean
        with pytest.raises(ValueError, match="two replications"):
            ito_refinement_study(
                quartic(), constant_field(0.0, [1.0]), 0.0, Point(1.0, 1.0),
                [square_grid(4), square_grid(8)], replications, 0,
            )

    def test_rejects_a_measure_dependent_field(self):
        # the study solves single paths and takes no measure_source to offer one
        co, grids = mean_reversion_field(1.0, [1.0]), [square_grid(4), square_grid(8)]
        with pytest.raises(ValueError, match="ito_refinement_study") as err:
            ito_refinement_study(quartic(), co, 0.0, Point(1.0, 1.0), grids, 3, 0)
        assert "measure_source" not in str(err.value)

    def test_memory_is_bounded_by_the_replicate_budget(self):
        # AC04's study: working arrays are one chunk of replications, not all of them
        f = scalar_function(
            lambda y: y**2, lambda y: 2.0 * y, lambda y: 2.0, lambda y: 0.0, lambda y: 0.0
        )
        co = CoefficientField(
            n=1,
            m=2,
            drift=lambda z, y, mu: 0.5 - 0.3 * y,
            diffusion=lambda z, y, mu: np.broadcast_to(np.array([0.6, 0.4]), y.shape + (2,)),
            depends_on_measure=False,
        )
        grids = [square_grid(k) for k in (16, 32, 64)]

        def peak_mb(replications):
            tracemalloc.start()
            try:
                ito_refinement_study(f, co, 1.0, Point(1.0, 1.0), grids, replications, 0)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        assert peak_mb(200) <= 12.0
        assert peak_mb(400) <= peak_mb(100) + 0.5

    def test_needs_two_grids(self):
        f = quartic()
        with pytest.raises(ValueError):
            ito_refinement_study(f, constant_field(0.0, [1.0]), 0.0, Point(1.0, 1.0), [square_grid(4)], 3, 0)


class TestValidation:
    def test_mismatched_sheet_and_field_rejected(self):
        g, g2 = square_grid(4), square_grid(8)
        co = constant_field(0.0, [1.0])
        field = solve_goursat(co, 0.0, sample_sheet(g, 1, 0), g)
        with pytest.raises(ValueError):
            ito_terms(quartic(), co, field, sample_sheet(g2, 1, 0), Point(1.0, 1.0))

    @pytest.mark.parametrize("m", [1, 3])
    def test_sheet_with_other_channel_count_rejected(self, m):
        # m=1 would read channel 0 of the two silently; m=3 would index past them
        g = square_grid(4)
        sheet = sample_sheet(g, 2, 0)
        field = solve_goursat(constant_field(0.3, [1.0, -0.5]), 0.2, sheet, g)
        co = constant_field(0.3, np.ones(m))
        with pytest.raises(ValueError, match="sheet has 2 channels, coefficients declare m=" + str(m)):
            ito_terms(quartic(), co, field, sheet, Point(1.0, 1.0))
