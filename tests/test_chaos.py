"""Symmetric particle systems, their rank-one algebra, and the mean-field limit."""

import numpy as np
import pytest

from sheetlab import (
    DOMAIN_CHAOS,
    ChaosConfig,
    Grid,
    Point,
    RankOneMatrix,
    closed_form_solution,
    coarsen_increments,
    limit_solution,
    matrix_power_decomposition,
    remainder_variance,
    sample_sheet,
    sheet_from_increments,
    simulate_particle_system,
    substream,
    verify_limit_spde,
)


def square_grid(k):
    return Grid(horizon=Point(1.0, 1.0), nt=k, nx=k)


class TestRankOneMatrix:
    def test_basic_algebra(self):
        A = RankOneMatrix(a_values=np.array([0.5, 1.0, 2.5]))
        assert A.size == 3
        assert A.total == pytest.approx(4.0)
        assert A.kappa() == pytest.approx(4.0 / 3.0 - 1.0)
        np.testing.assert_allclose(A.as_array(), np.tile([0.5, 1.0, 2.5], (3, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            RankOneMatrix(a_values=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RankOneMatrix(a_values=np.array([np.inf, 1.0]))
        with pytest.raises(ValueError):
            RankOneMatrix(a_values=np.array([-1.0, 0.5]))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_power_decomposition_matches_dense_powers(self, n):
        rng = np.random.default_rng(41)
        for _ in range(10):
            N = int(rng.integers(1, 7))
            a = rng.uniform(0.1, 3.0, size=N)
            A = RankOneMatrix(a_values=a)
            got = matrix_power_decomposition(A, n)
            want = np.linalg.matrix_power(A.as_array() / N - np.eye(N), n)
            assert np.max(np.abs(got - want)) < 1e-9


class TestChaosConfig:
    def test_broadcasts_scalar_weights(self):
        cfg = ChaosConfig(N=3, a_values=1.5, y0=0.0, grid=square_grid(4))
        np.testing.assert_array_equal(cfg.a_values, [1.5, 1.5, 1.5])

    def test_rejects_degenerate_weight_mean(self):
        with pytest.raises(ValueError):
            ChaosConfig(N=2, a_values=1e-12, y0=0.0, grid=square_grid(4))

    @pytest.mark.parametrize("y0", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_start_value(self, y0):
        with pytest.raises(ValueError, match="y0"):
            ChaosConfig(N=4, a_values=1.0, y0=y0, grid=square_grid(3))

    def test_the_series_routes_name_a_mean_weight_outside_the_series_guard(self):
        # (mean - 1) T X = 702 > 700 with T X = 2; the particle solve needs no
        # series and takes the weights, the closed form and the remainder name them
        g = Grid(horizon=Point(2.0, 1.0), nt=3, nx=3)
        sheet = sample_sheet(g, 2, 0)
        assert np.isfinite(simulate_particle_system(ChaosConfig(2, (504.0, 200.0), 1.0, g), sheet).values).all()
        for weights, rejected in (((504.0, 200.0), True), ((501.0, 200.0), False)):
            cfg = ChaosConfig(N=2, a_values=weights, y0=1.0, grid=g)
            for route in (lambda: closed_form_solution(cfg, sheet), lambda: remainder_variance(cfg, 2, 0)):
                if rejected:
                    with pytest.raises(ValueError, match="a_values"):
                        route()
                else:
                    route()

    def test_the_series_routes_name_a_horizon_outside_the_series_guard(self):
        # at unit weights the kernel f(-theta) alone reads theta up to T X:
        # the four series routes name the horizon past the guard, while the
        # config and the particle solve, which read no series, take it
        for side, rejected in ((700.5, True), (699.5, False)):
            g = Grid(horizon=Point(1.0, side), nt=2, nx=2)
            cfg = ChaosConfig(N=2, a_values=1.0, y0=1.0, grid=g)
            sheet = sample_sheet(g, 2, 0)
            assert np.isfinite(simulate_particle_system(cfg, sheet).values).all()
            for route in (
                lambda: closed_form_solution(cfg, sheet),
                lambda: remainder_variance(cfg, 2, 0),
                lambda: limit_solution(1.0, 1.0, sample_sheet(g, 1, 0)),
                lambda: verify_limit_spde(1.0, 1.0, g, 2, 0),
            ):
                if rejected:
                    with pytest.raises(ValueError, match=rf"grid horizon with T X = {side}"):
                        route()
                else:
                    route()

    def test_matrix_carries_the_weights(self):
        cfg = ChaosConfig(N=2, a_values=np.array([1.0, 3.0]), y0=0.0, grid=square_grid(4))
        assert cfg.matrix().total == pytest.approx(4.0)


class TestClosedForm:
    def test_single_particle_reduces_to_the_sheet(self):
        # N = 1, weight 1: interaction cancels, the state is y0 + B
        g = square_grid(16)
        cfg = ChaosConfig(N=1, a_values=1.0, y0=0.7, grid=g)
        sh = sample_sheet(g, 1, seed=2)
        closed = closed_form_solution(cfg, sh)
        sim = simulate_particle_system(cfg, sh)
        want = 0.7 + sh.values[0]
        assert np.max(np.abs(closed.values[:, :, 0] - want)) < 1e-12
        assert np.max(np.abs(sim.values[:, :, 0] - want)) < 1e-12

    def test_matches_simulation_on_a_shared_sheet(self):
        g = square_grid(32)
        cfg = ChaosConfig(N=4, a_values=1.0, y0=1.0, grid=g)
        sh = sample_sheet(g, 4, seed=0)
        sim = simulate_particle_system(cfg, sh)
        exact = closed_form_solution(cfg, sh)
        rms = float(np.sqrt(np.mean((sim.values - exact.values) ** 2)))
        assert rms < 0.02

    def test_nonuniform_weights(self):
        g = square_grid(32)
        cfg = ChaosConfig(N=3, a_values=np.array([0.5, 1.0, 2.0]), y0=1.0, grid=g)
        sh = sample_sheet(g, 3, seed=1)
        sim = simulate_particle_system(cfg, sh)
        exact = closed_form_solution(cfg, sh)
        rms = float(np.sqrt(np.mean((sim.values - exact.values) ** 2)))
        assert rms < 0.05

    def test_gap_shrinks_under_coupled_refinement(self):
        # same Gaussian mass, redistributed onto finer cells
        N, seed = 4, 0
        fine_inc = sample_sheet(square_grid(64), N, seed, stream=0).increments
        gaps = []
        for k in (16, 32, 64):
            g = square_grid(k)
            sh = sheet_from_increments(g, coarsen_increments(fine_inc, 64 // k), seed)
            cfg = ChaosConfig(N=N, a_values=1.0, y0=1.0, grid=g)
            sim = simulate_particle_system(cfg, sh)
            exact = closed_form_solution(cfg, sh)
            gaps.append(float(np.sqrt(np.mean((sim.values - exact.values) ** 2))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_channel_count_must_match(self):
        g = square_grid(8)
        cfg = ChaosConfig(N=3, a_values=1.0, y0=0.0, grid=g)
        with pytest.raises(ValueError):
            closed_form_solution(cfg, sample_sheet(g, 2, 0))
        with pytest.raises(ValueError):
            simulate_particle_system(cfg, sample_sheet(g, 2, 0))


class TestRemainderVariance:
    def test_scales_inversely_with_particle_count(self):
        # E|I_N|^2 = V0 / N for unit weights; V0 pinned by quadrature
        v0 = 0.0016185367426575223
        g = Grid(horizon=Point(0.5, 0.5), nt=32, nx=32)
        cfg = ChaosConfig(N=8, a_values=1.0, y0=1.0, grid=g)
        est = remainder_variance(cfg, replicates=200, seed=0)
        assert est.replicates == 200
        assert abs(est.estimate * 8 - v0) < 4.0 * est.stderr * 8

    def test_needs_two_replicates(self):
        cfg = ChaosConfig(N=2, a_values=1.0, y0=0.0, grid=square_grid(4))
        with pytest.raises(ValueError):
            remainder_variance(cfg, replicates=1, seed=0)


class TestLimitEquation:
    def test_limit_field_needs_one_channel(self):
        g = square_grid(8)
        with pytest.raises(ValueError):
            limit_solution(1.0, 0.0, sample_sheet(g, 2, 0))

    @pytest.mark.parametrize("name", ["a", "y0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_weight_or_start_value(self, name, bad):
        g = square_grid(3)
        args = {"a": 1.0, "y0": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} "):
            limit_solution(args["a"], args["y0"], sample_sheet(g, 1, seed=0))
        with pytest.raises(ValueError, match=f"^{name} "):
            verify_limit_spde(args["a"], args["y0"], g, 2, 0)

    def test_deterministic_part_solves_its_integral_equation_exactly(self):
        rep = verify_limit_spde(1.3, 1.0, square_grid(16), replicates=2, seed=0)
        assert rep.det_residual < 1e-13

    def test_default_noise_is_the_sheet_streams(self):
        # replicate r's cells are those of sample_sheet(grid, 1, seed, stream=r)
        g = square_grid(8)
        inc = np.stack([sample_sheet(g, 1, 5, stream=r).increments[0] for r in range(6)])
        drawn = verify_limit_spde(1.5, 0.5, g, replicates=6, seed=5)
        assert drawn == verify_limit_spde(1.5, 0.5, g, replicates=6, seed=5, increments=inc)

    def test_residual_shrinks_under_joint_refinement(self):
        # replicate count grows with the grid so the Monte Carlo floor
        # stays below the discretization error being measured
        kf, seed = 64, 4
        fine = np.empty((800, kf, kf))
        for rep in range(800):
            gen = substream(seed, DOMAIN_CHAOS, stream=rep, channel=0)
            fine[rep] = gen.normal(0.0, 1.0 / kf, (kf, kf))
        residuals = []
        for k, reps in ((16, 50), (32, 200), (64, 800)):
            inc = coarsen_increments(fine[:reps], kf // k)
            report = verify_limit_spde(
                2.0, 1.0, square_grid(k), replicates=reps, seed=seed, increments=inc
            )
            residuals.append(report.stoch_residual)
        np.testing.assert_allclose(residuals, [0.07733, 0.05208, 0.01618], atol=5e-5)
        assert residuals[0] > residuals[1] > residuals[2]
