"""Hyperbolic-recursion solvers: single path, interacting ensemble, iteration."""

import numpy as np
import pytest

from sheetlab import (
    CoefficientField,
    EmpiricalMeasure,
    Grid,
    Point,
    convergence_radius_report,
    mean_reversion_field,
    picard_solve,
    sample_ensemble_increments,
    sample_replicate_increments,
    sample_sheet,
    sheet_from_increments,
    solve_conditional_mkv,
    solve_goursat,
)
from sheetlab.noise import _draw_cells
from sheetlab.rng import (
    DOMAIN_CHAOS,
    DOMAIN_CONTROL,
    DOMAIN_ENSEMBLE,
    DOMAIN_REPLICATE,
    DOMAIN_SHEET,
    substream,
)
from sheetlab.solver import (
    _node_measures,
    _replicate_increments,
    coefficient_table,
)

R0 = 1.4457964907366958


def square_grid(k, t=1.0, x=1.0):
    return Grid(horizon=Point(t, x), nt=k, nx=k)


def exploding_field(depends_on_measure=True):
    # its states overflow a few rows in on an 8 x 8 grid
    return CoefficientField(
        n=1,
        m=2,
        drift=lambda z, y, mu: np.exp(y) * 1e3,
        diffusion=lambda z, y, mu: np.ones(y.shape + (2,)),
        depends_on_measure=depends_on_measure,
    )


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


class TestSinglePathSolve:
    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_constant_coefficients_exact(self, seed):
        # Y(z) = y0 + alpha t x + sum_c beta_c B_c(z), node for node
        g = square_grid(16)
        alpha, betas = 0.8, np.array([0.6, -0.4])
        sh = sample_sheet(g, 2, seed)
        field = solve_goursat(constant_field(alpha, betas), 1.5, sh, g)
        tx = np.outer(g.t_nodes(), g.x_nodes())
        want = 1.5 + alpha * tx + betas[0] * sh.values[0] + betas[1] * sh.values[1]
        assert np.max(np.abs(field.values[:, :, 0] - want)) < 1e-10

    def test_boundary_rows_stay_at_start_value(self):
        g = square_grid(8)
        sh = sample_sheet(g, 1, 3)
        field = solve_goursat(constant_field(1.0, [1.0]), 2.0, sh, g)
        np.testing.assert_array_equal(field.values[0, :, 0], 2.0)
        np.testing.assert_array_equal(field.values[:, 0, 0], 2.0)

    def test_state_dependent_solve_matches_scalar_recursion(self):
        # vectorized row advance vs a per-cell loop, exact to rounding
        g = square_grid(6)
        co = CoefficientField(
            n=1,
            m=1,
            drift=lambda z, y, mu: -0.7 * y + 0.2,
            diffusion=lambda z, y, mu: (0.5 + 0.1 * np.sin(y))[..., None],
            depends_on_measure=False,
        )
        sh = sample_sheet(g, 1, 9)
        field = solve_goursat(co, 1.0, sh, g)
        dB = sh.increments[0]
        dtdx = g.dt * g.dx
        Y = np.full((7, 7), 1.0)
        for i in range(6):
            for j in range(6):
                src = (-0.7 * Y[i, j] + 0.2) * dtdx + (0.5 + 0.1 * np.sin(Y[i, j])) * dB[i, j]
                Y[i + 1, j + 1] = Y[i + 1, j] + Y[i, j + 1] - Y[i, j] + src
        np.testing.assert_allclose(field.values[:, :, 0], Y, atol=1e-12)

    def test_at_reads_node_values(self):
        g = square_grid(4)
        sh = sample_sheet(g, 1, 0)
        field = solve_goursat(constant_field(0.0, [1.0]), 0.0, sh, g)
        assert field.at(Point(0.5, 0.75))[0] == pytest.approx(field.values[2, 3, 0])

    def test_input_validation(self):
        g = square_grid(4)
        co = constant_field(1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_goursat(co, 0.0, sample_sheet(g, 1, 0), g)  # channel mismatch
        with pytest.raises(ValueError):
            solve_goursat(co, 0.0, sample_sheet(square_grid(8), 2, 0), g)  # grid mismatch
        needs_mu = mean_reversion_field(1.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            solve_goursat(needs_mu, 0.0, sample_sheet(g, 2, 0), g)  # one path has no measure

    def test_non_finite_state_names_its_first_node(self):
        g = square_grid(8)
        sheet = sample_sheet(g, 2, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"non-finite state at node \(i, j\) = \(3, 3\)"):
                solve_goursat(exploding_field(depends_on_measure=False), 0.0, sheet, g)

    def test_state_free_field_reads_each_row_once_at_the_start_value(self):
        g = Grid(horizon=Point(1.0, 2.0), nt=5, nx=3)
        seen = []

        def drift(z, y, mu):
            seen.append((np.array(z.t), np.array(z.x), y.copy(), mu))
            return np.zeros_like(y)

        co = CoefficientField(
            n=2,
            m=1,
            drift=drift,
            diffusion=lambda z, y, mu: np.ones(y.shape + (1,)),
            depends_on_state=False,
            depends_on_measure=False,
        )
        solve_goursat(co, (0.5, -1.0), sample_sheet(g, 1, 0), g)
        assert len(seen) == g.nt
        for i, (t, x, y, mu) in enumerate(seen):
            assert mu is None
            np.testing.assert_array_equal(t, np.full(g.nx, i * g.dt))
            np.testing.assert_array_equal(x, np.arange(g.nx) * g.dx)
            np.testing.assert_array_equal(y, np.broadcast_to((0.5, -1.0), (g.nx, 2)))

    def test_state_free_non_finite_source_names_its_first_node(self):
        g = square_grid(6)

        def drift(z, y, mu):
            hit = np.isclose(z.t, 2 * g.dt) & np.isclose(z.x, 3 * g.dx)
            return np.where(hit, np.inf, 0.0)[:, None]

        co = CoefficientField(
            n=1,
            m=1,
            drift=drift,
            diffusion=lambda z, y, mu: np.ones(y.shape + (1,)),
            depends_on_state=False,
            depends_on_measure=False,
        )
        with pytest.raises(ValueError, match=r"non-finite state at node \(i, j\) = \(3, 4\)"):
            solve_goursat(co, 0.0, sample_sheet(g, 1, 0), g)


class TestEnsembleNoise:
    def test_ensemble_increments_nest_in_particle_count(self):
        g = square_grid(4)
        c2, i2 = sample_ensemble_increments(g, 3, 2, seed=5)
        c4, i4 = sample_ensemble_increments(g, 3, 4, seed=5)
        np.testing.assert_array_equal(c2, c4)
        np.testing.assert_array_equal(i2, i4[:2])

    def test_replicate_increments_common_independent_of_particle_count(self):
        g = square_grid(4)
        c_small, i_small = sample_replicate_increments(g, 2, 10, seed=3, rep=2)
        c_large, i_large = sample_replicate_increments(g, 2, 100, seed=3, rep=2)
        np.testing.assert_array_equal(c_small, c_large)
        np.testing.assert_array_equal(i_small, i_large[:10])

    # 3 x 5 cells: 15 normals per stream leave Philox's four-word buffer part
    # spent, so a stream that inherited its predecessor's buffer would shift.
    # Every domain keyed by (stream, channel): replicate noise, sheets (m = 1 is
    # a single draw, on the sampler's directly built stream) and chaos channels.
    @pytest.mark.parametrize("seed", [0, 7, 2**40, 2**64 - 1])
    @pytest.mark.parametrize(
        "domain", [DOMAIN_REPLICATE, DOMAIN_CONTROL, DOMAIN_SHEET, DOMAIN_CHAOS]
    )
    def test_replicate_noise_draws_what_each_substream_draws(self, seed, domain):
        g = Grid(horizon=Point(1.0, 0.5), nt=3, nx=5)
        scale = np.sqrt(g.dt * g.dx)
        for rep in (0, 3, 2**64 - 1):
            refs = np.stack(
                [substream(seed, domain, rep, c).normal(0.0, scale, (3, 5)) for c in range(11)]
            )
            if domain == DOMAIN_SHEET:
                for m in (1, 3):
                    values = sample_sheet(g, m, seed, stream=rep).values
                    assert np.array_equal(values, sheet_from_increments(g, refs[:m]).values)
            elif domain == DOMAIN_CHAOS:
                for N in (1, 3):  # the channels remainder_variance draws per replicate
                    cells = _draw_cells(g, seed, domain, [(rep, c) for c in range(N)])
                    assert np.array_equal(cells, refs[:N])
            else:
                for m in (2, 3):
                    for M in (1, 5):
                        common, idio = _replicate_increments(domain, g, m, M, seed, rep)
                        assert np.array_equal(common, refs[0])
                        assert np.array_equal(idio.reshape(-1, 3, 5), refs[1 : 1 + M * (m - 1)])

    @pytest.mark.parametrize("seed", [0, 7, 2**40, 2**64 - 1])
    def test_ensemble_noise_draws_what_each_substream_draws(self, seed):
        g = Grid(horizon=Point(1.0, 0.5), nt=3, nx=5)
        scale = np.sqrt(g.dt * g.dx)
        for m in (2, 3):
            for M in (1, 5):
                common, idio = sample_ensemble_increments(g, m, M, seed)
                draw = lambda stream, channel: substream(  # noqa: E731
                    seed, DOMAIN_ENSEMBLE, stream, channel
                ).normal(0.0, scale, (3, 5))
                assert np.array_equal(common, draw(0, 0))
                for p in range(M):
                    for c in range(m - 1):
                        assert np.array_equal(idio[p, c], draw(p + 1, c + 1))

    def test_replicates_differ(self):
        g = square_grid(4)
        c0, _ = sample_replicate_increments(g, 2, 4, seed=3, rep=0)
        c1, _ = sample_replicate_increments(g, 2, 4, seed=3, rep=1)
        assert not np.allclose(c0, c1)

    def test_increment_variance(self):
        g = square_grid(2, t=1.0, x=1.0)  # cell area 0.25
        cs = np.concatenate(
            [sample_ensemble_increments(g, 2, 1, seed=s)[0].ravel() for s in range(800)]
        )
        assert np.var(cs) == pytest.approx(0.25, rel=0.1)


class TestConditionalEnsemble:
    def test_single_particle_mean_field_is_exact(self):
        # with M = 1 the empirical mean equals the state: drift vanishes
        g = square_grid(8)
        co = mean_reversion_field(2.0, (0.7, 0.4))
        ens = solve_conditional_mkv(co, 1.0, 1, g, seed=4)
        common = np.zeros((9, 9))
        common[1:, 1:] = ens.common_increments.cumsum(axis=0).cumsum(axis=1)
        idio = np.zeros((9, 9))
        idio[1:, 1:] = ens.idio_increments[0, 0].cumsum(axis=0).cumsum(axis=1)
        want = 1.0 + 0.7 * common + 0.4 * idio
        np.testing.assert_allclose(ens.values[0, :, :, 0], want, atol=1e-10)

    def test_carries_coefficients_and_start(self):
        g = square_grid(4)
        co = mean_reversion_field(1.0, (0.5, 0.5))
        ens = solve_conditional_mkv(co, 1.5, 3, g, seed=0)
        assert ens.coeffs is co
        np.testing.assert_array_equal(ens.y0, [1.5])

    def test_measure_at_collects_all_particles(self):
        g = square_grid(4)
        ens = solve_conditional_mkv(mean_reversion_field(1.0, (0.5, 0.5)), 0.0, 5, g, seed=1)
        mu = ens.measure_at(Point(0.5, 0.5))
        assert isinstance(mu, EmpiricalMeasure)
        assert mu.size == 5 and mu.dim == 1
        np.testing.assert_array_equal(mu.samples[:, 0], ens.values[:, 2, 2, 0])

    def test_injected_increments_override_seed(self):
        g = square_grid(4)
        co = mean_reversion_field(1.0, (0.5, 0.5))
        common, idio = sample_replicate_increments(g, 2, 3, seed=9, rep=0)
        ens = solve_conditional_mkv(
            co, 0.0, 3, g, seed=123, common_increments=common, idio_increments=idio
        )
        np.testing.assert_array_equal(ens.common_increments, common)
        np.testing.assert_array_equal(ens.idio_increments, idio)

    def test_common_channel_couples_particles(self):
        # sigma_idio = 0 makes all particles identical
        g = square_grid(8)
        co = mean_reversion_field(1.5, (0.8, 0.0))
        ens = solve_conditional_mkv(co, 1.0, 4, g, seed=2)
        for p in range(1, 4):
            np.testing.assert_allclose(ens.values[p], ens.values[0], atol=1e-12)

    def test_rejects_single_channel(self):
        g = square_grid(4)
        with pytest.raises(ValueError):
            solve_conditional_mkv(constant_field(0.0, [1.0]), 0.0, 2, g, seed=0)

    def test_the_ensemble_advances_each_particle_by_its_node_measure(self):
        # each particle walks the one-path recursion driven by the mean of the
        # ensemble's states at every node and by the particle's own cells
        g = square_grid(8)
        rate, sigma = 1.2, np.array([[0.6, 0.4]])
        ens = solve_conditional_mkv(mean_reversion_field(rate, sigma), 1.0, 5, g, seed=3)
        for p in range(ens.particles):
            cells = np.stack([ens.common_increments, ens.idio_increments[p, 0]], axis=-1)
            y = np.ones((g.nt + 1, g.nx + 1, 1))
            for i in range(g.nt):
                for j in range(g.nx):
                    alpha = rate * (ens.values[:, i, j].mean(0) - y[i, j])
                    source = alpha * g.dt * g.dx + sigma @ cells[i, j]
                    y[i + 1, j + 1] = y[i + 1, j] + y[i, j + 1] - y[i, j] + source
            np.testing.assert_allclose(ens.values[p], y, rtol=0, atol=1e-12)

    def test_non_finite_state_names_its_first_node(self):
        g = square_grid(8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"non-finite state at node \(i, j\) = \(3, 3\)"):
                solve_conditional_mkv(exploding_field(), 0.0, 3, g, seed=0)

    def test_field_sees_the_node_measure_and_point_it_would_build(self):
        g = square_grid(5, t=1.0, x=0.7)
        seen = []

        def drift(z, y, mu):
            seen.append((z, y, mu))
            return 0.3 * (mu.samples.mean(axis=0) - y)

        co = CoefficientField(
            n=2,
            m=2,
            drift=drift,
            diffusion=lambda z, y, mu: np.full(y.shape + (2,), 0.4),
        )
        ens = solve_conditional_mkv(co, (1.0, -0.5), 4, g, seed=1)
        nodes = [(i, j) for i in range(g.nt) for j in range(g.nx)]
        assert len(seen) == len(nodes)
        for (i, j), (z, y, mu) in zip(nodes, seen):
            assert type(z) is Point and z == Point(i * g.dt, j * g.dx)
            reference = EmpiricalMeasure(ens.values[:, i, j])
            assert mu.samples is y
            assert np.shares_memory(mu.samples, ens.values)
            np.testing.assert_array_equal(mu.samples, reference.samples)
            assert np.array_equal(mu.sample_mean, reference.samples.mean(axis=0))
            assert not mu.sample_mean.flags.writeable

    def test_empty_ensemble_is_still_rejected(self):
        g = square_grid(3)
        with pytest.raises(ValueError, match="at least one sample"):
            coefficient_table(mean_reversion_field(1.0, (0.5, 0.5)), np.empty((0, 4, 4, 1)), g, 2, 2)

    def test_measure_free_field_is_called_once_per_row_on_all_particles(self):
        g = square_grid(6)
        batches = []

        def drift(z, y, mu):
            batches.append(y.shape)
            return np.sin(3.0 * z.t + 2.0 * z.x)[:, None] - 0.4 * y

        co = CoefficientField(
            n=1,
            m=2,
            drift=drift,
            diffusion=lambda z, y, mu: np.stack([np.full(y.shape, 0.5), 0.3 + 0.1 * z.x[:, None]], -1),
            depends_on_measure=False,
        )
        ens = solve_conditional_mkv(co, 1.0, 3, g, seed=2)
        assert batches == [(3 * 6, 1)] * 6
        for p in range(ens.particles):
            increments = np.stack([ens.common_increments, ens.idio_increments[p, 0]])
            field = solve_goursat(co, 1.0, sheet_from_increments(g, increments), g)
            np.testing.assert_allclose(field.values, ens.values[p], rtol=0, atol=1e-12)


class TestStockField:
    @pytest.mark.parametrize("M", [1, 2, 7, 1000])
    @pytest.mark.parametrize("n", [1, 3])
    def test_mean_reversion_matches_its_former_expressions_bit_for_bit(self, M, n):
        rng = np.random.default_rng(10 * M + n)
        rate, sigma = 0.37, rng.normal(size=(n, 2))
        co = mean_reversion_field(rate, sigma, n=n)
        s = rng.normal(size=(M, n)) * 3.0
        y = rng.normal(size=(M, n))
        # a measure as a user builds it, and one as the solver's node pass
        # builds it on node-major states (1, 2, M, n)
        values = np.stack([s, -2.0 * s])[None].transpose(2, 0, 1, 3)
        (nodes,) = _node_measures(values, square_grid(2), 1, 2)
        row = [mu for _, mu in nodes]
        z = Point(0.25, 0.5)
        for mu in (EmpiricalMeasure(s), row[0]):
            assert np.array_equal(co.drift(z, y, mu), rate * (s.mean(0) - y))
            assert np.array_equal(co.drift(z, y, mu), rate * (s.mean(axis=0)[None, :] - y))
        assert np.array_equal(co.drift(z, y, row[1]), rate * ((-2.0 * s).mean(0) - y))
        for batch in (y, y[:1], y):
            beta = co.diffusion(z, batch, mu)
            assert np.array_equal(beta, np.broadcast_to(sigma, (batch.shape[0], n, 2)))
            assert not beta.flags.writeable


class TestPicardIteration:
    def test_converges_to_the_direct_solution(self):
        g = square_grid(16)
        co = mean_reversion_field(0.3, (0.4, 0.3))
        result = picard_solve(co, 1.0, 32, g, seed=3, max_iter=30, tol=1e-13)
        direct = solve_conditional_mkv(co, 1.0, 32, g, seed=3)
        assert result.converged and not result.diverged
        assert result.divergence is None
        assert np.max(np.abs(result.ensemble.values - direct.values)) < 1e-7

    def test_gap_sequence_contracts(self):
        g = square_grid(16)
        co = mean_reversion_field(0.25 * np.sqrt(R0), (0.5, 0.5))
        result = picard_solve(co, 1.0, 64, g, seed=0, max_iter=12, tol=1e-12)
        gaps = result.gaps
        assert result.converged
        # geometric decay after the burn-in step
        for k in range(2, len(gaps)):
            assert gaps[k] < gaps[k - 1]

    def test_divergence_detector_trips_for_superlinear_drift(self):
        g = square_grid(8)
        co = CoefficientField(
            n=1,
            m=2,
            drift=lambda z, y, mu: 6.0 * y**2,
            diffusion=lambda z, y, mu: np.broadcast_to(np.array([0.3, 0.2]), y.shape + (2,)),
            depends_on_measure=False,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = picard_solve(co, 2.5, 4, g, seed=0, max_iter=14, tol=1e-12)
        assert result.diverged and not result.converged
        assert result.divergence == "rising gaps"
        assert result.gaps[-1] > result.gaps[0]

    def test_overflowing_iterate_is_reported_as_divergence(self):
        # the second iterate overflows: gap inf, then NaN, which never counts as rising
        g = square_grid(8)
        with np.errstate(over="ignore", invalid="ignore"):
            result = picard_solve(exploding_field(), 1.0, 3, g, seed=0, max_iter=12, tol=1e-12)
        assert result.diverged and not result.converged
        assert result.divergence == "non-finite gap"
        assert result.iterations == 2
        assert np.isfinite(result.gaps[0]) and result.gaps[1] == np.inf

    def test_rejects_zero_iterations(self):
        g = square_grid(4)
        with pytest.raises(ValueError):
            picard_solve(mean_reversion_field(1.0, (0.5, 0.5)), 0.0, 2, g, 0, max_iter=0, tol=1e-6)

    @pytest.mark.parametrize(
        "co, M, message",
        [
            (constant_field(0.0, [1.0]), 2, "m >= 2"),
            (mean_reversion_field(1.0, (0.5, 0.5)), 0, "at least one particle"),
        ],
    )
    def test_rejects_what_the_direct_solver_rejects(self, co, M, message):
        g = square_grid(4)
        with pytest.raises(ValueError, match=message):
            solve_conditional_mkv(co, 0.0, M, g, seed=0)
        with pytest.raises(ValueError, match=message):
            picard_solve(co, 0.0, M, g, 0, max_iter=3, tol=1e-6)


class TestRadiusReport:
    def test_thresholds_scale_with_the_constant(self):
        g = square_grid(4)  # horizon area 1
        rep = convergence_radius_report(mean_reversion_field(0.25 * np.sqrt(R0), (0.5, 0.5)), g)
        assert rep.area == pytest.approx(1.0)
        assert rep.r0 == pytest.approx(R0, abs=1e-9)
        # K = 0.5 sqrt(r0): thresholds at 2 and r0 / (0.5 sqrt(r0)) > 1
        assert rep.picard_threshold == pytest.approx(2.0, abs=1e-9)
        assert rep.picard_ok and rep.gronwall_ok

    def test_flags_flip_outside_the_radius(self):
        g = square_grid(4)
        rep = convergence_radius_report(mean_reversion_field(0.65 * np.sqrt(R0), (0.5, 0.5)), g)
        assert not rep.picard_ok  # K|z| = 1.3 sqrt(r0) > sqrt(r0)
        assert not rep.gronwall_ok  # 1.3 sqrt(r0) > r0 since sqrt(r0) > r0/1.3

    def test_zero_constant_is_always_inside(self):
        g = square_grid(4)
        rep = convergence_radius_report(mean_reversion_field(0.0, (0.5, 0.5)), g)
        assert np.isinf(rep.picard_threshold) and rep.picard_ok and rep.gronwall_ok

    def test_needs_a_declared_constant(self):
        with pytest.raises(ValueError):
            convergence_radius_report(constant_field(1.0, [1.0]), square_grid(4))
