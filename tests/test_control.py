"""Policies observing the common channel: two cost routes and policy search."""

from unittest import mock

import numpy as np
import pytest

from sheetlab import (
    ControlledCoefficients,
    ControlPolicy,
    CostSpec,
    EmpiricalMeasure,
    Grid,
    Point,
    controlled_linear_field,
    grid_search,
    lq_cost,
    mean_feedback_policy,
    performance_direct,
    performance_measure_based,
)
from sheetlab.cli import EXPERIMENTS, _control_instance
from sheetlab.control import _control, _curry
from sheetlab.noise import _node_values
from sheetlab.rng import DOMAIN_CONTROL
from sheetlab.solver import _node_measures, _replicate_increments

from oracles import goursat_mean, lq_value, recursion_variance


ZERO_POLICY = ControlPolicy(theta=0.0, rule=lambda z, common, mu: np.zeros(1))


def square_grid(k):
    return Grid(horizon=Point(1.0, 1.0), nt=k, nx=k)


def instance(k=8):
    g = square_grid(k)
    controlled = controlled_linear_field(drift_gain=-1.0, control_gain=1.0, sigma=(0.5, 0.5))
    cost = lq_cost(g.horizon, state_weight=1.0, control_weight=0.25, terminal_weight=1.0)
    return g, controlled, cost


class TestBuildingBlocks:
    def test_controlled_field_shape_validation(self):
        with pytest.raises(ValueError):
            ControlledCoefficients(n=1, m=1, drift=None, diffusion=None)
        with pytest.raises(ValueError):
            ControlledCoefficients(n=0, m=2, drift=None, diffusion=None)

    @pytest.mark.parametrize(
        "factory, name",
        [
            (lambda v: controlled_linear_field(drift_gain=v), "drift_gain"),
            (lambda v: controlled_linear_field(control_gain=v), "control_gain"),
            (lambda v: controlled_linear_field(sigma=(0.5, v)), "sigma"),
            (lambda v: mean_feedback_policy(v), "theta"),
            (lambda v: lq_cost(Point(1.0, 1.0), state_weight=v), "state_weight"),
            (lambda v: lq_cost(Point(1.0, 1.0), control_weight=v), "control_weight"),
            (lambda v: lq_cost(Point(1.0, 1.0), terminal_weight=v), "terminal_weight"),
            (lambda v: lq_cost(Point(1.0, 1.0), target=v), "target"),
        ],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stock_factories_name_an_argument_that_is_not_finite(self, factory, name, value):
        with pytest.raises(ValueError, match=name):
            factory(value)

    @pytest.mark.parametrize("sigma", [(0.5,), ()])
    def test_linear_field_names_a_sigma_without_an_own_channel(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            controlled_linear_field(sigma=sigma)

    def test_controlled_field_has_no_control_dimension(self):
        # the control's length is whatever the policy returns; nothing declares it
        with pytest.raises(TypeError):
            ControlledCoefficients(n=1, m=2, d=5, drift=None, diffusion=None)

    def test_linear_field_drift_and_diffusion(self):
        field = controlled_linear_field(drift_gain=-2.0, control_gain=3.0, sigma=(0.4, 0.1))
        y = np.array([[1.0], [2.0]])
        u = np.array([0.5])
        drift = field.drift(Point(0.0, 0.0), y, None, u)
        np.testing.assert_allclose(drift, [[-2.0 + 1.5], [-4.0 + 1.5]])
        diff = field.diffusion(Point(0.0, 0.0), y, None, u)
        assert diff.shape == (2, 1, 2)
        np.testing.assert_allclose(diff[0, 0], [0.4, 0.1])

    def test_lq_cost_is_a_reward(self):
        cost = lq_cost(Point(1.0, 1.0), state_weight=2.0, control_weight=0.5,
                       terminal_weight=3.0, target=1.0)
        y = np.array([[2.0]])
        u = np.array([0.4])
        # running = -(sw (y-target)^2 + cw |u|^2)
        np.testing.assert_allclose(cost.running(Point(0.0, 0.0), y, u), [-(2.0 + 0.5 * 0.16)])
        np.testing.assert_allclose(cost.terminal(y), [-3.0])

    def test_policy_rules(self):
        mu = EmpiricalMeasure(samples=np.array([[1.0], [3.0]]))
        pol = mean_feedback_policy(0.5)
        np.testing.assert_allclose(pol.rule(Point(0.0, 0.0), None, mu), [1.0])


class TestStockCallbacks:
    @pytest.mark.parametrize("M", [1, 2, 7, 1000])
    @pytest.mark.parametrize("n", [1, 3])
    def test_stock_callbacks_match_their_former_expressions_bit_for_bit(self, M, n):
        rng = np.random.default_rng(10 * M + n)
        theta, sw, cw, target = -0.7, 1.3, 0.25, 0.4
        s = rng.normal(size=(M, n)) * 3.0
        y = rng.normal(size=(M, n))
        u = rng.normal(size=n)
        # a measure as a user builds it, and one as the solver's node pass
        # builds it on node-major states (1, 2, M, n)
        values = np.stack([s, -2.0 * s])[None].transpose(2, 0, 1, 3)
        (nodes,) = _node_measures(values, square_grid(2), 1, 2)
        row = [mu for _, mu in nodes]
        z = Point(0.25, 0.5)
        for mu in (EmpiricalMeasure(s), row[0]):
            assert np.array_equal(mean_feedback_policy(theta).rule(z, None, mu), theta * s.mean(0))
        doubled = mean_feedback_policy(theta).rule(z, None, row[1])
        assert np.array_equal(doubled, theta * (-2.0 * s).mean(0))
        mu = row[0]
        running = lq_cost(Point(1.0, 1.0), sw, cw, 1.0, target).running(z, y, u)
        former = -(sw * np.sum((y - target) ** 2, axis=-1) + cw * float(np.sum(u**2)))
        assert np.array_equal(running, former)
        field = controlled_linear_field(-1.2, 0.8, sigma=(0.5, 0.3, 0.1))
        y1, u1 = y[:, :1], u[:1]
        assert np.array_equal(field.drift(z, y1, mu, u1), -1.2 * y1 + 0.8 * u1[None, :])
        for batch in (y1, y1[:1], y1):
            beta = field.diffusion(z, batch, mu, u1)
            assert np.array_equal(beta, np.broadcast_to([[[0.5, 0.3, 0.1]]], (batch.shape[0], 1, 3)))
            assert not beta.flags.writeable


class TestCurriedObservation:
    def test_performance_policy_sees_exactly_its_read_only_rectangle(self):
        g, controlled, cost = instance(4)
        seen = []

        def probe_rule(z, common, mu):
            seen.append((g.node_index(z), common))
            return np.zeros(1)

        policy = ControlPolicy(theta=0.0, rule=probe_rule)
        performance_direct(policy, controlled, cost, 1.0, 3, g, replicates=2, seed=4)
        assert len(seen) == 2 * 3 * g.nt * g.nx  # drift, diffusion and cost at every node
        per_replicate = len(seen) // 2
        for rep in range(2):
            common, _ = _replicate_increments(DOMAIN_CONTROL, g, controlled.m, 3, 4, rep)
            common_values = _node_values(common)
            for (i, j), view in seen[rep * per_replicate : (rep + 1) * per_replicate]:
                assert view.shape == (i + 1, j + 1)
                assert np.array_equal(view, common_values[: i + 1, : j + 1])
                assert not view.flags.writeable

    @pytest.mark.parametrize(
        "wrap",
        [float, int, lambda v: [v], np.array, lambda v: np.array([v])],
        ids=["float", "int", "list", "0-d", "int-(1,)"],
    )
    def test_a_rule_may_return_a_number_or_a_length_one_sequence(self, wrap):
        # the control reads u as a 1-D float64 array, whatever the rule returns
        g, controlled, cost = instance(4)
        values = [
            performance_direct(
                ControlPolicy(theta=0.0, rule=lambda z, common, mu, f=f: f(-2)), controlled, cost, 1.0, 3, g, 2, 4
            ).replicate_values
            for f in (wrap, lambda v: np.array([v], float))
        ]
        assert np.array_equal(values[0], values[1])

    def test_a_ready_control_is_passed_on_as_it_is(self):
        g = square_grid(2)
        for u in (np.array([0.5, -1.0]), np.array([0.5], dtype=np.float32), np.array(0.5)):
            control = _control(ControlPolicy(theta=0.0, rule=lambda z, common, mu: u), np.zeros((3, 3)), g)
            got = control(Point(0.0, 0.0), None)
            ready = u.dtype == np.float64 and u.ndim == 1
            assert (got is u) == ready
            assert got.dtype == np.float64 and got.ndim == 1 and np.array_equal(got, u.ravel())

    def test_curried_field_declares_measure_dependence(self):
        g, controlled, _ = instance(4)
        coeffs = _curry(controlled, _control(ZERO_POLICY, np.zeros((5, 5)), g))
        assert coeffs.depends_on_measure
        assert coeffs.n == controlled.n and coeffs.m == controlled.m


class TestTwoRoutes:
    def test_single_particle_routes_agree_exactly(self):
        # M = 1: the empirical measure is the particle, so averaging the
        # running cost over particles and integrating it against the measure
        # are the same sum in a different order
        g, controlled, cost = instance(8)
        pol = mean_feedback_policy(-0.5)
        d = performance_direct(pol, controlled, cost, 2.0, 1, g, replicates=4, seed=0)
        m = performance_measure_based(pol, controlled, cost, 2.0, 1, g, replicates=4, seed=0)
        assert d.value == pytest.approx(m.value, abs=1e-12)
        np.testing.assert_allclose(d.replicate_values, m.replicate_values, atol=1e-12)

    def test_routes_agree_within_monte_carlo_error(self):
        g, controlled, cost = instance(8)
        pol = mean_feedback_policy(-0.5)
        d = performance_direct(pol, controlled, cost, 2.0, 16, g, replicates=6, seed=0)
        m = performance_measure_based(pol, controlled, cost, 2.0, 16, g, replicates=6, seed=1)
        gap = abs(d.value - m.value)
        assert gap <= 4.0 * float(np.hypot(d.stderr, m.stderr))

    def test_replicates_use_common_random_numbers(self):
        g, controlled, cost = instance(4)
        pol = ZERO_POLICY
        a = performance_direct(pol, controlled, cost, 1.0, 2, g, replicates=3, seed=5)
        b = performance_direct(pol, controlled, cost, 1.0, 2, g, replicates=3, seed=5)
        np.testing.assert_array_equal(a.replicate_values, b.replicate_values)

    def test_cost_horizon_must_match_grid(self):
        g, controlled, _ = instance(4)
        bad_cost = lq_cost(Point(0.5, 1.0))
        with pytest.raises(ValueError):
            performance_direct(mean_feedback_policy(0.0), controlled, bad_cost, 1.0, 2, g, 2, 0)

    @pytest.mark.parametrize("returns", ["a scalar", "one cost too many"])
    def test_a_bad_row_of_running_costs_names_running(self, returns):
        g, controlled, cost = instance(4)

        def running(z, y, u):
            out = cost.running(z, y, u)
            return float(out[0]) if returns == "a scalar" else np.append(out, 0.0)

        bad = CostSpec(running=running, terminal=cost.terminal, horizon=cost.horizon)
        with pytest.raises(ValueError, match="running"):
            performance_direct(mean_feedback_policy(0.0), controlled, bad, 1.0, 2, g, 2, 0)

    def test_needs_two_replicates(self):
        g, controlled, cost = instance(4)
        with pytest.raises(ValueError):
            performance_direct(mean_feedback_policy(0.0), controlled, cost, 1.0, 2, g, 1, 0)


class TestGridSearch:
    def test_first_argmax_wins_ties(self):
        g, controlled, cost = instance(4)
        same = [mean_feedback_policy(0.3), mean_feedback_policy(0.3)]
        result = grid_search(same, controlled, cost, 1.0, 2, g, replicates=2, seed=0)
        assert result.best_index == 0
        assert result.table[0].value == pytest.approx(result.table[1].value, abs=1e-14)

    def test_policies_share_noise(self):
        # each replicate is drawn once per scan, and every policy's values are
        # those of its own performance_direct call, bit for bit
        g, controlled, cost = instance(4)
        policies = [mean_feedback_policy(t) for t in (-0.5, 0.0, 0.5)]
        with mock.patch("sheetlab.control._replicate_increments", wraps=_replicate_increments) as draw:
            result = grid_search(policies, controlled, cost, 1.0, 2, g, replicates=3, seed=7)
        assert [call.args[-1] for call in draw.call_args_list] == [0, 1, 2]
        for policy, est in zip(policies, result.table):
            alone = performance_direct(policy, controlled, cost, 1.0, 2, g, replicates=3, seed=7)
            np.testing.assert_array_equal(est.replicate_values, alone.replicate_values)
            assert (est.value, est.stderr) == (alone.value, alone.stderr)

    def test_empty_policy_list_rejected(self):
        g, controlled, cost = instance(4)
        with pytest.raises(ValueError):
            grid_search([], controlled, cost, 1.0, 2, g, 2, 0)

    def test_unknown_route_rejected(self):
        g, controlled, cost = instance(4)
        with pytest.raises(ValueError, match="drect"):
            grid_search([mean_feedback_policy(0.0)], controlled, cost, 1.0, 2, g, 2, 0, route="drect")

    def test_mean_reversion_beats_runaway_feedback(self):
        # strong positive feedback destabilizes the mean; the reward must
        # separate it from mild negative feedback under shared noise
        g, controlled, cost = instance(8)
        result = grid_search(
            [mean_feedback_policy(t) for t in (-0.5, 1.5)],
            controlled, cost, 2.0, 8, g, replicates=4, seed=0,
        )
        assert result.best_policy.theta == -0.5
        assert result.table[0].value > result.table[1].value


class TestExactValue:
    """The exact E[J(theta)] of the CLI's LQ instance (``oracles.lq_value``)."""

    @pytest.mark.parametrize("rate", [-1.0, 0.5])
    def test_impulse_response_variance_is_the_sum_over_cells(self, rate):
        # the shifted impulse response against one solve per source cell
        nt, nx, dtdx, cell_variance = 4, 3, 0.3, 0.7
        brute = np.zeros((nt + 1, nx + 1))
        for a in range(nt):
            for b in range(nx):
                driver = np.zeros((nt, nx))
                driver[a, b] = 1.0
                brute += goursat_mean(rate, 0.0, driver, dtdx) ** 2
        got = recursion_variance(rate, cell_variance, nt, nx, dtdx)
        np.testing.assert_allclose(got, cell_variance * brute, rtol=1e-14, atol=0)

    def test_values_on_the_policy_scan(self):
        got = [lq_value(theta, 2.0, 64, 16, 16, 1.0 / 256) for theta in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        np.testing.assert_allclose(got, [-3.1342, -2.8347, -3.2716, -5.1352, -9.5347], rtol=0, atol=5e-5)

    @pytest.mark.parametrize(
        "name, overrides", [("control-equiv", {}), ("control-search", {"reps": 4})]
    )
    def test_cli_estimates_lie_within_four_standard_errors(self, name, overrides):
        # the runs the CLI goldens record, at their fixed seeds; each row holds
        # (theta, estimate, stderr, estimate, stderr, ...)
        run, defaults = EXPERIMENTS[name]
        params = {**defaults, **overrides}
        grid = _control_instance(params)[0]
        for theta, *estimates in run(params)[1]:
            exact = lq_value(theta, params["y0"], params["M"], grid.nt, grid.nx, grid.dt * grid.dx)
            for value, stderr in zip(estimates[0:4:2], estimates[1:4:2]):
                assert abs(value - exact) <= 4.0 * stderr
