"""Open-loop-in-the-measure control under partial observation on the plane.

The controller observes only the common channel B1 (and therefore the
conditional law mu of the state given that channel); the idiosyncratic
channels stay hidden.  A policy maps (z, observed common path on R_z,
conditional measure) to a control u, which enters the coefficients through
the extended signature drift(z, y, mu, u) / diffusion(z, y, mu, u).  Currying
a policy into a controlled coefficient field yields an ordinary coefficient
field, so the uncontrolled conditional mean-field solver is reused unchanged.

Two routes to the same performance number:

  direct        J  = E[ mean_p ( int ell(z, Y_p, u) dz + k(Y_p(horizon)) ) ]
  measure-based J~ = E[ int <mu_z, ell(z, ., u)> dz + <mu_horizon, k> ]

Both integrate the running cost over cells at lower corners — the same nodes
where the dynamics evaluated their coefficients, so the cost sees exactly the
controls that drove the particles.  On a single ensemble the two routes are
the same sum in a different order; their equality across *independent*
ensembles (each route gets its own seed) is the substantive check that the
control problem is well-posed on the measure: the verdict compares the gap
against combined Monte Carlo error.

Replicate noise lives in its own substream domain, keyed by replicate index,
so scanning policies at a fixed seed reuses common random numbers — policy
comparisons are paired, which is what makes small performance gaps
resolvable.  Tie-breaks in the scan go to the earliest policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import _node_values
from .plane import Grid, Point
from .rng import DOMAIN_CONTROL
from .solver import (
    CoefficientField,
    ParticleEnsemble,
    _node_measures,
    _replicate_increments,
    solve_conditional_mkv,
)

__all__ = [
    "ControlPolicy",
    "ControlledCoefficients",
    "CostSpec",
    "curry_policy",
    "PerformanceEstimate",
    "performance_direct",
    "performance_measure_based",
    "GridSearchResult",
    "grid_search",
    "mean_feedback_policy",
    "controlled_linear_field",
    "lq_cost",
]


@dataclass(frozen=True)
class ControlPolicy:
    """theta labels the policy; rule(z, common_view, mu) -> control vector.

    ``common_view`` is the read-only restriction of the common-channel node
    values to R_z (shape (i+1, j+1) at node (i, j)) — the policy's entire
    observation.  ``mu`` is the conditional-law estimate at z, itself a
    functional of the same observation.
    """

    theta: float
    rule: object


@dataclass(frozen=True)
class ControlledCoefficients:
    """Coefficient maps with a control slot: drift(z, y, mu, u) -> (B, n), etc."""

    n: int
    m: int
    d: int
    drift: object
    diffusion: object

    def __post_init__(self):
        if self.n < 1 or self.m < 2 or self.d < 1:
            raise ValueError(
                f"need n >= 1, m >= 2 (one common channel), d >= 1; "
                f"got n={self.n}, m={self.m}, d={self.d}"
            )


@dataclass(frozen=True)
class CostSpec:
    """running(z, y, u) -> (B,), terminal(y) -> (B,), with the horizon frozen in."""

    running: object
    terminal: object
    horizon: Point


def _observation_views(common_values: np.ndarray, grid: Grid) -> dict:
    """The read-only views common_values[: i + 1, : j + 1] of every node (i, j),
    keyed by the node's coordinates (i * dt, j * dx)."""
    observed = common_values.view()
    observed.setflags(write=False)
    dt, dx = grid.dt, grid.dx
    return {
        (i * dt, j * dx): observed[: i + 1, : j + 1]
        for i in range(grid.nt + 1)
        for j in range(grid.nx + 1)
    }


def curry_policy(
    controlled: ControlledCoefficients,
    policy: ControlPolicy,
    common_values: np.ndarray,
    grid: Grid,
) -> CoefficientField:
    """Close the control slot: an ordinary coefficient field driven by the policy."""
    return _curry(controlled, policy, _observation_views(common_values, grid), grid)


def _curry(controlled: ControlledCoefficients, policy: ControlPolicy, views: dict, grid: Grid):
    """:func:`curry_policy` on prebuilt :func:`_observation_views`.

    A node Point built from the grid finds its view by its coordinates; any
    other z goes through ``grid.node_index``, which rejects off-node points.
    """
    rule = policy.rule

    def observe(z, mu):
        view = views.get((z.t, z.x))
        if view is None:
            i, j = grid.node_index(z)
            view = views[i * grid.dt, j * grid.dx]
        return np.atleast_1d(np.asarray(rule(z, view, mu), dtype=float))

    def drift(z, y, mu):
        return controlled.drift(z, y, mu, observe(z, mu))

    def diffusion(z, y, mu):
        return controlled.diffusion(z, y, mu, observe(z, mu))

    return CoefficientField(
        n=controlled.n, m=controlled.m, drift=drift, diffusion=diffusion, depends_on_measure=True
    )


@dataclass(frozen=True, eq=False)
class PerformanceEstimate:
    theta: float
    value: float
    stderr: float
    replicate_values: np.ndarray
    route: str


def _replicate_cost(
    ensemble: ParticleEnsemble,
    policy: ControlPolicy,
    cost: CostSpec,
    views: dict,
    route: str,
) -> float:
    """One replicate's cost on the solved ensemble, read along the solver's one
    node pass (:func:`solver._node_measures`): the same node measures and
    Points its coefficient pass builds, with the observation ``views``.

    The running costs fill an (nt, nx, M) table, reduced once per route:
    direct sums each particle's column over the nodes in row-major order,
    measure-based sums the nodes' particle means in the same order.  Both
    sums run in order through ``np.cumsum`` (``np.add.reduce`` sums a lone
    particle's column pairwise), so they add what the per-node accumulation
    added, in its order.
    """
    grid = ensemble.grid
    dtdx = grid.dt * grid.dx
    M = ensemble.particles
    rule, running = policy.rule, cost.running
    ell = np.empty((grid.nt, grid.nx, M))
    for i, nodes in enumerate(_node_measures(ensemble.values, grid, grid.nt, grid.nx)):
        for j, (z, mu) in enumerate(nodes):
            u = np.atleast_1d(np.asarray(rule(z, views[z.t, z.x], mu), dtype=float))
            ell[i, j] = running(z, mu.samples, u)
    terminal = np.asarray(cost.terminal(ensemble.values[:, -1, -1, :]), dtype=float)
    if route == "direct":
        per_particle = np.cumsum((ell * dtdx).reshape(-1, M), axis=0)[-1]
        return float((per_particle + terminal).mean())
    node_means = np.add.reduce(ell, axis=-1) / M
    return float(np.cumsum(node_means * dtdx)[-1]) + float(terminal.mean())


def _replicate_values(
    policies: list,
    controlled: ControlledCoefficients,
    cost: CostSpec,
    y0,
    M: int,
    grid: Grid,
    replicates: int,
    seed: int,
    route: str,
) -> list:
    """Each policy's (replicates,) values on common random numbers.

    Replicates run on the outside: each replicate's noise, node values and
    observation views are built once and shared by every policy, and only one
    replicate's noise is held at a time.
    """
    if route not in ("direct", "measure"):
        raise ValueError(f"route must be 'direct' or 'measure', got {route!r}")
    if replicates < 2:
        raise ValueError(f"need at least two replicates, got {replicates}")
    if not (
        np.isclose(float(cost.horizon.t), float(grid.horizon.t))
        and np.isclose(float(cost.horizon.x), float(grid.horizon.x))
    ):
        raise ValueError(
            f"cost horizon {(cost.horizon.t, cost.horizon.x)} is not the grid horizon"
        )
    values = [np.empty(replicates) for _ in policies]
    for rep in range(replicates):
        common, idio = _replicate_increments(DOMAIN_CONTROL, grid, controlled.m, M, seed, rep)
        views = _observation_views(_node_values(common), grid)
        for policy, policy_values in zip(policies, values):
            coeffs = _curry(controlled, policy, views, grid)
            ensemble = solve_conditional_mkv(
                coeffs, y0, M, grid, seed, common_increments=common, idio_increments=idio
            )
            policy_values[rep] = _replicate_cost(ensemble, policy, cost, views, route)
    return values


def _estimate(policy: ControlPolicy, values: np.ndarray, route: str) -> PerformanceEstimate:
    return PerformanceEstimate(
        theta=policy.theta,
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(len(values))),
        replicate_values=values,
        route=route,
    )


def _performance(
    policy: ControlPolicy,
    controlled: ControlledCoefficients,
    cost: CostSpec,
    y0,
    M: int,
    grid: Grid,
    replicates: int,
    seed: int,
    route: str,
) -> PerformanceEstimate:
    (values,) = _replicate_values([policy], controlled, cost, y0, M, grid, replicates, seed, route)
    return _estimate(policy, values, route)


def performance_direct(
    policy: ControlPolicy,
    controlled: ControlledCoefficients,
    cost: CostSpec,
    y0,
    M: int,
    grid: Grid,
    replicates: int,
    seed: int,
) -> PerformanceEstimate:
    """J: average over particles of pathwise running-plus-terminal cost."""
    return _performance(policy, controlled, cost, y0, M, grid, replicates, seed, "direct")


def performance_measure_based(
    policy: ControlPolicy,
    controlled: ControlledCoefficients,
    cost: CostSpec,
    y0,
    M: int,
    grid: Grid,
    replicates: int,
    seed: int,
) -> PerformanceEstimate:
    """J~: cost integrated against the conditional empirical measures."""
    return _performance(policy, controlled, cost, y0, M, grid, replicates, seed, "measure")


@dataclass(frozen=True, eq=False)
class GridSearchResult:
    best_index: int
    best_policy: ControlPolicy
    table: list


def grid_search(
    policies: list,
    controlled: ControlledCoefficients,
    cost: CostSpec,
    y0,
    M: int,
    grid: Grid,
    replicates: int,
    seed: int,
    route: str = "direct",
) -> GridSearchResult:
    """Evaluate every policy on common random numbers; earliest argmax wins.

    Each replicate's noise is drawn once per scan and shared by the policies.
    """
    if not policies:
        raise ValueError("need at least one policy")
    values = _replicate_values(policies, controlled, cost, y0, M, grid, replicates, seed, route)
    table = [_estimate(p, v, route) for p, v in zip(policies, values)]
    best = int(np.argmax([est.value for est in table]))
    return GridSearchResult(best_index=best, best_policy=policies[best], table=table)


# --------------------------------------------------------------------------
# stock policies, dynamics, and costs


def mean_feedback_policy(theta: float) -> ControlPolicy:
    """u = theta * mean of the conditional measure (componentwise).

    The mean is ``mu.sample_mean``, which the measures of the solver and the
    cost pass carry from one reduction per grid row.
    """

    def rule(z, common, mu):
        return theta * mu.sample_mean

    return ControlPolicy(theta=theta, rule=rule)


def controlled_linear_field(
    drift_gain: float = -1.0,
    control_gain: float = 1.0,
    sigma: tuple = (0.5, 0.5),
) -> ControlledCoefficients:
    """Scalar controlled dynamics alpha = gain*y + control, beta constant."""
    sigma_arr = np.asarray(sigma, dtype=float).reshape(1, 1, -1)
    betas = {}  # batch size -> read-only broadcast view of sigma

    def drift(z, y, mu, u):
        return drift_gain * y + control_gain * u[None, :]

    def diffusion(z, y, mu, u):
        beta = betas.get(y.shape[0])
        if beta is None:
            beta = betas[y.shape[0]] = np.broadcast_to(sigma_arr, (y.shape[0], 1, sigma_arr.shape[-1]))
        return beta

    return ControlledCoefficients(
        n=1, m=sigma_arr.shape[-1], d=1, drift=drift, diffusion=diffusion
    )


def lq_cost(
    horizon: Point,
    state_weight: float = 1.0,
    control_weight: float = 1.0,
    terminal_weight: float = 1.0,
    target: float = 0.0,
) -> CostSpec:
    """Reward form of the quadratic tracking cost (maximized, hence negated)."""

    def running(z, y, u):
        return -(
            state_weight * np.add.reduce((y - target) ** 2, axis=-1)
            + control_weight * float(np.add.reduce(u**2, axis=None))
        )

    def terminal(y):
        return -terminal_weight * np.sum((y - target) ** 2, axis=-1)

    return CostSpec(running=running, terminal=terminal, horizon=horizon)
