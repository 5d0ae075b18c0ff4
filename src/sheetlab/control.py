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
where the dynamics evaluated their coefficients — and ``_control``, the one
reader of the rule, reads u for both on the same node measures and windows
common_values[: i + 1, : j + 1], sliced from one read-only array when the rule
is called, so the cost sees exactly the controls that drove the particles.  A
row's running costs are checked at once.  On a single ensemble the two routes
are the same sum in a different order; their equality across *independent*
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
from .plane import Grid, Point, _require_count, _require_finite, _require_number
from .rng import DOMAIN_CONTROL
from .solver import (
    CoefficientField,
    ParticleEnsemble,
    _check_shapes,
    _constant_diffusion,
    _node_measures,
    _replicate_increments,
    solve_conditional_mkv,
)

__all__ = [
    "ControlPolicy",
    "ControlledCoefficients",
    "CostSpec",
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
    drift: object
    diffusion: object

    def __post_init__(self):
        _require_count(1, n=self.n)
        _require_count(2, reason="need m >= 2, a common and an own channel", m=self.m)


@dataclass(frozen=True)
class CostSpec:
    """running(z, y, u) -> (B,), terminal(y) -> (B,), with the horizon frozen in."""

    running: object
    terminal: object
    horizon: Point


def _control(policy: ControlPolicy, observed: np.ndarray, grid: Grid):
    """control(z, mu): the policy's control vector at node z, a 1-D float64
    array.  The one caller of the rule, which it hands the read-only window
    of the common channel's node values ``observed`` (nt+1, nx+1) on R_z,
    sliced where it is read.  A u that is already a 1-D float64 ndarray is
    returned as it is, which is what the conversion would return."""
    rule = policy.rule
    observed = observed.view()
    observed.setflags(write=False)
    dt, dx = grid.dt, grid.dx
    float64 = np.dtype(float)

    def control(z, mu):
        window = observed[: round(z.t / dt) + 1, : round(z.x / dx) + 1]
        u = rule(z, window, mu)
        if type(u) is np.ndarray and u.ndim == 1 and u.dtype is float64:
            return u
        return np.atleast_1d(np.asarray(u, dtype=float))

    return control


def _curry(controlled: ControlledCoefficients, control) -> CoefficientField:
    """Close the control slot: an ordinary coefficient field driven by ``control``."""

    def drift(z, y, mu):
        return controlled.drift(z, y, mu, control(z, mu))

    def diffusion(z, y, mu):
        return controlled.diffusion(z, y, mu, control(z, mu))

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
    control,
    cost: CostSpec,
    route: str,
) -> float:
    """One replicate's cost on the solved ensemble, read along the solver's one
    node pass (:func:`solver._node_measures`): the same node measures and
    Points its coefficient pass builds, with the ``control`` that drove it.

    The running costs fill an (nt, nx, M) table, one checked row per grid
    row, reduced once per route:
    direct sums each particle's column over the nodes in row-major order,
    measure-based sums the nodes' particle means in the same order.  Both
    sums run in order through ``np.cumsum`` (``np.add.reduce`` sums a lone
    particle's column pairwise), so they add what the per-node accumulation
    added, in its order.
    """
    grid = ensemble.grid
    dtdx = grid.dt * grid.dx
    M = ensemble.particles
    ell = np.empty((grid.nt, grid.nx, M))
    for i, nodes in enumerate(_node_measures(ensemble.values, grid, grid.nt, grid.nx)):
        costs = [cost.running(z, mu.samples, control(z, mu)) for z, mu in nodes]
        ell[i] = _check_shapes("running", costs, (grid.nx, M))
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

    Replicates run on the outside: each replicate's noise and common-channel
    node values are built once and shared by every policy, and only one
    replicate's noise is held at a time.
    """
    if route not in ("direct", "measure"):
        raise ValueError(f"route must be 'direct' or 'measure', got {route!r}")
    _require_count(2, replicates=replicates)
    _require_count(1, M=M)
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
        observed = _node_values(common)
        for policy, policy_values in zip(policies, values):
            control = _control(policy, observed, grid)
            ensemble = solve_conditional_mkv(
                _curry(controlled, control), y0, M, grid, seed, common_increments=common, idio_increments=idio
            )
            policy_values[rep] = _replicate_cost(ensemble, control, cost, route)
    return values


def _estimate(policy: ControlPolicy, values: np.ndarray, route: str) -> PerformanceEstimate:
    return PerformanceEstimate(
        theta=policy.theta,
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(len(values))),
        replicate_values=values,
        route=route,
    )


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
    (values,) = _replicate_values([policy], controlled, cost, y0, M, grid, replicates, seed, "direct")
    return _estimate(policy, values, "direct")


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
    (values,) = _replicate_values([policy], controlled, cost, y0, M, grid, replicates, seed, "measure")
    return _estimate(policy, values, "measure")


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
    _require_number(theta=theta)
    # a 0-d float64 array: a Python float would be converted on every call
    gain = np.asarray(theta, dtype=float)

    def rule(z, common, mu):
        return gain * mu.sample_mean

    return ControlPolicy(theta=theta, rule=rule)


def controlled_linear_field(
    drift_gain: float = -1.0,
    control_gain: float = 1.0,
    sigma: tuple = (0.5, 0.5),
) -> ControlledCoefficients:
    """Scalar controlled dynamics alpha = gain*y + control, beta constant."""
    sigma_arr = np.asarray(sigma, dtype=float).reshape(1, -1)
    if sigma_arr.shape[1] < 2:
        raise ValueError(f"sigma needs a common and an own channel, got m={sigma_arr.shape[1]}")
    _require_number(drift_gain=drift_gain, control_gain=control_gain)
    _require_finite(sigma=sigma_arr)
    # 0-d float64 arrays: Python floats would be converted on every call
    gain_y, gain_u = np.asarray(drift_gain, dtype=float), np.asarray(control_gain, dtype=float)

    def drift(z, y, mu, u):
        return gain_y * y + gain_u * u[None, :]

    return ControlledCoefficients(
        n=1, m=sigma_arr.shape[1], drift=drift, diffusion=_constant_diffusion(sigma_arr)
    )


def lq_cost(
    horizon: Point,
    state_weight: float = 1.0,
    control_weight: float = 1.0,
    terminal_weight: float = 1.0,
    target: float = 0.0,
) -> CostSpec:
    """Reward form of the quadratic tracking cost (maximized, hence negated)."""
    _require_number(state_weight=state_weight, control_weight=control_weight, terminal_weight=terminal_weight)
    _require_finite(target=target)
    # float64 arrays for the constants that meet an array: Python floats
    # would be converted on every call
    weight, aim = np.asarray(state_weight, dtype=float), np.asarray(target, dtype=float)

    def running(z, y, u):
        out = np.add.reduce((y - aim) ** 2, axis=-1)
        out *= weight
        out += control_weight * float(np.add.reduce(u**2, axis=None))
        return -out

    def terminal(y):
        return -terminal_weight * np.sum((y - aim) ** 2, axis=-1)

    return CostSpec(running=running, terminal=terminal, horizon=horizon)
