"""Property tests over random state-free affine fields, grids and seeds.

A field whose coefficients ignore the states (and the measure) is solved in
closed form; these properties pin that form against the row loop, against
the telescoping identity and, for ensembles, against each particle's own
single-path solve.  A Picard iterate, the closed form on the previous
iterate's coefficients, is pinned against the row loop on the same
coefficients, bit for bit.  The ensemble noise is pinned to nest across
particle counts, a replicate's value not to depend on which other replicates ran or
in what order, the batched Ito study to be the public chain per replicate, the
two control cost routes to agree on one seed, the Picard fixed point inside
K|z| < sqrt(r0) to be the direct conditional solve, a grid row's batched
node means to be each cloud's own mean, bit for bit, and the cloud means of
the conditional OU solves and of the controlled linear field to be the exact
oracles of ``oracles.py``, as are each particle's deviation from the mean in
both and the OU Picard gaps.  Whatever the field and K|z|, Picard iterate
min(nt, nx) is pinned to be the direct solve bit for bit, with a next gap of
0.0.  A fuzz over the arguments of the solvers, the sheet and ensemble
samplers, the stock factories and the chaos, Ito-study and control entry
points pins that each call returns or raises a ValueError naming the
argument it got wrong.
"""

import dataclasses
import functools
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sheetlab import (
    ChaosConfig,
    CoefficientField,
    ControlledCoefficients,
    EmpiricalMeasure,
    FrequencyGrid,
    Grid,
    MQuadrature,
    Point,
    RankOneMatrix,
    TestFunction as ItoTestFunction,  # aliased so pytest does not collect it
    closed_form_solution,
    coarsen_increments,
    controlled_linear_field,
    double_ito_integral,
    convergence_radius_report,
    est_inequality_check,
    find_r0,
    ito_integral,
    ito_refinement_study,
    ito_terms,
    lemma61_scalar_check,
    lq_cost,
    matrix_power_decomposition,
    mean_feedback_policy,
    mean_reversion_field,
    performance_direct,
    performance_measure_based,
    picard_series_partial_sums,
    picard_solve,
    rect_increment,
    rect_integral,
    remainder_variance,
    sample_ensemble_increments,
    sample_replicate_increments,
    sample_sheet,
    scalar_function,
    sheet_from_increments,
    solve_conditional_mkv,
    solve_goursat,
    substream,
    verify_limit_spde,
    x_seq,
)
from sheetlab import ito_check
from sheetlab.cli import EXPERIMENTS
from sheetlab.control import _control, _curry
from sheetlab.noise import _node_values
from sheetlab.solver import _node_measures, coefficient_table

from oracles import deviations, drift_free_cloud_mean, goursat_mean, ou_picard_gaps, sheet_average

# derandomized, so the suite draws the same examples on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

COEFFICIENT = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def affine_field(a, b) -> CoefficientField:
    """alpha(z) = a[0] + t a[1] + x a[2], beta(z) = b[0] + t b[1] + x b[2];
    the maps never read y or mu."""
    n, m = b.shape[1:]

    def drift(z, y, mu):
        return a[0] + np.multiply.outer(z.t, a[1]) + np.multiply.outer(z.x, a[2])

    def diffusion(z, y, mu):
        return b[0] + np.multiply.outer(z.t, b[1]) + np.multiply.outer(z.x, b[2])

    return CoefficientField(
        n=n,
        m=m,
        drift=drift,
        diffusion=diffusion,
        depends_on_state=False,
        depends_on_measure=False,
    )


@st.composite
def problems(draw, channels=st.integers(1, 3)):
    """(field, y0, grid, seed): n in {1, 2}, nt and nx drawn apart down to 1 x 1."""
    n, m = draw(st.integers(1, 2)), draw(channels)
    a = draw(hnp.arrays(float, (3, n), elements=COEFFICIENT))
    b = draw(hnp.arrays(float, (3, n, m), elements=COEFFICIENT))
    y0 = draw(hnp.arrays(float, (n,), elements=COEFFICIENT))
    t, x = draw(st.floats(0.25, 2.0)), draw(st.floats(0.25, 2.0))
    grid = Grid(horizon=Point(t, x), nt=draw(st.integers(1, 9)), nx=draw(st.integers(1, 9)))
    return affine_field(a, b), y0, grid, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(problems())
def test_closed_form_is_the_row_loop_bit_for_bit(problem):
    field, y0, grid, seed = problem
    sheet = sample_sheet(grid, field.m, seed)
    closed = solve_goursat(field, y0, sheet, grid).values
    # the same maps declared state-dependent take the row loop
    rows = solve_goursat(dataclasses.replace(field, depends_on_state=True), y0, sheet, grid).values
    assert np.array_equal(closed, rows)


def coupled_field(K, S) -> CoefficientField:
    """drift y K^T + (mean - y) / 2, diffusion S (1 + sin(y) / 5): the maps
    read the states and the measure."""

    def drift(z, y, mu):
        return y @ K.T + 0.5 * (mu.sample_mean - y)

    def diffusion(z, y, mu):
        return S * (1.0 + 0.2 * np.sin(y))[:, :, None]

    return CoefficientField(n=K.shape[0], m=S.shape[1], drift=drift, diffusion=diffusion)


def tabled_field(alpha, beta, grid) -> CoefficientField:
    """A field that returns the tables alpha (M, nt, nx, n) and beta (M, nt,
    nx, n, m) at each node, whatever the states; declared state- and
    measure-dependent, so a direct solve takes the row loop."""

    def drift(z, y, mu):
        return alpha[(slice(None), *grid.node_index(z))]

    def diffusion(z, y, mu):
        return beta[(slice(None), *grid.node_index(z))]

    return CoefficientField(n=alpha.shape[-1], m=beta.shape[-1], drift=drift, diffusion=diffusion)


@PROPERTY
@given(
    st.integers(1, 2),
    st.integers(2, 3),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_picard_iterate_is_the_row_loop_on_its_frozen_coefficients(n, m, nt, nx, M, k, seed, data):
    # iterate k is the closed form on the coefficients of iterate k - 1; the
    # row loop, handed the same coefficients node by node, must add the same bits
    field = coupled_field(
        data.draw(hnp.arrays(float, (n, n), elements=COEFFICIENT)),
        data.draw(hnp.arrays(float, (n, m), elements=COEFFICIENT)),
    )
    y0 = data.draw(hnp.arrays(float, (n,), elements=COEFFICIENT))
    horizon = Point(data.draw(st.floats(0.25, 2.0)), data.draw(st.floats(0.25, 2.0)))
    grid = Grid(horizon=horizon, nt=nt, nx=nx)
    if k == 1:  # iterate 0, node-major as the solver holds it
        frozen = np.broadcast_to(y0, (nt + 1, nx + 1, M, n)).copy().transpose(2, 0, 1, 3)
    else:
        frozen = picard_solve(field, y0, M, grid, seed, max_iter=k - 1, tol=1e-300).ensemble.values
    iterate = picard_solve(field, y0, M, grid, seed, max_iter=k, tol=1e-300).ensemble.values
    tabled = tabled_field(*coefficient_table(field, frozen, grid, nt, nx), grid)
    assert np.array_equal(iterate, solve_conditional_mkv(tabled, y0, M, grid, seed).values)


@PROPERTY
@given(problems())
def test_closed_form_telescopes_to_the_discrete_integrals(problem):
    field, y0, grid, seed = problem
    sheet = sample_sheet(grid, field.m, seed)
    values = solve_goursat(field, y0, sheet, grid).values

    def component(fn, *index):
        return lambda z: fn(z, None, None)[(Ellipsis, *index)]

    for i in range(grid.nt + 1):
        for j in range(grid.nx + 1):
            z = Point(i * grid.dt, j * grid.dx)
            for k in range(field.n):
                want = y0[k] + rect_integral(component(field.drift, k), z, grid)
                for c in range(field.m):
                    want += ito_integral(component(field.diffusion, k, c), sheet, c, z)
                assert abs(values[i, j, k] - want) <= 1e-10


@PROPERTY
@given(problems(channels=st.integers(2, 3)), st.integers(1, 4))
def test_state_free_ensemble_is_each_particles_own_solve(problem, M):
    # the ensemble's whole-grid noise must give particle p its own channels,
    # not the last row of a reused buffer
    field, y0, grid, seed = problem
    ens = solve_conditional_mkv(field, y0, M, grid, seed)
    for p in range(M):
        own = np.concatenate([ens.common_increments[None], ens.idio_increments[p]])
        sheet = sheet_from_increments(grid, own)
        single = solve_goursat(field, y0, sheet, grid).values
        np.testing.assert_allclose(ens.values[p], single, rtol=0, atol=1e-12)


@PROPERTY
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 40),
    st.integers(2, 3),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_ensemble_noise_nests_across_particle_counts(seed, rep, m, M, extra, nt, nx):
    # the idiosyncratic noise of M particles is a prefix of that of M + extra,
    # and the common channel does not depend on M
    grid = Grid(horizon=Point(1.0, 1.0), nt=nt, nx=nx)
    for sample in (
        lambda size: sample_replicate_increments(grid, m, size, seed, rep),
        lambda size: sample_ensemble_increments(grid, m, size, seed),
    ):
        (common, idio), (common_big, idio_big) = sample(M), sample(M + extra)
        assert np.array_equal(common, common_big)
        assert np.array_equal(idio, idio_big[:M])


# the ito-refine chain: ito-check's quadratic case, additive noise on one channel
ADDITIVE = CoefficientField(
    n=1,
    m=1,
    drift=lambda z, y, mu: np.zeros_like(y),
    diffusion=lambda z, y, mu: np.ones(y.shape + (1,)),
    depends_on_state=False,
    depends_on_measure=False,
)
QUADRATIC = scalar_function(
    lambda y: y**2, lambda y: 2.0 * y, lambda y: 2.0, lambda y: 0.0, lambda y: 0.0
)


def ito_refine_replicate(grid, seed, stream):
    sheet = sample_sheet(grid, 1, seed, stream=stream)
    field = solve_goursat(ADDITIVE, 1.0, sheet, grid)
    return ito_terms(QUADRATIC, ADDITIVE, field, sheet, grid.horizon)


@PROPERTY
@given(
    st.integers(1, 12),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 200), min_size=1, max_size=6, unique=True),
    st.data(),
)
def test_ito_refine_replicate_does_not_depend_on_the_schedule(k, seed, streams, data):
    # stream r run alone, and run inside a shuffled subset of streams
    grid = Grid(horizon=Point(1.0, 1.0), nt=k, nx=k)
    order = data.draw(st.permutations(streams))
    scheduled = {r: ito_refine_replicate(grid, seed, r) for r in order}
    for r in streams:
        assert ito_refine_replicate(grid, seed, r) == scheduled[r]


def exponential(w) -> ItoTestFunction:
    """f(y) = exp(w . y): every derivative is f times a tensor power of w.  The
    dot product is summed point by point, so f's bits do not depend on the batch."""

    def derivative(order):
        def evaluate(y):
            out = np.exp(sum(y[..., k] * w[k] for k in range(w.size)))
            for _ in range(order):
                out = out[..., None] * w
            return out

        return evaluate

    return ItoTestFunction(*(derivative(order) for order in range(5)))


@st.composite
def ito_studies(draw):
    """(f, field, y0, grids, replications, seed): n in {1, 2}, m in {1, 2, 3},
    a state-free or a state-dependent measure-free field, two square grids."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    a = draw(hnp.arrays(float, (3, n), elements=COEFFICIENT))
    b = draw(hnp.arrays(float, (3, n, m), elements=COEFFICIENT))
    field = affine_field(a, b)
    if draw(st.booleans()):
        field = dataclasses.replace(
            field,
            drift=lambda z, y, mu: a[0] + a[1] * np.tanh(y),
            diffusion=lambda z, y, mu: b[0] + np.sin(y)[..., None] * b[1],
            depends_on_state=True,
        )
    w = draw(hnp.arrays(float, (n,), elements=st.floats(-1.0, 1.0)))
    y0 = draw(hnp.arrays(float, (n,), elements=COEFFICIENT))
    horizon = Point(draw(st.floats(0.25, 2.0)), draw(st.floats(0.25, 2.0)))
    ks = draw(st.lists(st.integers(1, 12), min_size=2, max_size=2))
    grids = [Grid(horizon=horizon, nt=k, nx=k) for k in ks]
    return exponential(w), field, y0, grids, draw(st.integers(2, 7)), draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(ito_studies())
def test_ito_study_is_the_public_chain_per_replicate(study):
    f, field, y0, grids, R, seed = study
    z = grids[0].horizon
    want = []
    for grid in grids:
        residuals = np.empty(R)
        for r in range(R):
            sheet = sample_sheet(grid, field.m, seed, stream=r)
            path = solve_goursat(field, y0, sheet, grid)
            residuals[r] = ito_terms(f, field, path, sheet, z).residual
        want.append((grid.nt, float(residuals.mean()), float(residuals.std(ddof=1) / np.sqrt(R))))
    # one replication per chunk; chunks of R // 2 + 1 on the finer grid, so for
    # R > 2 the last is short; the default budget, one chunk per grid here
    finest = max(grid.nt * grid.nx for grid in grids)
    for budget in (1, (R // 2 + 1) * finest, ito_check._REPLICATE_CELLS):
        with mock.patch.object(ito_check, "_REPLICATE_CELLS", budget):
            assert ito_refinement_study(f, field, y0, z, grids, R, seed).rows == want


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(2, 3),
    st.integers(1, 2),
    st.integers(1, 3),
    st.floats(-1.0, 1.0),
)
def test_performance_replicates_are_a_prefix_of_more_replicates(seed, R, extra, M, theta):
    grid = Grid(horizon=Point(1.0, 1.0), nt=3, nx=3)
    controlled = controlled_linear_field(drift_gain=-1.0, control_gain=1.0, sigma=(0.5, 0.5))
    cost = lq_cost(grid.horizon, state_weight=1.0, control_weight=0.25, terminal_weight=1.0)
    policy = mean_feedback_policy(theta)
    few, more = (
        performance_direct(policy, controlled, cost, 2.0, M, grid, reps, seed).replicate_values
        for reps in (R, R + extra)
    )
    assert np.array_equal(few, more[:R])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8),
    st.integers(2, 64),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**64 - 1),
)
def test_cost_routes_agree_on_one_seed(k, M, theta, seed):
    # on one ensemble the mean over particles of each particle's cost sum is the
    # sum over nodes of the particle means: the same sum in a different order
    grid = Grid(horizon=Point(1.0, 1.0), nt=k, nx=k)
    controlled = controlled_linear_field(drift_gain=-1.0, control_gain=1.0, sigma=(0.5, 0.5))
    cost = lq_cost(grid.horizon, state_weight=1.0, control_weight=0.25, terminal_weight=1.0)
    policy = mean_feedback_policy(theta)
    direct, measure = (
        route(policy, controlled, cost, 2.0, M, grid, 2, seed).replicate_values
        for route in (performance_direct, performance_measure_based)
    )
    np.testing.assert_allclose(direct, measure, rtol=0, atol=1e-12)


@PROPERTY
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.floats(0.25, 2.0),
    st.floats(0.25, 2.0),
    st.floats(0.01, 0.99),
    st.sampled_from([-1.0, 1.0]),
    hnp.arrays(float, st.integers(2, 3), elements=st.floats(-1.0, 1.0)),
    COEFFICIENT,
)
def test_picard_fixed_point_is_the_direct_solve(nt, nx, M, seed, t, x, share, sign, sigma, y0):
    # K = 2|rate| sits at ``share`` of the Picard threshold sqrt(r0) / |z|;
    # nt + nx iterates reach every node's dependence cone
    grid = Grid(horizon=Point(t, x), nt=nt, nx=nx)
    coeffs = mean_reversion_field(sign * share * np.sqrt(find_r0(1e-12)) / (2.0 * t * x), sigma)
    assert convergence_radius_report(coeffs, grid).picard_ok
    result = picard_solve(coeffs, y0, M, grid, seed, max_iter=nt + nx, tol=1e-12)
    assert result.converged and not result.diverged
    direct = solve_conditional_mkv(coeffs, y0, M, grid, seed)
    assert np.max(np.abs(result.ensemble.values - direct.values)) <= 1e-6


@PROPERTY
@given(
    st.integers(1, 1200),
    st.integers(1, 3),
    st.integers(1, 9),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_row_means_are_each_clouds_own_mean(M, n, cols, extra, seed):
    # node-major states (nt+1, nx+1, M, n), read as the coefficient pass reads a
    # row: nodes j < cols of row 1, with ``extra`` columns left out
    stored = np.random.default_rng(seed).normal(size=(3, cols + extra, M, n)) * 4.0
    values = stored.transpose(2, 0, 1, 3)
    row = values[:, 1, :cols].swapaxes(0, 1)
    grid = Grid(horizon=Point(1.0, 1.0), nt=2, nx=cols + extra)
    _, nodes = _node_measures(values, grid, 2, cols)
    assert len(nodes) == cols
    for j, (cloud, (z, mu)) in enumerate(zip(row, nodes)):
        assert z == Point(grid.dt, j * grid.dx)
        assert np.array_equal(mu.samples, cloud) and np.shares_memory(mu.samples, stored)
        assert np.array_equal(mu.sample_mean, np.add.reduce(cloud, axis=0) / M)
        assert not mu.sample_mean.flags.writeable
        assert np.array_equal(EmpiricalMeasure(cloud).sample_mean, cloud.mean(axis=0))


@st.composite
def ou_cases(draw):
    """(rate, sigma, y0, M, grid, seed): a rate, n in {1, 2}, m in {2, 3},
    sigma of shape (m,) or (n, m), M >= 2."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    sigma_shape = draw(st.sampled_from([(m,), (n, m)]))
    sigma = draw(hnp.arrays(float, sigma_shape, elements=COEFFICIENT))
    rate = draw(COEFFICIENT)
    y0 = draw(hnp.arrays(float, (n,), elements=COEFFICIENT))
    t, x = draw(st.floats(0.25, 2.0)), draw(st.floats(0.25, 2.0))
    grid = Grid(horizon=Point(t, x), nt=draw(st.integers(1, 8)), nx=draw(st.integers(1, 8)))
    return rate, sigma, y0, draw(st.integers(2, 40)), grid, draw(st.integers(0, 2**32 - 1))


@st.composite
def ou_problems(draw):
    """(field, sigma, y0, M, grid, seed): mean_reversion_field on an
    :func:`ou_cases` draw."""
    rate, sigma, y0, *rest = draw(ou_cases())
    return (mean_reversion_field(rate, sigma, n=len(y0)), sigma, y0, *rest)


def full_sigma(sigma, n: int) -> np.ndarray:
    """sigma (m,) or (n, m) as the (n, m) matrix the field holds."""
    return np.broadcast_to(sigma, (n, np.shape(sigma)[-1]))


@PROPERTY
@given(ou_problems(), st.integers(1, 4))
def test_ou_cloud_mean_is_the_drift_free_sheet_average(problem, iterates):
    # the drift rate * (mean - y) sums to zero over the cloud, in the direct
    # solve and in every Picard iterate, whatever the rate
    field, sigma, y0, M, grid, seed = problem
    direct = solve_conditional_mkv(field, y0, M, grid, seed)
    # a tolerance only an exact fixed point meets: the iteration runs on
    picard = picard_solve(field, y0, M, grid, seed, max_iter=iterates, tol=1e-300).ensemble
    for ens in (direct, picard):
        want = drift_free_cloud_mean(y0, sigma, ens.common_increments, ens.idio_increments)
        np.testing.assert_allclose(ens.values.mean(axis=0), want, rtol=0, atol=1e-12)


@PROPERTY
@given(ou_cases())
def test_ou_deviations_are_the_scalar_recursion_at_minus_rate(case):
    # each particle's deviation from the cloud mean is its own recursion at
    # -rate, driven by its own noise less the cloud's mean of it
    rate, sigma, y0, M, grid, seed = case
    ens = solve_conditional_mkv(mean_reversion_field(rate, sigma, n=len(y0)), y0, M, grid, seed)
    want = deviations(-rate, full_sigma(sigma, len(y0)), ens.idio_increments, grid.dt * grid.dx)
    np.testing.assert_allclose(ens.values - ens.values.mean(axis=0), want, rtol=0, atol=1e-12)


@PROPERTY
@given(ou_cases(), st.integers(1, 6))
def test_ou_picard_gaps_are_the_exact_iterate_differences(case, iterates):
    # square roots at an absolute tolerance: a tiny gap keeps few digits of
    # the difference of two iterates
    rate, sigma, y0, M, grid, seed = case
    field = mean_reversion_field(rate, sigma, n=len(y0))
    result = picard_solve(field, y0, M, grid, seed, max_iter=iterates, tol=1e-300)
    ens = result.ensemble
    sigma, dtdx = full_sigma(sigma, len(y0)), grid.dt * grid.dx
    want = ou_picard_gaps(rate, sigma, ens.common_increments, ens.idio_increments, dtdx, result.iterations)
    np.testing.assert_allclose(np.sqrt(result.gaps), np.sqrt(want), rtol=0, atol=1e-12)


def test_picard_cli_golden_gaps_are_the_exact_iterate_differences():
    golden = json.loads((Path(__file__).parent / "data" / "cli_picard_golden.json").read_text())
    assert golden["argv"] == ["picard"]
    params = EXPERIMENTS["picard"][1]
    grid = Grid(horizon=Point(1.0, 1.0), nt=params["k"], nx=params["k"])
    common, idio = sample_ensemble_increments(grid, 2, params["M"], params["seed"])
    rows = zip(golden["labels"], golden["rows"])
    recorded = [row[0] for label, row in rows if label.startswith("iteration_")]
    rate = float(golden["meta"]["rate"])
    want = ou_picard_gaps(rate, np.array([[0.5, 0.5]]), common, idio, grid.dt * grid.dx, len(recorded))
    np.testing.assert_allclose(np.sqrt(recorded), np.sqrt(want), rtol=0, atol=1e-12)


# a tolerance only a zero gap meets
EXACT = np.nextafter(0.0, 1.0)


@st.composite
def picard_problems(draw):
    """(field, y0, M, grid, seed): the OU field at a rate up to 20 in size,
    or the nonlinear, measure-dependent n = 2, m = 3 :func:`coupled_field`;
    grids up to 12 x 12; M = 1..7."""
    if draw(st.booleans(), label="ou"):
        sigma = draw(hnp.arrays(float, (2,), elements=COEFFICIENT))
        field = mean_reversion_field(draw(st.floats(-20.0, 20.0)), sigma)
    else:
        field = coupled_field(
            draw(hnp.arrays(float, (2, 2), elements=COEFFICIENT)),
            draw(hnp.arrays(float, (2, 3), elements=COEFFICIENT)),
        )
    y0 = draw(hnp.arrays(float, (field.n,), elements=COEFFICIENT))
    horizon = Point(draw(st.floats(0.25, 2.0)), draw(st.floats(0.25, 2.0)))
    grid = Grid(horizon, draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return field, y0, draw(st.integers(1, 7)), grid, draw(st.integers(0, 2**32 - 1))


def assert_picard_reaches_the_direct_solve(field, y0, M, grid, seed):
    """A node's update reads only cells strictly below and to the left of
    it, so iterate min(nt, nx) is the direct solve, bit for bit, whatever
    the field and K|z|, and the next gap is 0.0."""
    result = picard_solve(field, y0, M, grid, seed, max_iter=min(grid.nt, grid.nx) + 1, tol=EXACT)
    assert result.converged and not result.diverged and result.gaps[-1] == 0.0
    assert np.array_equal(result.ensemble.values, solve_conditional_mkv(field, y0, M, grid, seed).values)


NAMED_PICARD_FIELDS = {
    "ou-3": (mean_reversion_field(3.0, (0.5, 0.5)), 1.0),
    "ou-20": (mean_reversion_field(20.0, (0.5, 0.5)), 1.0),
    "coupled": (
        coupled_field(np.array([[0.5, -1.0], [1.5, 0.3]]), np.array([[0.4, 0.3, -0.2], [0.1, 0.5, 0.3]])),
        (0.5, -1.0),
    ),
}


# the derandomized draws sit mostly on 1 x 1 and 1 x 5 grids and on M = 1,
# where the OU drift vanishes: the examples add the OU field on 12 x 12 at M = 7
# and coupled_field on 9 x 6 at M = 4
@PROPERTY
@given(picard_problems())
@example((*NAMED_PICARD_FIELDS["ou-3"], 7, Grid(Point(1.5, 0.75), 12, 12), 11))
@example((*NAMED_PICARD_FIELDS["coupled"], 4, Grid(Point(0.8, 1.25), 9, 6), 12))
def test_picard_reaches_the_direct_solve_in_min_nt_nx_iterates(problem):
    assert_picard_reaches_the_direct_solve(*problem)


@pytest.mark.parametrize("name", sorted(NAMED_PICARD_FIELDS))
@pytest.mark.parametrize("M", [1, 4, 7])
@pytest.mark.parametrize("shape", [(1, 5), (6, 9), (9, 6), (12, 12)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_picard_reaches_the_direct_solve_on_named_grids(name, M, shape):
    field, y0 = NAMED_PICARD_FIELDS[name]
    assert_picard_reaches_the_direct_solve(field, y0, M, Grid(Point(1.0, 1.0), *shape), seed=M)


def test_picard_far_outside_the_contraction_radius_is_exact_after_16_iterates():
    # K|z| = 40 against sqrt(r0) ~ 1.2: the gaps rise at first, but the OU
    # drift vanishes at y0, so iterate 15 is already the direct solve
    field, grid = mean_reversion_field(20.0, (0.5, 0.5)), Grid(Point(1.0, 1.0), 16, 16)
    assert not convergence_radius_report(field, grid).picard_ok
    result = picard_solve(field, 1.0, 8, grid, 0, max_iter=17, tol=EXACT)
    assert result.converged and not result.diverged
    assert result.iterations == 16 and result.gaps[-1] == 0.0
    assert np.array_equal(result.ensemble.values, solve_conditional_mkv(field, 1.0, 8, grid, 0).values)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(2, 64),
    st.floats(-1.0, 1.0),
    COEFFICIENT,
    st.integers(0, 2**32 - 1),
)
def test_controlled_cloud_mean_is_the_scalar_recursion(nt, nx, M, theta, y0, seed):
    # under u = theta * mean the drift -y + u averages to (theta - 1) * mean, so
    # the cloud mean is the scalar recursion at that rate, pathwise; the field
    # reads the rule through the control's own reader
    grid = Grid(horizon=Point(1.0, 1.0), nt=nt, nx=nx)
    controlled = controlled_linear_field(drift_gain=-1.0, control_gain=1.0, sigma=(0.5, 0.5))
    common, idio = sample_ensemble_increments(grid, controlled.m, M, seed)
    control = _control(mean_feedback_policy(theta), _node_values(common), grid)
    ens = solve_conditional_mkv(
        _curry(controlled, control), y0, M, grid, seed, common_increments=common, idio_increments=idio
    )
    driver = sheet_average((0.5, 0.5), common, idio)[..., 0]
    want = goursat_mean(theta - 1.0, y0, driver, grid.dt * grid.dx)
    np.testing.assert_allclose(ens.values.mean(axis=0)[..., 0], want, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(2, 64),
    st.floats(-1.0, 1.0),
    COEFFICIENT,
    st.integers(0, 2**32 - 1),
)
def test_controlled_deviations_are_the_scalar_recursion_at_minus_one(nt, nx, M, theta, y0, seed):
    # u = theta * mean is the same for the whole cloud, so a deviation from
    # the mean feels the drift -y alone, whatever theta
    grid = Grid(horizon=Point(1.0, 1.0), nt=nt, nx=nx)
    controlled = controlled_linear_field(drift_gain=-1.0, control_gain=1.0, sigma=(0.5, 0.5))
    common, idio = sample_ensemble_increments(grid, controlled.m, M, seed)
    control = _control(mean_feedback_policy(theta), _node_values(common), grid)
    ens = solve_conditional_mkv(
        _curry(controlled, control), y0, M, grid, seed, common_increments=common, idio_increments=idio
    )
    want = deviations(-1.0, np.array([[0.5, 0.5]]), idio, grid.dt * grid.dx)
    np.testing.assert_allclose(ens.values - ens.values.mean(axis=0), want, rtol=0, atol=1e-12)


# what a caller can get wrong about a number: NaN, infinities, zero,
# negatives, non-integers; and values that are fine
ARGUMENT_SCALARS = [np.nan, np.inf, -np.inf, 0, 0.0, -1, -2.5, 1, 2, np.int64(2), 2.5, 1e3]
_scalar = st.sampled_from(ARGUMENT_SCALARS)
# ... of a length or ndim that may be wrong
ARGUMENT = st.one_of(
    _scalar,
    st.lists(_scalar, max_size=3),
    st.lists(st.lists(_scalar, min_size=2, max_size=2), min_size=1, max_size=2),
)
FUZZ_GRID = Grid(horizon=Point(1.0, 1.0), nt=2, nx=2)
FUZZ_FIELD = mean_reversion_field(1.0, (0.5, 0.5))
FUZZ_PATH_FIELD = affine_field(np.zeros((3, 1)), np.ones((3, 1, 1)))
FUZZ_CHAOS = ChaosConfig(N=2, a_values=1.0, y0=1.0, grid=FUZZ_GRID)
FUZZ_SHEET = sample_sheet(FUZZ_GRID, 2, 0)
FUZZ_CONTROL = (mean_feedback_policy(0.5), controlled_linear_field(), lq_cost(Point(1.0, 1.0)))


def _both_ensemble_solves(**args):
    """The direct and the Picard solve on the same (possibly bad) arguments;
    they must agree: both return, or both raise the same ValueError."""
    args = {"y0": 0.5, "M": 2, **args}
    outcomes = []
    for solve in (
        lambda: solve_conditional_mkv(FUZZ_FIELD, args["y0"], args["M"], FUZZ_GRID, 0),
        lambda: picard_solve(FUZZ_FIELD, args["y0"], args["M"], FUZZ_GRID, 0, max_iter=2, tol=1e-6),
    ):
        try:
            solve()
            outcomes.append(None)
        except ValueError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    if outcomes[0] is not None:
        raise ValueError(outcomes[0])


def _ito_study(y0=0.0, replications=2):
    """The Ito study of a constant test function on two grids, with one
    (possibly bad) argument."""
    grids = [FUZZ_GRID, Grid(Point(1.0, 1.0), 4, 4)]
    constant = exponential(np.zeros(1))  # f = 1: no overflow at any y0
    ito_refinement_study(constant, FUZZ_PATH_FIELD, y0, Point(1.0, 1.0), grids, replications, 0)


def _noise(name, shape, fill):
    """The direct solve on one given noise array of ``shape`` filled with ``fill``."""
    solve_conditional_mkv(FUZZ_FIELD, 0.5, 2, FUZZ_GRID, 0, **{name: np.full(shape, fill)})


DOORS = [
    ("nt", lambda v: Grid(Point(1.0, 1.0), v, 2)),
    ("nx", lambda v: Grid(Point(1.0, 1.0), 2, v)),
    ("seed", lambda v: sample_sheet(FUZZ_GRID, 1, v)),
    ("rate", lambda v: mean_reversion_field(v, (0.5, 0.5))),
    ("sigma", lambda v: mean_reversion_field(0.5, v)),
    ("drift_gain", lambda v: controlled_linear_field(drift_gain=v)),
    ("control_gain", lambda v: controlled_linear_field(control_gain=v)),
    ("sigma", lambda v: controlled_linear_field(sigma=v)),
    ("theta", mean_feedback_policy),
    ("state_weight", lambda v: lq_cost(Point(1.0, 1.0), state_weight=v)),
    ("control_weight", lambda v: lq_cost(Point(1.0, 1.0), control_weight=v)),
    ("terminal_weight", lambda v: lq_cost(Point(1.0, 1.0), terminal_weight=v)),
    ("target", lambda v: lq_cost(Point(1.0, 1.0), target=v)),
    ("y0", lambda v: _both_ensemble_solves(y0=v)),
    ("y0", lambda v: solve_goursat(FUZZ_PATH_FIELD, v, sample_sheet(FUZZ_GRID, 1, 0), FUZZ_GRID)),
    ("M", lambda v: _both_ensemble_solves(M=v)),
    ("max_iter", lambda v: picard_solve(FUZZ_FIELD, 0.5, 2, FUZZ_GRID, 0, max_iter=v, tol=1e-6)),
    ("tol", lambda v: picard_solve(FUZZ_FIELD, 0.5, 2, FUZZ_GRID, 0, max_iter=2, tol=v)),
    ("n", lambda v: CoefficientField(n=v, m=2, drift=None, diffusion=None)),
    ("m", lambda v: CoefficientField(n=1, m=v, drift=None, diffusion=None)),
    ("n", lambda v: mean_reversion_field(0.5, (0.5, 0.5), n=v)),
    ("m", lambda v: sample_sheet(FUZZ_GRID, v, 0)),
    ("m", lambda v: sample_ensemble_increments(FUZZ_GRID, v, 2, 0)),
    ("M", lambda v: sample_ensemble_increments(FUZZ_GRID, 2, v, 0)),
    ("m", lambda v: sample_replicate_increments(FUZZ_GRID, v, 2, 0, 0)),
    ("M", lambda v: sample_replicate_increments(FUZZ_GRID, 2, v, 0, 0)),
    ("N", lambda v: ChaosConfig(N=v, a_values=1.0, y0=1.0, grid=FUZZ_GRID)),
    ("a_values", lambda v: ChaosConfig(N=2, a_values=v, y0=1.0, grid=FUZZ_GRID)),
    ("y0", lambda v: ChaosConfig(N=2, a_values=1.0, y0=v, grid=FUZZ_GRID)),
    ("replicates", lambda v: remainder_variance(FUZZ_CHAOS, v, 0)),
    ("a", lambda v: verify_limit_spde(v, 1.0, FUZZ_GRID, 2, 0)),
    ("y0", lambda v: verify_limit_spde(1.0, v, FUZZ_GRID, 2, 0)),
    ("replicates", lambda v: verify_limit_spde(1.0, 1.0, FUZZ_GRID, v, 0)),
    ("y0", lambda v: _ito_study(y0=v)),
    ("replications", lambda v: _ito_study(replications=v)),
    ("replicates", lambda v: performance_direct(*FUZZ_CONTROL, 0.5, 2, FUZZ_GRID, v, 0)),
    ("M", lambda v: performance_direct(*FUZZ_CONTROL, 0.5, v, FUZZ_GRID, 2, 0)),
    ("stream", lambda v: sample_sheet(FUZZ_GRID, 1, 0, stream=v)),
    ("rep", lambda v: sample_replicate_increments(FUZZ_GRID, 2, 2, 0, rep=v)),
    ("a_values", lambda v: closed_form_solution(ChaosConfig(N=2, a_values=v, y0=1.0, grid=FUZZ_GRID), FUZZ_SHEET)),
    ("n", lambda v: ControlledCoefficients(n=v, m=2, drift=None, diffusion=None)),
    ("m", lambda v: ControlledCoefficients(n=1, m=v, drift=None, diffusion=None)),
    ("dim", lambda v: MQuadrature(dim=v, order=4)),
    ("order", lambda v: MQuadrature(order=v)),
    ("n_max", x_seq),
    ("factor", lambda v: coarsen_increments(np.zeros((5, 5)), v)),
    ("n", lambda v: matrix_power_decomposition(RankOneMatrix(np.ones(2)), v)),
    ("K", lambda v: picard_series_partial_sums(v, 1.0, 5)),
    ("area", lambda v: picard_series_partial_sums(1.0, v, 5)),
    ("lipschitz_hint", lambda v: convergence_radius_report(dataclasses.replace(FUZZ_FIELD, lipschitz_hint=v), FUZZ_GRID)),
    ("values", FrequencyGrid),
    ("slack", lambda v: est_inequality_check([(np.zeros(2), np.ones(2))], MQuadrature(order=4), slack=v)),
    ("h", lambda v: lemma61_scalar_check(lambda p: 1.0, lambda p: 1.0, Point(0.5, 0.5), FUZZ_GRID, v)),
    ("channel", lambda v: rect_increment(FUZZ_SHEET, v, Point(0.0, 0.0), Point(1.0, 1.0))),
    ("channel", lambda v: ito_integral(lambda p: 1.0, FUZZ_SHEET, v, Point(1.0, 1.0))),
    ("ch1", lambda v: double_ito_integral(None, FUZZ_SHEET, v, 0, Point(1.0, 1.0))),
    ("ch2", lambda v: double_ito_integral(None, FUZZ_SHEET, 0, v, Point(1.0, 1.0))),
    ("domain", lambda v: substream(0, v)),
    ("stream", lambda v: substream(0, 1, stream=v)),
    ("channel", lambda v: substream(0, 1, channel=v)),
]
NOISE_SHAPES = {
    "common_increments": [(2, 2), (2, 3), (2,), (), (1, 2, 2)],
    "idio_increments": [(2, 1, 2, 2), (2, 2, 2), (3, 1, 2, 2), (2, 1, 2, 3), (2, 1, 1, 2, 2)],
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_door_returns_or_names_the_argument_it_rejects(data):
    # each call returns a result, or raises a ValueError whose message names
    # the argument; no TypeError, IndexError or quiet NaN gets through
    if data.draw(st.booleans(), label="noise"):
        name = data.draw(st.sampled_from(sorted(NOISE_SHAPES)), label="name")
        shape = data.draw(st.sampled_from(NOISE_SHAPES[name]), label="shape")
        call = functools.partial(_noise, name, shape)
        value = data.draw(_scalar, label="fill")
    else:
        name, door = data.draw(st.sampled_from(DOORS), label="door")
        call, value = door, data.draw(ARGUMENT, label="value")
    assert_returns_or_names(name, call, value)


@pytest.mark.parametrize("name, door", DOORS, ids=[f"{k}-{name}" for k, (name, _) in enumerate(DOORS)])
def test_every_door_returns_or_names_each_scalar(name, door):
    # the fuzz reaches a door a few times; this takes every door through
    # every scalar of ARGUMENT_SCALARS
    for value in ARGUMENT_SCALARS:
        assert_returns_or_names(name, door, value)


def assert_returns_or_names(name, call, value):
    """``call(value)`` returns, or raises a ValueError naming ``name``; a NaN
    is bad wherever it is drawn, and so is an infinity."""
    flat = np.ravel(np.asarray(value, dtype=float))
    bad = not np.isfinite(flat).all()
    try:
        call(value)
    except ValueError as err:
        assert re.search(rf"\b{name}\b", str(err)), f"{name}={value!r}: {err}"
    else:
        assert not bad, f"{name}={value!r} was accepted"
