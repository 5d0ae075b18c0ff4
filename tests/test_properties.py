"""Property tests over random state-free affine fields, grids and seeds.

A field whose coefficients ignore the states (and the measure) is solved in
closed form; these properties pin that form against the row loop, against
the telescoping identity and, for ensembles, against each particle's own
single-path solve.  The ensemble noise is pinned to nest across particle
counts, a replicate's value not to depend on which other replicates ran or
in what order, the batched Ito study to be the public chain per replicate, the
Picard fixed point inside K|z| < sqrt(r0) to be the direct conditional solve,
and a grid row's batched node means to be each cloud's own mean, bit for bit.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sheetlab import (
    CoefficientField,
    EmpiricalMeasure,
    Grid,
    Point,
    TestFunction as ItoTestFunction,  # aliased so pytest does not collect it
    controlled_linear_field,
    convergence_radius_report,
    find_r0,
    ito_integral,
    ito_refinement_study,
    ito_terms,
    lq_cost,
    mean_feedback_policy,
    mean_reversion_field,
    performance_direct,
    picard_solve,
    rect_integral,
    sample_ensemble_increments,
    sample_replicate_increments,
    sample_sheet,
    scalar_function,
    sheet_from_increments,
    solve_conditional_mkv,
    solve_goursat,
)
from sheetlab import ito_check
from sheetlab.solver import _node_measures

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
