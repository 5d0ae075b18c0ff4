"""Two-parameter Euler-Goursat integration and the conditional mean-field
particle method.

The integral equation on the plane,

    Y(z) = Y(0) + int_{R_z} alpha(zeta, Y, mu) dzeta
                + int_{R_z} beta(zeta, Y, mu) B(dzeta),

is discretized by the explicit lower-corner recursion

    Y_{i+1,j+1} = Y_{i+1,j} + Y_{i,j+1} - Y_{i,j}
                  + alpha_{ij} dt dx + beta_{ij} dB_{ij},

which telescopes exactly to the discrete integrals: on-grid, the solved field
*is* y0 + rect_integral(drift) + ito_integral(each diffusion column), an
algebraic identity the test suite pins at 1e-10.  The recursion runs in one of
two forms, by one rule: a solve whose coefficients do not read the states
being solved takes the closed form.

* the closed form.  The coefficients are known first (a state- and
  measure-free field's, read on states held at y0; a Picard iterate's, read
  on the previous iterate), the whole grid's sources are formed at once, and
  the field is y0 plus one cumulative sum along x followed by one along t.
  It spends the two coefficient tables it reads: the sources are formed and
  summed in their buffers, which are fresh arrays, never one a field
  returned.
* the row loop.  A direct solve of a field that reads the states or the
  measure reads row i's coefficients once row i is filled.  The boundary
  column stays at y0, so row i+1 is row i plus the running sum of row i's
  sources, one vectorized cumulative sum.

The closed form adds in the row loop's order, so on the same coefficients
both forms give the same bits.

The recursion takes its noise in one form, m channel arrays of shape (1 or M,
nt, nx): a channel of length 1 is shared by the M paths (a sheet's one path, an
ensemble's common channel), one of length M holds each path's own cells (the
particles' channels, the Ito study's replicates).  They are views of what the
one sampler, ``noise._draw_cells``, draws, read in place by both forms.

The M paths' states are stored node-major, (nt+1, nx+1, M, n), with the
particle axis innermost: the conditional law at a node is the empirical
measure of that node's M states, and so a node's cloud, a row's update and a
node's coefficients are each one contiguous block.  Solvers hand out the
(M, nt+1, nx+1, n) view of that storage, never a particle-major copy.

Coefficient callables are vectorized over a batch axis: drift(z, y, mu) takes
y of shape (B, n) and returns (B, n); diffusion returns (B, n, m).  Solvers and
validators all read them through one row-wise pass, :func:`coefficient_rows`,
under one contract.  A measure-dependent field is called once per node: y is
the (M, n) cloud of the M paths' states there, z a scalar Point, mu their
EmpiricalMeasure.  A measure-free field is called once per grid row with mu =
None: y is the (M*nx, n) batch of the row's states, particle-major, and z holds
arrays of the matching node coordinates, built once per pass and shared by its
rows, so a field must not write to them.  A row's returns are shape-checked at
once, and a ragged row raises a ValueError naming the callable.

The node measures and Points come from one node pass, :func:`_node_measures`,
which the control's cost pass reads too.  Its measures skip validation, since
the grid and the solver guarantee it: a measure's ``samples`` is a view of the
solver's states at the node (the same array as y), and its ``sample_mean``
is a read-only row of one reduction over the grid row's clouds, so a field
that reads only the mean (``mean_reversion_field``, the control's
``mean_feedback_policy``) reduces no cloud of its own.  A field must
not write to any of them.  Node Points are built once per grid, unchecked,
as grid coordinates i*dt and j*dx are nonnegative, and shared by every pass
over that grid: the direct solve, each Picard iterate, the weak residual and
the control's cost pass all hand a field the same Point objects, which must
not be mutated.

The conditional mean-field system couples M particles through the empirical
measure of their states at the current node: channel 1 of the sheet is shared
by all particles (the common noise), channels 2..m are drawn independently
per particle.  That empirical measure is the particle estimate of the
conditional law of Y given the channel-1 history, and it is rebuilt
node-by-node before the particles advance — bulk-synchronous, so the result
is independent of any particle execution order.

The direct particle solve and the Picard iteration, two routes to one
system, share one set-up, :func:`_ensemble_setup`: it checks M, y0 and the
noise by name, draws the noise, builds the channel arrays and wraps the
solved states, so both reject the same bad input with the same ValueError.

Picard iteration re-solves the recursion in closed form, on coefficients
frozen at the previous iterate's states and measures, reusing identical noise
arrays across iterates (the contraction being probed lives on one probability
space; fresh noise would destroy it).  Iterate gaps are reported as sup-over-grid
mean-square differences.  The paper's convergence threshold for the continuum
map, horizon area |z| = T*X and Lipschitz constant K, is K|z| < sqrt(r0) ~
1.2024, with the companion Gronwall regime K|z| <= r0.  On the grid the
iteration is finite, for any field: a node's update reads only cells strictly
below and to the left of it, so iterate k is exact wherever min(i, j) <= k,
iterate min(nt, nx) is the direct solve, and, barring overflow, the next gap
is exactly 0.0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure
from .noise import SheetPath, _draw_cells
from .plane import Grid, Point, _require_count, _require_finite, _require_integer, _require_number, _require_positive
from .rng import DOMAIN_ENSEMBLE, DOMAIN_REPLICATE
from .series import find_r0

__all__ = [
    "CoefficientField",
    "StateField",
    "ParticleEnsemble",
    "coefficient_rows",
    "coefficient_table",
    "solve_goursat",
    "solve_conditional_mkv",
    "sample_ensemble_increments",
    "sample_replicate_increments",
    "mean_reversion_field",
    "PicardResult",
    "picard_solve",
    "RadiusReport",
    "convergence_radius_report",
]


@dataclass(frozen=True)
class CoefficientField:
    """Drift/diffusion maps with declared shapes and dependence flags.

    drift(z, y, mu) -> (B, n); diffusion(z, y, mu) -> (B, n, m) for y of
    shape (B, n).  When depends_on_measure is False the measure argument is
    passed as None and must be ignored by the maps.

    depends_on_state=False promises that the maps ignore y as well.  When the
    field is also measure-free, the direct solvers take the promise at its
    word: they hand the maps states held at y0 and read every row's
    coefficients before the recursion runs (the closed form of the module
    docstring).  A field that breaks the promise gets coefficients read at y0.
    """

    n: int
    m: int
    drift: object
    diffusion: object
    depends_on_state: bool = True
    depends_on_measure: bool = True
    lipschitz_hint: float | None = None

    def __post_init__(self):
        _require_count(1, n=self.n, m=self.m)


@dataclass(frozen=True, eq=False)
class StateField:
    """Solution values on grid nodes, shape (nt+1, nx+1, n)."""

    values: np.ndarray
    grid: Grid

    @property
    def n(self) -> int:
        return self.values.shape[2]

    def at(self, z: Point) -> np.ndarray:
        i, j = self.grid.node_index(z)
        return self.values[i, j]


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """M coupled particles: states (M, nt+1, nx+1, n), shared common channel.

    From the solvers, ``values`` is a view of node-major storage (nt+1, nx+1,
    M, n): a node's cloud ``values[:, i, j]`` is contiguous, and a particle's
    field, ``particle(p)``, is a strided view.  ``common_increments`` has shape
    (nt, nx); ``idio_increments`` has shape (M, m-1, nt, nx).  Idiosyncratic
    streams are indexed by particle, so a smaller ensemble drawn from the same
    seed is a prefix of a larger one.
    """

    values: np.ndarray
    grid: Grid
    common_increments: np.ndarray
    idio_increments: np.ndarray
    coeffs: CoefficientField | None = None
    y0: np.ndarray | None = None

    @property
    def particles(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[3]

    def particle(self, p: int) -> StateField:
        return StateField(values=self.values[p], grid=self.grid)

    def measure_at(self, z: Point) -> EmpiricalMeasure:
        """Empirical (conditional-law estimate) measure of the states at node z."""
        i, j = self.grid.node_index(z)
        return EmpiricalMeasure(samples=self.values[:, i, j, :])


def _check_shapes(tag: str, arr, expected: tuple) -> np.ndarray:
    try:
        arr = np.asarray(arr, dtype=float)
    except ValueError as err:  # a row of ragged node returns, say
        raise ValueError(f"{tag} returned no float array of shape {expected}: {err}") from None
    if arr.shape != expected:
        raise ValueError(f"{tag} returned shape {arr.shape}, expected {expected}")
    return arr


def _node_measures(values: np.ndarray, grid: Grid, rows: int, cols: int):
    """The one node pass: for grid rows i = 0..rows-1, rows <= nt, yield the
    list of row i's (z, mu) pairs, nodes j < cols <= nx, read on the states
    ``values`` (M, >= rows, >= cols, n) only when the row is requested.

    ``z`` is the node's Point from the grid's own cell-corner Points, built
    once per grid and shared by every pass, and ``mu`` the unchecked
    empirical measure of its M states: ``mu.samples`` is a view of
    ``values``, and the nodes' read-only ``sample_mean`` come from one
    reduction over the row's particle axis: on node-major states (module
    docstring), the layout of every library caller, each equals its cloud's
    own mean bit for bit, and on other layouts to rounding.
    """
    M = values.shape[0]
    if M < 1:
        raise ValueError(f"an empirical measure needs at least one sample, got M={M}")
    if rows > grid.nt or cols > grid.nx:
        raise ValueError(f"the node pass covers the {grid.nt}x{grid.nx} cell corners, got {rows}x{cols}")
    measure = EmpiricalMeasure._unchecked
    for i in range(rows):
        clouds = values[:, i, :cols].swapaxes(0, 1)
        means = np.add.reduce(clouds, axis=1) / M
        means.setflags(write=False)
        yield [(z, measure(c, mean)) for z, c, mean in zip(grid._node_points[i], clouds, means)]


def coefficient_rows(
    coeffs: CoefficientField, values: np.ndarray, grid: Grid, rows: int, cols: int
):
    """Yield (alpha (M, cols, n), beta (M, cols, n, m)) for grid rows 0..rows-1.

    The coefficients are read on the states ``values`` (M, >= rows, >= cols, n),
    nodes j < cols of each row.  Row i is read only when its pair is requested,
    so a solver may fill values[:, i] between two steps.  A measure-dependent
    field is called per node with the (z, mu) of :func:`_node_measures`, the
    one node pass, and a row's returns are stacked node-major, (cols, M, ...),
    and checked at once; the yielded pair are views of them.  A measure-free
    field is called per row on the (M*cols, n) batch.
    """
    values = np.asarray(values, dtype=float)
    M, n, m = values.shape[0], coeffs.n, coeffs.m
    drift, diffusion = coeffs.drift, coeffs.diffusion
    if coeffs.depends_on_measure:
        alpha_shape, beta_shape = (cols, M, n), (cols, M, n, m)
        for nodes in _node_measures(values, grid, rows, cols):
            alpha = _check_shapes("drift", [drift(z, mu.samples, mu) for z, mu in nodes], alpha_shape)
            beta = _check_shapes("diffusion", [diffusion(z, mu.samples, mu) for z, mu in nodes], beta_shape)
            yield alpha.swapaxes(0, 1), beta.swapaxes(0, 1)
        return
    batch = M * cols
    xs = np.tile(np.arange(cols) * grid.dx, M)
    ts = np.broadcast_to((np.arange(rows) * grid.dt)[:, None], (rows, batch))  # read-only
    for i in range(rows):
        z = Point._unchecked(ts[i], xs)
        states = values[:, i, :cols, :].reshape(batch, n)
        alpha = _check_shapes("drift", drift(z, states, None), (batch, n))
        beta = _check_shapes("diffusion", diffusion(z, states, None), (batch, n, m))
        yield alpha.reshape(M, cols, n), beta.reshape(M, cols, n, m)


def coefficient_table(coeffs: CoefficientField, values: np.ndarray, grid: Grid, rows: int, cols: int):
    """alpha (M, rows, cols, n) and beta (M, rows, cols, n, m): every row of
    :func:`coefficient_rows` at once, with no call on an empty rectangle.

    Its library users are the closed form (module docstring) and the Ito
    validation (``ito_terms`` and the study's batches); the weak
    Fokker-Planck residual streams :func:`coefficient_rows` instead.
    """
    M, n, m = values.shape[0], coeffs.n, coeffs.m
    alpha = np.empty((M, rows, cols, n))
    beta = np.empty((M, rows, cols, n, m))
    for i, (a, b) in enumerate(coefficient_rows(coeffs, values, grid, rows if cols else 0, cols)):
        alpha[:, i] = a
        beta[:, i] = b
    return alpha, beta


def _noise_source(beta: np.ndarray, cells: list) -> np.ndarray:
    """beta . dB for node-major beta (..., M, n, m), as an explicit sum over the
    m channel arrays ``cells`` (..., 1 or M), read in place, for the row loop.
    The closed form adds the same products in the same order, in the buffer
    of its beta table."""
    out = beta[..., 0] * cells[0][..., None]
    for c in range(1, len(cells)):
        out += beta[..., c] * cells[c][..., None]
    return out


def _held_at(y0: np.ndarray, grid: Grid, M: int) -> np.ndarray:
    """Node-major storage (nt+1, nx+1, M, n) with every state at y0: the
    boundary of the recursion, and finite states for a field's maps."""
    Y = np.empty((grid.nt + 1, grid.nx + 1, M, len(y0)))
    Y[...] = y0
    return Y


def _closed_form(coeffs, states, y0, grid, noise) -> np.ndarray:
    """The closed form (module docstring) of ``coeffs`` read on ``states`` (M,
    nt+1, nx+1, n), driven by the channel arrays ``noise``; returns new states.
    The sources are built in the fresh tables of :func:`coefficient_table`,
    never in an array a field returned, and beta's is let go first."""
    alpha, beta = coefficient_table(coeffs, states, grid, grid.nt, grid.nx)
    alpha, beta = alpha.transpose(1, 2, 0, 3), beta.transpose(1, 2, 0, 3, 4)  # node-major
    for c, dB in enumerate(noise):
        np.multiply(beta[..., c], dB.transpose(1, 2, 0)[..., None], out=beta[..., c])
    for c in range(1, len(noise)):
        beta[..., 0] += beta[..., c]
    # alpha dt dx + beta . dB: the row loop's sum, as addition commutes
    src = np.multiply(alpha, grid.dt * grid.dx, out=alpha)
    src += beta[..., 0]
    del beta
    # row i+1 is y0 + the x-running sums of rows 0..i, added in the row loop's order
    np.cumsum(src, axis=1, out=src)
    src[0] += y0
    Y = _held_at(y0, grid, src.shape[2])
    np.cumsum(src, axis=0, out=Y[1:, 1:])
    return Y.transpose(2, 0, 1, 3)


def _sweep(coeffs, y0, grid, noise) -> np.ndarray:
    """The Euler-Goursat recursion for M paths; returns states (M, nt+1, nx+1, n).

    The states are stored node-major, (nt+1, nx+1, M, n), and returned as the
    (M, nt+1, nx+1, n) view, so a node's cloud and a row's update are
    contiguous.  ``noise`` is the m channel arrays (1 or M, nt, nx) of the module
    docstring.  A state- and measure-free field takes the closed form on its
    coefficients read at y0, any other the row loop (module docstring).
    """
    Y = _held_at(y0, grid, max(len(dB) for dB in noise))
    states = Y.transpose(2, 0, 1, 3)
    if not (coeffs.depends_on_state or coeffs.depends_on_measure):
        return _closed_form(coeffs, states, y0, grid, noise)
    dtdx = grid.dt * grid.dx
    for i, (alpha, beta) in enumerate(coefficient_rows(coeffs, states, grid, grid.nt, grid.nx)):
        beta_dB = _noise_source(beta.swapaxes(0, 1), [dB[:, i].T for dB in noise])  # (nx, 1 or M)
        src = alpha.swapaxes(0, 1) * dtdx + beta_dB
        np.add(Y[i, 1:], np.cumsum(src, axis=0), out=Y[i + 1, 1:])
    return states


def _start_state(y0, n: int) -> np.ndarray:
    """y0 as the (n,) start state: a finite scalar, length-1 or length-n vector."""
    if np.shape(y0) not in ((), (1,), (n,)):
        raise ValueError(f"y0 of shape {np.shape(y0)} does not fit the state dimension n={n}")
    _require_finite(y0=y0)
    return np.broadcast_to(np.asarray(y0, dtype=float), (n,))


def _check_finite(Y: np.ndarray) -> np.ndarray:
    """Return the solved states Y (M, nt+1, nx+1, n), or raise naming the first
    node (i, j), in row-major order, where some state is not finite."""
    if not np.isfinite(Y).all():
        i, j = np.argwhere(~np.isfinite(Y).all(axis=(0, 3)))[0]
        raise ValueError(f"the solve left a non-finite state at node (i, j) = ({i}, {j})")
    return Y


def solve_goursat(coeffs: CoefficientField, y0, sheet: SheetPath, grid: Grid) -> StateField:
    """Single-path explicit recursion; boundary rows/columns stay at y0.

    The field must be measure-free: one path has no law to estimate.  Raises
    ValueError naming the first node whose state is not finite.
    """
    if sheet.channels != coeffs.m:
        raise ValueError(f"sheet has {sheet.channels} channels, coefficients declare m={coeffs.m}")
    if sheet.grid != grid:
        raise ValueError("sheet was sampled on a different grid")
    if coeffs.depends_on_measure:
        raise ValueError("solve_goursat solves one path: the field must be measure-free")
    y0 = _start_state(y0, coeffs.n)
    noise = sheet.increments[:, None]  # one path: m channels of shape (1, nt, nx), read in place
    Y = _check_finite(_sweep(coeffs, y0, grid, noise))
    return StateField(values=Y[0], grid=grid)


def _increments(grid: Grid, m: int, M: int, seed: int, domain: int, coordinates) -> tuple:
    """Ensemble noise (common (nt, nx), idio (M, m-1, nt, nx)) drawn from the
    substreams of ``domain`` at the (stream, channel) ``coordinates``: the
    first is the common channel's, the rest fill idio in (p, c) order; both
    are views of the one array the sampler draws."""
    cells = _draw_cells(grid, seed, domain, coordinates)
    return cells[0], cells[1:].reshape(M, m - 1, grid.nt, grid.nx)


def _replicate_increments(domain: int, grid: Grid, m: int, M: int, seed: int, rep: int):
    """Ensemble noise keyed by replicate: stream = rep, channel 0 common and
    channel 1 + p*(m-1) + c for particle p's idiosyncratic channel c."""
    channels = range(M * (m - 1) + 1)
    return _increments(grid, m, M, seed, domain, ((rep, c) for c in channels))


def sample_ensemble_increments(grid: Grid, m: int, M: int, seed: int):
    """Cell increments for an M-particle ensemble from the standard streams.

    Returns (common, idio): shapes (nt, nx) and (M, m-1, nt, nx).  Stream 0
    is the common channel, particle p draws idiosyncratic channels from
    stream p+1 — hence ensembles are nested across M for a fixed seed.
    """
    _require_count(1, m=m, M=M)
    own = [(p + 1, c + 1) for p in range(M) for c in range(m - 1)]
    return _increments(grid, m, M, seed, DOMAIN_ENSEMBLE, [(0, 0), *own])


def sample_replicate_increments(grid: Grid, m: int, M: int, seed: int, rep: int):
    """Ensemble noise for Monte Carlo over whole ensembles, keyed by replicate.

    Same shapes as :func:`sample_ensemble_increments`, drawn from the
    replicate domain with stream = rep.  The channel word encodes (particle,
    channel), so for a fixed replicate the idiosyncratic noise is nested
    across ensemble sizes and the common sheet does not depend on M at all —
    which is what pairs an M-refinement comparison replicate by replicate.
    """
    _require_count(1, m=m, M=M)
    _require_integer(rep=rep)
    return _replicate_increments(DOMAIN_REPLICATE, grid, m, M, seed, rep)


def _constant_diffusion(sigma: np.ndarray):
    """diffusion(z, y, mu[, u]) -> sigma (n, m) as a read-only (B, n, m) table
    for y of B rows, made once per batch size B, contiguous: a row of node
    returns stacks several times faster than from broadcast views."""

    @functools.cache
    def table(B: int) -> np.ndarray:
        out = np.empty((B, *sigma.shape))
        out[...] = sigma
        out.setflags(write=False)
        return out

    def diffusion(z, y, mu, u=None):
        return table(len(y))

    return diffusion


def mean_reversion_field(rate: float, sigma, n: int = 1) -> CoefficientField:
    """Conditional OU dynamics: drift = rate * (mean of mu - y), constant beta.

    The mean is ``mu.sample_mean``, which the measures the solvers build
    carry from one reduction per grid row.  The drift is rate-Lipschitz in
    the state and rate-Lipschitz in the measure (through the mean), so the
    declared joint constant is 2 * rate.
    """
    _require_count(1, n=n)
    sigma_arr = np.asarray(sigma, dtype=float)
    if sigma_arr.ndim == 1:
        sigma_arr = np.broadcast_to(sigma_arr[None, :], (n, sigma_arr.shape[0]))
    if sigma_arr.ndim != 2 or sigma_arr.shape[0] != n or sigma_arr.shape[1] < 1:
        raise ValueError(f"sigma must have shape (m,) or (n, m), n={n}, m >= 1, got {np.shape(sigma)}")
    _require_number(rate=rate)
    _require_finite(sigma=sigma_arr)
    # a 0-d float64 array: a Python float would be converted on every call
    scale = np.asarray(rate, dtype=float)

    def drift(z, y, mu):
        out = mu.sample_mean - y
        out *= scale
        return out

    return CoefficientField(
        n=n,
        m=sigma_arr.shape[1],
        drift=drift,
        diffusion=_constant_diffusion(sigma_arr),
        depends_on_measure=True,
        lipschitz_hint=2.0 * abs(rate),
    )


def _ensemble_setup(coeffs: CoefficientField, y0, M: int, grid: Grid, seed: int, common=None, idio=None):
    """The one set-up of the ensemble solves, which checks their arguments by
    name: M an integer >= 1, y0 finite and fitting the field, and given noise,
    common (nt, nx) or idio (M, m-1, nt, nx), finite and of its shape; noise
    not given is then drawn from the standard streams of ``seed``.  Returns
    the (n,) start state, the m channel arrays (the common one, then each
    particle's own) and ``ensemble(values)``, the solved states' ensemble."""
    _require_count(1, reason="need at least one particle, an integer M >= 1", M=M)
    _require_count(2, reason="conditional dynamics need m >= 2: one common plus idiosyncratic channels", m=coeffs.m)
    y0 = _start_state(y0, coeffs.n)
    given = []
    for name, arr, shape in (
        ("common_increments", common, (grid.nt, grid.nx)),
        ("idio_increments", idio, (M, coeffs.m - 1, grid.nt, grid.nx)),
    ):
        if arr is not None:
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} of shape {arr.shape} != {shape}")
            _require_finite(**{name: arr})
        given.append(arr)
    common, idio = given
    if common is None or idio is None:
        sampled = sample_ensemble_increments(grid, coeffs.m, M, seed)
        common = sampled[0] if common is None else common
        idio = sampled[1] if idio is None else idio

    def ensemble(values: np.ndarray) -> ParticleEnsemble:
        return ParticleEnsemble(
            values=values, grid=grid, common_increments=common, idio_increments=idio, coeffs=coeffs, y0=y0
        )

    return y0, [common[None], *idio.swapaxes(0, 1)], ensemble


def solve_conditional_mkv(
    coeffs: CoefficientField,
    y0,
    M: int,
    grid: Grid,
    seed: int,
    common_increments: np.ndarray | None = None,
    idio_increments: np.ndarray | None = None,
) -> ParticleEnsemble:
    """Conditional mean-field particle system under shared common noise.

    At each node the empirical measure of all M particle states feeds the
    coefficients (frozen before any particle advances).  Channel 1 increments
    are identical across particles; channels 2..m are per-particle.  Optional
    increment arrays override the seed-derived noise — the hook used for
    common-random-number and refinement-coupled experiments.  Raises
    ValueError naming a bad argument, or the first node (i, j) where a state
    is not finite.
    """
    y0, noise, ensemble = _ensemble_setup(coeffs, y0, M, grid, seed, common_increments, idio_increments)
    return ensemble(_check_finite(_sweep(coeffs, y0, grid, noise)))


@dataclass(frozen=True, eq=False)
class PicardResult:
    ensemble: ParticleEnsemble
    gaps: np.ndarray
    iterations: int
    converged: bool
    diverged: bool


def picard_solve(
    coeffs: CoefficientField,
    y0,
    M: int,
    grid: Grid,
    seed: int,
    max_iter: int,
    tol: float,
) -> PicardResult:
    """Picard iteration for the conditional mean-field system.

    Iterate 0 is the constant field y0.  Iterate k+1 is the closed form on
    the coefficients read along iterate k (its states and empirical
    measures), on one fixed set of noise arrays.  Gaps are sup-over-nodes
    mean-square iterate differences.  The iteration stops at a gap below
    ``tol`` (``converged``), at a non-finite gap, an iterate that overflowed
    (``diverged``), or after ``max_iter`` iterates.  On the grid it is finite
    (module docstring): barring overflow, iterate min(nt, nx) is the direct
    solve and the gap of iterate min(nt, nx) + 1 is exactly 0.0, so the loop
    ends there at the latest, whatever the field.
    Bad arguments raise the ValueError that names them, the same as in
    :func:`solve_conditional_mkv` for the arguments the two share.
    """
    _require_count(1, max_iter=max_iter)
    _require_positive(tol=tol)
    y0, noise, ensemble = _ensemble_setup(coeffs, y0, M, grid, seed)
    prev = _held_at(y0, grid, M).transpose(2, 0, 1, 3)  # node-major like every iterate
    gaps = []
    for _ in range(max_iter):
        cur = _closed_form(coeffs, prev, y0, grid, noise)
        gaps.append(float(np.max(np.mean(np.sum((cur - prev) ** 2, axis=-1), axis=0))))
        prev = cur
        if gaps[-1] < tol or not np.isfinite(gaps[-1]):
            break
    return PicardResult(
        ensemble=ensemble(prev),
        gaps=np.asarray(gaps),
        iterations=len(gaps),
        converged=gaps[-1] < tol,
        diverged=not np.isfinite(gaps[-1]),
    )


@dataclass(frozen=True)
class RadiusReport:
    area: float
    r0: float
    picard_threshold: float
    gronwall_threshold: float
    picard_ok: bool
    gronwall_ok: bool


def convergence_radius_report(coeffs: CoefficientField, grid: Grid) -> RadiusReport:
    """Compare the horizon area |z| = T*X against both contraction regimes.

    Picard: K |z| < sqrt(r0).  Gronwall: K |z| <= r0.  K is the declared
    lipschitz_hint; K = 0 makes both thresholds infinite.
    """
    if coeffs.lipschitz_hint is None:
        raise ValueError("convergence_radius_report needs coeffs.lipschitz_hint")
    K = coeffs.lipschitz_hint
    _require_number(0.0, lipschitz_hint=K)
    area = grid.horizon.area
    r0 = find_r0(1e-12)
    picard_threshold = np.inf if K == 0 else np.sqrt(r0) / K
    gronwall_threshold = np.inf if K == 0 else r0 / K
    return RadiusReport(
        area=area,
        r0=r0,
        picard_threshold=picard_threshold,
        gronwall_threshold=gronwall_threshold,
        picard_ok=area < picard_threshold,
        gronwall_ok=area <= gronwall_threshold,
    )
