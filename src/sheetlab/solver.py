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
two forms:

* the row loop.  Advancing a row only needs row-i data, so each row is one
  vectorized cumulative sum: the boundary column stays at y0, so row i+1 is
  row i plus the running sum of row i's sources.  Fields whose coefficients
  read the states or the measure, and every Picard step, take this form.
* the closed form.  A field declaring depends_on_state=False and
  depends_on_measure=False cannot see the states being solved, so all rows'
  coefficients are read first (on states held at y0), the sources of the
  whole grid are formed at once, and the field is y0 plus one cumulative sum
  along x followed by one along t.  The additions happen in the row loop's
  order, so both forms give the same bits.

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
y of shape (B, n) and returns (B, n); diffusion returns (B, n, m).  Solvers
and validators all read them through one row-wise pass,
:func:`coefficient_rows`, under one contract.  A measure-dependent field is
called once per node: y is the (M, n) cloud of the M paths' states there, z a
scalar Point, mu their EmpiricalMeasure.  A measure-free field is called once
per grid row with mu = None: y is the (M*nx, n) batch of the row's states,
particle-major, and z holds arrays of the matching node coordinates, built
once per pass and shared by its rows, so a field must not write to them.
Every return is shape-checked.

The node measures and Points come from one node pass, :func:`_node_measures`,
which the control's cost pass reads too.  Its measures skip validation, since
the grid and the solver guarantee it: a measure's ``samples`` is a view of the
solver's states at the node (the same array as y), and its ``sample_mean``
is a read-only row of one reduction over the grid row's clouds, so a field
that reads only the mean (``mean_reversion_field``, the control's
``mean_feedback_policy``) reduces no cloud of its own.  A field must
not write to any of them.  Node Points are likewise built unchecked, because
grid coordinates i*dt and j*dx are nonnegative.

The conditional mean-field system couples M particles through the empirical
measure of their states at the current node: channel 1 of the sheet is shared
by all particles (the common noise), channels 2..m are drawn independently
per particle.  That empirical measure is the particle estimate of the
conditional law of Y given the channel-1 history, and it is rebuilt
node-by-node before the particles advance — bulk-synchronous, so the result
is independent of any particle execution order.

Picard iteration re-solves the recursion with coefficients frozen at the
previous iterate's states and measures, reusing identical noise arrays across
iterates (the contraction being probed lives on one probability space; fresh
noise would destroy it).  Iterate gaps are reported as sup-over-grid
mean-square differences; the convergence threshold for horizon area |z| = T*X
and Lipschitz constant K is K|z| < sqrt(r0) ~ 1.2024, with the companion
Gronwall regime K|z| <= r0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure
from .noise import SheetPath, _draw_cells
from .plane import Grid, Point
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
        if self.n < 1 or self.m < 1:
            raise ValueError(f"state dim and channel count must be >= 1, got n={self.n}, m={self.m}")


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


def _check_shapes(tag: str, arr: np.ndarray, expected: tuple) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != expected:
        raise ValueError(f"{tag} returned shape {arr.shape}, expected {expected}")
    return arr


def _node_measures(values: np.ndarray, grid: Grid, rows: int, cols: int):
    """The one node pass: for grid rows i = 0..rows-1, yield the list of row
    i's (z, mu) pairs, nodes j < cols, read on the states ``values`` (M, >=
    rows, >= cols, n) only when the row is requested.

    ``z`` is the node's unchecked Point and ``mu`` the unchecked empirical
    measure of its M states: ``mu.samples`` is a view of ``values``, and the
    nodes' read-only ``sample_mean`` come from one reduction over the row's
    particle axis: on node-major states (module docstring), the layout of
    every library caller, each equals its cloud's own mean bit for bit, and on
    other layouts to rounding.
    """
    M = values.shape[0]
    if M < 1:
        raise ValueError(f"an empirical measure needs at least one sample, got M={M}")
    xs = [j * grid.dx for j in range(cols)]
    point, measure = Point._unchecked, EmpiricalMeasure._unchecked
    for i in range(rows):
        t = i * grid.dt
        clouds = values[:, i, :cols].swapaxes(0, 1)
        means = np.add.reduce(clouds, axis=1) / M
        means.setflags(write=False)
        yield [(point(t, x), measure(c, mean)) for x, c, mean in zip(xs, clouds, means)]


def coefficient_rows(
    coeffs: CoefficientField, values: np.ndarray, grid: Grid, rows: int, cols: int
):
    """Yield (alpha (M, cols, n), beta (M, cols, n, m)) for grid rows 0..rows-1.

    The coefficients are read on the states ``values`` (M, >= rows, >= cols, n),
    nodes j < cols of each row.  Row i is read only when its pair is requested,
    so a solver may fill values[:, i] between two steps.  A measure-dependent
    field is called per node with the (z, mu) of :func:`_node_measures`, the
    one node pass, and its returns are written to node-major (cols, M, ...)
    buffers, of which the yielded pair are views; a measure-free field is
    called per row on the (M*cols, n) batch.
    """
    values = np.asarray(values, dtype=float)
    M, n, m = values.shape[0], coeffs.n, coeffs.m
    drift, diffusion = coeffs.drift, coeffs.diffusion
    if coeffs.depends_on_measure:
        alpha_shape, beta_shape = (M, n), (M, n, m)
        for nodes in _node_measures(values, grid, rows, cols):
            # node-major buffers: node j's coefficients are one contiguous write
            alpha = np.empty((cols, M, n))
            beta = np.empty((cols, M, n, m))
            for j, (z, mu) in enumerate(nodes):
                alpha[j] = _check_shapes("drift", drift(z, mu.samples, mu), alpha_shape)
                beta[j] = _check_shapes("diffusion", diffusion(z, mu.samples, mu), beta_shape)
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

    Its library users are the closed-form solve of a state-free field and the
    Ito validation (``ito_terms`` and the study's batches); the weak
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
    m channel arrays ``cells`` (..., 1 or M), read in place.  Both forms of the
    recursion contract through here, a row or the whole grid at a time, so they
    add the same products in the same order."""
    out = beta[..., 0] * cells[0][..., None]
    for c in range(1, len(cells)):
        out += beta[..., c] * cells[c][..., None]
    return out


def _sweep(coeffs, y0, grid, noise, frozen=None) -> np.ndarray:
    """The Euler-Goursat recursion for M paths; returns states (M, nt+1, nx+1, n).

    The states are stored node-major, (nt+1, nx+1, M, n), and returned as the
    (M, nt+1, nx+1, n) view, so a node's cloud and a row's update are
    contiguous.  ``noise`` is the m channel arrays (1 or M, nt, nx) of the module
    docstring.  Coefficients are read along the states being solved (row i once
    it is filled) or, for a Picard step, along the ``frozen`` previous iterate.
    A state- and measure-free field solved directly takes the closed form
    (module docstring).
    """
    nt, nx = grid.nt, grid.nx
    M = max(len(dB) for dB in noise)
    cells = [dB.transpose(1, 2, 0) for dB in noise]  # (nt, nx, 1 or M) views
    Y = np.empty((nt + 1, nx + 1, M, coeffs.n))
    states = Y.transpose(2, 0, 1, 3)
    dtdx = grid.dt * grid.dx
    if frozen is None and not (coeffs.depends_on_state or coeffs.depends_on_measure):
        Y[...] = y0  # the maps see finite states, never uninitialised memory
        alpha, beta = coefficient_table(coeffs, states, grid, nt, nx)
        alpha, beta = alpha.transpose(1, 2, 0, 3), beta.transpose(1, 2, 0, 3, 4)  # node-major
        src = alpha * dtdx + _noise_source(beta, cells)
        # row i+1 is y0 + the x-running sums of rows 0..i, added in the row loop's order
        run = np.cumsum(src, axis=1)
        run[0] += y0
        np.cumsum(run, axis=0, out=Y[1:, 1:])
        return states
    Y[0] = y0
    Y[:, 0] = y0
    rows = coefficient_rows(coeffs, states if frozen is None else frozen, grid, nt, nx)
    for i, (alpha, beta) in enumerate(rows):
        beta_dB = _noise_source(beta.swapaxes(0, 1), [dB[i] for dB in cells])
        src = alpha.swapaxes(0, 1) * dtdx + beta_dB
        np.add(Y[i, 1:], np.cumsum(src, axis=0), out=Y[i + 1, 1:])
    return states


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
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (coeffs.n,))
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
    return _replicate_increments(DOMAIN_REPLICATE, grid, m, M, seed, rep)


def mean_reversion_field(rate: float, sigma, n: int = 1) -> CoefficientField:
    """Conditional OU dynamics: drift = rate * (mean of mu - y), constant beta.

    The mean is ``mu.sample_mean``, which the measures the solvers build
    carry from one reduction per grid row.  The drift is rate-Lipschitz in
    the state and rate-Lipschitz in the measure (through the mean), so the
    declared joint constant is 2 * rate.
    """
    sigma_arr = np.asarray(sigma, dtype=float)
    if sigma_arr.ndim == 1:
        sigma_arr = np.broadcast_to(sigma_arr[None, :], (n, sigma_arr.shape[0]))
    m = sigma_arr.shape[1]
    betas = {}  # batch size -> read-only broadcast view of sigma

    def drift(z, y, mu):
        return rate * (mu.sample_mean - y)

    def diffusion(z, y, mu):
        beta = betas.get(y.shape[0])
        if beta is None:
            beta = betas[y.shape[0]] = np.broadcast_to(sigma_arr, (y.shape[0], n, m))
        return beta

    return CoefficientField(
        n=n,
        m=m,
        drift=drift,
        diffusion=diffusion,
        depends_on_measure=True,
        lipschitz_hint=2.0 * abs(rate),
    )


def _ensemble_noise(coeffs: CoefficientField, M: int, grid: Grid, seed: int, common=None, idio=None):
    """Validated (common, idio) noise of an M-particle ensemble; either array
    may be given, the other is drawn from the standard streams of ``seed``."""
    if M < 1:
        raise ValueError(f"need at least one particle, got M={M}")
    if coeffs.m < 2:
        raise ValueError("conditional dynamics need m >= 2: one common plus idiosyncratic channels")
    if common is None or idio is None:
        sampled = sample_ensemble_increments(grid, coeffs.m, M, seed)
        common = sampled[0] if common is None else common
        idio = sampled[1] if idio is None else idio
    common = np.asarray(common, dtype=float)
    idio = np.asarray(idio, dtype=float)
    if common.shape != (grid.nt, grid.nx):
        raise ValueError(f"common increments shape {common.shape} != {(grid.nt, grid.nx)}")
    if idio.shape != (M, coeffs.m - 1, grid.nt, grid.nx):
        raise ValueError(
            f"idiosyncratic increments shape {idio.shape} != {(M, coeffs.m - 1, grid.nt, grid.nx)}"
        )
    return common, idio


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
    ValueError naming the first node (i, j) where a state is not finite.
    """
    common, idio = _ensemble_noise(coeffs, M, grid, seed, common_increments, idio_increments)
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (coeffs.n,))
    return ParticleEnsemble(
        values=_check_finite(_sweep(coeffs, y0, grid, [common[None], *idio.swapaxes(0, 1)])),
        grid=grid,
        common_increments=common,
        idio_increments=idio,
        coeffs=coeffs,
        y0=y0,
    )


@dataclass(frozen=True, eq=False)
class PicardResult:
    ensemble: ParticleEnsemble
    gaps: np.ndarray
    iterations: int
    converged: bool
    diverged: bool
    divergence: str | None = None  # "rising gaps" or "non-finite gap" when diverged


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

    Iterate 0 is the constant field y0.  Iterate k+1 solves the recursion
    with drift/diffusion evaluated along iterate k (states and empirical
    measures), on one fixed set of noise arrays.  Gaps are sup-over-nodes
    mean-square iterate differences; the divergence flag trips after three
    consecutive gap increases, or at once on a non-finite gap (an iterate that
    overflowed), which also stops the iteration; ``divergence`` names the rule
    that tripped, "rising gaps" or "non-finite gap", and is None otherwise.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    common, idio = _ensemble_noise(coeffs, M, grid, seed)
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (coeffs.n,))
    # node-major like every iterate _sweep returns
    prev = np.broadcast_to(y0, (grid.nt + 1, grid.nx + 1, M, coeffs.n)).copy().transpose(2, 0, 1, 3)
    gaps = []
    converged = False
    divergence = None
    noise = [common[None], *idio.swapaxes(0, 1)]  # shared, then each particle's own
    for _ in range(max_iter):
        cur = _sweep(coeffs, y0, grid, noise, frozen=prev)
        gap = float(np.max(np.mean(np.sum((cur - prev) ** 2, axis=-1), axis=0)))
        gaps.append(gap)
        prev = cur
        if not np.isfinite(gap):
            divergence = "non-finite gap"
            break
        if gap < tol:
            converged = True
            break
        if len(gaps) >= 4 and all(gaps[-k] > gaps[-k - 1] for k in (1, 2, 3)):
            divergence = "rising gaps"
            break
    ensemble = ParticleEnsemble(
        values=prev,
        grid=grid,
        common_increments=common,
        idio_increments=idio,
        coeffs=coeffs,
        y0=y0,
    )
    return PicardResult(
        ensemble=ensemble,
        gaps=np.asarray(gaps),
        iterations=len(gaps),
        converged=converged,
        diverged=divergence is not None,
        divergence=divergence,
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
    if K < 0:
        raise ValueError(f"Lipschitz hint must be nonnegative, got {K}")
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
