"""Mean-field limit of a rank-one interacting particle system on the plane.

N particles solve the linear system

    Y_i(z) = y + int_{R_z} [ (1/N) sum_j a_j Y_j - Y_i ] dzeta + B_i(z),

i.e. dY = (A/N - I) Y dzeta + I B(dzeta) with the rank-one interaction
matrix A = ones (x) a (every row equals the weight vector a).  Because A has
one nonzero eigenvalue lam = sum_j a_j with projector P = A/lam, powers of
the drift matrix close up:

    (A/N - I)^n = (-1)^n (I - P) + kappa^n P,      kappa = lam/N - 1,

which collapses the Peano-Baker series of the system into the entire function
f(theta) = sum_n theta^n / (n!)^2 and yields the closed form (for the common
starting value y, which P fixes: P y 1 = y 1)

    Y_i(z) = f(kappa t x) y
             + iint_{R_z} f(-(t-u)(x-v)) B_i(du, dv)
             + I_{i,N}(z),

    I_{i,N}(z) = sum_j (a_j / lam) iint_{R_z}
                 [ f(kappa (t-u)(x-v)) - f(-(t-u)(x-v)) ] B_j(du, dv).

The remainder I_{i,N} is the particle's only coupling to the others; its
variance is O(1/N) (exactly V0/N when a_j = 1, where V0 is the squared
L^2 norm of 1 - f(-theta) over the rectangle), which is the propagation-of-
chaos rate the rate experiment estimates.  As N grows, each particle
converges to the decoupled limit field

    Y*(z) = f((a - 1) t x) y + iint f(-(t-u)(x-v)) B*(du, dv)

(constant weights a_j = a), which solves the linear transport equation
Y* = y + int (a E[Y*] - Y*) dzeta + B*.  As kappa = lam/N - 1, the closed
form is the limit field at the mean weight lam/N, driven by B_i, plus the
coupling I_{i,N} that all particles share.  The convolution kernels are
Toeplitz in the index offsets, so all closed-form fields are assembled with
FFT convolutions.

Discrete convention: double integrals are lower-corner sums over cells
strictly below the evaluation node, matching the solver's explicit recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import SheetPath, _draw_cells, _node_values, _sheet_cells
from .plane import Grid, _require_count, _require_finite, _require_number
from .rng import DOMAIN_CHAOS
from .series import _Y_GUARD, f_series
from .solver import CoefficientField, StateField, solve_goursat

__all__ = [
    "RankOneMatrix",
    "matrix_power_decomposition",
    "ChaosConfig",
    "simulate_particle_system",
    "closed_form_solution",
    "RemainderVariance",
    "remainder_variance",
    "limit_solution",
    "LimitSpdeReport",
    "verify_limit_spde",
]

_WEIGHT_FLOOR = 1e-8  # lowest admissible mean interaction weight


@dataclass(frozen=True, eq=False)
class RankOneMatrix:
    """Interaction matrix A = ones (x) a, stored by its weight row a."""

    a_values: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a_values, dtype=float))
        if a.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {a.shape}")
        _require_finite(a_values=a)
        if a.sum() <= 0:
            raise ValueError(f"weight sum must be positive, got {a.sum()}")
        object.__setattr__(self, "a_values", a)

    @property
    def size(self) -> int:
        return self.a_values.shape[0]

    @property
    def total(self) -> float:
        """sum_j a_j: the nonzero eigenvalue of A (and its projector scale)."""
        return float(self.a_values.sum())

    def kappa(self) -> float:
        """Eigenvalue of the drift matrix A/N - I on the range of A."""
        return self.total / self.size - 1.0

    def as_array(self) -> np.ndarray:
        return np.tile(self.a_values, (self.size, 1))


def matrix_power_decomposition(A: RankOneMatrix, n: int) -> np.ndarray:
    """(A/N - I)^n in closed form: (-1)^n (I - P) + kappa^n P, P = A/sum(a)."""
    _require_count(0, n=n)
    N = A.size
    P = A.as_array() / A.total
    return ((-1.0) ** n) * (np.eye(N) - P) + (A.kappa() ** n) * P


@dataclass(frozen=True, eq=False)
class ChaosConfig:
    """Particle count, interaction weights, shared start value, grid.

    The mean weight must stay above the floor _WEIGHT_FLOOR = 1e-8: the closed
    form divides by sum(a), and the limit equation's contraction constant
    degenerates as the mean weight approaches zero.
    """

    N: int
    a_values: np.ndarray
    y0: float
    grid: Grid

    def __post_init__(self):
        _require_count(1, N=self.N)
        a = np.asarray(self.a_values, dtype=float)
        if a.shape not in ((), (1,), (self.N,)):
            raise ValueError(f"a_values of shape {a.shape} do not fit N={self.N}")
        a = np.broadcast_to(a, (self.N,)).copy()
        _require_finite(a_values=a)
        if a.mean() < _WEIGHT_FLOOR:
            raise ValueError(f"a_values have mean {a.mean()}, below the floor {_WEIGHT_FLOOR:g}")
        object.__setattr__(self, "a_values", a)
        _require_number(y0=self.y0)
        object.__setattr__(self, "y0", float(self.y0))

    def matrix(self) -> RankOneMatrix:
        return RankOneMatrix(a_values=self.a_values)


def simulate_particle_system(cfg: ChaosConfig, sheet: SheetPath) -> StateField:
    """Euler-Goursat solve of the N-particle system on the given N-channel sheet."""
    if sheet.channels != cfg.N:
        raise ValueError(f"sheet has {sheet.channels} channels, system needs N={cfg.N}")
    a = cfg.a_values
    N = cfg.N
    eye = np.eye(N)

    def drift(z, y, mu):
        return np.einsum("bj,j->b", y, a)[:, None] / N - y

    def diffusion(z, y, mu):
        return np.broadcast_to(eye, (y.shape[0], N, N))

    coeffs = CoefficientField(
        n=N, m=N, drift=drift, diffusion=diffusion, depends_on_measure=False, lipschitz_hint=2.0
    )
    return solve_goursat(coeffs, np.full(N, cfg.y0), sheet, cfg.grid)


def _convolve_cells(incr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Node field (nt+1, nx+1): sum over cells below the node of kernel * incr.

    kernel[di-1, dj-1] weights the cell whose lower corner sits (di, dj) grid
    steps below/left of the node; both axes zero on the boundary.
    """
    kt, kx = incr.shape
    shape = (2 * kt, 2 * kx)
    conv = np.fft.irfft2(np.fft.rfft2(incr, shape) * np.fft.rfft2(kernel, shape), shape)
    out = np.zeros((kt + 1, kx + 1))
    out[1:, 1:] = conv[:kt, :kx]
    return out


def _theta_table(grid: Grid) -> np.ndarray:
    """theta[di-1, dj-1] = (di dt)(dj dx): node-minus-corner rectangle areas."""
    dts = np.arange(1, grid.nt + 1) * grid.dt
    dxs = np.arange(1, grid.nx + 1) * grid.dx
    return np.outer(dts, dxs)


def _series_guard(label: str, w: float, grid: Grid) -> None:
    """Raise a ValueError naming ``label`` = w and the grid horizon when a
    field at weight w would read the series f outside its guard.  Such a
    field reads f((w - 1) t x) and f(-theta) for theta up to T X, so its
    largest series argument is max(|w - 1|, 1) T X.  ChaosConfig and the
    particle solve read no series, and take any weight and horizon."""
    area = grid.horizon.area
    if max(abs(w - 1.0), 1.0) * area > _Y_GUARD:
        raise ValueError(
            f"{label}={w} on the grid horizon with T X = {area} puts max(|w - 1|, 1) T X"
            f" outside the series' |y| <= {_Y_GUARD:g}"
        )


def closed_form_solution(cfg: ChaosConfig, sheet: SheetPath) -> StateField:
    """Exact solution field: each particle's limit field at the mean weight
    sum(a)/N, driven by its own channel, plus the shared coupling I_{i,N}."""
    if sheet.channels != cfg.N:
        raise ValueError(f"sheet has {sheet.channels} channels, system needs N={cfg.N}")
    grid = cfg.grid
    A = cfg.matrix()
    _series_guard("the mean of a_values", A.total / A.size, grid)
    theta = _theta_table(grid)
    dB = sheet.increments
    shared = _convolve_cells(
        np.einsum("j,jab->ab", A.a_values / A.total, dB),
        f_series(A.kappa() * theta) - f_series(-theta),
    )
    fields = _limit_fields(A.total / A.size, cfg.y0, grid, dB) + shared
    return StateField(values=np.ascontiguousarray(np.moveaxis(fields, 0, -1)), grid=grid)


@dataclass(frozen=True)
class RemainderVariance:
    estimate: float
    stderr: float
    replicates: int


def remainder_variance(cfg: ChaosConfig, replicates: int, seed: int) -> RemainderVariance:
    """Monte Carlo estimate of E|I_N|^2 at the horizon.

    The coupling remainder at z = horizon is the weighted sum over channels of
    the double integral of f(kappa theta) - f(-theta); only the kernel table
    and one Gaussian array per channel are needed — no field solve.  Channel
    substreams are indexed (replicate, channel), so estimates for nested
    particle counts at the same seed share their first channels: the rate
    ratio est(N)/est(2N) is then a paired comparison.
    """
    _require_count(2, replicates=replicates)
    grid = cfg.grid
    theta = _theta_table(grid)
    A = cfg.matrix()
    _series_guard("the mean of a_values", A.total / A.size, grid)
    W = f_series(A.kappa() * theta) - f_series(-theta)
    samples = np.empty(replicates)
    for rep in range(replicates):
        cells = _draw_cells(grid, seed, DOMAIN_CHAOS, ((rep, c) for c in range(cfg.N)))
        I = 0.0
        for c, dB in enumerate(cells):
            I += (A.a_values[c] / A.total) * float(np.sum(W * dB))
        samples[rep] = I * I
    return RemainderVariance(
        estimate=float(samples.mean()),
        stderr=float(samples.std(ddof=1) / np.sqrt(replicates)),
        replicates=replicates,
    )


def _limit_fields(a: float, y0: float, grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Y* for each slab of cell increments (R, nt, nx), shape (R, nt+1, nx+1):
    the deterministic part and the f(-theta) kernel are built once, then one
    convolution per slab, so the FFT buffers stay one slab's."""
    tx = np.outer(grid.t_nodes(), grid.x_nodes())
    det = f_series((a - 1.0) * tx) * y0
    K1 = f_series(-_theta_table(grid))
    return np.array([det + _convolve_cells(slab, K1) for slab in cells])


def limit_solution(a: float, y0: float, sheet_star: SheetPath) -> StateField:
    """Decoupled limit field on a single-channel sheet, constant weight a."""
    if sheet_star.channels != 1:
        raise ValueError(f"limit field uses one channel, sheet has {sheet_star.channels}")
    _require_number(a=a, y0=y0)
    a, y0 = float(a), float(y0)
    _series_guard("a", a, sheet_star.grid)
    values = _limit_fields(a, y0, sheet_star.grid, sheet_star.increments)
    return StateField(values=values[0, :, :, None], grid=sheet_star.grid)


@dataclass(frozen=True)
class LimitSpdeReport:
    det_residual: float
    stoch_residual: float
    replicates: int


def verify_limit_spde(
    a: float,
    y0: float,
    grid: Grid,
    replicates: int,
    seed: int,
    increments: np.ndarray | None = None,
) -> LimitSpdeReport:
    """Check that the limit field solves its transport equation, two ways.

    Deterministic part: u(z) = f((a-1) t x) y0 must satisfy
    u = y0 + (a-1) int_{R_z} u.  The series has an exact rectangle integral,
    int_0^t int_0^x f(c s v) ds dv = (f(c t x) - 1)/c (and t*x at c = 0), so
    the reported sup-node residual isolates series truncation — lower-corner
    quadrature would bury the identity under O(dt + dx) discretization bias.

    Stochastic part: for each replicate, Y* of :func:`limit_solution` is
    plugged into the integral equation with E[Y*] replaced by the replicate
    average and the drift integral by its lower-corner sum.  Reported is the
    sup over nodes of the RMS residual across replicates; it shrinks with
    both grid refinement and replicate growth.  ``increments`` of shape
    (replicates, nt, nx) overrides the per-replicate sheet noise.
    """
    _require_count(2, replicates=replicates)
    _require_number(a=a, y0=y0)
    a, y0 = float(a), float(y0)
    _series_guard("a", a, grid)
    c = a - 1.0
    tx = np.outer(grid.t_nodes(), grid.x_nodes())
    f = f_series(c * tx)
    u = f * y0
    drift_exact = ((f - 1.0) / c if c != 0 else tx) * y0
    det_residual = float(np.max(np.abs(u - y0 - c * drift_exact)))

    shape = (replicates, grid.nt, grid.nx)
    if increments is None:  # the draws of sample_sheet(grid, 1, seed, stream=rep)
        dB = _sheet_cells(grid, 1, seed, range(replicates))[:, 0]
    elif np.shape(increments) == shape:
        dB = np.asarray(increments, dtype=float)
    else:
        raise ValueError(f"increments shape {np.shape(increments)} != {shape}")
    fields = _limit_fields(a, y0, grid, dB)
    B = _node_values(dB)
    # the drift integral's lower-corner sums, every replicate at once
    drift = _node_values((a * fields.mean(axis=0) - fields)[:, :-1, :-1] * (grid.dt * grid.dx))
    residuals = fields - y0 - drift - B
    stoch_residual = float(np.max(np.sqrt(np.mean(residuals**2, axis=0))))
    return LimitSpdeReport(
        det_residual=det_residual, stoch_residual=stoch_residual, replicates=replicates
    )
