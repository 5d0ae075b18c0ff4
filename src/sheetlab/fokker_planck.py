"""Weak-form transport equation for the conditional law on the plane.

Apply the planar Ito expansion to psi(y) = exp(-i w.y) along a particle of
the conditional mean-field system and average over particles conditionally on
the common channel: the Fourier transform mu_hat(z, w) of the conditional law
satisfies a closed five-term identity,

    mu_hat(z, w) - mu_hat(0, w) =
        int <mu, a1 psi> dzeta                      (first-type, area)
      + int <mu, a2 psi> B1(dzeta)                  (first-type, common noise)
      + iint_qb <mu, a3 psi> B1(dzeta) B1(dzeta')   (second-type, noise x noise)
      + iint_qb <mu, a4 psi> dzeta B1(dzeta')       (mixed, both orientations)
      + iint_qb <mu, a5 psi> dzeta dzeta'           (second-type, area x area)

with kernels (w.b denoting dot products, q = w^T beta beta^T w over *all*
channels, b1 = w . beta_1 the common-channel column only, primes marking the
zeta' argument):

    a1 = -i (w.alpha) - q/2
    a2 = -i b1
    a3 = - b1 b1'
    a4 = -[(w.alpha) b1' + b1 (w.alpha)'] + (i/2) [q b1' + b1 q']
    a5 = 1_qb . { -(w.alpha)(w.alpha)' + (i/2)[(w.alpha)' q + (w.alpha) q']
                  + (1/4) q q' }

Only the common channel drives the stochastic integrals: the idiosyncratic
channels are independent across particles, so their conditional averages
vanish and dropping them costs O(M^{-1/2}) — the Monte Carlo floor of the
residual.  The quarter-ordered pair sums reuse the cumulative-sum
factorization of the Ito validator; crucially the mixed kernel a4 cannot be
summed merged — each orientation (deterministic factor at zeta vs at zeta')
must pair its own cumulative direction, or tie cells are over-counted by an
O(1) amount.

At w = 0 every kernel vanishes and the left side is exactly zero, so the
residual is identically 0.0 — a structural identity the tests pin.  The
residual is also conjugate-symmetric in w to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plane import Grid, Point, mixed_partial, quarter_indicator
from .solver import ParticleEnsemble, coefficient_table

__all__ = [
    "FrequencyGrid",
    "KernelContext",
    "kernel_a",
    "weak_residual",
    "residual_table",
    "lemma61_scalar_check",
    "Lemma61Report",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Frequencies (Q, n) for residual tables; scalars are promoted to n=1."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError(f"frequencies must be (Q,) or (Q, n), got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class KernelContext:
    """Coefficient values feeding the kernels: alpha (..., n), beta (..., n, m).

    The primed pair carries the zeta' argument for the double-integral kernels
    (indices 3-5).  Optional points activate the quarter-order indicator in
    a5; without them the pair is assumed quarter-ordered.
    """

    alpha: np.ndarray
    beta: np.ndarray
    alpha_p: np.ndarray | None = None
    beta_p: np.ndarray | None = None
    zeta: Point | None = None
    zeta_p: Point | None = None


def _wa_wb_wq(w: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """(w.alpha, w.beta_1, w^T beta beta^T w) broadcast over leading axes."""
    wa = np.einsum("n,...n->...", w, alpha)
    wb_all = np.einsum("n,...nm->...m", w, beta)
    return wa, wb_all[..., 0], np.sum(wb_all**2, axis=-1)


def kernel_a(idx: int, w, ctx: KernelContext):
    """Pointwise kernel a_idx (idx in 1..5), complex, broadcast over batch axes."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wa, wb, wq = _wa_wb_wq(w, np.asarray(ctx.alpha, dtype=float), np.asarray(ctx.beta, dtype=float))
    if idx == 1:
        return -1j * wa - 0.5 * wq
    if idx == 2:
        return -1j * wb + 0j
    if idx not in (3, 4, 5):
        raise ValueError(f"kernel index must be 1..5, got {idx}")
    if ctx.alpha_p is None or ctx.beta_p is None:
        raise ValueError(f"kernel a{idx} needs the primed coefficients in the context")
    wa_p, wb_p, wq_p = _wa_wb_wq(
        w, np.asarray(ctx.alpha_p, dtype=float), np.asarray(ctx.beta_p, dtype=float)
    )
    if idx == 3:
        return -wb * wb_p + 0j
    if idx == 4:
        return -(wa * wb_p + wb * wa_p) + 0.5j * (wq * wb_p + wb * wq_p)
    value = -wa * wa_p + 0.5j * (wa_p * wq + wa * wq_p) + 0.25 * wq * wq_p
    if ctx.zeta is not None and ctx.zeta_p is not None:
        value = value * quarter_indicator(ctx.zeta, ctx.zeta_p)
    return value


def _col(F: np.ndarray) -> np.ndarray:
    return np.cumsum(F, axis=-2)


def _row(F: np.ndarray) -> np.ndarray:
    return np.cumsum(F, axis=-1)


def weak_residual(ensemble: ParticleEnsemble, w, z: Point, chunk: int = 256) -> complex:
    """Residual of the five-term identity at frequency w, evaluated at z.

    Requires an ensemble that carries its coefficient field and initial state
    (both recorded by the mean-field solvers).  Exactly 0.0 at w = 0.
    """
    if ensemble.coeffs is None or ensemble.y0 is None:
        raise ValueError("ensemble does not carry coefficients; re-solve with the library solvers")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (ensemble.n,):
        raise ValueError(f"frequency shape {w.shape} does not match state dimension {ensemble.n}")
    grid = ensemble.grid
    i, j = grid.node_index(z)

    lhs = complex(
        np.mean(np.exp(-1j * ensemble.values[:, i, j, :] @ w))
        - np.exp(-1j * float(ensemble.y0 @ w))
    )
    if i == 0 or j == 0:
        return lhs  # empty rectangle: all integrals vanish

    alpha, beta = coefficient_table(ensemble.coeffs, ensemble.values, grid, i, j)
    return lhs - _five_term_sum(ensemble, alpha, beta, w, i, j, chunk)


def _five_term_sum(
    ensemble: ParticleEnsemble,
    alpha: np.ndarray,
    beta: np.ndarray,
    w: np.ndarray,
    i: int,
    j: int,
    chunk: int,
) -> complex:
    grid = ensemble.grid
    dtdx = grid.dt * grid.dx
    dBc = ensemble.common_increments[:i, :j]
    M = ensemble.particles

    wa, wb, wq = _wa_wb_wq(w, alpha, beta)  # each (M, i, j)
    total = 0.0 + 0.0j
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        E = np.exp(-1j * np.einsum("pijn,n->pij", ensemble.values[lo:hi, :i, :j, :], w))
        aD = wa[lo:hi] * dtdx
        bD = wb[lo:hi] * dBc
        qD = wq[lo:hi] * dtdx
        cdet = -aD + 0.5j * qD  # the a4 deterministic factor, orientation-split

        t1 = np.sum((-1j * aD - 0.5 * qD) * E)
        t2 = np.sum(-1j * bD * E)
        t3 = -np.sum((_col(bD) * _row(bD) - bD * bD) * E)
        t4 = np.sum((_col(cdet) * _row(bD) - cdet * bD) * E) + np.sum(
            (_col(bD) * _row(cdet) - bD * cdet) * E
        )
        t5 = np.sum(
            (
                -_col(aD) * _row(aD)
                + 0.5j * (_col(qD) * _row(aD) + _col(aD) * _row(qD))
                + 0.25 * _col(qD) * _row(qD)
            )
            * E
        )
        total += t1 + t2 + t3 + t4 + t5
    return total / M


def residual_table(ensemble: ParticleEnsemble, freqs: FrequencyGrid, z: Point) -> list:
    """[(w row, complex residual)] sharing one coefficient evaluation pass."""
    grid = ensemble.grid
    i, j = grid.node_index(z)
    if i == 0 or j == 0:
        return [(np.array(wrow), weak_residual(ensemble, wrow, z)) for wrow in freqs]
    alpha, beta = coefficient_table(ensemble.coeffs, ensemble.values, grid, i, j)
    out = []
    for wrow in freqs:
        w = np.asarray(wrow, dtype=float)
        lhs = complex(
            np.mean(np.exp(-1j * ensemble.values[:, i, j, :] @ w))
            - np.exp(-1j * float(ensemble.y0 @ w))
        )
        out.append((w, lhs - _five_term_sum(ensemble, alpha, beta, w, i, j, 256)))
    return out


# --------------------------------------------------------------------------
# scalar differentiation identity for quarter-ordered product kernels


@dataclass(frozen=True)
class Lemma61Report:
    mixed_partial: float
    product_rhs: float
    residual: float


def _quarter_product_sum(fker, gker, z: Point, k: int) -> float:
    """Half-tie quadrature of iint_qb f(zeta) g(zeta') over R_z x R_z.

    A k x k lower-corner grid is rescaled to [0, z.t] x [0, z.x].  Pairs with
    a tie in one axis sit on the boundary of the quarter order; counting them
    with weight 1/2 makes the per-axis pair count exactly k^2/2, so constants
    are integrated exactly — full-weight ties overshoot by O(1/k), which the
    tolerance of the differentiation check cannot absorb.
    """
    sub = Grid(horizon=Point(float(z.t), float(z.x)), nt=k, nx=k)
    corners = sub.corner_points(k, k)
    F = np.asarray(fker(corners), dtype=float)
    G = np.asarray(gker(corners), dtype=float)
    F = np.broadcast_to(F, (k, k))
    G = np.broadcast_to(G, (k, k))
    # sum over zeta with t-index <= (tie: half) the zeta' t-index ...
    C = np.cumsum(F, axis=0) - 0.5 * F
    # ... and x-index >= (tie: half) the zeta' x-index
    D = np.flip(np.cumsum(np.flip(C, axis=1), axis=1), axis=1) - 0.5 * C
    return float(np.sum(D * G)) * (sub.dt * sub.dx) ** 2


def lemma61_scalar_check(fker, gker, z: Point, grid: Grid, h: float) -> Lemma61Report:
    """Differentiate the quarter-ordered double integral; compare to the product form.

    The mixed derivative d^2/dt dx of

        F(t, x) = iint over quarter-ordered pairs in R_(t,x) of f(zeta) g(zeta')

    equals [int_0^t f(s, x) ds] * [int_0^x g(t, v) dv]: one factor pins f on
    the upper x-edge, the other pins g on the upper t-edge.  The left side is
    a forward rectangle stencil with step h, each corner value re-quadratured
    on its own rescaled grid (grid.nt cells per axis); the right side uses
    lower-corner single sums.  The identity needs integrands that vanish off
    the quarter order built in — for generic product kernels the remainder
    after the two boundary terms is itself a double integral, and this
    residual does not vanish.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    k = grid.nt
    t, x = float(z.t), float(z.x)
    fd = mixed_partial(lambda p: _quarter_product_sum(fker, gker, p, k), z, h)

    ts = np.arange(k) * (t / k)
    xs = np.arange(k) * (x / k)
    f_edge = np.broadcast_to(np.asarray(fker(Point(ts, np.full(k, x))), dtype=float), (k,))
    g_edge = np.broadcast_to(np.asarray(gker(Point(np.full(k, t), xs)), dtype=float), (k,))
    rhs = float(f_edge.sum() * (t / k)) * float(g_edge.sum() * (x / k))
    return Lemma61Report(mixed_partial=fd, product_rhs=rhs, residual=abs(fd - rhs))
