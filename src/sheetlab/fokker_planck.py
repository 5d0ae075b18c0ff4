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
residual.

Every term is a polynomial of degree <= 4 in w whose coefficients depend only
on the cell, so the sums are built from per-cell tables once and reused for
every frequency.  Per cell, with A = alpha dt dx, B = beta_1 dB1 (common
channel), D = A + B and Q = beta beta^T dt dx (n x n), cX / rX the running sum
of X along t / along x (the cumulative-sum factorization of the quarter-ordered
pair sums, shared with the Ito validator), x the per-cell outer product and
w^k the k-fold outer power of w, the kernel sum at a cell is

    [ w^2 . (-Q/2 + D x D - A x A - cD x rD) + w^4 . (cQ x rQ / 4) ]
      + i [ w . (-D) + w^3 . ((cQ x rD + cD x rQ) / 2 - Q x B) ]

times exp(-i w.Y).  The pair sums of the noise kernels a3, a4 leave out the
cell paired with itself, which D x D - A x A and - Q x B take back out of
cD x rD and the a4 part of the cubic table; the area x area pair a5 keeps it.
The mixed kernel a4 cannot be summed merged: each orientation (deterministic
factor at zeta vs at zeta') must pair its own cumulative direction, or tie
cells are over-counted by an O(1) amount.  The tables keep both, in cD x rD
for the drift part and as the two distinct products cQ x rD and cD x rQ for
the diffusion part.  The tables are cell-last, (K, cells) with K = n + n^2 +
n^3 + n^4, stacked from the four blocks.  For a chunk of cells, all Q
frequencies then cost their cos and sin per cell, stacked into one (2Q,
cells) array, and a single (2Q, cells) x (cells, K) product.

Not every row pays for its own trig.  A plan made once per call from the
frequency rows sorts them four ways: a row that is all zero takes cos = 1
and sin = 0; a row exactly twice a row evaluated directly or negated takes
the double angle, cos = c^2 - s^2 and sin = 2 s c, since 2w.Y is exactly
twice w.Y in floating point; a row exactly the negation of a row evaluated
directly takes cos = c and sin = -s, since -w.Y is exactly the negation of
w.Y and libm's cos and sin are exactly even and odd; every other row is
evaluated with cos and sin.  The sums are then bit for bit those of
evaluating every non-doubled row directly.  AC09's {+-1, +-2} thus needs
trig for +1 only, and w = 0 for no row at all.  Every row, the zero row
included, still goes through the table product.

The tables are built while the coefficients stream in: R_z, the cells
[0, i) x [0, j), is read one grid row at a time from solver.coefficient_rows,
and the rectangle's alpha and beta are never held whole.  A row's table
needs its own A, B, D and Q, the running sums rD, rQ along x, which stay
inside the row, and cD, cQ along t.  These two are carries, one (n, M, j)
array for D and one (n, n, M, j) for Q, to which each row adds its D and Q
before its table is built.  A row of more than _CELLS cells is split into
sub-chunks of _CELLS // j particles, which bounds the table.  Transient
memory is thus one row plus the two carries, O(M j), for the same single
coefficient pass over R_z; an empty rectangle (i = 0 or j = 0) makes no
drift or diffusion call at all.

At w = 0 every monomial of w vanishes, so the kernel sum is an exact zero,
and so is the left side: the residual is identically 0.0 — a structural
identity the tests pin.  Negating w flips the sign of the sines and of the odd
monomials only, so the residual is conjugate-symmetric in w to rounding.
Within one call, -w takes its phase from +w, so the gap between a residual
and its mirror's conjugate checks only that copy (it reads 0.0 in AC09's
tables).  The conjugate check of the evaluated phases is two calls, one per
sign, each evaluated on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .plane import Grid, Point, _require_finite, mixed_partial, quarter_indicator
from .solver import ParticleEnsemble, coefficient_rows

__all__ = [
    "FrequencyGrid",
    "KernelContext",
    "kernel_a",
    "weak_residual",
    "residual_table",
    "lemma61_scalar_check",
    "Lemma61Report",
]


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Frequencies (Q, n) for residual tables; scalars are promoted to n=1."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError(f"frequencies must be (Q,) or (Q, n), got shape {vals.shape}")
        _require_finite(values=vals)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True, eq=False)
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


# cells per kernel chunk: bounds the (n + n^2 + n^3 + n^4, cells) table and the
# (2Q, cells) cos/sin block; at 1 << 14 the block alone is 1 MB for Q = 4
_CELLS = 1 << 13


def weak_residual(ensemble: ParticleEnsemble, w, z: Point) -> complex:
    """Residual of the five-term identity at frequency w, evaluated at z.

    Requires an ensemble that carries its coefficient field and initial state
    (both recorded by the mean-field solvers).  Exactly 0.0 at w = 0.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return complex(_residuals(ensemble, w[None], z)[0])


def residual_table(ensemble: ParticleEnsemble, freqs: FrequencyGrid, z: Point) -> list:
    """[(w row, complex residual)] sharing one coefficient evaluation pass."""
    residuals = _residuals(ensemble, freqs.values, z)
    return [(w, complex(res)) for w, res in zip(freqs.values, residuals)]


def _residuals(ensemble: ParticleEnsemble, W: np.ndarray, z: Point) -> np.ndarray:
    """Residuals (Q,) at the frequency rows W (Q, n): one coefficient pass, one kernel."""
    if ensemble.coeffs is None or ensemble.y0 is None:
        raise ValueError("ensemble does not carry coefficients; re-solve with the library solvers")
    if W.ndim != 2 or W.shape[1] != ensemble.n:
        raise ValueError(
            f"frequency shape {W.shape[1:]} does not match state dimension {ensemble.n}"
        )
    i, j = ensemble.grid.node_index(z)
    lhs = np.mean(np.exp(-1j * (ensemble.values[:, i, j, :] @ W.T)), axis=0) - np.exp(
        -1j * (W @ ensemble.y0)
    )
    return lhs - _five_term_sums(ensemble, W, i, j)


def _outer(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cell-last outer product of X (a, cells) and Y (b, cells): (a*b, cells)."""
    return (X[:, None] * Y[None]).reshape(-1, X.shape[1])


def _five_term_sums(ensemble: ParticleEnsemble, W: np.ndarray, i: int, j: int) -> np.ndarray:
    """Particle mean of the five summed integrals over R_z at each row of W (Q, n).

    R_z holds the cells [0, i) x [0, j).  Their coefficients are read one grid
    row at a time from :func:`coefficient_rows`, so nothing larger than a row
    is held: the running sums along t (cD, cQ) are carries that each row adds
    to, the ones along x (rD, rQ) are cumulative sums within the row.  Every
    per-row array is cell-last, (n..., M, j), so a particle sub-chunk is a
    contiguous run of cells of each component.  A row of more than _CELLS
    cells is taken in sub-chunks of _CELLS // j particles, each summed by
    :func:`_chunk_sums`, whose temporaries are freed before the next chunk
    builds its own.
    """
    grid = ensemble.grid
    dtdx = grid.dt * grid.dx
    M, n = ensemble.particles, ensemble.n
    plan = _trig_plan(W)
    w1, w2, w3, w4 = itertools.accumulate([W[plan.order].T] * 4, _outer)
    mono = np.concatenate([w2, w4, 1j * w1, 1j * w3]).T  # (Q, K), in plan order
    step = max(1, _CELLS // max(j, 1))
    cD = np.zeros((n, M, j))
    cQ = np.zeros((n, n, M, j))
    total = np.zeros(len(W), dtype=complex)
    rows = coefficient_rows(ensemble.coeffs, ensemble.values, grid, i if j else 0, j)
    for t, (alpha, beta) in enumerate(rows):
        A = np.multiply(alpha.transpose(2, 0, 1), dtdx, order="C")
        b = beta.transpose(2, 3, 0, 1)  # (n, m, M, j)
        B = np.multiply(b[:, 0], ensemble.common_increments[t, :j], order="C")
        Q = np.multiply(b[:, None, 0], b[None, :, 0], order="C")
        for c in range(1, b.shape[1]):
            Q += b[:, None, c] * b[None, :, c]
        Q *= dtdx
        Y = ensemble.values[:, t, :j].transpose(2, 0, 1)
        for lo in range(0, M, step):
            p = slice(lo, lo + step)
            chunk = A[:, p], B[:, p], Q[:, :, p], cD[:, p], cQ[:, :, p], Y[:, p].reshape(n, -1)
            total += _chunk_sums(*chunk, plan, mono)
    sums = np.empty_like(total)
    sums[plan.order] = total
    return sums / M


class _TrigPlan(NamedTuple):
    """Where each frequency row's cos and sin come from (module docstring).

    order lists the caller's row indices as the kernel holds them: first the
    rows of direct (d, n), evaluated with cos and sin, then one negated row
    per entry of mirrors, the index into direct of the row it negates, then
    one doubled row per entry of halves, the index into the direct and
    negated rows of the row it is twice, then the zero rows.
    """

    order: np.ndarray
    direct: np.ndarray
    mirrors: np.ndarray
    halves: np.ndarray


def _trig_plan(W: np.ndarray) -> _TrigPlan:
    """Plan the trig of the frequency rows W (Q, n); see :class:`_TrigPlan`.

    Rows are decided by increasing largest |component|, so a row's half is
    decided before it.  A row is doubled if its half is evaluated directly or
    negated, never from a row that is itself doubled; otherwise it is negated
    if its negation is evaluated directly.  Doubling goes first, so a row is
    doubled exactly when it would be with no negated rows, and the sums keep
    every bit.  Direct rows keep the caller's order.
    """
    zero = ~W.any(axis=1)
    direct, mirror_of, half_of = [], {}, {}
    for r in np.argsort(np.abs(W).max(axis=1), kind="stable"):
        if zero[r]:
            continue
        half = next((s for s in direct + list(mirror_of) if np.array_equal(2 * W[s], W[r])), None)
        mirror = next((s for s in direct if np.array_equal(-W[s], W[r])), None)
        if half is not None:
            half_of[r] = half
        elif mirror is not None:
            mirror_of[r] = mirror
        else:
            direct.append(r)
    direct.sort()
    negated, doubled = sorted(mirror_of), sorted(half_of)
    order = np.array(direct + negated + doubled + list(np.flatnonzero(zero)), dtype=np.intp)
    position = {r: k for k, r in enumerate(direct + negated)}
    mirrors = np.array([position[mirror_of[r]] for r in negated], dtype=np.intp)
    halves = np.array([position[half_of[r]] for r in doubled], dtype=np.intp)
    return _TrigPlan(order, W[direct], mirrors, halves)


def _chunk_sums(A, B, Q, cD, cQ, Y, plan, mono) -> np.ndarray:
    """Unaveraged five-term sums over one chunk of a grid row, in plan order.

    A, B (n, p, j) and Q (n, n, p, j) are the chunk's per-cell tables of the
    module docstring, Y (n, p*j) its states.  D = A + B and Q are first added
    to the t-carries cD and cQ in place, so that these then hold the running
    sums along t up to this row.  The chunk's table T (K, cells) stacks the
    real part's w^2 and w^4 coefficients, then the imaginary part's w and w^3
    ones.  C, S, the cos and sin of w.Y for the Q frequencies in the order of
    plan (a :class:`_TrigPlan`), fill one (2Q, cells) array block by block:
    the direct rows by cos and sin of their theta, the negated rows by their
    mirrors' cos and negated sin, the doubled rows by the double angle of
    their halves' rows, the zero rows by 1 and 0.  [C; S] @
    T^T is then one product, and frequency q's sum is (C_q @ T^T - i S_q @
    T^T) @ mono[q] with mono = [w^2, w^4, i w, i w^3].
    """
    n, cells = Y.shape
    D = A + B
    cD += D
    cQ += Q
    rD = np.cumsum(D, axis=-1).reshape(n, cells)
    rQ = np.cumsum(Q, axis=-1).reshape(n * n, cells)
    cD, A, B, D = (X.reshape(n, cells) for X in (cD, A, B, D))
    cQ, Q = (X.reshape(n * n, cells) for X in (cQ, Q))
    T2 = Q * -0.5 + _outer(D, D) - _outer(A, A) - _outer(cD, rD)
    T3 = (_outer(cQ, rD) + _outer(cD, rQ)) * 0.5 - _outer(Q, B)
    T = np.concatenate([T2, _outer(cQ, rQ) * 0.25, -D, T3])
    q, d = len(mono), len(plan.direct)
    g = d + len(plan.mirrors)
    e = g + len(plan.halves)
    cs = np.empty((2 * q, cells))
    cos, sin = cs[:q], cs[q:]
    theta = np.dot(plan.direct, Y, out=sin[:d])  # np.matmul is several times slower for n = 1
    np.cos(theta, out=cos[:d])
    np.sin(theta, out=theta)
    for r, s in enumerate(plan.mirrors, d):  # cos is even and sin odd, bit for bit
        cos[r] = cos[s]
        np.negative(sin[s], out=sin[r])
    for r, h in enumerate(plan.halves, g):  # in place, no temporaries: c^2 - s^2 and 2 s c
        c, s = cos[h], sin[h]
        np.multiply(c, c, out=cos[r])
        np.multiply(s, s, out=sin[r])
        cos[r] -= sin[r]
        np.multiply(s, c, out=sin[r])
        sin[r] *= 2
    cos[e:] = 1.0
    sin[e:] = 0.0
    P = cs @ T.T
    return np.sum((P[:q] - 1j * P[q:]) * mono, axis=1)


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
    k = grid.nt
    t, x = float(z.t), float(z.x)
    fd = mixed_partial(lambda p: _quarter_product_sum(fker, gker, p, k), z, h)

    ts = np.arange(k) * (t / k)
    xs = np.arange(k) * (x / k)
    f_edge = np.broadcast_to(np.asarray(fker(Point(ts, np.full(k, x))), dtype=float), (k,))
    g_edge = np.broadcast_to(np.asarray(gker(Point(np.full(k, t), xs)), dtype=float), (k,))
    rhs = float(f_edge.sum() * (t / k)) * float(g_edge.sum() * (x / k))
    return Lemma61Report(mixed_partial=fd, product_rhs=rhs, residual=abs(fd - rhs))
