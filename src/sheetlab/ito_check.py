"""Term-by-term validation of the planar Ito formula.

For a field Y driven on the plane by drift alpha and diffusion beta against
an m-channel sheet, and a four-times-differentiable f, the formula reads

    f(Y(z)) - f(Y(0)) =
        T1  int df.alpha dzeta
      + T2  int df.beta B(dzeta)
      + T3  1/2 int d2f : beta beta^T dzeta
      + T4  iint_qb d2f(Y(v)) [beta B(dzeta)] [beta B(dzeta')]
      + T5  iint_qb { d2f alpha_k + 1/2 d3f (beta beta^T)_kl } dzeta [beta B(dzeta')]
      + T6  the mirror of T5 with B(dzeta) dzeta'
      + T7  iint_qb { d2f a a' + 1/2 d3f (q a' + a q') + 1/4 d4f q q' } dzeta dzeta'

where iint_qb ranges over quarter-ordered pairs (zeta.t <= zeta'.t,
zeta.x >= zeta'.x) and every double integrand is evaluated at the join
Y(zeta v zeta').  Discretely the pairs are ordered pairs of distinct cells
(ties in one index included); the join falls on the node with the larger
index in each axis.  T4/T5/T6 exclude identical-cell pairs — that diagonal
is the quadratic variation already booked in T3 — while the T7 Riemann sum
keeps them.

The pair sums are never materialized: with the quarter order, the sum over
pairs joined at cell v factorizes into (inclusive cumulative sum along t of
the zeta-factor) times (inclusive cumulative sum along x of the
zeta'-factor), evaluated at v, minus the identical-cell product where the
diagonal is excluded.  That turns O(cells^2) work into O(cells) per term and
is algebraically identical to the masked pair sum (pinned by a test against
the generic second-type integral).  Only six running sums occur, of the cell
drift, noise and quadratic-variation factors along t and along x, and each
is taken once and shared by the terms that read it.

One batched implementation evaluates the terms of R paths at once, along a
leading path axis, and :func:`ito_terms` is its R = 1 case.  Each sum is a
two-operand einsum, which adds a path's products in the same order whatever R
is.  :func:`ito_refinement_study` takes its replications through it in chunks
of at most ``_REPLICATE_CELLS`` grid cells (2^16; AC04's study peaks near 10
MB); a chunk is one draw of the words ``sample_sheet`` draws (stream =
replication), one solve, one coefficient read and one batched call.  For f and
maps that evaluate each point on its own, its residuals are the public
chain's, bit for bit.

Test functions carry their own analytic derivatives: differentiating
numerically inside the validator would contaminate the residual it measures.
Complex-valued f is supported (the Fourier-side checks reuse this module's
algebra); residuals are complex moduli.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import SheetPath, _sheet_cells
from .plane import Grid, Point, _require_count
from .solver import CoefficientField, StateField, _check_finite, _start_state, _sweep, coefficient_table

__all__ = [
    "TestFunction",
    "scalar_function",
    "ItoTermReport",
    "ito_terms",
    "RefinementStudy",
    "ito_refinement_study",
]

# grid cells per chunk of the study's replications: bounds its working arrays
_REPLICATE_CELLS = 1 << 16


@dataclass(frozen=True)
class TestFunction:
    """f with analytic derivatives to order 4, vectorized over leading axes.

    value: (..., n) -> (...);  grad: -> (..., n);  hess: -> (..., n, n);
    third: -> (..., n, n, n);  fourth: -> (..., n, n, n, n).
    """

    value: object
    grad: object
    hess: object
    third: object
    fourth: object


def scalar_function(v, d1, d2, d3, d4) -> TestFunction:
    """Bundle scalar callables (y-array -> array or constant) into a 1-D TestFunction."""

    def _vec(fn):
        def evaluate(ys):
            out = np.asarray(fn(ys))
            return np.broadcast_to(out, ys.shape)

        return evaluate

    v, d1, d2, d3, d4 = (_vec(fn) for fn in (v, d1, d2, d3, d4))
    return TestFunction(
        value=lambda y: v(y[..., 0]),
        grad=lambda y: d1(y[..., 0])[..., None],
        hess=lambda y: d2(y[..., 0])[..., None, None],
        third=lambda y: d3(y[..., 0])[..., None, None, None],
        fourth=lambda y: d4(y[..., 0])[..., None, None, None, None],
    )


@dataclass(frozen=True)
class ItoTermReport:
    t1: complex
    t2: complex
    t3: complex
    t4: complex
    t5: complex
    t6: complex
    t7: complex
    lhs: complex
    total: complex
    residual: float


def _batched_terms(f: TestFunction, alpha, beta, dB, Y, grid: Grid):
    """The seven terms, lhs, total and residual, each (R,), of R paths at node
    (i, j): alpha (R, i, j, n) and beta (R, i, j, n, m) read on the cells of
    R_z, the paths' cells dB (R, m, >= i, >= j) and states Y (R, > i, > j, n),
    C-contiguous so that each path's sums run as in a batch of one."""
    i, j = alpha.shape[1:3]
    dtdx = grid.dt * grid.dx
    g1, g2, g3, g4 = (np.asarray(d(Y[:, :i, :j])) for d in (f.grad, f.hess, f.third, f.fourth))
    # the cell factors (2, R, i, j, n): D[0] = alpha dt dx (drift), D[1] = beta dB (noise)
    D = np.stack([alpha * dtdx, np.einsum("rijnm,rmij->rijn", beta, dB[:, :, :i, :j])])
    qD = np.einsum("rijnm,rijlm->rijnl", beta, beta) * dtdx  # (R, i, j, n, n) = beta beta^T dtdx
    t1, t2 = np.einsum("rijk,srijk->sr", g1, D)
    t3 = 0.5 * np.einsum("rijkl,rijkl->r", g2, qD)

    # pair terms: zeta factor summed along t (col), zeta' factor along x (row), join at v.
    # Each is a cell sum of u . (d^k f v), taken as the product d^k f v, then the sum:
    # CR[s, t] = sum col[s] . d2f row[t], DD[s, t] = sum D[s] . d2f D[t],
    # QR[t] = sum q_col : d3f row[t], QC[t] = sum q_row : d3f col[t].
    col, row, q_col, q_row = D.cumsum(axis=2), D.cumsum(axis=3), qD.cumsum(axis=1), qD.cumsum(axis=2)
    CR = np.einsum("srijk,trijk->str", col, np.einsum("rijkl,trijl->trijk", g2, row))
    DD = np.einsum("srijk,trijk->str", D, np.einsum("rijkl,trijl->trijk", g2, D))
    QR = np.einsum("rijkl,trijkl->tr", q_col, np.einsum("rijklp,trijp->trijkl", g3, row))
    QC = np.einsum("rijkl,trijkl->tr", q_row, np.einsum("rijklp,trijp->trijkl", g3, col))
    QD = np.einsum("rijkl,rijkl->r", qD, np.einsum("rijklp,rijp->rijkl", g3, D[1]))
    QQ = np.einsum("rijkl,rijkl->r", q_col, np.einsum("rijklpq,rijpq->rijkl", g4, q_row))
    t4 = CR[1, 1] - DD[1, 1]
    t5 = CR[0, 1] - DD[0, 1] + 0.5 * (QR[1] - QD)
    t6 = CR[1, 0] - DD[1, 0] + 0.5 * (QC[1] - QD)
    t7 = CR[0, 0] + 0.5 * (QR[0] + QC[0]) + 0.25 * QQ

    lhs = np.asarray(f.value(Y[:, i, j])) - np.asarray(f.value(Y[:, 0, 0]))
    terms = (t1, t2, t3, t4, t5, t6, t7)
    total = sum(terms)
    return terms, lhs, total, np.abs(lhs - total)


def ito_terms(
    f: TestFunction,
    coeffs: CoefficientField,
    field: StateField,
    sheet: SheetPath,
    z: Point,
) -> ItoTermReport:
    """All seven discrete terms and the residual against f(Y(z)) - f(Y(0))."""
    grid = field.grid
    if sheet.grid != grid:
        raise ValueError("sheet and field live on different grids")
    if sheet.channels != coeffs.m:
        raise ValueError(f"sheet has {sheet.channels} channels, coefficients declare m={coeffs.m}")
    # single-path conditional reading: a measure collapses to the path's own state
    Y = field.values[None]
    alpha, beta = coefficient_table(coeffs, Y, grid, *grid.node_index(z))
    terms, lhs, total, residual = _batched_terms(f, alpha, beta, sheet.increments[None], Y, grid)
    *terms, lhs, total = (complex(t[0]) for t in (*terms, lhs, total))
    return ItoTermReport(*terms, lhs=lhs, total=total, residual=float(residual[0]))


@dataclass(frozen=True)
class RefinementStudy:
    rows: list  # (cells_per_axis, mean_residual, stderr)
    monotone: bool


def ito_refinement_study(
    f: TestFunction,
    coeffs: CoefficientField,
    y0,
    z: Point,
    grids: list,
    replications: int,
    seed: int,
) -> RefinementStudy:
    """Mean |residual| with standard error per grid; verdict on monotone decay.

    Replication r is ``sample_sheet(grid, m, seed, stream=r)`` taken through
    ``solve_goursat`` and :func:`ito_terms` at z, run in batches (module
    docstring); the field must be measure-free.
    """
    if len(grids) < 2:
        raise ValueError("need at least two grids, coarse to fine")
    _require_count(2, reason="need at least two replications, an integer", replications=replications)
    if coeffs.depends_on_measure:
        raise ValueError("ito_refinement_study solves single paths: the field must be measure-free")
    y0 = _start_state(y0, coeffs.n)
    rows = []
    for grid in grids:
        chunk = max(1, _REPLICATE_CELLS // (grid.nt * grid.nx))
        residuals = np.empty(replications)
        for lo in range(0, replications, chunk):
            reps = range(lo, min(lo + chunk, replications))
            dB = _sheet_cells(grid, coeffs.m, seed, reps)
            Y = np.ascontiguousarray(_check_finite(_sweep(coeffs, y0, grid, dB.swapaxes(0, 1))))
            alpha, beta = coefficient_table(coeffs, Y, grid, *grid.node_index(z))
            residuals[lo : lo + len(reps)] = _batched_terms(f, alpha, beta, dB, Y, grid)[3]
        se = residuals.std(ddof=1) / np.sqrt(replications)
        rows.append((grid.nt, float(residuals.mean()), float(se)))
    means = [r[1] for r in rows]
    monotone = all(means[k + 1] < means[k] for k in range(len(means) - 1))
    return RefinementStudy(rows=rows, monotone=monotone)
