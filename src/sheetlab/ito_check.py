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

Test functions carry their own analytic derivatives: differentiating
numerically inside the validator would contaminate the residual it measures.
Complex-valued f is supported (the Fourier-side checks reuse this module's
algebra); residuals are complex moduli.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import SheetPath, sample_sheet
from .plane import Grid, Point
from .solver import CoefficientField, StateField, coefficient_table, solve_goursat

__all__ = [
    "TestFunction",
    "scalar_function",
    "ItoTermReport",
    "ito_terms",
    "RefinementStudy",
    "ito_refinement_study",
]


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
    i, j = grid.node_index(z)
    dtdx = grid.dt * grid.dx

    # single-path conditional reading: a measure collapses to the path's own state
    alpha, beta = (t[0] for t in coefficient_table(coeffs, field.values[None], grid, i, j))

    Yc = field.values[:i, :j, :]
    g1 = np.asarray(f.grad(Yc))       # (i, j, n)
    g2 = np.asarray(f.hess(Yc))       # (i, j, n, n)
    g3 = np.asarray(f.third(Yc))      # (i, j, n, n, n)
    g4 = np.asarray(f.fourth(Yc))     # (i, j, n, n, n, n)

    aD = alpha * dtdx                                   # (i, j, n)
    bD = np.einsum("ijnm,mij->ijn", beta, sheet.increments[:, :i, :j])  # (i, j, n)
    qD = np.einsum("ijnm,ijlm->ijnl", beta, beta) * dtdx  # (i, j, n, n) = beta beta^T dtdx

    t1 = np.einsum("ijn,ijn->", g1, aD)
    t2 = np.einsum("ijn,ijn->", g1, bD)
    t3 = 0.5 * np.einsum("ijnl,ijnl->", g2, qD)

    # pair terms: zeta factor summed along t (col), zeta' factor along x (row), join at v
    a_col, b_col, q_col = (np.cumsum(F, axis=0) for F in (aD, bD, qD))
    a_row, b_row, q_row = (np.cumsum(F, axis=1) for F in (aD, bD, qD))
    t4 = np.einsum("ijkl,ijk,ijl->", g2, b_col, b_row) - np.einsum("ijkl,ijk,ijl->", g2, bD, bD)
    t5 = (
        np.einsum("ijkl,ijk,ijl->", g2, a_col, b_row)
        - np.einsum("ijkl,ijk,ijl->", g2, aD, bD)
        + 0.5 * np.einsum("ijklr,ijkl,ijr->", g3, q_col, b_row)
        - 0.5 * np.einsum("ijklr,ijkl,ijr->", g3, qD, bD)
    )
    t6 = (
        np.einsum("ijkl,ijk,ijl->", g2, b_col, a_row)
        - np.einsum("ijkl,ijk,ijl->", g2, bD, aD)
        + 0.5 * np.einsum("ijklr,ijr,ijkl->", g3, b_col, q_row)
        - 0.5 * np.einsum("ijklr,ijr,ijkl->", g3, bD, qD)
    )
    t7 = (
        np.einsum("ijkl,ijk,ijl->", g2, a_col, a_row)
        + 0.5 * np.einsum("ijklr,ijkl,ijr->", g3, q_col, a_row)
        + 0.5 * np.einsum("ijklr,ijkl,ijr->", g3, q_row, a_col)
        + 0.25 * np.einsum("ijklrs,ijkl,ijrs->", g4, q_col, q_row)
    )

    lhs = complex(np.asarray(f.value(field.values[i, j][None, :]))[0]) - complex(
        np.asarray(f.value(field.values[0, 0][None, :]))[0]
    )
    terms = (t1, t2, t3, t4, t5, t6, t7)
    total = complex(sum(terms))
    return ItoTermReport(
        *(complex(t) for t in terms), lhs=lhs, total=total, residual=abs(lhs - total)
    )


@dataclass(frozen=True)
class RefinementStudy:
    rows: list  # (cells_per_axis, mean_residual, stderr)
    monotone: bool

    def to_csv(self, filename: str) -> None:
        with open(filename, "w", newline="") as fh:
            fh.write("cells_per_axis,mean_residual,stderr\n")
            for k, mean, se in self.rows:
                fh.write(f"{k},{float(mean)!r},{float(se)!r}\n")


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

    Each replication solves the field on a freshly sampled sheet (stream =
    replication index) and evaluates :func:`ito_terms` at z.
    """
    if len(grids) < 2:
        raise ValueError("need at least two grids, coarse to fine")
    rows = []
    for grid in grids:
        residuals = np.empty(replications)
        for rep in range(replications):
            sheet = sample_sheet(grid, coeffs.m, seed, stream=rep)
            field = solve_goursat(coeffs, y0, sheet, grid)
            residuals[rep] = ito_terms(f, coeffs, field, sheet, z).residual
        rows.append(
            (grid.nt, float(residuals.mean()), float(residuals.std(ddof=1) / np.sqrt(replications)))
        )
    means = [r[1] for r in rows]
    monotone = all(means[k + 1] < means[k] for k in range(len(means) - 1))
    return RefinementStudy(rows=rows, monotone=monotone)
