"""Geometry of the parameter plane: points, grids, and rectangle quadrature.

Points z = (t, x) live in the closed quarter-plane.  R_z denotes the
rectangle [0, t] x [0, x]; |z| = t*x is its area.  Two partial orders matter:
the componentwise join ``sup_join`` (written a v b) and the *quarter order*
``quarter_indicator`` — the indicator that a precedes b in time but succeeds
it in space (a.t <= b.t and a.x >= b.x).  The quarter order governs the mixed
double-integral term of the planar Ito formula and the differentiation
identities checked here and in :mod:`sheetlab.fokker_planck`.

All quadrature is lower-left-corner Riemann: it is the deterministic twin of
the adapted (left-point) evaluation used for stochastic integrals, so both
integral types share one discretization.  Grids are uniform and closed at
both ends; APIs that take an evaluation point require it to sit on a node —
no silent interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Grid",
    "sup_join",
    "quarter_indicator",
    "rect_integral",
    "double_rect_integral",
    "mixed_partial",
    "diff_double_integral_identity_check",
]

_NODE_RTOL = 1e-9
_PAIR_CHUNK = 128  # first cells per block of the cell-pair sums here and in noise


def _negative(v) -> bool:
    """Whether a coordinate (scalar or array) has a negative entry; NaN does not count."""
    if isinstance(v, (int, float, np.integer, np.floating)):
        return v < 0
    return bool((np.asarray(v) < 0).any())


@dataclass(frozen=True)
class Point:
    """A point z = (t, x) of the quarter-plane; fields may be numpy arrays."""

    t: object
    x: object

    def __post_init__(self):
        if _negative(self.t) or _negative(self.x):
            raise ValueError(f"plane points need nonnegative coordinates, got ({self.t}, {self.x})")

    @classmethod
    def _unchecked(cls, t, x) -> Point:
        """A Point with no sign check, for grid nodes i*dt, j*dx: a Grid's
        horizon was validated, so its node coordinates are nonnegative."""
        z = object.__new__(cls)
        object.__setattr__(z, "t", t)
        object.__setattr__(z, "x", x)
        return z

    @property
    def area(self) -> float:
        """|z| = t*x, the area of the rectangle R_z."""
        return self.t * self.x


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, T] x [0, X] with nt x nx cells ((nt+1)(nx+1) nodes)."""

    horizon: Point
    nt: int
    nx: int

    def __post_init__(self):
        if self.nt < 1 or self.nx < 1:
            raise ValueError(f"grid needs at least one cell per axis, got {self.nt} x {self.nx}")

    @property
    def dt(self) -> float:
        return self.horizon.t / self.nt

    @property
    def dx(self) -> float:
        return self.horizon.x / self.nx

    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon.t, self.nt + 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon.x, self.nx + 1)

    def node_index(self, z: Point) -> tuple[int, int]:
        """Indices (i, j) of the node at z; rejects off-node points."""
        i = int(round(z.t / self.dt))
        j = int(round(z.x / self.dx))
        tol_t = _NODE_RTOL * max(1.0, self.horizon.t)
        tol_x = _NODE_RTOL * max(1.0, self.horizon.x)
        if not (0 <= i <= self.nt and abs(i * self.dt - z.t) <= tol_t):
            raise ValueError(f"t={z.t} is not a node of the {self.nt}x{self.nx} grid")
        if not (0 <= j <= self.nx and abs(j * self.dx - z.x) <= tol_x):
            raise ValueError(f"x={z.x} is not a node of the {self.nt}x{self.nx} grid")
        return i, j

    def corner_points(self, i_count: int, j_count: int) -> Point:
        """Lower-left corners of the first i_count x j_count cells, broadcast as arrays."""
        tt = np.arange(i_count) * self.dt
        xx = np.arange(j_count) * self.dx
        T, X = np.meshgrid(tt, xx, indexing="ij")
        return Point(T, X)


def sup_join(a: Point, b: Point) -> Point:
    """Componentwise maximum a v b."""
    return Point(np.maximum(a.t, b.t), np.maximum(a.x, b.x))


def quarter_indicator(a: Point, b: Point):
    """I(a qb b): 1 iff a.t <= b.t and a.x >= b.x (ties included)."""
    out = (np.asarray(a.t) <= np.asarray(b.t)) & (np.asarray(a.x) >= np.asarray(b.x))
    if out.ndim == 0:
        return int(out)
    return out.astype(np.int64)


def _field_on_corners(h, grid: Grid, i_count: int, j_count: int) -> np.ndarray:
    """Evaluate a field (callable of Point, or node array) at cell lower corners."""
    if callable(h):
        vals = np.asarray(h(grid.corner_points(i_count, j_count)), dtype=float)
        return np.broadcast_to(vals, (i_count, j_count))
    arr = np.asarray(h, dtype=float)
    if arr.shape[0] < i_count or arr.shape[1] < j_count:
        raise ValueError(
            f"field array of shape {arr.shape} cannot cover {i_count} x {j_count} cell corners"
        )
    return arr[:i_count, :j_count]


def rect_integral(h, z: Point, grid: Grid) -> float:
    """Lower-corner Riemann sum of h over R_z = [0, z.t] x [0, z.x].

    ``h`` is either a callable of Point (vectorized over array coordinates)
    or an array of node values covering the grid.
    """
    i, j = grid.node_index(z)
    if i == 0 or j == 0:
        return 0.0
    vals = _field_on_corners(h, grid, i, j)
    return float(vals.sum() * grid.dt * grid.dx)


def double_rect_integral(h, z: Point, grid: Grid) -> float:
    """Double lower-corner Riemann sum of h(zeta, zeta') over R_z x R_z.

    Sums over *all* ordered cell pairs (identical pairs included: this is
    plain product quadrature, unlike the diagonal-free second-type stochastic
    sum).  ``h`` is a callable of two Points; evaluation is chunked over the
    first cell index to bound memory at O(_PAIR_CHUNK * cells).
    """
    i, j = grid.node_index(z)
    if i == 0 or j == 0:
        return 0.0
    tt = np.arange(i) * grid.dt
    xx = np.arange(j) * grid.dx
    T, X = np.meshgrid(tt, xx, indexing="ij")
    flat_t, flat_x = T.ravel(), X.ravel()
    second = Point(flat_t[None, :], flat_x[None, :])
    total = 0.0
    for lo in range(0, flat_t.size, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, flat_t.size)
        first = Point(flat_t[lo:hi, None], flat_x[lo:hi, None])
        total += float(np.sum(h(first, second)))
    return total * (grid.dt * grid.dx) ** 2


def mixed_partial(F, z: Point, h: float) -> float:
    """Second mixed difference (F(t+h,x+h) - F(t+h,x) - F(t,x+h) + F(t,x)) / h^2.

    The four-point rectangle stencil is the exact discrete analogue of the
    rectangle increment; it recovers d^2 F / dt dx for bilinear F exactly.
    """
    if h <= 0:
        raise ValueError(f"stencil step must be positive, got {h}")
    t, x = z.t, z.x
    return (
        F(Point(t + h, x + h)) - F(Point(t + h, x)) - F(Point(t, x + h)) + F(Point(t, x))
    ) / (h * h)


def diff_double_integral_identity_check(f, z: Point, grid: Grid, h: float) -> float:
    """Residual of the two-term differentiation identity for double integrals.

    Compares d^2/dt dx of F(z) = integral over R_z x R_z of f(zeta, zeta')
    against  integral f(z, zeta') dzeta' + integral f(zeta, z) dzeta.

    The stencil corners sit off-node (h is far below the cell size), so each
    corner re-evaluates the double integral on a rescaled grid with the same
    cell counts — for polynomial kernels F is then polynomial in the corner
    coordinates and the stencil differentiates it exactly.

    The two-term identity drops the cross-edge contributions
    int f((t,a),(s,x)) + int f((s,x),(t,a)) ds da, which vanish only for
    kernels that are zero on quarter-ordered pairs.  For f == 1 the residual
    is 2*t*x, not 0 — callers asserting smallness must use kernels supported
    away from the quarter order.
    """
    if h <= 0:
        raise ValueError(f"stencil step must be positive, got {h}")
    i, j = grid.node_index(z)
    if i == 0 or j == 0:
        raise ValueError("identity check needs a nonempty rectangle R_z")

    def F(corner: Point) -> float:
        scaled = Grid(corner, i, j)
        return double_rect_integral(f, corner, scaled)

    fd = mixed_partial(F, z, h)
    corners = grid.corner_points(i, j)
    here = Point(np.broadcast_to(z.t, corners.t.shape), np.broadcast_to(z.x, corners.x.shape))
    rhs = (np.sum(f(here, corners)) + np.sum(f(corners, here))) * grid.dt * grid.dx
    return abs(fd - rhs)
