"""Brownian sheets on a grid and the two stochastic integral types.

A sheet path stores, read-only and per channel, the independent N(0, dt*dx)
cell increments it is drawn as (and dumps them, format version 2); its node
values B(i*dt, j*dx) are their 2-D cumulative sum, derived once, so B vanishes
on both axes and rectangle increments over disjoint rectangles are independent
by construction.  Covariance of the continuum: E[B(s,a)B(t,x)] = min(s,t)*min(a,x).

First-type integrals sum phi(lower corner) * dB(cell) — adapted evaluation.
Second-type integrals sum psi(corner, corner') * dB(cell) * dB(cell') over
ordered pairs of *distinct* cells: the diagonal carries the quadratic
variation, which the planar Ito formula books under its separate
(1/2) beta beta^T term, so including identical-cell pairs here would double
count it.

One sampler, :func:`_draw_cells`, draws all cell noise of the library: sheets
(and so the CLI's sheet statistics), ensemble, replicate and control noise, and
the propagation-of-chaos channels, each from its own (domain, stream, channel) words.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .plane import _PAIR_CHUNK, Grid, Point, _field_on_corners
from .rng import DOMAIN_SHEET, _substreams

__all__ = [
    "SheetPath",
    "sample_sheet",
    "sheet_from_increments",
    "coarsen_increments",
    "cell_increments",
    "rect_increment",
    "ito_integral",
    "double_ito_integral",
    "save_sheet",
    "load_sheet",
]


@dataclass(frozen=True)
class SheetPath:
    """m-channel sheet on a grid: read-only cell increments (channel, i, j) of the
    cells [i*dt, (i+1)*dt] x [j*dx, (j+1)*dx]; made by the functions below."""

    increments: np.ndarray
    grid: Grid
    seed: int

    @cached_property
    def values(self) -> np.ndarray:
        """Node values B(i*dt, j*dx), shape (m, nt+1, nx+1), read-only."""
        values = _node_values(self.increments)
        values.setflags(write=False)
        return values

    @property
    def channels(self) -> int:
        return self.increments.shape[0]


def _node_values(cells: np.ndarray) -> np.ndarray:
    """Node values of cell increments (..., nt, nx): the double cumulative
    sum, along t then x, bordered by zeros, shape (..., nt+1, nx+1)."""
    values = np.zeros(cells.shape[:-2] + (cells.shape[-2] + 1, cells.shape[-1] + 1))
    values[..., 1:, 1:] = cells.cumsum(axis=-2).cumsum(axis=-1)
    return values


def _draw_cells(grid: Grid, seed: int, domain: int, coordinates) -> np.ndarray:
    """N(0, dt*dx) cell increments, shape (k, nt, nx): slab s is what
    ``substream(seed, domain, *coordinates[s]).normal(0, sqrt(dt*dx), (nt, nx))``
    draws, for the k (stream, channel) pairs of ``coordinates``."""
    coordinates = list(coordinates)
    scale, shape = np.sqrt(grid.dt * grid.dx), (grid.nt, grid.nx)
    cells = np.empty((len(coordinates), *shape))
    for out, gen in zip(cells, _substreams(seed, domain, coordinates)):
        out[...] = gen.normal(0.0, scale, shape)
    return cells


def sample_sheet(grid: Grid, m: int, seed: int, stream: int = 0) -> SheetPath:
    """Sample an m-channel sheet; deterministic in (grid, m, seed, stream).

    Each channel draws from its own counter-based substream, so channels (and
    distinct streams — use the stream index for replicates or particles) may
    be generated in any order or in parallel without changing the result.
    """
    if m < 1:
        raise ValueError(f"need at least one channel, got m={m}")
    cells = _draw_cells(grid, seed, DOMAIN_SHEET, ((stream, c) for c in range(m)))
    cells.setflags(write=False)
    return SheetPath(increments=cells, grid=grid, seed=seed)


def sheet_from_increments(grid: Grid, increments: np.ndarray, seed: int = 0) -> SheetPath:
    """A sheet on a read-only copy of the cell increments (m, nt, nx).

    Inverse of :func:`cell_increments` per channel; the hook for injecting
    coupled noise (coarsened, antithetic, shared) into sheet consumers.
    """
    increments = np.array(increments, dtype=float)
    if increments.ndim != 3 or increments.shape[1:] != (grid.nt, grid.nx):
        raise ValueError(f"increments shape {increments.shape} != (m, {grid.nt}, {grid.nx})")
    increments.setflags(write=False)
    return SheetPath(increments=increments, grid=grid, seed=seed)


def coarsen_increments(increments: np.ndarray, factor: int = 2) -> np.ndarray:
    """Block-sum cell increments (..., nt, nx) onto a grid coarser by ``factor``.

    Summing increments over factor x factor blocks is exactly the restriction
    of the same sheet path to the coarse nodes, which is what couples a
    refinement study to one underlying noise realization.
    """
    nt, nx = increments.shape[-2:]
    if factor < 1 or nt % factor or nx % factor:
        raise ValueError(f"cannot coarsen {nt}x{nx} cells by factor {factor}")
    shape = increments.shape[:-2] + (nt // factor, factor, nx // factor, factor)
    return increments.reshape(shape).sum(axis=(-3, -1))


def cell_increments(path: SheetPath, channel: int) -> np.ndarray:
    """Per-cell increments dB of one channel, shape (nt, nx), read-only."""
    return path.increments[channel]


def rect_increment(path: SheetPath, channel: int, lower: Point, upper: Point) -> float:
    """B over the rectangle [lower, upper]: the sum of its cell increments."""
    i1, j1 = path.grid.node_index(lower)
    i2, j2 = path.grid.node_index(upper)
    if i2 < i1 or j2 < j1:
        raise ValueError("rectangle corners must satisfy lower <= upper componentwise")
    return float(path.increments[channel, i1:i2, j1:j2].sum())


def ito_integral(phi, path: SheetPath, channel: int, z: Point) -> float:
    """First-type integral of phi against one channel over R_z (left evaluation);
    phi is a callable of Point or node values covering R_z's cell corners."""
    i, j = path.grid.node_index(z)
    if i == 0 or j == 0:
        return 0.0
    dB = path.increments[channel, :i, :j]
    return float(np.sum(_field_on_corners(phi, path.grid, i, j) * dB))


def double_ito_integral(psi, path: SheetPath, ch1: int, ch2: int, z: Point) -> float:
    """Second-type integral: sum of psi(corner, corner') dB_ch1(cell) dB_ch2(cell')
    over ordered pairs of distinct cells of R_z.

    psi is a callable of two Points (vectorized) or the constant 1 via
    ``psi=None``.  Quadratic-variation diagonal pairs are excluded; see the
    module docstring.
    """
    grid = path.grid
    i, j = grid.node_index(z)
    if i == 0 or j == 0:
        return 0.0
    d1 = path.increments[ch1, :i, :j].ravel()
    d2 = path.increments[ch2, :i, :j].ravel()
    tt = (np.arange(i) * grid.dt)[:, None]
    xx = (np.arange(j) * grid.dx)[None, :]
    flat_t = np.broadcast_to(tt, (i, j)).ravel()
    flat_x = np.broadcast_to(xx, (i, j)).ravel()
    n = d1.size
    if psi is None:
        total = d1.sum() * d2.sum() - float(d1 @ d2)
        return float(total)
    second = Point(flat_t[None, :], flat_x[None, :])
    total = 0.0
    for lo in range(0, n, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, n)
        first = Point(flat_t[lo:hi, None], flat_x[lo:hi, None])
        block = np.asarray(psi(first, second), dtype=float)
        block = np.broadcast_to(block, (hi - lo, n)).copy()
        # remove the identical-cell diagonal of this block
        idx = np.arange(lo, hi)
        block[np.arange(hi - lo), idx] = 0.0
        total += float(d1[lo:hi] @ block @ d2)
    return total


_MAGIC = b"SHTL"
_VERSION = 2  # version 1 dumps held node values; version 2 holds cell increments


def save_sheet(path: SheetPath, filename: str) -> None:
    """Binary dump: header (version, grid dims, m, seed, horizon) + the cell
    increments as row-major doubles."""
    grid = path.grid
    header = _MAGIC + struct.pack(
        "<IIIIqdd", _VERSION, grid.nt, grid.nx, path.channels, path.seed,
        grid.horizon.t, grid.horizon.x,
    )
    with open(filename, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def load_sheet(filename: str) -> SheetPath:
    """Inverse of :func:`save_sheet`; validates magic and payload size, and
    reads a version 1 dump (node values) by differencing it once."""
    with open(filename, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a sheet dump: bad magic {magic!r}")
        version, nt, nx, m, seed, T, X = struct.unpack("<IIIIqdd", fh.read(40))
        if version not in (1, _VERSION):
            raise ValueError(f"unsupported sheet dump version {version}")
        payload = np.frombuffer(fh.read(), dtype="<f8")
    shape = (m, nt + 1, nx + 1) if version == 1 else (m, nt, nx)
    if payload.size != (expected := int(np.prod(shape))):
        raise ValueError(f"sheet dump payload has {payload.size} doubles, expected {expected}")
    cells = payload.reshape(shape)
    if version == 1:
        cells = cells[:, 1:, 1:] - cells[:, :-1, 1:] - cells[:, 1:, :-1] + cells[:, :-1, :-1]
    return sheet_from_increments(Grid(Point(T, X), nt, nx), cells, seed)
