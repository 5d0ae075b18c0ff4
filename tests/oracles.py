"""Exact oracles for the linear instances, derived from the scheme, not from
the code under test.

Both instances are linear, and their cloud mean closes up on its own:

* in ``mean_reversion_field(rate, sigma)`` the drift rate * (mean - y) sums to
  zero over the cloud, so the cloud mean at every node is the drift-free sheet
  average y0 + sigma[:, 0] B_common + sum_c sigma[:, c] mean_p B_{p,c};
* in ``controlled_linear_field(-1, 1, sigma)`` under ``mean_feedback_policy``
  at theta, the drift -y + theta * mean averages to (theta - 1) * mean, so the
  cloud mean is the scalar Goursat recursion at rate theta - 1 driven by the
  same sheet average.  Its value E[J(theta)] in the LQ problem of
  ``cli._control_instance`` is exact too: the mean and each particle's
  deviation from it are independent constant-coefficient recursions, whose
  variance fields are prefix sums of one squared impulse response.

Each particle's deviation D_p = Y_p - mean from the cloud mean closes up too,
in both instances: its drift is -rate * D_p in the first and -D_p in the
second, the common channel cancels, and so D_p is the scalar recursion at
that rate from 0, driven by the particle's own noise less the cloud's mean of
it.  The mean oracle cannot see a drift handed to the wrong particle; this one
can.

The Picard iterates of the first instance are exact as well.  Iterate 0 is y0
everywhere, where the drift vanishes, so iterate 1 is the drift-free solve.
From then on the difference e_k of iterates k and k - 1 is the strict
lower-corner sum of rate * (mean_p e_{k-1} - e_{k-1}) dt dx, since the noise
is the same in every iterate, and the gaps follow from the noise alone.

Noise is the ensemble's (common (nt, nx), idio (M, m-1, nt, nx)) cells.

The deviation recursion at -rate has constant coefficients, so a unit source
in cell (a, b) reaches node (i, j) through the discrete Riemann function
R[i - 1 - a, j - 1 - b]: :func:`impulse_response` at -rate, read one node up
and to the right.

The rest are reference implementations that the library no longer carries,
kept here because tests compare the library against them, with their
arithmetic as it was in the library:

* the quarter-order indicator and the plain lower-corner quadrature of a
  field over R_z and of a pair kernel over R_z x R_z;
* the second-type stochastic integral as a loop over blocks of cell pairs;
* the pointwise kernels a1..a5 of the weak transport identity (the module
  docstring of ``sheetlab.fokker_planck``).

On these kernels sits the brute-force oracle of the five-term sums,
:func:`five_term_sums`: an explicit loop over quarter-ordered cell pairs,
vectorised over particles only, with none of the cumulative sums that the
library's tables and the per-frequency reference of the kernel tests share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from sheetlab import Grid, Point
from sheetlab.plane import _field_on_corners
from sheetlab.solver import coefficient_table


def sheet_average(sigma, common, idio) -> np.ndarray:
    """Per-cell noise of the cloud mean, (nt, nx, n): sigma[:, 0] dB_common +
    sum over c >= 1 of sigma[:, c] mean_p dB_{p,c}, for sigma (m,) or (n, m)."""
    cells = np.concatenate([common[None], idio.mean(axis=0)])
    return np.einsum("kc,cab->abk", np.atleast_2d(sigma), cells)


def lower_corner_sums(cells: np.ndarray) -> np.ndarray:
    """Node (i, j) of the result, (nt+1, nx+1, ...), sums cells[a, b] over
    a < i, b < j; zero on both boundaries."""
    out = np.zeros((cells.shape[0] + 1, cells.shape[1] + 1, *cells.shape[2:]))
    out[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
    return out


def drift_free_cloud_mean(y0, sigma, common, idio) -> np.ndarray:
    """y0 plus the lower-corner sums of :func:`sheet_average`, (nt+1, nx+1, n)."""
    return lower_corner_sums(sheet_average(sigma, common, idio)) + y0


def deviations(rate: float, sigma, idio, dtdx: float) -> np.ndarray:
    """D_p = Y_p - mean, (M, nt+1, nx+1, n), for a drift of rate * D_p plus a
    term the cloud shares, and constant diffusion sigma (n, m): the scalar
    recursion at ``rate`` from 0, driven per cell by the sum over c >= 1 of
    sigma[:, c] (dB_{p,c} - mean_q dB_{q,c})."""
    driver = np.einsum("kc,pcab->abpk", sigma[:, 1:], idio - idio.mean(axis=0))  # (nt, nx, M, n)
    return np.moveaxis(goursat_mean(rate, 0.0, driver, dtdx), 2, 0)


def ou_picard_gaps(rate: float, sigma, common, idio, dtdx: float, iterations: int) -> np.ndarray:
    """The gaps of the first ``iterations`` Picard iterates on
    ``mean_reversion_field(rate, sigma)``, sigma (n, m): each is the max over
    nodes of mean_p |e_k|^2, with e_1 the lower-corner sums of each
    particle's own sigma . dB and e_k the lower-corner sums of rate * (mean_p
    e_{k-1} - e_{k-1}) dt dx over the nodes whose coefficients are read."""
    own = np.einsum("kc,pcab->abpk", sigma[:, 1:], idio)  # (nt, nx, M, n)
    e = lower_corner_sums(common[:, :, None, None] * sigma[:, 0] + own)
    gaps = []
    for _ in range(iterations):
        gaps.append(np.max(np.mean(np.sum(e**2, axis=-1), axis=-1)))
        read = e[:-1, :-1]
        e = lower_corner_sums(rate * (read.mean(axis=2, keepdims=True) - read) * dtdx)
    return np.array(gaps)


def goursat_mean(rate: float, y0: float, driver: np.ndarray, dtdx: float) -> np.ndarray:
    """The scalar recursion m[i+1, j+1] = m[i+1, j] + m[i, j+1] - m[i, j]
    + rate m[i, j] dtdx + driver[i, j], with m = y0 on both boundaries,
    shape (nt+1, nx+1), one node at a time; a driver (nt, nx, ...) runs one
    recursion per trailing index, shape (nt+1, nx+1, ...)."""
    nt, nx = driver.shape[:2]
    m = np.full((nt + 1, nx + 1, *driver.shape[2:]), float(y0))
    for i in range(nt):
        for j in range(nx):
            m[i + 1, j + 1] = m[i + 1, j] + m[i, j + 1] - m[i, j] + rate * m[i, j] * dtdx + driver[i, j]
    return m


def impulse_response(rate: float, nt: int, nx: int, dtdx: float) -> np.ndarray:
    """The scalar recursion at ``rate`` from zero boundaries, driven by a unit
    source in cell (0, 0) alone, (nt+1, nx+1).  The recursion's coefficients
    are constant, so a unit source in cell (a, b) reaches node (i, j) as
    h[i - a, j - b]."""
    driver = np.zeros((nt, nx))
    driver[0, 0] = 1.0
    return goursat_mean(rate, 0.0, driver, dtdx)


def recursion_variance(rate: float, cell_variance: float, nt: int, nx: int, dtdx: float) -> np.ndarray:
    """Variance (nt+1, nx+1) of the scalar recursion at ``rate`` from a fixed
    start, driven by independent cells of variance ``cell_variance``: node
    (i, j) sums h[i - a, j - b]^2 over the cells a < i, b < j, which is the
    2-D prefix sum of h^2, h = :func:`impulse_response`."""
    h = impulse_response(rate, nt, nx, dtdx)
    return cell_variance * (h**2).cumsum(axis=0).cumsum(axis=1)


def lq_value(theta: float, y0: float, M: int, nt: int, nx: int, dtdx: float) -> float:
    """Exact E[J(theta)] of the LQ problem of ``cli._control_instance`` under
    ``mean_feedback_policy(theta)``, for M particles on an nt x nx grid.

    The instance is controlled_linear_field(-1, 1, (0.5, 0.5)) with reward
    -(y^2 + u^2 / 4) per cell and -y^2 at the horizon.  Each particle splits
    as Y_p = mean + D_p.  The cloud mean follows the recursion at rate
    theta - 1, driven by cells of variance (1 + 1/M) dtdx / 4; each deviation
    D_p follows it at rate -1 from 0, driven by cells of variance
    (1 - 1/M) dtdx / 4, independent of the mean's.  With u = theta * mean,
    E[mean_p Y_p^2] = E[mean^2] + Var D_p, and E[mean^2] is the squared
    noise-free mean plus the mean's variance.
    """
    noise_free = goursat_mean(theta - 1.0, y0, np.zeros((nt, nx)), dtdx)
    mean_sq = noise_free**2 + recursion_variance(theta - 1.0, (1.0 + 1.0 / M) * dtdx / 4, nt, nx, dtdx)
    spread = recursion_variance(-1.0, (1.0 - 1.0 / M) * dtdx / 4, nt, nx, dtdx)
    running = (mean_sq + spread + 0.25 * theta**2 * mean_sq)[:-1, :-1].sum() * dtdx
    return float(-(running + mean_sq[-1, -1] + spread[-1, -1]))


def quarter_indicator(a: Point, b: Point):
    """I(a qb b): 1 iff a.t <= b.t and a.x >= b.x (ties included)."""
    out = (np.asarray(a.t) <= np.asarray(b.t)) & (np.asarray(a.x) >= np.asarray(b.x))
    if out.ndim == 0:
        return int(out)
    return out.astype(np.int64)


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
    first cell index to bound memory at O(PAIR_CHUNK * cells).
    """
    i, j = grid.node_index(z)
    if i == 0 or j == 0:
        return 0.0
    return cell_pair_sum(h, grid, i, j) * (grid.dt * grid.dx) ** 2


PAIR_CHUNK = 128  # first cells per block of cell_pair_sum


def cell_pair_sum(pair, grid: Grid, i: int, j: int, weights=None) -> float:
    """Sum of pair(corner, corner') over ordered pairs of the first i x j cells,
    PAIR_CHUNK first cells per block: each block summed whole (identical
    pairs kept), or, given flat cell weights (d1, d2), as d1 @ block @ d2 with
    the identical-cell diagonal left out."""
    corners = grid.corner_points(i, j)
    flat_t, flat_x = corners.t.ravel(), corners.x.ravel()
    n = flat_t.size
    second = Point(flat_t[None, :], flat_x[None, :])
    total = 0.0
    for lo in range(0, n, PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, n)
        block = pair(Point(flat_t[lo:hi, None], flat_x[lo:hi, None]), second)
        # a kernel may return a scalar or a partly broadcast array: every pair counts once
        block = np.broadcast_to(np.asarray(block, dtype=float), (hi - lo, n))
        if weights is None:
            total += float(np.sum(block))
            continue
        d1, d2 = weights
        block = block.copy()
        block[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        total += float(d1[lo:hi] @ block @ d2)
    return total


def double_ito_integral(psi, path, ch1: int, ch2: int, z: Point) -> float:
    """Second-type integral: sum of psi(corner, corner') dB_ch1(cell) dB_ch2(cell')
    over ordered pairs of distinct cells of R_z, for a sheet ``path``.

    psi is a callable of two Points (vectorized) or the constant 1 via
    ``psi=None``.  Quadratic-variation diagonal pairs are excluded.
    """
    grid = path.grid
    i, j = grid.node_index(z)
    if i == 0 or j == 0:
        return 0.0
    d1 = path.increments[ch1, :i, :j].ravel()
    d2 = path.increments[ch2, :i, :j].ravel()
    if psi is None:
        return float(d1.sum() * d2.sum() - float(d1 @ d2))
    return cell_pair_sum(psi, grid, i, j, (d1, d2))


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


def wa_wb_wq(w: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """(w.alpha, w.beta_1, w^T beta beta^T w) broadcast over leading axes."""
    wa = np.einsum("n,...n->...", w, alpha)
    wb_all = np.einsum("n,...nm->...m", w, beta)
    return wa, wb_all[..., 0], np.sum(wb_all**2, axis=-1)


def kernel_a(idx: int, w, ctx: KernelContext):
    """Pointwise kernel a_idx (idx in 1..5), complex, broadcast over batch axes."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wa, wb, wq = wa_wb_wq(w, np.asarray(ctx.alpha, dtype=float), np.asarray(ctx.beta, dtype=float))
    if idx == 1:
        return -1j * wa - 0.5 * wq
    if idx == 2:
        return -1j * wb + 0j
    if idx not in (3, 4, 5):
        raise ValueError(f"kernel index must be 1..5, got {idx}")
    if ctx.alpha_p is None or ctx.beta_p is None:
        raise ValueError(f"kernel a{idx} needs the primed coefficients in the context")
    wa_p, wb_p, wq_p = wa_wb_wq(
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


def quarter_pairs(i: int, j: int):
    """The quarter-ordered pairs of cells of [0, i) x [0, j), self pairs
    included: zeta = (a, x) and zeta' = (t, b) with a <= t and b <= x."""
    for t, x in itertools.product(range(i), range(j)):
        for a, b in itertools.product(range(t + 1), range(x + 1)):
            yield (a, x), (t, b)


def five_term_sums(ensemble, W: np.ndarray, i: int, j: int) -> np.ndarray:
    """Particle mean of the five summed integrals over R_z, the cells [0, i) x
    [0, j), at each row of W (Q, n), one cell and one cell pair at a time.

    A cell zeta contributes a1 dzeta + a2 dB(zeta), with its phase exp(-i w.Y)
    at its own lower-left node.  A quarter-ordered pair zeta = (a, x),
    zeta' = (t, b) takes its phase at node (t, x) and contributes a5 dzeta
    dzeta', and, unless zeta = zeta', a3 dB(zeta) dB(zeta') and a4 in both
    orientations: its deterministic factor at zeta against dB(zeta'), and at
    zeta' against dB(zeta).  dB is the common channel's cell increment.  a4
    is the sum of the two orientations, d(zeta) b1(zeta') + b1(zeta) d(zeta')
    with d = -(w.alpha) + (i/2) q, so a4 with zeta's b1 = w.beta_1 zeroed is
    the first alone.  The zeroed point's common column is moved to a channel
    of its own, which keeps q, a sum over all channels, as it was.
    """
    grid = ensemble.grid
    dtdx = grid.dt * grid.dx
    dB = ensemble.common_increments
    alpha, beta = coefficient_table(ensemble.coeffs, ensemble.values, grid, i, j)
    silenced = np.concatenate([np.zeros_like(beta[..., :1]), beta], axis=-1)
    phases = [np.exp(-1j * (ensemble.values[:, :i, :j] @ w)) for w in W]  # (M, i, j) each
    totals = np.zeros((len(W), ensemble.particles), dtype=complex)
    for t, x in itertools.product(range(i), range(j)):
        here = KernelContext(alpha[:, t, x], beta[:, t, x])
        for total, w, phase in zip(totals, W, phases):
            total += (kernel_a(1, w, here) * dtdx + kernel_a(2, w, here) * dB[t, x]) * phase[:, t, x]
    for (a, x), (t, b) in quarter_pairs(i, j):
        first, second = (slice(None), a, x), (slice(None), t, b)
        zeta, zeta_p = Point(a * grid.dt, x * grid.dx), Point(t * grid.dt, b * grid.dx)
        pair = KernelContext(alpha[first], beta[first], alpha[second], beta[second], zeta, zeta_p)
        noise_first = KernelContext(alpha[first], beta[first], alpha[second], silenced[second])
        noise_second = KernelContext(alpha[first], silenced[first], alpha[second], beta[second])
        for total, w, phase in zip(totals, W, phases):
            value = kernel_a(5, w, pair) * dtdx**2
            if (a, x) != (t, b):
                value += kernel_a(3, w, pair) * dB[a, x] * dB[t, b]
                value += kernel_a(4, w, noise_second) * dtdx * dB[t, b]
                value += kernel_a(4, w, noise_first) * dB[a, x] * dtdx
            total += value * phase[:, t, x]
    return totals.mean(axis=1)
