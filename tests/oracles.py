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
"""

import numpy as np


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
