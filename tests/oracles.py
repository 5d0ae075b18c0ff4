"""Exact oracles for the linear instances, derived from the scheme, not from
the code under test.

Both instances are linear, and their cloud mean closes up on its own:

* in ``mean_reversion_field(rate, sigma)`` the drift rate * (mean - y) sums to
  zero over the cloud, so the cloud mean at every node is the drift-free sheet
  average y0 + sigma[:, 0] B_common + sum_c sigma[:, c] mean_p B_{p,c};
* in ``controlled_linear_field(-1, 1, sigma)`` under ``mean_feedback_policy``
  at theta, the drift -y + theta * mean averages to (theta - 1) * mean, so the
  cloud mean is the scalar Goursat recursion at rate theta - 1 driven by the
  same sheet average.

Noise is the ensemble's (common (nt, nx), idio (M, m-1, nt, nx)) cells.
"""

import numpy as np


def sheet_average(sigma, common, idio) -> np.ndarray:
    """Per-cell noise of the cloud mean, (nt, nx, n): sigma[:, 0] dB_common +
    sum over c >= 1 of sigma[:, c] mean_p dB_{p,c}, for sigma (m,) or (n, m)."""
    cells = np.concatenate([common[None], idio.mean(axis=0)])
    return np.einsum("kc,cab->abk", np.atleast_2d(sigma), cells)


def drift_free_cloud_mean(y0, sigma, common, idio) -> np.ndarray:
    """y0 plus the lower-corner sums of :func:`sheet_average`, (nt+1, nx+1, n)."""
    driver = sheet_average(sigma, common, idio)
    mean = np.zeros((driver.shape[0] + 1, driver.shape[1] + 1, driver.shape[2]))
    mean[1:, 1:] = driver.cumsum(axis=0).cumsum(axis=1)
    return mean + y0


def goursat_mean(rate: float, y0: float, driver: np.ndarray, dtdx: float) -> np.ndarray:
    """The scalar recursion m[i+1, j+1] = m[i+1, j] + m[i, j+1] - m[i, j]
    + rate m[i, j] dtdx + driver[i, j], with m = y0 on both boundaries,
    shape (nt+1, nx+1), one node at a time."""
    nt, nx = driver.shape
    m = np.full((nt + 1, nx + 1), float(y0))
    for i in range(nt):
        for j in range(nx):
            m[i + 1, j + 1] = m[i + 1, j] + m[i, j + 1] - m[i, j] + rate * m[i, j] * dtdx + driver[i, j]
    return m
