"""Empirical measures, the Gaussian-weighted M-norm, and the comparison estimate.

The M-norm of a (signed) measure is the L^2 norm of its Fourier transform
against the Gaussian weight e^{-|y|^2}:

    ||mu||_M^2 = integral |mu_hat(y)|^2 e^{-|y|^2} dy,
    mu_hat(y)  = integral e^{-i x.y} mu(dx).

For empirical measures mu_hat is a finite phase sum, |mu_hat| <= 1, and the
integral is computed exactly (to quadrature truncation) by tensorized
Gauss-Hermite rules.  Order 40 per axis resolves phase oscillations of clouds
with spread up to |x| ~ 10; wider clouds need higher order.

The comparison estimate bounds the M-distance of two coupled laws by the
mean-square gap of the couplings:

    ||mu_1 - mu_2||_M^2 <= pi * E[(Y_1 - Y_2)^2]

(1-D route: |e^{-iya} - e^{-iyb}| <= |y||a-b| and integral y^2 e^{-y^2} dy =
sqrt(pi)/2, doubled by the modulus square; the pi constant is what the
two-parameter Gronwall argument propagates).  The check here evaluates both
sides on sampled couplings; a 2% slack absorbs quadrature truncation.

The expectation over common noise that the full norm carries is the caller's
business: these functions are deterministic per measure, and replicate
averaging happens at the experiment layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "MQuadrature",
    "fourier_batch",
    "m_dist_sq",
    "m_inner",
    "EstReport",
    "est_inequality_check",
]


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniformly weighted sample cloud (1/M) sum_p delta_{x_p} in R^n; samples shape (M, n)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError(f"samples must be a nonempty (M, n) array, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def _unchecked(cls, samples: np.ndarray, sample_mean: np.ndarray) -> EmpiricalMeasure:
        """A measure with no validation or copy: the caller guarantees float64
        samples of shape (M, n), M >= 1, and that the read-only
        ``sample_mean`` (n,) is the value of :attr:`sample_mean`."""
        mu = object.__new__(cls)
        # the instance dict directly: the fields are plain attributes, and this
        # runs once per grid node of a coefficient pass
        attrs = mu.__dict__
        attrs["samples"] = samples
        attrs["sample_mean"] = sample_mean
        return mu

    @cached_property
    def sample_mean(self) -> np.ndarray:
        """The mean of the measure, shape (n,), computed once.

        It is ``np.add.reduce(samples, axis=0) / M``, the expression of
        ``samples.mean(axis=0)``.  It is computed on first read and kept, so
        the samples must not change after that.  The array is read-only.
        """
        mean = np.add.reduce(self.samples, axis=0) / self.samples.shape[0]
        mean.setflags(write=False)
        return mean

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def size(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True, eq=False)
class MQuadrature:
    """Tensorized Gauss-Hermite rule for integrals against e^{-|y|^2} on R^n."""

    dim: int = 1
    order: int = 40
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim < 1 or self.order < 2:
            raise ValueError(f"need dim >= 1 and order >= 2, got dim={self.dim}, order={self.order}")
        pts, wts = np.polynomial.hermite.hermgauss(self.order)
        grids = np.meshgrid(*([pts] * self.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*([wts] * self.dim), indexing="ij")
        weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def fourier_batch(mu: EmpiricalMeasure, freqs: np.ndarray) -> np.ndarray:
    """mu_hat at a (Q, n) batch of frequencies, shape (Q,) complex."""
    phases = freqs @ mu.samples.T  # (Q, M)
    # a product with the uniform weights, not .mean: the two round differently
    return np.exp(-1j * phases) @ np.full(mu.size, 1.0 / mu.size)


def m_dist_sq(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure, quad: MQuadrature) -> float:
    """M-norm squared of the signed difference (Fourier transforms subtract)."""
    if mu1.dim != mu2.dim:
        raise ValueError(f"measure dims differ: {mu1.dim} vs {mu2.dim}")
    if quad.dim != mu1.dim:
        raise ValueError(f"quadrature dim {quad.dim} does not match measure dim {mu1.dim}")
    diff = fourier_batch(mu1, quad.nodes) - fourier_batch(mu2, quad.nodes)
    return float(np.sum(quad.weights * np.abs(diff) ** 2))


def m_inner(mu: EmpiricalMeasure, eta: EmpiricalMeasure, quad: MQuadrature) -> float:
    """<mu, eta>_M = integral Re(conj(mu_hat) eta_hat) e^{-|y|^2} dy."""
    if mu.dim != eta.dim or quad.dim != mu.dim:
        raise ValueError("dimension mismatch between measures and quadrature")
    a = fourier_batch(mu, quad.nodes)
    b = fourier_batch(eta, quad.nodes)
    return float(np.sum(quad.weights * np.real(np.conj(a) * b)))


@dataclass(frozen=True)
class EstReport:
    lhs: float
    rhs: float
    slack: float
    passed: bool


def est_inequality_check(pairs, quad: MQuadrature, slack: float = 0.02) -> EstReport:
    """Check ||mu_1 - mu_2||_M^2 <= pi E[(Y_1 - Y_2)^2] (1 + slack) on couplings.

    ``pairs`` is a sequence of coupled sample arrays (Y1, Y2), each of shape
    (M,) or (M, n).  The left side averages the empirical M-distance over the
    pairs; the right side is pi times the overall mean squared gap.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one coupled pair set")
    lhs_vals, gap_vals = [], []
    for y1, y2 in pairs:
        y1 = np.atleast_2d(np.asarray(y1, dtype=float).T).T
        y2 = np.atleast_2d(np.asarray(y2, dtype=float).T).T
        if y1.shape != y2.shape:
            raise ValueError(f"coupled samples must share a shape, got {y1.shape} vs {y2.shape}")
        lhs_vals.append(m_dist_sq(EmpiricalMeasure(y1), EmpiricalMeasure(y2), quad))
        gap_vals.append(np.mean(np.sum((y1 - y2) ** 2, axis=1)))
    lhs = float(np.mean(lhs_vals))
    rhs = float(np.pi * np.mean(gap_vals))
    return EstReport(lhs=lhs, rhs=rhs, slack=slack, passed=lhs <= rhs * (1.0 + slack))
