"""The Bessel-type entire function f, its critical zero r0, and the
Picard-majorant sequence x_n.

f(y) = sum_{n>=0} y^n / (n!)^2  — so f(-t) = J0(2*sqrt(t)) for t >= 0 and f
solves the ODE y f'' + f' = f.  Its first zero on the negative axis sits at
-r0 with r0 = (j_{0,1}/2)^2 ~ 1.4458; r0 is the horizon-area threshold of the
two-parameter Gronwall/Picard machinery: mean-square Picard iterates are
majorized by sum (K|z|)^{2n} x_n, which converges exactly when K|z| < sqrt(r0).

f and f' share one truncated loop: at most _TERMS = 60 terms, stopping early
once every term is below _TAIL_TOL = 1e-14 of the running sum, for |y| up to
_Y_GUARD = 700.  Sixty terms suffice at the guard: the terms y^n/(n!)^2 peak
near n = sqrt(|y|) ~ 26 and then shrink by |y|/n^2 per step, so at |y| = 700
the first dropped term is 1.4e-15 of the sum of the magnitudes and the whole
dropped tail 1.7e-15 (4e-15 for f'), a few units in the last place.

On the negative axis the sum alternates and cancels terms up to 6e20 (off
by 2.6e-10 at t = 100, 6e6 at t = 700), so below y = -_SWITCH = -25, where
it is still within 5e-14 of J0, f(-t) = J0(x) and f'(-t) = J1(x) / sqrt t,
x = 2 sqrt t, come from J_k(x) = (1/pi) int_0^pi cos(k s - x sin s) ds by
the midpoint rule on _NODES = 96 nodes: the integrands are smooth and
periodic, so the rule is within 1e-15 of scipy's J0 and J1 up to the guard.

The x_n satisfy the convolution recursion x_n = -sum_{j=1}^n (-1)^j/(j!)^2
x_{n-j}; with the seed x_0 = 1 this makes (x_n) the coefficient sequence of
the reciprocal power series 1 / f(-t) = 1 / J0(2 sqrt(t)) — the generating-
function identity tested in the suite.  (The recursion alone does not fix
x_0; the seed is a library convention, consistent with the majorant role.)
"""

from __future__ import annotations

import numpy as np

from .plane import _require_count, _require_number, _require_positive

__all__ = [
    "f_series",
    "f_series_derivative",
    "find_r0",
    "x_seq",
    "picard_series_partial_sums",
]

_Y_GUARD = 700.0  # |y| cap: keeps term growth far from overflow at desk scale
_TERMS = 60  # terms n = 0..59 at most
_TAIL_TOL = 1e-14  # early stop: every term below this share of the running sum
_SWITCH = 25.0  # below y = -_SWITCH, f and f' are the Bessel integrals
_NODES = 96  # midpoint nodes of the Bessel integrals on [0, pi]


def _bessel_integral(t: np.ndarray, shift: int) -> np.ndarray:
    """f(-t) (shift 0) or f'(-t) (shift 1) for t > 0: the midpoint rule of
    J_shift(2 sqrt t), divided by sqrt(t)**shift (module docstring)."""
    s = (np.arange(_NODES) + 0.5) * (np.pi / _NODES)
    root = np.sqrt(t)[:, None]
    return np.cos(shift * s - 2.0 * root * np.sin(s)).mean(axis=1) / root[:, 0] ** shift


def _truncated_series(y, shift: int):
    """The shift-th derivative of f (shift 0 or 1) for scalars or arrays: from
    the leading 1, term *= y / (n (n - shift)) for n = 1 + shift, 2 + shift, ...
    Points below -_SWITCH take the Bessel integral instead, and hold 0 in
    the loop, which they therefore neither slow nor stop."""
    arr = np.asarray(y, dtype=float)
    if not np.all(np.abs(arr) <= _Y_GUARD):
        raise ValueError(f"|y| <= {_Y_GUARD:g} required for the series evaluation")
    far = arr < -_SWITCH
    near = np.where(far, 0.0, arr)
    total = np.ones_like(arr)
    term = np.ones_like(arr)
    for n in range(1 + shift, _TERMS):
        term = term * near / (n * (n - shift))
        total = total + term
        if np.all(np.abs(term) < _TAIL_TOL * np.maximum(np.abs(total), 1.0)):
            break
    if far.any():
        total = np.array(total)  # the loop leaves a numpy scalar for a scalar y
        total[far] = _bessel_integral(-arr[far], shift)
    if np.ndim(y) == 0:
        return float(total)
    return total


def f_series(y):
    """f(y) = sum y^n/(n!)^2 by the recursion term_n = term_{n-1} * y / n^2."""
    return _truncated_series(y, 0)


def f_series_derivative(y):
    """f'(y) = sum_{n>=1} n y^{n-1}/(n!)^2: term ratio y / (n (n-1)) from n = 2."""
    return _truncated_series(y, 1)


def find_r0(tol: float) -> float:
    """First positive zero of t -> f(-t), by bisection on the bracket [1, 2].

    The bracket is re-verified on every call (f(-1) > 0 > f(-2)); its failure
    would mean a broken series evaluation, not a property of the root.
    """
    _require_positive(reason="tolerance must be positive", tol=tol)
    lo, hi = 1.0, 2.0
    flo, fhi = f_series(-lo), f_series(-hi)
    if not (flo > 0.0 > fhi):
        raise RuntimeError(
            f"bisection bracket lost: f(-1)={flo}, f(-2)={fhi} — series evaluation is broken"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f_series(-mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def x_seq(n_max: int) -> np.ndarray:
    """Majorant coefficients x_0..x_n_max via the convolution recursion."""
    _require_count(0, n_max=n_max)
    # c_j = (-1)^j / (j!)^2, the coefficients of f(-t)
    c = np.ones(n_max + 1)
    for j in range(1, n_max + 1):
        c[j] = -c[j - 1] / (j * j)
    x = np.ones(n_max + 1)
    for n in range(1, n_max + 1):
        x[n] = -np.dot(c[1 : n + 1], x[n - 1 :: -1][: n])
    return x


def picard_series_partial_sums(K: float, area: float, n_max: int) -> np.ndarray:
    """Partial sums of the majorant series sum (K*area)^{2n} x_n.

    Convergent iff K*area < sqrt(r0); the caller reads convergence off the
    Cauchy differences and divergence off a magnitude blow-up.
    """
    _require_number(0.0, K=K, area=area)
    x = x_seq(n_max)
    q = (K * area) ** 2
    powers = q ** np.arange(n_max + 1)
    return np.cumsum(powers * x)
