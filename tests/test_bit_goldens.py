"""Bit goldens: the exact doubles (``float.hex``) of the comparison series f and
f', the cell-pair sums (of the reference loops in ``oracles.py``), the limit
field, the rank-one closed form, the weak-residual table, a Picard solve of
the conditional OU field, the two control cost routes and the M-norm of
empirical measures.

They pin the last bit, not a tolerance, so a refactor of these routines that
claims to keep behaviour must keep every value.  The file was recorded with
``PYTHONPATH=src python tests/test_bit_goldens.py``; re-record only for a
change that is meant to move these bits, and say so.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sheetlab import (
    ChaosConfig,
    CoefficientField,
    EmpiricalMeasure,
    FrequencyGrid,
    Grid,
    MQuadrature,
    Point,
    closed_form_solution,
    controlled_linear_field,
    est_inequality_check,
    f_series,
    f_series_derivative,
    find_r0,
    fourier_batch,
    grid_search,
    limit_solution,
    lq_cost,
    m_dist_sq,
    m_inner,
    mean_feedback_policy,
    mean_reversion_field,
    performance_direct,
    performance_measure_based,
    picard_solve,
    residual_table,
    sample_sheet,
    solve_conditional_mkv,
    verify_limit_spde,
)

from oracles import double_ito_integral, double_rect_integral

GOLDEN = Path(__file__).parent / "data" / "bit_goldens.json"

WIDE = np.linspace(-700.0, 700.0, 401)
NARROW = np.linspace(-3.0, 3.0, 241)
SCALARS = (-700.0, -25.0, -1.4457964907366958, -0.3, 0.0, 0.3, 1.0, 25.0, 700.0)

# 16 x 12 = 192 cells: more than one block of first cells in the pair sums
PAIR_GRID = Grid(Point(1.0, 0.75), 16, 12)
LIMIT_GRID = Grid(Point(1.0, 0.5), 12, 10)
CONTROL_GRID = Grid(Point(1.0, 1.0), 4, 4)


def _psi(a, b):
    return np.exp(-((a.t - b.t) ** 2)) * (1.0 + a.x * b.x)


def _h(a, b):
    return np.cos(a.t * b.x) + a.x * b.t


def _coupled_field(n, m):
    """State-dependent, measure-coupled coefficients with a full beta beta^T."""
    rng = np.random.default_rng(10 * n + m)
    K = 0.3 * rng.normal(size=(n, n))
    S = 0.5 * rng.normal(size=(n, m))

    def drift(z, y, mu):
        return y @ K.T - 0.4 * (y - mu.samples.mean(axis=0))

    def diffusion(z, y, mu):
        return S[None] * (1.0 + 0.2 * np.sin(y))[:, :, None]

    return CoefficientField(n=n, m=m, drift=drift, diffusion=diffusion)


def _closed_form():
    """equal weights at N = 4 and unequal weights at N = 3"""
    out = []
    for N, a, seed in ((4, 1.0, 6), (3, (0.5, 1.0, 2.5), 7)):
        sheet = sample_sheet(LIMIT_GRID, N, seed=seed)
        out += list(closed_form_solution(ChaosConfig(N, a, 0.7, LIMIT_GRID), sheet).values.ravel())
    return out


def _residual_table(n, m):
    grid = Grid(Point(1.0, 1.0), 6, 6)
    ens = solve_conditional_mkv(_coupled_field(n, m), np.linspace(0.2, 0.6, n), 40, grid, seed=3)
    W = np.random.default_rng(n).normal(size=(4, n))
    out = []
    for z in (grid.horizon, Point(0.5, 5.0 / 6.0)):
        res = [r for _, r in residual_table(ens, FrequencyGrid(W), z)]
        out += [part for r in res for part in (r.real, r.imag)]
    return out


def _pair_sums():
    sheet = sample_sheet(PAIR_GRID, 2, seed=5)
    out = []
    for z in (PAIR_GRID.horizon, Point(0.5, 0.5)):
        out += [
            double_ito_integral(_psi, sheet, 0, 1, z),
            double_ito_integral(_psi, sheet, 1, 1, z),
            double_ito_integral(None, sheet, 0, 1, z),
            double_ito_integral(None, sheet, 0, 0, z),
            double_rect_integral(_h, z, PAIR_GRID),
        ]
    return out


def _limit_spde():
    out = []
    for a in (1.5, 1.0, 0.25):
        rep = verify_limit_spde(a, 0.7, LIMIT_GRID, 6, seed=2)
        out += [rep.det_residual, rep.stoch_residual]
    return out


def _picard():
    field = mean_reversion_field(0.4, (0.5, 0.3, 0.2), n=2)
    result = picard_solve(field, (1.0, -0.5), 7, Grid(Point(1.0, 0.8), 6, 5), 5, 6, 1e-14)
    return [*result.gaps, *result.ensemble.values.ravel()]


def _control():
    """controlled_linear_field and lq_cost as in the control tests, y0 = 2"""
    return (
        controlled_linear_field(-1.0, 1.0, (0.5, 0.5)),
        lq_cost(CONTROL_GRID.horizon, 1.0, 0.25, 1.0),
        2.0,
    )


def _performance(route, M):
    estimate = route(mean_feedback_policy(-0.5), *_control(), M, CONTROL_GRID, 3, 11)
    return [estimate.value, estimate.stderr, *estimate.replicate_values]


def _grid_search():
    policies = [mean_feedback_policy(theta) for theta in (-0.5, 0.0, 0.5)]
    out = []
    for route in ("direct", "measure"):
        result = grid_search(policies, *_control(), 5, CONTROL_GRID, 3, 13, route=route)
        out.append(result.best_index)
        for est in result.table:
            out += [est.theta, est.value, est.stderr, *est.replicate_values]
    return out


def _measure_metric():
    """Fourier transforms, M-distance and M-inner product of seeded clouds at
    n = 1 (order 40) and n = 2 (order 12), and the comparison estimate"""
    rng = np.random.default_rng(17)
    out = []
    for shape, order in (((8, 1), 40), ((6, 2), 12)):
        mu = EmpiricalMeasure(rng.normal(size=shape))
        eta = EmpiricalMeasure(0.5 + 1.5 * rng.normal(size=shape))
        quad = MQuadrature(dim=shape[1], order=order)
        mu_hat = fourier_batch(mu, quad.nodes)
        out += [*mu_hat.real, *mu_hat.imag, m_dist_sq(mu, eta, quad), m_inner(mu, eta, quad)]
    y1 = rng.normal(size=(4, 10))
    pairs = [(a, a + 0.3 * rng.normal(size=a.shape)) for a in y1]
    report = est_inequality_check(pairs, MQuadrature(dim=1, order=40))
    return [*out, report.lhs, report.rhs]


CASES = {
    "f_series_wide": lambda: f_series(WIDE),
    "f_series_narrow": lambda: f_series(NARROW),
    "f_series_scalars": lambda: [f_series(y) for y in SCALARS],
    "f_series_derivative_wide": lambda: f_series_derivative(WIDE),
    "f_series_derivative_narrow": lambda: f_series_derivative(NARROW),
    "f_series_derivative_scalars": lambda: [f_series_derivative(y) for y in SCALARS],
    "find_r0": lambda: [find_r0(1e-12)],
    "pair_sums": _pair_sums,
    "limit_solution": lambda: limit_solution(
        1.5, 0.7, sample_sheet(LIMIT_GRID, 1, seed=4, stream=2)
    ).values,
    "verify_limit_spde": _limit_spde,
    "closed_form_solution": _closed_form,
    "residual_table_n1": lambda: _residual_table(1, 2),
    "residual_table_n2": lambda: _residual_table(2, 3),
    "residual_table_n3": lambda: _residual_table(3, 2),
    "picard_mean_reversion_n2": _picard,
    "performance_direct": lambda: _performance(performance_direct, 5),
    "performance_measure_based": lambda: _performance(performance_measure_based, 5),
    # one particle: each particle's cost sum is a column of length nt * nx
    "performance_direct_m1": lambda: _performance(performance_direct, 1),
    "grid_search": _grid_search,
    "measure_metric": _measure_metric,
}


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_bits_match_the_recorded_golden(name, golden):
    assert _hex(CASES[name]()) == golden[name]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _hex(fn()) for name, fn in CASES.items()}, indent=1) + "\n")
