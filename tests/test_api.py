"""The package surface: which names ``sheetlab`` exports, and how its
array-holding records compare."""

import numpy as np
import pytest

import sheetlab
from sheetlab import (
    ChaosConfig,
    EmpiricalMeasure,
    FrequencyGrid,
    Grid,
    GridSearchResult,
    KernelContext,
    MQuadrature,
    ParticleEnsemble,
    PerformanceEstimate,
    PicardResult,
    Point,
    RankOneMatrix,
    StateField,
    mean_feedback_policy,
    sample_sheet,
)

# every name ``sheetlab`` exports, by module; adding or removing one is a
# deliberate edit of this list
PUBLIC_NAMES = [
    # the submodules
    "chaos", "control", "fokker_planck", "ito_check", "measures",
    "noise", "plane", "rng", "series", "solver",
    # chaos
    "ChaosConfig", "LimitSpdeReport", "RankOneMatrix", "RemainderVariance",
    "closed_form_solution", "limit_solution", "matrix_power_decomposition",
    "remainder_variance", "simulate_particle_system", "verify_limit_spde",
    # control
    "ControlPolicy", "ControlledCoefficients", "CostSpec", "GridSearchResult",
    "PerformanceEstimate", "controlled_linear_field", "curry_policy", "grid_search",
    "lq_cost", "mean_feedback_policy", "performance_direct", "performance_measure_based",
    # fokker_planck
    "FrequencyGrid", "KernelContext", "Lemma61Report", "kernel_a",
    "lemma61_scalar_check", "residual_table", "weak_residual",
    # ito_check
    "ItoTermReport", "RefinementStudy", "TestFunction", "ito_refinement_study",
    "ito_terms", "scalar_function",
    # measures
    "EmpiricalMeasure", "EstReport", "MQuadrature", "est_inequality_check",
    "fourier_batch", "m_dist_sq", "m_inner",
    # noise
    "SheetPath", "coarsen_increments", "double_ito_integral", "ito_integral",
    "load_sheet", "rect_increment", "sample_sheet", "save_sheet", "sheet_from_increments",
    # plane
    "Grid", "Point", "diff_double_integral_identity_check", "double_rect_integral",
    "mixed_partial", "quarter_indicator", "rect_integral",
    # rng
    "DOMAIN_CHAOS", "DOMAIN_CONTROL", "DOMAIN_ENSEMBLE", "DOMAIN_REPLICATE",
    "DOMAIN_SHEET", "substream",
    # series
    "f_series", "f_series_derivative", "find_r0", "picard_series_partial_sums", "x_seq",
    # solver
    "CoefficientField", "ParticleEnsemble", "PicardResult", "RadiusReport", "StateField",
    "convergence_radius_report", "mean_reversion_field", "picard_solve",
    "sample_ensemble_increments", "sample_replicate_increments",
    "solve_conditional_mkv", "solve_goursat",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 91
    assert sorted(sheetlab.__all__) == sorted(PUBLIC_NAMES)


def _grid():
    return Grid(horizon=Point(1.0, 1.0), nt=2, nx=2)


def _estimate():
    return PerformanceEstimate(
        theta=0.0, value=0.0, stderr=0.0, replicate_values=np.zeros(2), route="direct"
    )


ARRAY_HOLDERS = {
    "EmpiricalMeasure": lambda: EmpiricalMeasure(samples=np.zeros((3, 1))),
    "MQuadrature": lambda: MQuadrature(dim=1, order=4),
    "SheetPath": lambda: sample_sheet(_grid(), 1, seed=0),
    "FrequencyGrid": lambda: FrequencyGrid([1.0, 2.0]),
    "RankOneMatrix": lambda: RankOneMatrix(a_values=np.ones(3)),
    "ChaosConfig": lambda: ChaosConfig(N=2, a_values=1.0, y0=1.0, grid=_grid()),
    "StateField": lambda: StateField(values=np.zeros((3, 3, 1)), grid=_grid()),
    "ParticleEnsemble": lambda: ParticleEnsemble(
        values=np.zeros((2, 3, 3, 1)),
        grid=_grid(),
        common_increments=np.zeros((2, 2)),
        idio_increments=np.zeros((2, 0, 2, 2)),
    ),
    "PicardResult": lambda: PicardResult(
        ensemble=ARRAY_HOLDERS["ParticleEnsemble"](),
        gaps=np.zeros(2),
        iterations=2,
        converged=True,
        diverged=False,
    ),
    "PerformanceEstimate": _estimate,
    "GridSearchResult": lambda: GridSearchResult(
        best_index=0, best_policy=mean_feedback_policy(0.0), table=[_estimate(), _estimate()]
    ),
    "KernelContext": lambda: KernelContext(alpha=np.zeros(1), beta=np.zeros((1, 2))),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(build):
    # a comparison of the array fields would raise (an array has no single truth value)
    x, twin = build(), build()
    assert x == x
    assert (x == twin) is False
    assert hash(x) == hash(x)
