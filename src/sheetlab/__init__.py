"""sheetlab: a numerical laboratory for stochastic calculus on the plane.

Fields driven by multi-channel Brownian sheets, solved on rectangles by an
explicit Goursat-type recursion; conditional mean-field particle systems with
one observed common channel; and the verification toolkit around them — the
planar Ito formula term by term, a Fourier-type metric on measures with its
contraction estimate, Picard iteration and its convergence radius, the
propagation-of-chaos rate for a rank-one interaction, the weak-form transport
equation of the conditional law, and partial-observation control whose
performance can be priced pathwise or through the measure flow.
"""

from .chaos import (
    ChaosConfig,
    LimitSpdeReport,
    RankOneMatrix,
    RemainderVariance,
    closed_form_solution,
    limit_solution,
    matrix_power_decomposition,
    remainder_variance,
    simulate_particle_system,
    verify_limit_spde,
)
from .control import (
    ControlledCoefficients,
    ControlPolicy,
    CostSpec,
    GridSearchResult,
    PerformanceEstimate,
    controlled_linear_field,
    grid_search,
    lq_cost,
    mean_feedback_policy,
    performance_direct,
    performance_measure_based,
)
from .fokker_planck import (
    FrequencyGrid,
    KernelContext,
    Lemma61Report,
    kernel_a,
    lemma61_scalar_check,
    residual_table,
    weak_residual,
)
from .ito_check import (
    ItoTermReport,
    RefinementStudy,
    TestFunction,
    ito_refinement_study,
    ito_terms,
    scalar_function,
)
from .measures import (
    EmpiricalMeasure,
    EstReport,
    MQuadrature,
    est_inequality_check,
    fourier_batch,
    m_dist_sq,
    m_inner,
)
from .noise import (
    SheetPath,
    coarsen_increments,
    double_ito_integral,
    ito_integral,
    load_sheet,
    rect_increment,
    sample_sheet,
    save_sheet,
    sheet_from_increments,
)
from .plane import (
    Grid,
    Point,
    diff_double_integral_identity_check,
    double_rect_integral,
    mixed_partial,
    quarter_indicator,
    rect_integral,
)
from .rng import (
    DOMAIN_CHAOS,
    DOMAIN_CONTROL,
    DOMAIN_ENSEMBLE,
    DOMAIN_REPLICATE,
    DOMAIN_SHEET,
    substream,
)
from .series import (
    f_series,
    f_series_derivative,
    find_r0,
    picard_series_partial_sums,
    x_seq,
)
from .solver import (
    CoefficientField,
    ParticleEnsemble,
    PicardResult,
    RadiusReport,
    StateField,
    convergence_radius_report,
    mean_reversion_field,
    picard_solve,
    sample_ensemble_increments,
    sample_replicate_increments,
    solve_conditional_mkv,
    solve_goursat,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
