"""Periodic nonlocal Gross-Pitaevskii toolkit.

Three things live here: a filtered pseudo-spectral time integrator for the
cubic (local or nonlocally smoothed) equation on the torus, the explicit
family of traveling-wave solutions supported by a sin^2 potential, and the
Bloch eigenvalue machinery that decides their spectral stability.
"""

from .spectral import PeriodicGrid, WaveField, filter_multipliers
from .kernels import (
    KernelSpec,
    ScaledKernel,
    ValidationReport,
    beta,
    convolve_periodic,
    kernel_from_name,
    multiplier,
    validate_hypotheses,
)
from .waves import (
    BetaZeroError,
    OffsetTooSmallError,
    PeriodMismatchError,
    SineSquared,
    SolutionParams,
    StationaryState,
    build_solution,
    solution_params,
    stationary_residual,
)
from .evolution import (
    EvolutionConfig,
    NonFiniteError,
    StepSizeUnderflowError,
    Trajectory,
    evolve,
    perturbed_initial,
    random_band_limited,
    write_summary_csv,
    write_trajectory_csv,
)
from .bloch import (
    AnalyticEigen,
    BlochOperator,
    EigenReport,
    EigensolveError,
    InvalidMuError,
    TruncationTooSmallError,
    a_crit,
    analytic_spectrum_V0_zero,
    assemble,
    b_star,
    eigen_summary,
    full_period_spectrum,
    generalized_zero_mode,
    hill_quadratic_form,
    instability_predicate,
    krein_form,
    match_spectra,
    matrix_quadratic_form,
    phase_zero_mode,
    spectrum,
    write_eigen_csv,
)
from .experiments import (
    FIGURE_REGIMES,
    AesTable,
    FigureRegimeResult,
    StabilityMap,
    fit_growth_rate,
    run_aes_sweep,
    run_figure_regime,
    stability_map,
)

__version__ = "0.1.0"

__all__ = [
    "AesTable", "AnalyticEigen", "BetaZeroError",
    "BlochOperator", "EigenReport", "EigensolveError", "EvolutionConfig",
    "FIGURE_REGIMES", "FigureRegimeResult", "InvalidMuError",
    "KernelSpec", "NonFiniteError", "OffsetTooSmallError",
    "PeriodMismatchError", "PeriodicGrid",
    "ScaledKernel", "SineSquared", "SolutionParams",
    "StabilityMap", "StationaryState", "StepSizeUnderflowError", "Trajectory",
    "TruncationTooSmallError", "ValidationReport", "WaveField", "a_crit",
    "analytic_spectrum_V0_zero", "assemble", "b_star", "beta",
    "build_solution", "convolve_periodic", "eigen_summary", "evolve",
    "filter_multipliers", "fit_growth_rate", "full_period_spectrum",
    "generalized_zero_mode", "hill_quadratic_form", "instability_predicate",
    "kernel_from_name", "krein_form", "match_spectra", "matrix_quadratic_form",
    "multiplier", "perturbed_initial", "phase_zero_mode",
    "random_band_limited", "run_aes_sweep", "run_figure_regime",
    "solution_params", "spectrum", "stability_map", "stationary_residual",
    "validate_hypotheses", "write_eigen_csv", "write_summary_csv",
    "write_trajectory_csv",
]
