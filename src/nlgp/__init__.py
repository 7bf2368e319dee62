"""Periodic nonlocal Gross-Pitaevskii toolkit.

Three things live here: a filtered pseudo-spectral time integrator for the
cubic (local or nonlocally smoothed) equation on the torus, the explicit
family of traveling-wave solutions supported by a sin^2 potential, and the
Bloch eigenvalue machinery that decides their spectral stability.

Importing the package loads none of its modules: each name below, and each
module by its name, is imported on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# the public names by the module that defines them
_EXPORTS = {
    "spectral": ("PeriodicGrid", "WaveField", "filter_multipliers"),
    "kernels": ("KernelSpec", "ScaledKernel", "ValidationReport", "beta",
                "convolve_periodic", "kernel_from_name", "multiplier",
                "validate_hypotheses"),
    "waves": ("BetaZeroError", "OffsetTooSmallError", "PeriodMismatchError",
              "SineSquared", "SolutionParams", "build_solution", "solution_params",
              "stationary_residual"),
    "evolution": ("EvolutionConfig", "NonFiniteError", "StepSizeUnderflowError",
                  "Trajectory", "evolve", "perturbed_initial", "random_band_limited",
                  "write_summary_csv", "write_trajectory_csv"),
    "bloch": ("AnalyticEigen", "BlochOperator", "EigenReport", "EigensolveError",
              "InvalidMuError", "TruncationTooSmallError", "a_crit",
              "analytic_spectrum_V0_zero", "assemble", "b_star", "eigen_summary",
              "full_period_spectrum", "generalized_zero_mode", "hill_quadratic_form",
              "krein_form", "match_spectra", "matrix_quadratic_form", "phase_zero_mode",
              "spectrum", "write_eigen_csv"),
    "experiments": ("AesTable", "FigureRegimeResult", "StabilityMap", "fit_growth_rate",
                    "run_aes_sweep", "run_figure_regime", "stability_map"),
    "runs": ("FIGURE_REGIMES",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a module: importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(
        f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
