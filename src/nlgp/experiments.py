"""Scripted reproductions: the AES epsilon-sweep, the four figure regimes,
and stability maps over the (B, V0) plane.

Every runner can write its artifacts (CSV tables, a JSON report, and a
matplotlib plot script) into an output directory; the sweeps run serially,
and identical inputs and seed produce byte-identical CSVs.  The settings of a
run are recorded by the command line (``resolved.cfg``), not here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bloch, evolution, kernels, waves
from .runs import (DEFAULT_SEED, FIGURE_REGIMES, ConfigError, from_settings, write_csv,
                   write_outputs)
from .spectral import PeriodicGrid, WaveField


# ---------------------------------------------------------------------------
# AES sweep


@dataclass(frozen=True)
class AesRow:
    epsilon: float
    err_linf: float
    err_h1: float


@dataclass(frozen=True)
class AesTable:
    rows: tuple

    def orders(self) -> list:
        """Empirical convergence orders log2(E(2 eps)/E(eps)) between halvings."""
        rows = [r for r in self.rows if r.epsilon > 0]
        out = []
        for a, b in zip(rows[:-1], rows[1:]):
            if abs(a.epsilon - 2.0 * b.epsilon) < 1e-12 and b.err_linf > 0:
                out.append(float(np.log2(a.err_linf / b.err_linf)))
        return out

    def strictly_decreasing(self) -> bool:
        errs = [r.err_linf for r in self.rows if r.epsilon > 0]
        return all(a > b for a, b in zip(errs[:-1], errs[1:]))


def run_aes_sweep(epsilons=(0.1, 0.05, 0.025, 0.0125), *, B=1.0, V0=-1.0, k=1.0,
                  alpha=1, base: kernels.KernelSpec | None = None, horizon=5.0,
                  num_modes=64, rtol=1e-10, atol=1e-10, record_every=0.2,
                  out_dir=None) -> AesTable:
    """Evolve nonlocal vs local flows from identical initial data.

    The initial state is the exact local-equation profile; for each eps the
    nonlocal flow is compared against the local one in sup norm over both
    time and space (and in H1).  The local flow is the unit-mass Gaussian at
    eps = 0, whose multiplier is exactly 1, so ``base`` must have unit mass
    (zeta_hat(0) = 1): any other mass is a different local limit.  The
    table is sorted by decreasing eps.
    """
    if base is None:
        base = kernels.KernelSpec.gaussian_normalized()
    with from_settings():
        mass = float(base.zeta_hat(0.0))
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"the AES sweep needs a unit-mass kernel (zeta_hat(0) = 1), "
                             f"{base.family} has zeta_hat(0) = {mass:.6g}")
        eps_sorted = sorted(set(float(e) for e in epsilons), reverse=True)
        if any(e < 0 for e in eps_sorted):
            raise ValueError("epsilons must be nonnegative")
        local_kernel = kernels.ScaledKernel(kernels.KernelSpec.gaussian_normalized(), 0.0)
        params = waves.solution_params(B, V0, k, alpha, local_kernel)
        grid = PeriodicGrid(2.0 * np.pi / params.k, num_modes)
        psi0 = waves.build_solution(params, grid)

        def config_for(kern):
            return evolution.EvolutionConfig(
                kernel=kern, potential=waves.SineSquared(params.V0, params.k),
                alpha=params.alpha, time_horizon=horizon, rtol=rtol, atol=atol,
                record_every=record_every)

        ref_config = config_for(local_kernel)
    ref = evolution.evolve(psi0, ref_config)
    rows = []
    for eps in eps_sorted:
        kern = kernels.ScaledKernel(base, eps)
        traj = evolution.evolve(psi0, config_for(kern))
        diff = traj.samples - ref.samples
        err_h1 = max(WaveField(grid, d).hs_norm(1.0) for d in diff)
        rows.append(AesRow(eps, float(np.max(np.abs(diff))), err_h1))
    table = AesTable(tuple(rows))
    write_outputs(out_dir, {
        "aes.csv": lambda p: _write_aes_csv(table, p),
        "plot_aes.py": _write_aes_plot_script,
    })
    return table


def _write_aes_csv(table: AesTable, path):
    rows = table.rows
    write_csv(path, ("epsilon", "sup_t_err_linf", "sup_t_err_h1"),
              [([float(r.epsilon) for r in rows], [float(r.err_linf) for r in rows],
                [float(r.err_h1) for r in rows])])


def _write_aes_plot_script(path):
    Path(path).write_text('''"""Log-log error-vs-epsilon plot for the AES sweep."""
import csv
import matplotlib.pyplot as plt

eps, e_inf, e_h1 = [], [], []
with open("aes.csv") as fh:
    for row in csv.DictReader(fh):
        if float(row["epsilon"]) > 0:
            eps.append(float(row["epsilon"]))
            e_inf.append(float(row["sup_t_err_linf"]))
            e_h1.append(float(row["sup_t_err_h1"]))
plt.loglog(eps, e_inf, "o-", label="sup-t Linf error")
plt.loglog(eps, e_h1, "s--", label="sup-t H1 error")
plt.xlabel("epsilon")
plt.ylabel("error vs local flow")
plt.legend()
plt.grid(True, which="both", alpha=0.3)
plt.savefig("aes.png", dpi=150, bbox_inches="tight")
''')


# ---------------------------------------------------------------------------
# Figure regimes


@dataclass(frozen=True, eq=False)
class FigureRegimeResult:
    regime: str
    params: waves.SolutionParams
    nu: float
    trajectory: evolution.Trajectory
    reports: list
    deviations: np.ndarray
    abscissa: float
    growth_rate: float | None
    warnings: tuple


def fit_growth_rate(times, deviations, nu: float, phi_sup: float) -> float | None:
    """Least-squares slope of log(deviation) over the window [3 nu, 0.3 sup|phi|].

    Returns None when fewer than three samples fall inside the window (no
    resolvable exponential stage).
    """
    t = np.asarray(times, float)
    d = np.asarray(deviations, float)
    mask = (d >= 3.0 * nu) & (d <= 0.3 * phi_sup) & (d > 0)
    if mask.sum() < 3:
        return None
    slope = np.polyfit(t[mask], np.log(d[mask]), 1)[0]
    return float(slope)


def run_figure_regime(which: str, *, kernel_base: kernels.KernelSpec | None = None,
                      seed=DEFAULT_SEED, horizon=30.0, num_modes=128,
                      truncation=64, rtol=1e-10, atol=1e-10, record_every=0.25,
                      out_dir=None) -> FigureRegimeResult:
    """Reproduce one published regime: perturbed evolution plus Bloch spectra.

    The regimes run with k = 1, alpha = 1 on [0, 8*pi], which holds 4 wave
    periods, so the spectra are the ones at mu = 0, 1/4, 1/2, 3/4 that the
    evolution's domain admits; the perturbation is
    :func:`evolution.perturbed_initial`'s, on its band.  The default kernel
    is the raw Gaussian used by the published numerics; pass a normalized
    base to get the theory-valid variant (the choice lands in the run
    metadata either way).
    """
    if which not in FIGURE_REGIMES:
        raise ConfigError(f"unknown regime {which!r}; expected one of "
                          f"{sorted(FIGURE_REGIMES)}")
    reg = FIGURE_REGIMES[which]
    base = kernel_base if kernel_base is not None else kernels.KernelSpec.gaussian_raw()
    k, alpha = 1.0, 1
    with from_settings():
        grid = PeriodicGrid(8.0 * np.pi, num_modes)
        params = waves.solution_params(reg["B"], reg["V0"], k, alpha,
                                       kernels.ScaledKernel(base, reg["eps"]))
        phi = waves.build_solution(params, grid)
        psi0 = evolution.perturbed_initial(phi, reg["nu"], seed)
        cfg = evolution.EvolutionConfig(
            kernel=params.kernel, potential=waves.SineSquared(reg["V0"], k),
            alpha=alpha, time_horizon=horizon, rtol=rtol, atol=atol,
            record_every=record_every)
    # the spectra first: they check truncation before the evolution's cost
    # is spent
    reports = bloch.full_period_spectrum(4, params, truncation)
    abscissa = max(rep.max_real_part for rep in reports)
    traj = evolution.evolve(psi0, cfg)
    deviations = traj.deviation_from(phi)
    sigma = fit_growth_rate(traj.times, deviations, reg["nu"], phi.linf_norm())
    warnings = []
    if sigma is not None and sigma > 1e-2 and abscissa < sigma / 2.0:
        warnings.append(
            f"dynamics grow at fitted rate {sigma:.3g} but spectral abscissa is "
            f"only {abscissa:.3g}; linear theory and dynamics disagree")

    result = FigureRegimeResult(
        regime=which, params=params, nu=reg["nu"], trajectory=traj,
        reports=reports, deviations=deviations, abscissa=abscissa,
        growth_rate=sigma, warnings=tuple(warnings))
    write_outputs(out_dir, {
        "trajectory.csv": lambda p: evolution.write_trajectory_csv(traj, p),
        "summary.csv": lambda p: evolution.write_summary_csv(traj, p, deviations),
        "spectrum.csv": lambda p: bloch.write_eigen_csv(reports, p),
        "report.json": lambda p: _write_regime_json(result, p),
        "plot_regime.py": _write_regime_plot_script,
    })
    return result


def _write_regime_json(result: FigureRegimeResult, path):
    summary = bloch.eigen_summary(result.reports, result.params)
    payload = {
        "regime": result.regime,
        "nu": result.nu,
        "max_deviation": float(np.max(result.deviations)),
        "final_deviation": float(result.deviations[-1]),
        "growth_rate": result.growth_rate,
        "warnings": list(result.warnings),
        "spectrum": summary,
        "mass_drift": result.trajectory.mass_drift(),
        "energy_drift": result.trajectory.energy_drift(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_regime_plot_script(path):
    Path(path).write_text('''"""Orbit deviation and Bloch spectrum plots for one figure regime."""
import csv
import matplotlib.pyplot as plt

t, dev = [], []
with open("summary.csv") as fh:
    for row in csv.DictReader(fh):
        t.append(float(row["t"]))
        dev.append(float(row["mod_deviation"]))
re, im = [], []
with open("spectrum.csv") as fh:
    for row in csv.DictReader(fh):
        re.append(float(row["re_lambda"]))
        im.append(float(row["im_lambda"]))

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
ax1.semilogy(t, dev)
ax1.set_xlabel("t")
ax1.set_ylabel("sup | |psi| - |phi| |")
ax1.grid(alpha=0.3)
ax2.plot(re, im, ".", markersize=3)
ax2.set_xlabel("Re lambda")
ax2.set_ylabel("Im lambda")
ax2.grid(alpha=0.3)
fig.savefig("regime.png", dpi=150, bbox_inches="tight")
''')


# ---------------------------------------------------------------------------
# Stability map


@dataclass(frozen=True, eq=False)
class StabilityMap:
    B_values: np.ndarray
    V0_values: np.ndarray
    abscissa: np.ndarray  # shape (len(B), len(V0)); NaN where no solution exists
    A_values: np.ndarray  # A for each V0; NaN where beta vanishes
    b_star: float | None
    a_crit: float


def stability_map(B_values, V0_values, *, k=1.0, eps=0.0, alpha=1,
                  base: kernels.KernelSpec | None = None, n_periods=1,
                  truncation=32, out_dir=None) -> StabilityMap:
    """Spectral abscissa over a (B, V0) grid, with threshold annotations."""
    if base is None:
        base = kernels.KernelSpec.gaussian_normalized()
    B_values = np.asarray(sorted(set(float(b) for b in B_values)))
    V0_values = np.asarray(sorted(set(float(v) for v in V0_values)))
    if B_values.size == 0 or V0_values.size == 0:
        raise ConfigError("B_values and V0_values must be nonempty")
    bloch.check_settings(truncation, n_periods)
    with from_settings():
        kern = kernels.ScaledKernel(base, eps)
        bta = kernels.beta(kern, k)

        def params(B, V0):  # None outside the family of solutions
            try:
                return waves.solution_params(B, V0, k, alpha, kern)
            except (waves.OffsetTooSmallError, waves.BetaZeroError):
                return None

        points = [[params(B, V0) for V0 in V0_values] for B in B_values]

    def abscissa(p):
        return max(rep.max_real_part
                   for rep in bloch.full_period_spectrum(n_periods, p, truncation))

    grid_vals = np.array([[np.nan if p is None else abscissa(p) for p in row]
                          for row in points])
    A_values = np.array([waves.potential_shift(V0, alpha, bta) for V0 in V0_values])
    result = StabilityMap(B_values, V0_values, grid_vals, A_values,
                          bloch.b_star(k, kern), bloch.a_crit(k))
    write_outputs(out_dir, {
        "stability_map.csv": lambda p: _write_map_csv(result, p),
        "plot_map.py": _write_map_plot_script,
    })
    return result


def _write_map_csv(m: StabilityMap, path):
    B, A = (a.ravel() for a in np.meshgrid(m.B_values, m.A_values, indexing="ij"))
    above_bs = [""] * B.size if m.b_star is None else (B > m.b_star).astype(int).tolist()
    write_csv(path, ("B", "V0", "A", "abscissa", "above_b_star", "above_a_crit"),
              [(B.tolist(), np.tile(m.V0_values, m.B_values.size).tolist(), A.tolist(),
                m.abscissa.ravel().tolist(), above_bs,
                ["" if np.isnan(a) else int(a >= m.a_crit) for a in A])])


def _write_map_plot_script(path):
    Path(path).write_text('''"""Heat map of the spectral abscissa over the (B, V0) plane."""
import csv
import numpy as np
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("stability_map.csv")))
B = sorted({float(r["B"]) for r in rows})
V0 = sorted({float(r["V0"]) for r in rows})
Z = np.full((len(B), len(V0)), np.nan)
for r in rows:
    Z[B.index(float(r["B"])), V0.index(float(r["V0"]))] = float(r["abscissa"])
plt.pcolormesh(V0, B, np.log10(np.maximum(Z, 1e-16)), shading="nearest")
plt.colorbar(label="log10 spectral abscissa")
plt.xlabel("V0")
plt.ylabel("B")
plt.savefig("stability_map.png", dpi=150, bbox_inches="tight")
''')
