"""Command-line front end.

Subcommands: simulate, spectrum, aes-sweep, figures, validate-kernel,
stability-map.  Each reads an optional flat config file (dotted keys, see
``nlgp <cmd> --help`` for the keys), applies flag overrides, echoes the fully
resolved config next to its outputs, and exits with:

    0  success
    1  scientific check failed (kernel hypothesis violated, unstable verdict,
       non-decreasing convergence table)
    2  configuration error
    3  runtime blow-up or stepper stall, from any command (simulate keeps
       its partial outputs)
    4  internal error (any other exception, reported on one line)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bloch, evolution, experiments, kernels, waves
from ._config import ConfigError, coerce, format_flat_config, parse_flat_config
from .spectral import PeriodicGrid

# Per-subcommand schema: key -> (type-name, default).
_SOLUTION_KEYS = {
    "solution.B": ("float", 1.0),
    "solution.V0": ("float", -1.0),
    "solution.k": ("float", 1.0),
    "solution.alpha": ("int", 1),
    "kernel.name": ("str", "gaussian-normalized"),
    "kernel.epsilon": ("float", 0.0),
}

SCHEMAS = {
    "simulate": {
        **_SOLUTION_KEYS,
        "grid.period": ("float", 0.0),  # 0 means one wave period, 2*pi/k
        "grid.num_modes": ("int", 128),
        "evolution.horizon": ("float", 30.0),
        "evolution.rtol": ("float", 1e-10),
        "evolution.atol": ("float", 1e-10),
        "evolution.record_every": ("float", 0.25),
        "evolution.stepper": ("str", "adaptive"),
        "evolution.dt": ("float", 1e-3),
        "perturbation.nu": ("float", 0.0),
        "perturbation.mode_cutoff": ("int", 16),
        "run.seed": ("int", experiments.DEFAULT_SEED),
    },
    "spectrum": {
        **_SOLUTION_KEYS,
        "spectrum.n_periods": ("int", 4),
        "spectrum.truncation": ("int", 64),
    },
    "aes-sweep": {
        "aes.B": ("float", 1.0),
        "aes.V0": ("float", -1.0),
        "aes.k": ("float", 1.0),
        "aes.alpha": ("int", 1),
        "aes.kernel": ("str", "gaussian-normalized"),
        "aes.horizon": ("float", 5.0),
        "aes.num_modes": ("int", 64),
        "aes.record_every": ("float", 0.2),
        "aes.epsilons": ("str", "0.1,0.05,0.025,0.0125"),
        "evolution.rtol": ("float", 1e-10),
        "evolution.atol": ("float", 1e-10),
    },
    "figures": {
        "figures.regime": ("str", ""),
        "figures.kernel": ("str", "gaussian-raw"),
        "figures.horizon": ("float", 30.0),
        "figures.num_modes": ("int", 128),
        "figures.n_periods": ("int", 4),
        "figures.truncation": ("int", 64),
        "figures.record_every": ("float", 0.25),
        "figures.mode_cutoff": ("int", 16),
        "evolution.rtol": ("float", 1e-10),
        "evolution.atol": ("float", 1e-10),
        "run.seed": ("int", experiments.DEFAULT_SEED),
    },
    "validate-kernel": {
        "kernel.name": ("str", "gaussian-normalized"),
        "kernel.epsilon": ("float", 1.0),
        "validate.which": ("str", "H"),
    },
    "stability-map": {
        "map.B_values": ("str", "0.25,0.5,1.0,2.0"),
        "map.V0_values": ("str", "-2.0,-1.0,-0.5,-0.25"),
        "map.k": ("float", 1.0),
        "map.eps": ("float", 0.0),
        "map.alpha": ("int", 1),
        "map.kernel": ("str", "gaussian-normalized"),
        "map.n_periods": ("int", 1),
        "map.truncation": ("int", 32),
    },
}

# Exceptions that indicate a bad configuration rather than a code defect;
# ConfigError and the domain errors of waves, bloch and kernels subclass
# ValueError.
_CONFIG_ERRORS = (ValueError, FileNotFoundError)
_BLOW_UP_ERRORS = (evolution.NonFiniteError, evolution.StepSizeUnderflowError)


def resolve_config(command: str, config_path, overrides: dict) -> dict:
    """File values + defaults + flag overrides, with unknown keys rejected."""
    schema = SCHEMAS[command]
    file_values = {}
    if config_path is not None:
        file_values = parse_flat_config(Path(config_path).read_text())
        unknown = sorted(set(file_values) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: "
                              + ", ".join(unknown))
    out = {}
    for key, (kind, default) in schema.items():
        if key in file_values:
            out[key] = coerce(file_values[key], kind)
        else:
            out[key] = default
    for key, value in overrides.items():
        if value is not None:
            out[key] = value
    return out


def _write_echo(cfg: dict, out_dir):
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved.cfg").write_text(format_flat_config(cfg))


def _parse_float_list(text: str, key: str):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers, "
                          f"got {text!r}")
    if not vals:
        raise ConfigError(f"{key} must list at least one value")
    return vals


def _scaled_kernel(cfg):
    base = kernels.kernel_from_name(cfg["kernel.name"])
    return kernels.ScaledKernel(base, cfg["kernel.epsilon"])


def _solution(cfg, grid=None):
    kern = _scaled_kernel(cfg)
    if grid is None:
        return waves.solution_params(cfg["solution.B"], cfg["solution.V0"],
                                     cfg["solution.k"], cfg["solution.alpha"],
                                     kern)
    return waves.build_solution(cfg["solution.B"], cfg["solution.V0"],
                                cfg["solution.k"], cfg["solution.alpha"],
                                kern, grid)


def cmd_simulate(cfg: dict, out_dir) -> int:
    k = cfg["solution.k"]
    period = cfg["grid.period"] if cfg["grid.period"] > 0 else 2.0 * np.pi / k
    cfg["grid.period"] = period
    grid = PeriodicGrid(period, cfg["grid.num_modes"])
    state = _solution(cfg, grid)
    psi0 = evolution.perturbed_initial(
        state, evolution.PerturbationSpec(nu=cfg["perturbation.nu"],
                                          seed=cfg["run.seed"],
                                          mode_cutoff=cfg["perturbation.mode_cutoff"]))
    if cfg["evolution.stepper"] == "adaptive":
        stepper = evolution.AdaptiveRK45(rtol=cfg["evolution.rtol"],
                                         atol=cfg["evolution.atol"])
    elif cfg["evolution.stepper"] == "fixed":
        stepper = evolution.FixedRK4(dt=cfg["evolution.dt"])
    else:
        raise ConfigError("evolution.stepper must be 'adaptive' or 'fixed', "
                          f"got {cfg['evolution.stepper']!r}")
    econf = evolution.EvolutionConfig(
        grid=grid, kernel=_scaled_kernel(cfg),
        potential=waves.SineSquared(cfg["solution.V0"], k),
        alpha=cfg["solution.alpha"], time_horizon=cfg["evolution.horizon"],
        stepper=stepper, record_every=cfg["evolution.record_every"])
    _write_echo(cfg, out_dir)

    def dump(traj, tag=""):
        if out_dir is None:
            return
        out = Path(out_dir)
        evolution.write_trajectory_csv(traj, out / f"trajectory{tag}.csv")
        evolution.write_summary_csv(traj, out / f"summary{tag}.csv",
                                    reference=state.field)

    try:
        traj = evolution.evolve(psi0, econf)
    except _BLOW_UP_ERRORS as exc:
        dump(exc.trajectory, tag=".partial")
        raise
    dump(traj)
    dev = traj.deviation_from(state.field)
    print(f"evolved to t = {traj.times[-1]:g} in {len(traj.times)} snapshots")
    print(f"final orbit deviation {dev[-1]:.6g} (max {np.max(dev):.6g})")
    print(f"relative mass drift {traj.mass_drift():.3g}, "
          f"energy drift {traj.energy_drift():.3g}")
    return 0


def cmd_spectrum(cfg: dict, out_dir) -> int:
    params = _solution(cfg)
    reports = bloch.full_period_spectrum(cfg["spectrum.n_periods"], params,
                                         cfg["spectrum.truncation"])
    summary = bloch.eigen_summary(reports, params)
    _write_echo(cfg, out_dir)
    if out_dir is not None:
        bloch.write_eigen_csv(reports, Path(out_dir) / "spectrum.csv")
    print(f"max real part {summary['max_real_part']:.6g} over "
          f"{len(reports)} Bloch parameters -> {summary['verdict']}")
    if summary["b_star"] is not None:
        rel = ">" if params.B > summary["b_star"] else "<="
        print(f"B = {params.B:g} {rel} B* = {summary['b_star']:.6g}")
    else:
        print("B* undefined (kernel multiplier nonpositive on the lattice)")
    rel = ">=" if summary["A"] >= summary["a_crit"] else "<"
    print(f"A = {summary['A']:.6g} {rel} A_crit = {summary['a_crit']:.6g} "
          f"({summary['predicate']})")
    return 1 if summary["verdict"] == "unstable" else 0


def cmd_aes_sweep(cfg: dict, out_dir) -> int:
    eps = _parse_float_list(cfg["aes.epsilons"], "aes.epsilons")
    base = kernels.kernel_from_name(cfg["aes.kernel"])
    table = experiments.run_aes_sweep(
        eps, B=cfg["aes.B"], V0=cfg["aes.V0"], k=cfg["aes.k"],
        alpha=cfg["aes.alpha"], base=base, horizon=cfg["aes.horizon"],
        num_modes=cfg["aes.num_modes"], rtol=cfg["evolution.rtol"],
        atol=cfg["evolution.atol"], record_every=cfg["aes.record_every"],
        out_dir=out_dir)
    _write_echo(cfg, out_dir)
    print(f"{'epsilon':>10}  {'sup-t Linf':>12}  {'sup-t H1':>12}")
    for row in table.rows:
        print(f"{row.epsilon:>10.4g}  {row.err_linf:>12.4e}  {row.err_h1:>12.4e}")
    orders = table.orders()
    if orders:
        print("empirical orders between halvings: "
              + ", ".join(f"{o:.2f}" for o in orders))
    if not table.strictly_decreasing():
        print("convergence check FAILED: errors do not decrease with epsilon",
              file=sys.stderr)
        return 1
    return 0


def cmd_figures(cfg: dict, out_dir) -> int:
    regime = cfg["figures.regime"]
    if regime not in experiments.FIGURE_REGIMES:
        raise ConfigError("figures.regime (or the positional argument) must be "
                          f"one of {sorted(experiments.FIGURE_REGIMES)}, "
                          f"got {regime!r}")
    base = kernels.kernel_from_name(cfg["figures.kernel"])
    result = experiments.run_figure_regime(
        regime, kernel_base=base, seed=cfg["run.seed"],
        horizon=cfg["figures.horizon"], num_modes=cfg["figures.num_modes"],
        n_periods=cfg["figures.n_periods"], truncation=cfg["figures.truncation"],
        rtol=cfg["evolution.rtol"], atol=cfg["evolution.atol"],
        record_every=cfg["figures.record_every"],
        mode_cutoff=cfg["figures.mode_cutoff"], out_dir=out_dir)
    _write_echo(cfg, out_dir)
    print(f"regime {regime}: abscissa {result.abscissa:.6g}, "
          f"max deviation {np.max(result.deviations):.6g}")
    if result.growth_rate is not None:
        print(f"fitted growth rate {result.growth_rate:.6g}")
    else:
        print("no resolvable exponential growth window")
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_validate_kernel(cfg: dict, out_dir) -> int:
    kern = _scaled_kernel(cfg)
    which = cfg["validate.which"]
    if which not in ("H", "Hprime", "both"):
        raise ConfigError("validate.which must be 'H', 'Hprime' or 'both', "
                          f"got {which!r}")
    sets = ("H", "Hprime") if which == "both" else (which,)
    ok = True
    report_lines = []
    for s in sets:
        report = kernels.validate_hypotheses(kern, which=s)
        report_lines.append(f"[{s}] kernel {report.kernel_family}")
        report_lines.extend("  " + ln for ln in report.lines())
        ok = ok and report.all_passed
    text = "\n".join(report_lines)
    print(text)
    _write_echo(cfg, out_dir)
    if out_dir is not None:
        (Path(out_dir) / "validation.txt").write_text(text + "\n")
    return 0 if ok else 1


def cmd_stability_map(cfg: dict, out_dir) -> int:
    B_vals = _parse_float_list(cfg["map.B_values"], "map.B_values")
    V0_vals = _parse_float_list(cfg["map.V0_values"], "map.V0_values")
    base = kernels.kernel_from_name(cfg["map.kernel"])
    result = experiments.stability_map(
        B_vals, V0_vals, k=cfg["map.k"], eps=cfg["map.eps"],
        alpha=cfg["map.alpha"], base=base, n_periods=cfg["map.n_periods"],
        truncation=cfg["map.truncation"], out_dir=out_dir)
    _write_echo(cfg, out_dir)
    n_pts = result.abscissa.size
    n_bad = int(np.sum(np.isnan(result.abscissa)))
    n_unst = int(np.sum(result.abscissa > 1e-8))
    print(f"{n_pts} points: {n_unst} unstable, "
          f"{n_pts - n_bad - n_unst} stable, {n_bad} outside the family")
    if result.b_star is not None:
        print(f"B* = {result.b_star:.6g}, A_crit = {result.a_crit:.6g}")
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "aes-sweep": cmd_aes_sweep,
    "figures": cmd_figures,
    "validate-kernel": cmd_validate_kernel,
    "stability-map": cmd_stability_map,
}


def _schema_epilog(command: str) -> str:
    lines = ["config keys (key = default):"]
    for key, (kind, default) in sorted(SCHEMAS[command].items()):
        shown = format_flat_config({key: default}).strip()
        lines.append(f"  {shown}   [{kind}]")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlgp",
        description="Nonlocal Gross-Pitaevskii toolkit: evolution, exact "
                    "traveling waves, and Bloch stability spectra on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(
            name, epilog=_schema_epilog(name),
            formatter_class=argparse.RawDescriptionHelpFormatter,
            help={
                "simulate": "evolve a perturbed exact solution",
                "spectrum": "Bloch stability spectrum of an exact solution",
                "aes-sweep": "nonlocal-vs-local error table over epsilon",
                "figures": "reproduce one published stability regime",
                "validate-kernel": "audit kernel hypotheses numerically",
                "stability-map": "spectral abscissa over a (B, V0) grid",
            }[name])
        p.add_argument("--config", metavar="PATH", default=None,
                       help="flat config file (dotted keys, see below)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory for CSVs, plot scripts, and the "
                            "resolved-config echo")
        p.add_argument("--seed", metavar="N", type=int, default=None,
                       help="override run.seed (read by simulate and figures "
                            "only)")
        p.add_argument("--threads", metavar="N", type=int, default=1,
                       help="no effect: sweeps run serially and BLAS threads "
                            "follow OPENBLAS_NUM_THREADS")
        p.add_argument("--kernel", metavar="NAME", default=None,
                       help="kernel selection: gaussian-normalized, "
                            "gaussian-raw, algebraic:P, custom:PATH")
        if name == "figures":
            p.add_argument("regime", nargs="?", default=None,
                           choices=sorted(experiments.FIGURE_REGIMES),
                           help="which published regime to run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    overrides = {}
    if args.seed is not None and "run.seed" in SCHEMAS[command]:
        overrides["run.seed"] = args.seed
    if args.kernel is not None:
        kernel_key = {"aes-sweep": "aes.kernel", "figures": "figures.kernel",
                      "stability-map": "map.kernel"}.get(command, "kernel.name")
        overrides[kernel_key] = args.kernel
    if command == "figures" and args.regime is not None:
        overrides["figures.regime"] = args.regime
    try:
        cfg = resolve_config(command, args.config, overrides)
        return _HANDLERS[command](cfg, args.out)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _BLOW_UP_ERRORS as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
