"""Command-line front end.

Subcommands: simulate, spectrum, aes-sweep, figures, validate-kernel,
stability-map.  Each reads an optional flat config file, applies flag
overrides, and, once it has computed, writes its outputs; ``main`` then
writes an echo of the fully resolved config (``resolved.cfg``) for every run
that computed, that is on exits 0, 1 and 3.  It exits with:

    0  success
    1  scientific check failed (kernel hypothesis violated, unstable verdict,
       non-decreasing convergence table)
    2  configuration error, non-finite numbers and negative grid.period too
    3  runtime blow-up or stepper stall, from any command (simulate keeps
       its partial outputs)
    4  internal error (any other exception, reported on one line)

Config format: one ``section.key = value`` per line, ``#`` comments, blank
lines ignored; ``nlgp <cmd> --help`` lists the keys with their defaults.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

# the handlers that evolve import evolution and experiments themselves
from . import bloch, kernels, runs, waves
from .runs import ConfigError, from_settings
from .spectral import PeriodicGrid, filter_multipliers


def parse_flat_config(text: str) -> dict:
    """Raw string values by key; the command schemas coerce them."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_flat_config(mapping: dict) -> str:
    # plain-float repr round-trips exactly (and strips numpy scalar wrappers)
    lines = [f"{k} = {repr(float(v)) if isinstance(v, float) else v}"
             for k, v in sorted(mapping.items())]
    return "\n".join(lines) + "\n"


def coerce(value: str, kind: type, key: str):
    """Convert the raw string of ``key`` to ``kind``, a finite one if float."""
    try:
        out = kind(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return out


# Per-subcommand schema: key -> default, whose type is the key's type.
_SOLUTION_KEYS = {
    "solution.B": 1.0,
    "solution.V0": -1.0,
    "solution.k": 1.0,
    "solution.alpha": 1,
    "kernel.name": "gaussian-normalized",
    "kernel.epsilon": 0.0,
}

SCHEMAS = {
    "simulate": {
        **_SOLUTION_KEYS,
        "grid.period": 0.0,  # 0 means one wave period, 2*pi/k
        "grid.num_modes": 128,
        "evolution.horizon": 30.0,
        "evolution.rtol": 1e-10,
        "evolution.atol": 1e-10,
        "evolution.record_every": 0.25,
        "perturbation.nu": 0.0,
        "perturbation.mode_cutoff": 16,
        "run.seed": runs.DEFAULT_SEED,
    },
    "spectrum": {
        **_SOLUTION_KEYS,
        "spectrum.n_periods": 4,
        "spectrum.truncation": 64,
    },
    "aes-sweep": {
        "aes.B": 1.0,
        "aes.V0": -1.0,
        "aes.k": 1.0,
        "aes.alpha": 1,
        "aes.kernel": "gaussian-normalized",
        "aes.horizon": 5.0,
        "aes.num_modes": 64,
        "aes.record_every": 0.2,
        "aes.epsilons": "0.1,0.05,0.025,0.0125",
        "evolution.rtol": 1e-10,
        "evolution.atol": 1e-10,
    },
    "figures": {
        "figures.regime": "",
        "figures.kernel": "gaussian-raw",
        "figures.horizon": 30.0,
        "figures.num_modes": 128,
        "figures.n_periods": 4,
        "figures.truncation": 64,
        "figures.record_every": 0.25,
        "figures.mode_cutoff": 16,
        "evolution.rtol": 1e-10,
        "evolution.atol": 1e-10,
        "run.seed": runs.DEFAULT_SEED,
    },
    "validate-kernel": {
        "kernel.name": "gaussian-normalized",
        "validate.which": "H",
    },
    "stability-map": {
        "map.B_values": "0.25,0.5,1.0,2.0",
        "map.V0_values": "-2.0,-1.0,-0.5,-0.25",
        "map.k": 1.0,
        "map.eps": 0.0,
        "map.alpha": 1,
        "map.kernel": "gaussian-normalized",
        "map.n_periods": 1,
        "map.truncation": 32,
    },
}

def resolve_config(command: str, config_path, overrides: dict) -> dict:
    """File values + defaults + flag overrides, with unknown keys rejected."""
    schema = SCHEMAS[command]
    file_values = {}
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc)) from exc
        file_values = parse_flat_config(text)
        unknown = sorted(set(file_values) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: "
                              + ", ".join(unknown))
    out = {}
    for key, default in schema.items():
        if key in file_values:
            out[key] = coerce(file_values[key], type(default), key)
        else:
            out[key] = default
    for key, value in overrides.items():
        if value is not None:
            out[key] = value
    if out.get("run.seed", 0) < 0:  # the generator would seed -s as s
        raise ConfigError(f"run.seed must be nonnegative, got {out['run.seed']}")
    return out


def _warn_damped_perturbation(num_modes: int, mode_cutoff: int, nu: float):
    """One stderr line when mode_cutoff exceeds N/8: the perturbation keeps to
    |j| <= mode_cutoff, so at or below N/8 the filter takes at most 0.055% of
    any of its modes."""
    if nu > 0 and mode_cutoff > num_modes // 8:
        grid = PeriodicGrid(1.0, num_modes)
        factor = filter_multipliers(grid)[grid.modes == mode_cutoff][0]
        print(f"warning: perturbation modes reach {mode_cutoff} > N/8 = {num_modes // 8}; "
              f"the evolution's filter multiplies mode {mode_cutoff} by {factor:.4g}",
              file=sys.stderr)


def _parse_float_list(text: str, key: str):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers, "
                          f"got {text!r}")
    if not vals:
        raise ConfigError(f"{key} must list at least one value")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{key} must list finite numbers, got {text!r}")
    return vals


def _kernel_base(name: str) -> kernels.KernelSpec:
    with from_settings():
        return kernels.kernel_from_name(name)


def _solution(cfg) -> waves.SolutionParams:
    """The exact solution that the solution.* and kernel.* keys select."""
    base = _kernel_base(cfg["kernel.name"])
    with from_settings():
        kernel = kernels.ScaledKernel(base, cfg["kernel.epsilon"])
        return waves.solution_params(*(cfg[f"solution.{key}"] for key in
                                       ("B", "V0", "k", "alpha")), kernel)


def cmd_simulate(cfg: dict, out_dir) -> int:
    from . import evolution

    period = cfg["grid.period"]
    if period < 0:
        raise ConfigError(f"grid.period must be positive, or 0 for one wave period, "
                          f"got {period!r}")
    params = _solution(cfg)
    with from_settings():
        period = cfg["grid.period"] = period or 2.0 * np.pi / params.k
        phi = waves.build_solution(params, PeriodicGrid(period, cfg["grid.num_modes"]))
        psi0 = evolution.perturbed_initial(phi, cfg["perturbation.nu"], cfg["run.seed"],
                                           cfg["perturbation.mode_cutoff"])
        econf = evolution.EvolutionConfig(
            kernel=params.kernel, potential=waves.SineSquared(params.V0, params.k),
            alpha=params.alpha, time_horizon=cfg["evolution.horizon"],
            rtol=cfg["evolution.rtol"], atol=cfg["evolution.atol"],
            record_every=cfg["evolution.record_every"])
    failure = None
    try:
        traj = evolution.evolve(psi0, econf)
    except runs.BlowUpError as exc:
        failure, traj = exc, exc.trajectory
    tag = "" if failure is None else ".partial"
    dev = traj.deviation_from(phi)
    runs.write_outputs(out_dir, {
        f"trajectory{tag}.csv": lambda p: evolution.write_trajectory_csv(traj, p),
        f"summary{tag}.csv": lambda p: evolution.write_summary_csv(traj, p, dev),
    })
    if failure is not None:
        raise failure
    print(f"evolved to t = {traj.times[-1]:g} in {len(traj.times)} snapshots")
    print(f"final orbit deviation {dev[-1]:.6g} (max {np.max(dev):.6g})")
    print(f"relative mass drift {traj.mass_drift():.3g}, "
          f"energy drift {traj.energy_drift():.3g}")
    _warn_damped_perturbation(cfg["grid.num_modes"], cfg["perturbation.mode_cutoff"],
                              cfg["perturbation.nu"])
    return 0


def cmd_spectrum(cfg: dict, out_dir) -> int:
    params = _solution(cfg)
    reports = bloch.full_period_spectrum(cfg["spectrum.n_periods"], params,
                                         cfg["spectrum.truncation"])
    summary = bloch.eigen_summary(reports, params)
    runs.write_outputs(out_dir, {
        "spectrum.csv": lambda p: bloch.write_eigen_csv(reports, p)})
    print(f"max real part {summary['max_real_part']:.6g} over "
          f"{len(reports)} Bloch parameters -> {summary['verdict']}")
    if summary["b_star"] is not None:
        rel = ">" if params.B > summary["b_star"] else "<="
        print(f"B = {params.B:g} {rel} B* = {summary['b_star']:.6g}")
    else:
        print("B* undefined (kernel multiplier nonpositive on the lattice)")
    rel = ">=" if summary["predicate"] == "unstable-predicted" else "<"
    print(f"A = {summary['A']:.6g} {rel} A_crit = {summary['a_crit']:.6g} "
          f"({summary['predicate']})")
    return 1 if summary["verdict"] == "unstable" else 0


def cmd_aes_sweep(cfg: dict, out_dir) -> int:
    from . import experiments

    eps = _parse_float_list(cfg["aes.epsilons"], "aes.epsilons")
    base = _kernel_base(cfg["aes.kernel"])
    table = experiments.run_aes_sweep(
        eps, B=cfg["aes.B"], V0=cfg["aes.V0"], k=cfg["aes.k"],
        alpha=cfg["aes.alpha"], base=base, horizon=cfg["aes.horizon"],
        num_modes=cfg["aes.num_modes"], rtol=cfg["evolution.rtol"],
        atol=cfg["evolution.atol"], record_every=cfg["aes.record_every"],
        out_dir=out_dir)
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
    from . import experiments

    regime = cfg["figures.regime"]
    base = _kernel_base(cfg["figures.kernel"])
    result = experiments.run_figure_regime(
        regime, kernel_base=base, seed=cfg["run.seed"],
        horizon=cfg["figures.horizon"], num_modes=cfg["figures.num_modes"],
        n_periods=cfg["figures.n_periods"], truncation=cfg["figures.truncation"],
        rtol=cfg["evolution.rtol"], atol=cfg["evolution.atol"],
        record_every=cfg["figures.record_every"],
        mode_cutoff=cfg["figures.mode_cutoff"], out_dir=out_dir)
    print(f"regime {regime}: abscissa {result.abscissa:.6g}, "
          f"max deviation {np.max(result.deviations):.6g}")
    if result.growth_rate is not None:
        print(f"fitted growth rate {result.growth_rate:.6g}")
    else:
        print("no resolvable exponential growth window")
    _warn_damped_perturbation(cfg["figures.num_modes"], cfg["figures.mode_cutoff"],
                              runs.FIGURE_REGIMES[regime]["nu"])
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_validate_kernel(cfg: dict, out_dir) -> int:
    base = _kernel_base(cfg["kernel.name"])
    which = cfg["validate.which"]
    if which not in ("H", "Hprime", "both"):
        raise ConfigError("validate.which must be 'H', 'Hprime' or 'both', "
                          f"got {which!r}")
    sets = ("H", "Hprime") if which == "both" else (which,)
    ok = True
    report_lines = []
    for s in sets:
        report = kernels.validate_hypotheses(base, which=s)
        report_lines.append(f"[{s}] kernel {report.kernel_family}")
        report_lines.extend("  " + ln for ln in report.lines())
        ok = ok and report.all_passed
    text = "\n".join(report_lines)
    print(text)
    runs.write_outputs(out_dir, {
        "validation.txt": lambda p: p.write_text(text + "\n")})
    return 0 if ok else 1


def cmd_stability_map(cfg: dict, out_dir) -> int:
    from . import experiments

    B_vals = _parse_float_list(cfg["map.B_values"], "map.B_values")
    V0_vals = _parse_float_list(cfg["map.V0_values"], "map.V0_values")
    base = _kernel_base(cfg["map.kernel"])
    result = experiments.stability_map(
        B_vals, V0_vals, k=cfg["map.k"], eps=cfg["map.eps"],
        alpha=cfg["map.alpha"], base=base, n_periods=cfg["map.n_periods"],
        truncation=cfg["map.truncation"], out_dir=out_dir)
    n_pts = result.abscissa.size
    n_bad = int(np.sum(np.isnan(result.abscissa)))
    n_unst = int(np.sum(result.abscissa > bloch.UNSTABLE_ABSCISSA))
    print(f"{n_pts} points: {n_unst} unstable, "
          f"{n_pts - n_bad - n_unst} stable, {n_bad} outside the family")
    b = ("B* undefined (kernel multiplier nonpositive on the lattice)"
         if result.b_star is None else f"B* = {result.b_star:.6g}")
    print(f"{b}, A_crit = {result.a_crit:.6g}")
    return 0


# subcommand -> (handler, help line, the config key that --kernel sets)
_COMMANDS = {
    "simulate": (cmd_simulate, "evolve a perturbed exact solution",
                 "kernel.name"),
    "spectrum": (cmd_spectrum, "Bloch stability spectrum of an exact solution",
                 "kernel.name"),
    "aes-sweep": (cmd_aes_sweep, "nonlocal-vs-local error table over epsilon",
                  "aes.kernel"),
    "figures": (cmd_figures, "reproduce one published stability regime",
                "figures.kernel"),
    "validate-kernel": (cmd_validate_kernel,
                        "audit kernel hypotheses numerically", "kernel.name"),
    "stability-map": (cmd_stability_map, "spectral abscissa over a (B, V0) grid",
                      "map.kernel"),
}


def _schema_epilog(command: str) -> str:
    lines = ["config keys (key = default):"]
    for key, default in sorted(SCHEMAS[command].items()):
        shown = format_flat_config({key: default}).strip()
        lines.append(f"  {shown}   [{type(default).__name__}]")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlgp",
        description="Nonlocal Gross-Pitaevskii toolkit: evolution, exact "
                    "traveling waves, and Bloch stability spectra on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in _COMMANDS.items():
        p = sub.add_parser(
            name, epilog=_schema_epilog(name),
            formatter_class=argparse.RawDescriptionHelpFormatter,
            help=help_line)
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
                           choices=sorted(runs.FIGURE_REGIMES),
                           help="which published regime to run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    handler, _, kernel_key = _COMMANDS[command]
    overrides = {kernel_key: args.kernel}  # None values do not override
    if "run.seed" in SCHEMAS[command]:
        overrides["run.seed"] = args.seed
    if command == "figures":
        overrides["figures.regime"] = args.regime
    try:
        cfg = resolve_config(command, args.config, overrides)
        try:
            code, failure = handler(cfg, args.out), None
        except runs.BlowUpError as exc:
            code, failure = 3, exc
        # the one record of the settings, some of them resolved by the handler
        runs.write_outputs(args.out, {
            "resolved.cfg": lambda p: p.write_text(format_flat_config(cfg))})
    except ConfigError as exc:
        # a ValueError or OSError is one only where ``from_settings`` builds
        # objects from the config; elsewhere it is a defect and exits 4
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if failure is not None:
        print(f"blow-up: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
