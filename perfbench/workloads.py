"""Workload definitions and output checks for the nlgp benchmark.

A workload turns a benchmark seed into one CLI invocation (argv plus an
optional flat config file) and knows how to check what that invocation left
in its output directory.  Checks never import nlgp: they read the files the
CLI wrote and compare them with bounds fixed here, so a defect in the
program cannot also hide in its own checker.

One checked operation is one of: the exit code, an evolution, a Bloch
mu-spectrum, an AES table row, or a stability-map point.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Exit codes of the nlgp CLI: 0 success, 1 scientific check failed (expected
# for an unstable spectrum verdict), 2 config error, 3 runtime blow-up.
FAILURE_EXITS = (2, 3)

# A_crit = 2(-1 + sqrt(4 - 6/pi)) / (1 - 2/pi) * k^2, k = 1.
A_CRIT = 2.0 * (-1.0 + math.sqrt(4.0 - 6.0 / math.pi)) / (1.0 - 2.0 / math.pi)

# B* for the normalized Gaussian kernel at eps = 0.25, k = 1 (the closed-form
# minimum of zeta_hat over the sampled Bloch band, as nlgp.bloch.b_star).
MAP_B_STAR = 1.0157477085866857
MAP_EPS = 0.25
MAP_BETA = math.exp(-(2.0 * MAP_EPS) ** 2 / 4.0)  # zeta_hat(2 k eps)

# Seeded map cells.  Every B cell lies far enough from B* that the verdict is
# set by its side of B* for every V0 cell (probed on a 10 x 6 grid at
# n_periods = 4, M = 64: all B <= 0.8 unstable, all B >= 1.5 stable); the V0
# cells put A = -V0 / beta on both sides of A_crit.
MAP_B_CELLS = ((0.25, 0.40), (0.55, 0.75), (1.55, 1.80), (2.00, 2.40))
MAP_V0_CELLS = ((-3.40, -3.00), (-2.80, -2.60), (-2.00, -1.70), (-1.00, -0.60))

# AES sweep with the CLI defaults: eps = 0.1, 0.05, 0.025, 0.0125 against the
# local flow.  Criterion 4 asks for a strictly decreasing table with orders
# >= 0.8; the orders are second order in fact, and the sup-norm error at
# eps = 0.0125 is 8.72e-5.
AES_EPSILONS = (0.1, 0.05, 0.025, 0.0125)
AES_LAST_ERR = 8.72e-5
AES_ERR_RTOL = 0.05
AES_ORDER_MIN = 0.8
AES_ORDER_NEAR = 0.5  # |order - 2| bound

# Figure 1a: criterion 7 asks for abscissa > 1e-3.  The acceptance gate bounds
# mass drift only for the stable regime (criterion 3, 1e-8 over T = 10); in
# the unstable regime at T = 30 drift is about 3e-6, bounded here at 1e-4.
FIG_ABSCISSA_MIN = 1e-3
FIG_MASS_DRIFT_MAX = 1e-4

# Spectrum verdict threshold used by the CLI, and the mu <-> 1 - mu
# conjugation tolerance of tests/test_bloch.py, scaled by |lambda|.
UNSTABLE_ABSCISSA = 1e-8
CONJ_TOL = 1e-9

SPECTRUM_EPS_BAND = (0.45, 0.55)


@dataclass
class Outcome:
    """Checked operations of one CLI invocation."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Job:
    """One seeded CLI invocation: argv with ``{out}`` and ``{config}`` placeholders."""

    workload: str
    argv: tuple
    config: dict
    expected_exit: int
    ops: int  # operations a complete, correct run yields
    checker: Callable
    b_star_samples: int | None = None  # smoke size only; see worker.py

    def argv_for(self, out_dir: Path, config_path: Path) -> list:
        return [a.format(out=out_dir, config=config_path) for a in self.argv]

    def check(self, out_dir: Path, exit_code: int | None) -> Outcome:
        outcome = Outcome()
        outcome.check(exit_code == self.expected_exit,
                      f"exit code {exit_code}, expected {self.expected_exit}")
        if exit_code in FAILURE_EXITS or exit_code is None:
            # no usable outputs: every remaining operation counts as failed
            for _ in range(self.ops - 1):
                outcome.check(False, "no outputs after failed run")
            return outcome
        self.checker(self, Path(out_dir), outcome)
        missing = self.ops - outcome.attempted
        for _ in range(max(0, missing)):
            outcome.check(False, "operation not reached by the checker")
        return outcome


def write_config(path: Path, config: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in sorted(config.items())))


# ---------------------------------------------------------------------------
# Shared readers


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _snapshots(horizon: float, record_every: float) -> int:
    return math.ceil(horizon / record_every - 1e-9) + 1


def _check_mu_spectra(path: Path, n_periods: int, truncation: int,
                      outcome: Outcome) -> float:
    """One operation per mu: row count, finite values, mu <-> 1-mu conjugacy.

    Returns the largest real part outside the near-origin flag (NaN when the
    file cannot be read).
    """
    per_mu = 2 * (2 * truncation + 1)
    try:
        rows = _rows(path)
        groups = {}
        for r in rows:
            lam = complex(float(r["re_lambda"]), float(r["im_lambda"]))
            groups.setdefault(float(r["mu"]), []).append((lam, r["flag"]))
    except (OSError, KeyError, ValueError) as exc:
        for _ in range(n_periods):
            outcome.check(False, f"{path.name} unreadable: {exc}")
        return float("nan")
    spectra = {mu: np.array([lam for lam, _ in g]) for mu, g in groups.items()}
    # index reflection j -> 1-j maps the truncations onto each other except at
    # one edge mode, so only interior eigenvalues are compared; near-origin
    # symmetry modes form Jordan blocks that round-off splits by ~1e-8
    cutoff = 0.5 * (truncation / 2) ** 2
    far = {mu: np.array([lam for lam, flag in g if flag != "near-origin"])
           for mu, g in groups.items()}
    abscissa = -math.inf
    for g in groups.values():
        for lam, flag in g:
            if flag != "near-origin":
                abscissa = max(abscissa, lam.real)
    for r in range(n_periods):
        mu = r / n_periods
        eigs = spectra.get(mu)
        partner = spectra.get(((n_periods - r) % n_periods) / n_periods)
        if eigs is None or partner is None:
            outcome.check(False, f"mu = {mu:g}: spectrum or its partner missing")
            continue
        if len(eigs) != per_mu or not np.all(np.isfinite(eigs)):
            outcome.check(False, f"mu = {mu:g}: {len(eigs)} rows, expected {per_mu}")
            continue
        interior = far[mu][np.abs(far[mu]) < cutoff]
        mirrored = np.conj(partner)
        gaps = np.min(np.abs(interior[:, None] - mirrored[None, :]), axis=1)
        ok = interior.size > 10 and bool(
            np.all(gaps <= CONJ_TOL * np.maximum(1.0, np.abs(interior))))
        outcome.check(ok, f"mu = {mu:g}: interior spectrum not conjugate to "
                          f"its 1-mu partner (worst gap {np.max(gaps, initial=0):.3g})")
    return abscissa


# ---------------------------------------------------------------------------
# figure-1a


def _check_figure(job: Job, out: Path, outcome: Outcome):
    cfg = job.config
    horizon = float(cfg.get("figures.horizon", 30.0))
    n_snap = _snapshots(horizon, float(cfg.get("figures.record_every", 0.25)))
    num_modes = int(cfg.get("figures.num_modes", 128))
    what = []
    try:
        report = json.loads((out / "report.json").read_text())
        with open(out / "trajectory.csv") as fh:
            traj_rows = sum(1 for _ in fh) - 1
        summary = _rows(out / "summary.csv")
        for name in ("resolved.cfg", "plot_regime.py"):
            if not (out / name).is_file():
                what.append(f"{name} missing")
        if traj_rows != n_snap * num_modes:
            what.append(f"trajectory.csv has {traj_rows} rows, "
                        f"expected {n_snap * num_modes}")
        if len(summary) != n_snap:
            what.append(f"summary.csv has {len(summary)} rows, expected {n_snap}")
        if report["warnings"]:
            what.append(f"report warnings {report['warnings']}")
        growth = report["growth_rate"]
        if growth is None or not growth > 0:
            what.append(f"growth rate {growth}")
        if not report["spectrum"]["max_real_part"] > FIG_ABSCISSA_MIN:
            what.append(f"abscissa {report['spectrum']['max_real_part']}")
        if not report["mass_drift"] <= FIG_MASS_DRIFT_MAX:
            what.append(f"mass drift {report['mass_drift']}")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        what.append(f"outputs unreadable: {exc}")
    outcome.check(not what, "evolution: " + "; ".join(what))
    _check_mu_spectra(out / "spectrum.csv", int(cfg.get("figures.n_periods", 4)),
                      int(cfg.get("figures.truncation", 64)), outcome)


def figure_1a(seed: int, smoke: bool = False) -> Job:
    # smoke: the exponential-growth window [3 nu, 0.3 sup|phi|] closes by
    # t = 6, so T = 8 keeps every check
    config = {"figures.horizon": 8.0, "figures.truncation": 16} if smoke else {}
    argv = ["figures", "1a", "--out", "{out}", "--seed", str(seed), "--threads", "1"]
    if config:
        argv += ["--config", "{config}"]
    n_periods = 4
    return Job("figure-1a", tuple(argv), config, expected_exit=0,
               ops=2 + n_periods, checker=_check_figure)


# ---------------------------------------------------------------------------
# aes-sweep


def _check_aes(job: Job, out: Path, outcome: Outcome):
    try:
        table = [(float(r["epsilon"]), float(r["sup_t_err_linf"]),
                  float(r["sup_t_err_h1"])) for r in _rows(out / "aes.csv")]
        missing = "row missing"
    except (OSError, KeyError, ValueError) as exc:
        table, missing = [], f"aes.csv unreadable: {exc}"
    for i, e in enumerate(AES_EPSILONS):
        if i >= len(table):
            outcome.check(False, f"eps = {e:g}: {missing}")
            continue
        e_row, err, err_h1 = table[i]
        what = []
        if e_row != e:
            what.append(f"epsilon {e_row} != {e}")
        if not (math.isfinite(err) and math.isfinite(err_h1) and err > 0):
            what.append(f"error {err}")
        if i > 0:
            prev = table[i - 1][1]
            if not err < prev:
                what.append(f"error {err:.3e} does not decrease from {prev:.3e}")
            order = math.log2(prev / err) if err > 0 and prev > 0 else float("nan")
            if not (order >= AES_ORDER_MIN and abs(order - 2.0) <= AES_ORDER_NEAR):
                what.append(f"empirical order {order:.3f}")
        if i == len(AES_EPSILONS) - 1 and not (
                abs(err - AES_LAST_ERR) <= AES_ERR_RTOL * AES_LAST_ERR):
            what.append(f"error {err:.3e}, expected {AES_LAST_ERR:.3e}")
        outcome.check(not what, f"eps = {e:g}: " + "; ".join(what))


def aes_sweep(seed: int, smoke: bool = False) -> Job:
    # aes-sweep has no random input and its defaults are the acceptance
    # table; the seed is passed through but changes nothing it computes
    config = {"aes.num_modes": 32} if smoke else {}
    argv = ["aes-sweep", "--out", "{out}", "--seed", str(seed), "--threads", "1"]
    if config:
        argv += ["--config", "{config}"]
    return Job("aes-sweep", tuple(argv), config, expected_exit=0,
               ops=1 + len(AES_EPSILONS), checker=_check_aes)


# ---------------------------------------------------------------------------
# map-gauss


def _check_map(job: Job, out: Path, outcome: Outcome):
    B_vals = [float(b) for b in job.config["map.B_values"].split(",")]
    V0_vals = [float(v) for v in job.config["map.V0_values"].split(",")]
    try:
        rows = {(float(r["B"]), float(r["V0"])): r for r in _rows(out / "stability_map.csv")}
        missing = "row missing"
    except (OSError, KeyError, ValueError) as exc:
        rows, missing = {}, f"stability_map.csv unreadable: {exc}"
    for B in sorted(B_vals):
        for V0 in sorted(V0_vals):
            row = rows.get((B, V0))
            if row is None:
                outcome.check(False, f"({B:g}, {V0:g}): {missing}")
                continue
            what = []
            try:
                absc = float(row["abscissa"])
                unstable = absc > UNSTABLE_ABSCISSA
                if unstable != (B < MAP_B_STAR):
                    what.append(f"abscissa {absc:.3g} on the "
                                f"{'low' if B < MAP_B_STAR else 'high'} side of B*")
                if int(row["above_b_star"]) != int(B > MAP_B_STAR):
                    what.append(f"above_b_star = {row['above_b_star']}")
                A = -V0 / MAP_BETA
                if abs(float(row["A"]) - A) > 1e-9 * abs(A):
                    what.append(f"A = {row['A']}, expected {A:.6g}")
                if int(row["above_a_crit"]) != int(A >= A_CRIT):
                    what.append(f"above_a_crit = {row['above_a_crit']}")
            except (KeyError, ValueError) as exc:
                what.append(f"unreadable: {exc}")
            outcome.check(not what, f"({B:g}, {V0:g}): " + "; ".join(what))


def map_gauss(seed: int, smoke: bool = False) -> Job:
    rng = random.Random(f"map-gauss:{seed}")
    B_vals = [rng.uniform(*cell) for cell in MAP_B_CELLS]
    V0_vals = [rng.uniform(*cell) for cell in MAP_V0_CELLS]
    config = {
        "map.B_values": ",".join(repr(b) for b in B_vals),
        "map.V0_values": ",".join(repr(v) for v in V0_vals),
        "map.kernel": "gaussian-normalized",
        "map.eps": MAP_EPS,
        "map.n_periods": 2 if smoke else 4,
        "map.truncation": 16 if smoke else 64,
    }
    argv = ["stability-map", "--config", "{config}", "--out", "{out}", "--threads", "1"]
    return Job("map-gauss", tuple(argv), config, expected_exit=0,
               ops=1 + len(B_vals) * len(V0_vals), checker=_check_map)


# ---------------------------------------------------------------------------
# spectrum-algebraic


def _check_spectrum(job: Job, out: Path, outcome: Outcome):
    n_periods = int(job.config["spectrum.n_periods"])
    abscissa = _check_mu_spectra(out / "spectrum.csv", n_periods,
                                 int(job.config["spectrum.truncation"]), outcome)
    # exit 1 means "unstable"; the file must agree with that verdict
    outcome.check(abscissa > UNSTABLE_ABSCISSA,
                  f"spectrum.csv abscissa {abscissa:.3g} contradicts the "
                  "unstable exit code")


def spectrum_algebraic(seed: int, smoke: bool = False) -> Job:
    rng = random.Random(f"spectrum-algebraic:{seed}")
    config = {
        "kernel.name": "algebraic:3",
        "kernel.epsilon": repr(rng.uniform(*SPECTRUM_EPS_BAND)),
        "spectrum.n_periods": 4,
        "spectrum.truncation": 16 if smoke else 64,
    }
    argv = ["spectrum", "--config", "{config}", "--out", "{out}", "--threads", "1"]
    return Job("spectrum-algebraic", tuple(argv), config, expected_exit=1,
               ops=2 + 4, checker=_check_spectrum,
               b_star_samples=101 if smoke else None)


WORKLOADS = {
    "figure-1a": figure_1a,
    "aes-sweep": aes_sweep,
    "map-gauss": map_gauss,
    "spectrum-algebraic": spectrum_algebraic,
}
