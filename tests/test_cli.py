import csv
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nlgp import cli, evolution, experiments, kernels
from nlgp.cli import ConfigError, coerce, format_flat_config, parse_flat_config


# ---------------------------------------------------------------------------
# flat config helpers


def test_parse_flat_config_basics():
    text = """
# comment line
evolution.rtol = 1e-10
solution.B = 2.5   # trailing comment
kernel.name = gaussian-raw
"""
    out = parse_flat_config(text)
    assert out == {"evolution.rtol": "1e-10", "solution.B": "2.5",
                   "kernel.name": "gaussian-raw"}


def test_parse_flat_config_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_flat_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_flat_config(" = 3\n")
    with pytest.raises(ConfigError):
        parse_flat_config("a.b = 1\na.b = 2\n")


def test_format_parse_round_trip():
    cfg = {"a.x": 1.5, "b.z": "per-rhs", "b.n": 42}
    text = format_flat_config(cfg)
    parsed = parse_flat_config(text)
    assert coerce(parsed["a.x"], "float") == 1.5
    assert parsed["b.z"] == "per-rhs"
    assert coerce(parsed["b.n"], "int") == 42
    # keys come out sorted, one per line
    assert text.splitlines() == sorted(text.splitlines())


def test_coerce_rejects_garbage():
    with pytest.raises(ConfigError):
        coerce("abc", "float")
    with pytest.raises(ConfigError):
        coerce("1.5", "int")


# ---------------------------------------------------------------------------
# subcommands (driven through main() for true exit codes)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_kernel_exit_codes(tmp_path):
    assert cli.main(["validate-kernel", "--kernel", "gaussian-normalized"]) == 0
    assert cli.main(["validate-kernel", "--kernel", "gaussian-raw"]) == 1
    cfg = _write(tmp_path, "v.cfg", "validate.which = both\n")
    assert cli.main(["validate-kernel", "--config", cfg]) == 0


def test_validate_kernel_custom_table_failure(tmp_path):
    s = np.linspace(0, 20, 401)
    vals = np.exp(-(s**2) / 16) * np.cos(1.5 * s)
    table = tmp_path / "osc.csv"
    table.write_text("\n".join(f"{a},{b}" for a, b in zip(s, vals)) + "\n")
    cfg = _write(tmp_path, "k.cfg", "validate.which = Hprime\n")
    code = cli.main(["validate-kernel", "--config", cfg,
                     "--kernel", f"custom:{table}"])
    assert code == 1


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    # all but the first were accepted once; old configs must not pass silently
    for command, line in (("simulate", "not.a.key = 1"),
                          ("simulate", "evolution.filter_mode = off"),
                          ("simulate", "evolution.integrating_factor = true"),
                          ("spectrum", "run.seed = 7"),
                          ("aes-sweep", "run.seed = 7"),
                          ("stability-map", "run.seed = 7")):
        cfg = _write(tmp_path, "bad.cfg", line + "\n")
        assert cli.main([command, "--config", cfg]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err


def test_invalid_parameters_are_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "solution.B = 0.1\nsolution.V0 = 2.0\n")
    assert cli.main(["simulate", "--config", cfg]) == 2
    cfg2 = _write(tmp_path, "bad2.cfg", "spectrum.truncation = 4\n")
    assert cli.main(["spectrum", "--config", cfg2]) == 2
    cfg3 = _write(tmp_path, "bad3.cfg", "kernel.name = mystery\n")
    assert cli.main(["spectrum", "--config", cfg3]) == 2
    capsys.readouterr()
    for p in ("nan", "inf", "200"):
        assert cli.main(["spectrum", "--kernel", f"algebraic:{p}"]) == 2
        assert f"p={p}" in capsys.readouterr().err


@pytest.mark.parametrize("command, line, message", [
    ("aes-sweep", "aes.epsilons = a,b",
     "aes.epsilons must be a comma-separated list of numbers, got 'a,b'"),
    ("stability-map", "map.B_values = ,", "map.B_values must list at least one value"),
    ("simulate", "evolution.stepper = rk2",
     "evolution.stepper must be 'adaptive' or 'fixed', got 'rk2'"),
    ("validate-kernel", "validate.which = X",
     "validate.which must be 'H', 'Hprime' or 'both', got 'X'"),
])
def test_malformed_values_are_exit_2(tmp_path, capsys, command, line, message):
    cfg = _write(tmp_path, "bad.cfg", line + "\n")
    assert cli.main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_b_star_undefined_for_a_sign_changing_multiplier(tmp_path, capsys):
    # this table's cosine transform is negative somewhere on the lattice
    table = _write(tmp_path, "neg.csv", "0,1\n1,-0.5\n10,-0.5\n")
    cfg = _write(tmp_path, "s.cfg", "kernel.epsilon = 1\nsolution.B = 3\n")
    assert cli.main(["spectrum", "--config", cfg, "--kernel", f"custom:{table}"]) == 1
    assert ("B* undefined (kernel multiplier nonpositive on the lattice)"
            in capsys.readouterr().out.splitlines())
    cfg = _write(tmp_path, "m.cfg",
                 "map.eps = 1\nmap.B_values = 3\nmap.V0_values = -1\n")
    out = tmp_path / "map"
    assert cli.main(["stability-map", "--config", cfg, "--kernel",
                     f"custom:{table}", "--out", str(out)]) == 0
    with open(out / "stability_map.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["above_b_star"] == ""


def test_non_decreasing_aes_table_is_exit_1(capsys, monkeypatch):
    rows = (experiments.AesRow(0.1, 1e-3, 1e-3), experiments.AesRow(0.05, 2e-3, 2e-3))
    monkeypatch.setattr(experiments, "run_aes_sweep",
                        lambda *args, **kwargs: experiments.AesTable(rows))
    assert cli.main(["aes-sweep"]) == 1
    assert capsys.readouterr().err == ("convergence check FAILED: errors do not "
                                       "decrease with epsilon\n")


def test_spectrum_algebraic_kernel_small_epsilon_b_star(tmp_path, capsys):
    # near s = 0 the algebraic transform is ~1; a wrong value there once
    # made B* "undefined" for this kernel at small eps
    cfg = _write(tmp_path, "alg.cfg",
                 "kernel.name = algebraic:3\nkernel.epsilon = 0.1\n"
                 "spectrum.n_periods = 2\nspectrum.truncation = 8\n")
    assert cli.main(["spectrum", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "B* = 1.01483" in out
    assert "undefined" not in out


def test_spectrum_verdict_exit_codes(tmp_path, capsys):
    stable = _write(tmp_path, "s.cfg",
                    "spectrum.truncation = 16\nspectrum.n_periods = 2\n")
    assert cli.main(["spectrum", "--config", stable]) == 0
    out = capsys.readouterr().out
    assert "spectrally stable" in out
    assert "B*" in out and "A_crit" in out

    unstable = _write(tmp_path, "u.cfg",
                      "solution.B = 0.01\nsolution.V0 = -2.46\n"
                      "spectrum.truncation = 16\nspectrum.n_periods = 2\n")
    assert cli.main(["spectrum", "--config", unstable]) == 1
    assert "unstable" in capsys.readouterr().out


def test_eigensolver_failure_is_exit_4(tmp_path, capsys, monkeypatch):
    import scipy.linalg

    # spectrum solves two parity blocks per mu: fail the first block, the
    # second block, and the second block of the second mu
    solve = scipy.linalg.eig
    cfg = _write(tmp_path, "s.cfg",
                 "spectrum.truncation = 8\nspectrum.n_periods = 2\n")
    for fail_on, mu in ((1, 0.0), (2, 0.0), (4, 0.5)):
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(None)
            if len(calls) == fail_on:
                raise scipy.linalg.LinAlgError("eigenvalues did not converge")
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig", no_convergence)
        assert cli.main(["spectrum", "--config", cfg]) == 4
        assert len(calls) == fail_on
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("internal error: ")
        assert "did not converge" in err[0]
        assert f"mu={mu}" in err[0]


def _replay_echo(tmp_path, command, cfg_text, csv_name):
    """Run once, rerun from the run's resolved.cfg, and compare both runs."""
    cfg = _write(tmp_path, f"{command}.cfg", cfg_text)
    out1, out2 = tmp_path / f"{command}-1", tmp_path / f"{command}-2"
    assert cli.main([command, "--config", cfg, "--out", str(out1)]) == 0
    echo = out1 / "resolved.cfg"
    assert cli.main([command, "--config", str(echo), "--out", str(out2)]) == 0
    for name in (csv_name, "resolved.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    return out1


def test_simulate_writes_artifacts_and_echo(tmp_path):
    out = _replay_echo(tmp_path, "simulate",
                       "grid.num_modes = 32\nevolution.horizon = 0.5\n"
                       "evolution.rtol = 1e-8\nevolution.atol = 1e-8\n"
                       "perturbation.nu = 0.01\nperturbation.mode_cutoff = 8\n",
                       "trajectory.csv")
    assert (out / "summary.csv").exists()
    # resolved.cfg is the only settings record, so the sweeps replay from it too
    _replay_echo(tmp_path, "stability-map", "map.truncation = 16\n",
                 "stability_map.csv")
    _replay_echo(tmp_path, "aes-sweep", "aes.horizon = 0.5\naes.num_modes = 32\n",
                 "aes.csv")


def test_simulate_blow_up_is_exit_3_with_partial(tmp_path, capsys):
    # fixed dt = 2 lies outside IF-RK4's stability region for the nonlinear term
    cfg = _write(tmp_path, "blow.cfg",
                 "grid.num_modes = 128\nevolution.horizon = 20.0\n"
                 "evolution.stepper = fixed\nevolution.dt = 2.0\n"
                 "evolution.record_every = 2.0\n")
    out = tmp_path / "blow"
    with warnings.catch_warnings():
        # numpy's overflow warnings stay out of the one-line report
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert (out / "trajectory.partial.csv").exists()
    assert (out / "summary.partial.csv").exists()
    assert (out / "resolved.cfg").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up: non-finite state")


def _stalls_before_first_record(fun, t_span, y0, **kwargs):
    # what scipy returns when the solver fails before reaching any t_eval point
    return SimpleNamespace(success=False, t=[], y=[],
                           message="Required step size is less than "
                                   "spacing between numbers.")


def test_simulate_stall_is_exit_3_with_partial(tmp_path, monkeypatch):
    # the adaptive stepper gives up on a finite state: a stall, not a blow-up
    monkeypatch.setattr(evolution, "solve_ivp", _stalls_before_first_record)
    cfg = _write(tmp_path, "stall.cfg",
                 "grid.num_modes = 32\nevolution.horizon = 1.0\n")
    out = tmp_path / "stall"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert (out / "trajectory.partial.csv").exists()
    summary = (out / "summary.partial.csv").read_text().splitlines()
    assert len(summary) == 2  # header and the t = 0 snapshot
    assert not (out / "trajectory.csv").exists()


def test_simulate_real_stall_is_exit_3_with_partial(tmp_path, capsys):
    # at tolerances of 1e3 the state overflows before t = 0.25 and the solver
    # then gives up: a blow-up, though the solver's own message is a stall
    cfg = _write(tmp_path, "loose.cfg",
                 "solution.B = 50\nsolution.V0 = 0\n"
                 "evolution.rtol = 1e3\nevolution.atol = 1e3\n"
                 "evolution.horizon = 5\nperturbation.nu = 0.5\n"
                 "grid.num_modes = 32\nperturbation.mode_cutoff = 8\n")
    out = tmp_path / "loose"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert (out / "trajectory.partial.csv").exists()
    assert (out / "summary.partial.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up: non-finite state")


def test_figures_stall_is_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evolution, "solve_ivp", _stalls_before_first_record)
    cfg = _write(tmp_path, "fig.cfg",
                 "figures.regime = 1b\nfigures.num_modes = 32\n"
                 "figures.horizon = 0.5\nfigures.truncation = 12\n"
                 "figures.n_periods = 1\nfigures.mode_cutoff = 8\n")
    assert cli.main(["figures", "--config", cfg]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up: ")
    assert "stalled" in err[0]


def test_unexpected_exception_is_exit_4(capsys, monkeypatch):
    def defect(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.bloch, "full_period_spectrum", defect)
    assert cli.main(["spectrum"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: RuntimeError: boom"]


def test_seed_flag_changes_outputs(tmp_path):
    cfg = _write(tmp_path, "sim.cfg",
                 "grid.num_modes = 32\nevolution.horizon = 0.25\n"
                 "evolution.rtol = 1e-8\nevolution.atol = 1e-8\n"
                 "evolution.record_every = 0.25\nperturbation.nu = 0.05\n"
                 "perturbation.mode_cutoff = 8\n")
    outs = []
    for seed, tag in (("1", "a"), ("1", "b"), ("2", "c")):
        out = tmp_path / tag
        assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                         "--seed", seed]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_aes_sweep_command(tmp_path, capsys):
    cfg = _write(tmp_path, "aes.cfg",
                 "aes.epsilons = 0.2,0.1\naes.horizon = 0.5\n"
                 "aes.num_modes = 32\nevolution.rtol = 1e-8\n"
                 "evolution.atol = 1e-8\n")
    out = tmp_path / "aes"
    assert cli.main(["aes-sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "aes.csv").exists()
    printed = capsys.readouterr().out
    assert "epsilon" in printed and "empirical orders" in printed


def test_aes_sweep_refuses_non_unit_mass_kernel(tmp_path, capsys):
    # the reference is the unit-mass eps = 0 flow: gaussian-raw (mass
    # sqrt(pi)) converges to another equation and is a config error
    cfg = _write(tmp_path, "aes.cfg",
                 "aes.kernel = gaussian-raw\naes.horizon = 1\n"
                 "aes.num_modes = 32\n")
    out = tmp_path / "aes"
    assert cli.main(["aes-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "unit-mass" in err
    assert "gaussian-raw" in err
    assert not (out / "aes.csv").exists()
    assert not (out / "resolved.cfg").exists()


def test_figures_command_with_config_regime(tmp_path):
    cfg = _write(tmp_path, "fig.cfg",
                 "figures.regime = 1b\nfigures.num_modes = 32\n"
                 "figures.horizon = 0.5\nfigures.truncation = 12\n"
                 "figures.n_periods = 1\nfigures.record_every = 0.5\n"
                 "figures.mode_cutoff = 8\nevolution.rtol = 1e-8\n"
                 "evolution.atol = 1e-8\n")
    out = tmp_path / "fig"
    assert cli.main(["figures", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    # the positional regime wins over the config key
    out2 = tmp_path / "fig2"
    assert cli.main(["figures", "2a", "--config", cfg,
                     "--out", str(out2)]) == 0
    assert json.loads((out2 / "report.json").read_text())["regime"] == "2a"
    assert "figures.regime = 2a" in (out2 / "resolved.cfg").read_text().splitlines()


def test_figures_requires_some_regime(capsys):
    assert cli.main(["figures"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert all(regime in err for regime in ("1a", "1b", "2a", "2b"))


def test_threads_and_seed_flags_parse(tmp_path):
    # the benchmark's command lines pass both flags; --threads has no effect
    smoke = {
        "figures": "figures.regime = 1b\nfigures.num_modes = 32\n"
                   "figures.horizon = 0.5\nfigures.truncation = 12\n"
                   "figures.n_periods = 1\nfigures.record_every = 0.5\n"
                   "figures.mode_cutoff = 8\n",
        "aes-sweep": "aes.epsilons = 0.2,0.1\naes.horizon = 0.5\n"
                     "aes.num_modes = 32\n",
        "stability-map": "map.B_values = 2.0\nmap.V0_values = -1.0\n"
                         "map.truncation = 16\n",
        "spectrum": "spectrum.truncation = 16\nspectrum.n_periods = 2\n",
    }
    for command, text in smoke.items():
        cfg = _write(tmp_path, f"{command}.cfg", text)
        for threads in ("2", "1") if command == "spectrum" else ("2",):
            out = tmp_path / f"{command}-{threads}"
            assert cli.main([command, "--config", cfg, "--out", str(out),
                             "--seed", "5", "--threads", threads]) == 0
    assert (tmp_path / "spectrum-2" / "spectrum.csv").read_bytes() == \
        (tmp_path / "spectrum-1" / "spectrum.csv").read_bytes()


def test_stability_map_command(tmp_path):
    cfg = _write(tmp_path, "map.cfg",
                 "map.B_values = 0.5,2.0\nmap.V0_values = -1.0\n"
                 "map.truncation = 16\n")
    out = tmp_path / "map"
    assert cli.main(["stability-map", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "stability_map.csv").exists()
    assert (out / "plot_map.py").exists()


def test_kernel_flag_overrides_config(tmp_path, capsys):
    assert cli.main(["validate-kernel", "--kernel", "gaussian-raw"]) == 1
    # the same command with the config default (normalized) passes
    assert cli.main(["validate-kernel"]) == 0


# ---------------------------------------------------------------------------
# the front end describes each subcommand once and writes after computing


def test_command_table_matches_schemas():
    assert set(cli._COMMANDS) == set(cli.SCHEMAS)
    for command, (_, _, kernel_key) in cli._COMMANDS.items():
        assert kernel_key in cli.SCHEMAS[command], command


def test_simulate_reads_a_custom_table_once(tmp_path, monkeypatch):
    s = np.linspace(0, 40, 801)
    table = tmp_path / "gauss.csv"
    table.write_text("\n".join(f"{a},{b}" for a, b in
                               zip(s, np.exp(-(s**2) / 4))) + "\n")
    reads = []
    read = kernels._read_table

    def counting(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(kernels, "_read_table", counting)
    cfg = _write(tmp_path, "sim.cfg",
                 "grid.num_modes = 32\nevolution.horizon = 0.25\n"
                 "evolution.rtol = 1e-8\nevolution.atol = 1e-8\n")
    assert cli.main(["simulate", "--config", cfg,
                     "--kernel", f"custom:{table}"]) == 0
    assert len(reads) == 1


def test_simulate_internal_error_leaves_no_echo(tmp_path, capsys, monkeypatch):
    def defect(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.evolution, "evolve", defect)
    cfg = _write(tmp_path, "sim.cfg", "grid.num_modes = 32\n")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err.strip() == "internal error: RuntimeError: boom"
    assert not (out / "resolved.cfg").exists()
