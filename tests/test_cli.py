import ast
import csv
import errno
import inspect
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nlgp import bloch, cli, evolution, experiments, kernels
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
    assert coerce(parsed["a.x"], float, "a.x") == 1.5
    assert parsed["b.z"] == "per-rhs"
    assert coerce(parsed["b.n"], int, "b.n") == 42
    # keys come out sorted, one per line
    assert text.splitlines() == sorted(text.splitlines())


def test_coerce_rejects_garbage():
    with pytest.raises(ConfigError):
        coerce("abc", float, "a.x")
    with pytest.raises(ConfigError):
        coerce("1.5", int, "b.n")


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


def test_validate_kernel_both_prints_the_H_block_then_the_Hprime_block(tmp_path, capsys):
    for kernel in ("gaussian-normalized", "gaussian-raw", "algebraic:3"):
        blocks = []
        for which in ("H", "Hprime", "both"):
            cfg = _write(tmp_path, "v.cfg", f"validate.which = {which}\n")
            cli.main(["validate-kernel", "--config", cfg, "--kernel", kernel])
            blocks.append(capsys.readouterr().out)
        assert blocks[2] == blocks[0] + blocks[1]


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
                          ("simulate", "evolution.stepper = adaptive"),
                          ("simulate", "evolution.dt = 0.001"),
                          ("spectrum", "run.seed = 7"),
                          ("aes-sweep", "run.seed = 7"),
                          ("stability-map", "run.seed = 7"),
                          ("validate-kernel", "kernel.epsilon = 1.0"),
                          # the band is min(16, N // 8), and figures sweeps the
                          # mu = r/4 of its [0, 8 pi]
                          ("simulate", "perturbation.mode_cutoff = 16"),
                          ("figures", "figures.mode_cutoff = 16"),
                          ("figures", "figures.n_periods = 4")):
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
    cfg4 = _write(tmp_path, "bad4.cfg", "spectrum.n_periods = 0\n")
    assert cli.main(["spectrum", "--config", cfg4]) == 2
    capsys.readouterr()
    for p in ("nan", "inf", "200"):
        assert cli.main(["spectrum", "--kernel", f"algebraic:{p}"]) == 2
        assert f"p={p}" in capsys.readouterr().err


@pytest.mark.parametrize("command, line, message", [
    ("aes-sweep", "aes.epsilons = a,b",
     "aes.epsilons must be a comma-separated list of numbers, got 'a,b'"),
    ("stability-map", "map.B_values = ,", "map.B_values must list at least one value"),
    ("simulate", "evolution.atol = 0", "rtol and atol must be positive"),
    ("validate-kernel", "validate.which = X",
     "validate.which must be 'H', 'Hprime' or 'both', got 'X'"),
    # non-finite numbers, which once reached the solvers (exits 3 and 4)
    ("spectrum", "kernel.epsilon = nan", "kernel.epsilon must be a finite number, got 'nan'"),
    ("spectrum", "solution.B = nan", "solution.B must be a finite number, got 'nan'"),
    ("stability-map", "map.B_values = nan", "map.B_values must list finite numbers, got 'nan'"),
    ("aes-sweep", "aes.epsilons = nan,0.1",
     "aes.epsilons must list finite numbers, got 'nan,0.1'"),
    ("simulate", "evolution.horizon = inf",
     "evolution.horizon must be a finite number, got 'inf'"),
    # only 0 means one wave period
    ("simulate", "grid.period = -5",
     "grid.period must be positive, or 0 for one wave period, got -5.0"),
    # both periods in full, which once printed as the same 3.14159
    ("simulate", "solution.k = 2\ngrid.period = 3.14159",
     "grid period 3.14159 is not an integer multiple of 2*pi/k = 3.141592653589793"),
    # a grid whose evolved band |j| < N/4 misses phi's harmonic n, which
    # once evolved (exit 0) with phi's own term damped by the former filter
    ("simulate", "grid.num_modes = 4",
     "4 grid modes cannot evolve phi's harmonic 1: the evolved band |j| < N/4 "
     "needs N > 4"),
    ("figures", "figures.regime = 1b\nfigures.num_modes = 16",
     "16 grid modes cannot evolve phi's harmonic 4: the evolved band |j| < N/4 "
     "needs N > 16"),
    # k is checked before the wave period 2 pi / k is derived from it
    *((command, f"{key} = {k}", f"wavenumber k must be positive, got {k:.1f}")
      for command, key in (("simulate", "solution.k"), ("aes-sweep", "aes.k"))
      for k in (0, -1)),
    # kernel tables (_BAD_TABLES, written to {tmp}) with a short or a
    # non-finite row, which once exited 4 or reached a verdict
    *((command, "kernel.name = custom:{tmp}/one-column.csv",
       "kernel table {tmp}/one-column.csv line 2: need two finite numbers s, "
       "zeta_hat, got '0.5'") for command in ("spectrum", "validate-kernel")),
    ("spectrum", "kernel.name = custom:{tmp}/nan.csv\nkernel.epsilon = 0.5",
     "kernel table {tmp}/nan.csv line 2: need two finite numbers s, zeta_hat, "
     "got '1,nan'"),
    ("spectrum", "kernel.name = custom:{tmp}/inf.csv",
     "kernel table {tmp}/inf.csv line 3: need two finite numbers s, zeta_hat, "
     "got 'inf,0'"),
    ("spectrum", "kernel.name = custom:{tmp}/text.csv",
     "kernel table {tmp}/text.csv line 2: need two finite numbers s, zeta_hat, "
     "got '1,abc'"),
    # a kernel string whose p is not a number
    *((command, f"kernel.name = algebraic:{p}",
       f"kernel 'algebraic:{p}' needs a number p in algebraic:p")
      for command, p in (("spectrum", "abc"), ("validate-kernel", ""))),
    # a table with two rows at one s, which validate-kernel audited and the
    # AES sweep ran (exit 0) with whichever value each reader took
    *((command, f"{key} = custom:{{tmp}}/repeated.csv",
       "kernel table {tmp}/repeated.csv repeats s = 0.0: zeta_hat needs one value per s")
      for command, key in (("validate-kernel", "kernel.name"), ("aes-sweep", "aes.kernel"))),
])
def test_malformed_values_are_exit_2(tmp_path, capsys, command, line, message):
    for name, text in _BAD_TABLES.items():
        _write(tmp_path, name, text)
    cfg = _write(tmp_path, "bad.cfg", line.format(tmp=tmp_path) + "\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(tmp=tmp_path)}\n"
    assert not out.exists()


_BAD_TABLES = {"one-column.csv": "0,1\n0.5\n1,0.5\n",
               "nan.csv": "0,1\n1,nan\n2,0.2\n",
               "inf.csv": "0,1\n1,0.5\ninf,0\n",
               "text.csv": "0,1\n1,abc\n",
               "repeated.csv": "0,1\n0,0.5\n1,0.2\n3,0\n"}


@pytest.mark.parametrize("command", ["spectrum", "stability-map"])  # both kernel paths
@pytest.mark.parametrize("flag", ["--config", "--kernel"])
@pytest.mark.parametrize("code", [errno.ENOENT, errno.EISDIR], ids=["missing", "directory"])
def test_unreadable_input_path_is_exit_2(tmp_path, capsys, command, flag, code):
    # a path that exists but cannot be read is refused like a missing one
    path = tmp_path / "input"
    if code == errno.EISDIR:
        path.mkdir()
    out = tmp_path / "out"
    value = str(path) if flag == "--config" else f"custom:{path}"
    assert cli.main([command, flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: [Errno {code}] "
                                       f"{os.strerror(code)}: {str(path)!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--kernel"])
def test_non_utf8_input_file_is_exit_2(tmp_path, capsys, flag):
    # an ELF header and high bytes: not text, so a config error, not a defect
    path = tmp_path / "binary"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    with pytest.raises(UnicodeDecodeError) as info:
        path.read_bytes().decode()
    out = tmp_path / "out"
    value = str(path) if flag == "--config" else f"custom:{path}"
    assert cli.main(["spectrum", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {info.value}\n"
    assert not out.exists()


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


def test_spectrum_of_an_offset_just_below_minus_A_is_computed(tmp_path, capsys):
    # B + A = -4.9e-13 lies within solution_params' round-off allowance, so
    # the state is the edge state B + A = 0, not a NaN eigensolve (exit 4)
    cfg = _write(tmp_path, "s.cfg", "solution.B = 1e-14\nsolution.V0 = -5e-13\n"
                 "solution.alpha = -1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["spectrum", "--config", cfg]) == 0
    assert "A = -1e-14 < A_crit" in capsys.readouterr().out


def test_a_equal_to_a_crit_is_on_the_unstable_side(tmp_path, capsys):
    # at eps = 0 the normalized Gaussian has beta = 1, so V0 = -a_crit(1)
    # gives A == a_crit exactly, where both the spectrum and the map say ">="
    V0 = -float(bloch.a_crit(1.0))
    cfg = _write(tmp_path, "s.cfg", f"solution.V0 = {V0!r}\n"
                 "spectrum.truncation = 8\nspectrum.n_periods = 1\n")
    assert cli.main(["spectrum", "--config", cfg]) == 1
    assert "A = 2.45325 >= A_crit = 2.45325 (unstable-predicted)" in capsys.readouterr().out
    cfg = _write(tmp_path, "m.cfg", f"map.B_values = 1.0\nmap.V0_values = {V0!r}\n"
                 "map.truncation = 8\n")
    out = tmp_path / "map"
    assert cli.main(["stability-map", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "stability_map.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (float(row["A"]), row["above_a_crit"]) == (-V0, "1")


def test_eigensolver_failure_is_exit_4(tmp_path, capsys, monkeypatch):
    # the sweep solves mu = 0 and 1/2 in one stacked call per parity block;
    # when a stacked call fails, its blocks are solved one by one to name
    # the failing mu.  A block that does not converge wherever it is solved:
    # the even block of mu = 0, the odd block of mu = 0, that of mu = 1/2.
    solve = np.linalg.eigvals
    cfg = _write(tmp_path, "s.cfg",
                 "spectrum.truncation = 8\nspectrum.n_periods = 2\n")
    stacks = []
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a, *args, **kw: stacks.append(a) or solve(a, *args, **kw))
    assert cli.main(["spectrum", "--config", cfg]) in (0, 1)
    assert [a.shape for a in stacks] == [(2, 18, 18), (2, 16, 16)]
    capsys.readouterr()
    for parity, index, mu in ((0, 0, 0.0), (1, 0, 0.0), (1, 1, 0.5)):
        target, calls = stacks[parity][index], []

        def no_convergence(a, *args, **kwargs):
            calls.append(np.shape(a))
            if any(np.array_equal(m, target) for m in np.reshape(a, (-1,) + a.shape[-2:])):
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        assert cli.main(["spectrum", "--config", cfg]) == 4
        # the stacked calls up to the failing one, then its blocks in order
        assert calls == [a.shape for a in stacks[:parity + 1]] + [target.shape] * (index + 1)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("internal error: ")
        assert "did not converge" in err[0]
        assert f"mu={mu}:" in err[0]
    # a stacked call that fails while each of its blocks solves alone: its
    # error is raised as it came, with no mu to name
    calls = []

    def stack_fails(a, *args, **kwargs):
        calls.append(np.shape(a))
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", stack_fails)
    assert cli.main(["spectrum", "--config", cfg]) == 4
    assert calls == [stacks[0].shape] + [stacks[0][0].shape] * 2
    assert capsys.readouterr().err == ("internal error: LinAlgError: "
                                       "eigenvalues did not converge\n")


@pytest.mark.parametrize("where, message", [("interior", "exceeds its size"),
                                            ("top", "do not sum to zero")])
def test_inertia_sweep_failure_is_exit_4(tmp_path, capsys, monkeypatch, where, message):
    # inconsistent negative counts are a numerical defect, not a config
    # error: the spectrum command exits 4 and names the failed check
    counts = bloch._negative_counts

    def corrupted(bands, s, t, mus):
        neg = counts(bands, s, t, mus)
        krein = np.flatnonzero(t[0] == 0.0)  # the Krein shifts of mu = 0, even block
        assert krein.size >= 3
        neg[0, krein[1] if where == "interior" else krein[-1]] += 100
        return neg

    monkeypatch.setattr(bloch, "_negative_counts", corrupted)
    cfg = _write(tmp_path, "s.cfg", "spectrum.truncation = 8\nspectrum.n_periods = 2\n")
    assert cli.main(["spectrum", "--config", cfg]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: ")
    assert "inertia sweep failed at mu=0.0" in err[0] and message in err[0]


def test_focusing_state_with_a_split_double_nu_is_exit_1(tmp_path, capsys):
    # at mu = 0 round-off splits the double nu = 2 into 2 -+ 4e-8, within the
    # round-off scale h, so no shift of the unpivoted inertia sweep falls
    # between them (where L' - s P is singular): the pair is one indefinite
    # cluster, and the modulationally unstable state gets its verdict
    # instead of an internal error
    cfg = _write(tmp_path, "f.cfg", "solution.alpha = -1\nsolution.B = 1.0\n"
                                    "solution.V0 = 0.0\nspectrum.truncation = 32\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
    assert "-> unstable" in capsys.readouterr().out
    with open(out / "spectrum.csv", newline="") as fh:
        pair = [row["krein"] for row in csv.DictReader(fh) if row["mu"] == "0.0"
                and row["re_lambda"] == "0.0" and abs(float(row["im_lambda"]) - 2) < 1e-6]
    assert pair == ["indefinite", "indefinite"]


def test_large_B_defocusing_state_is_spectrally_stable(tmp_path, capsys):
    # eps = 0, B = 16, V0 = -0.5 at the default M = 64: round-off splits
    # double nu by about 1e-6, which absolute tolerances read as an
    # abscissa of 1.36e-6 and exit 1; every cluster here is Krein-definite
    cfg = _write(tmp_path, "s.cfg", "solution.B = 16\nsolution.V0 = -0.5\n")
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith(
        "max real part 0 over 4 Bloch parameters -> spectrally stable\n")


def test_spectrum_csv_does_not_depend_on_blas_threads(tmp_path):
    # eigenvalues from dgeev without vectors and Krein signs and n(L) from
    # inertia counts: at M = 128 (blocks of 258 and 256 rows, large enough
    # for OpenBLAS to thread) spectrum.csv is the same at 1 and 2 threads
    cfg = _write(tmp_path, "s.cfg", "spectrum.truncation = 128\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "nlgp.cli", "spectrum", "--config", cfg,
                        "--out", str(out)], env=env, capture_output=True, check=True)
        written.append((out / "spectrum.csv").read_bytes())
    assert written[0] == written[1]
    assert len(written[0].splitlines()) == 1 + 4 * 2 * (2 * 128 + 1)


def _replay_echo(tmp_path, command, cfg_text, flags=()):
    """Run once, rerun from the run's resolved.cfg alone, and compare every
    output file of both runs."""
    cfg = _write(tmp_path, f"{command}.cfg", cfg_text)
    out1, out2 = tmp_path / f"{command}-1", tmp_path / f"{command}-2"
    code = cli.main([command, "--config", cfg, "--out", str(out1), *flags])
    assert code in (0, 1)
    echo = out1 / "resolved.cfg"
    assert cli.main([command, "--config", str(echo), "--out", str(out2)]) == code
    names = sorted(p.name for p in out1.iterdir())
    assert len(names) > 1 and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    return out1


def test_simulate_writes_artifacts_and_echo(tmp_path):
    out = _replay_echo(tmp_path, "simulate",
                       "grid.num_modes = 32\nevolution.horizon = 0.5\n"
                       "evolution.rtol = 1e-8\nevolution.atol = 1e-8\n"
                       "perturbation.nu = 0.01\n")
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "aes-sweep", "figures",
                                     "validate-kernel", "stability-map"])
def test_every_subcommand_replays_from_its_echo(tmp_path, command):
    # resolved.cfg is the only settings record, so every command replays from it
    _replay_echo(tmp_path, command, _SMALL_RUNS[command])


def test_a_flag_set_kernel_replays_from_the_echo(tmp_path):
    # for a flag the echo is the only record: a custom table, not the
    # config's default kernel, must come back
    table = tmp_path / "table.csv"
    table.write_text("0,1\n1,0.8\n2,0.5\n4,0.1\n8,0\n")
    out = _replay_echo(tmp_path, "validate-kernel", "",
                       flags=("--kernel", f"custom:{table}"))
    assert f"kernel.name = custom:{table}" in (out / "resolved.cfg").read_text()


def test_a_flag_value_holding_a_comment_sign_is_exit_2(tmp_path, capsys):
    # resolved.cfg would echo it, and reading the echo back would cut the
    # value at the '#'
    table = tmp_path / "a#b" / "t.csv"
    table.parent.mkdir()
    table.write_text("0,1\n1,0.8\n2,0.5\n4,0.1\n8,0\n")
    out = tmp_path / "out"
    assert cli.main(["validate-kernel", "--kernel", f"custom:{table}",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: kernel.name = ")
    assert "'#'" in err[0]
    assert not out.exists()


def test_simulate_records_a_horizon_just_past_a_multiple_once(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "grid.num_modes = 32\n"
                 "evolution.horizon = 0.750000000125\nevolution.record_every = 0.25\n")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [float(row[0]) for row in rows] == [0.0, 0.25, 0.5, 0.750000000125]


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
    # (N = 128 gives the perturbation 16 modes; at B = 50 the stepper creeps
    # for 1.4 million right-hand sides before the overflow)
    cfg = _write(tmp_path, "loose.cfg",
                 "solution.B = 100\nsolution.V0 = 0\n"
                 "evolution.rtol = 1e3\nevolution.atol = 1e3\n"
                 "evolution.horizon = 5\nperturbation.nu = 0.5\n"
                 "grid.num_modes = 128\n")
    out = tmp_path / "loose"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert (out / "trajectory.partial.csv").exists()
    assert (out / "summary.partial.csv").exists()
    assert (out / "resolved.cfg").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up: non-finite state")


def test_figures_stall_is_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evolution, "solve_ivp", _stalls_before_first_record)
    cfg = _write(tmp_path, "fig.cfg",
                 "figures.regime = 1b\nfigures.num_modes = 32\n"
                 "figures.horizon = 0.5\nfigures.truncation = 12\n")
    assert cli.main(["figures", "--config", cfg]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up: ")
    assert "stalled" in err[0]


@pytest.mark.parametrize("line, setting", [("figures.truncation = 4", "truncation")])
def test_figures_checks_the_spectrum_settings_before_it_evolves(
        tmp_path, capsys, monkeypatch, line, setting):
    def must_not_evolve(*args, **kwargs):
        raise AssertionError("evolved before the settings were checked")

    monkeypatch.setattr(evolution, "solve_ivp", must_not_evolve)
    cfg = _write(tmp_path, "fig.cfg", f"figures.regime = 1b\n{line}\n")
    assert cli.main(["figures", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and setting in err


def test_figures_runs_on_the_coarsest_grid_that_evolves_its_harmonic(tmp_path):
    # [0, 8 pi] holds 4 wave periods: N = 18 is the first even N > 4 * 4
    cfg = _write(tmp_path, "fig.cfg",
                 _SMALL_RUNS["figures"].replace("num_modes = 32", "num_modes = 18"))
    assert cli.main(["figures", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("line, setting", [("map.n_periods = 0", "n_periods"),
                                           ("map.truncation = 4", "truncation")])
def test_stability_map_checks_the_bloch_settings_before_any_point(
        tmp_path, capsys, line, setting):
    # every point lies outside the family, so no spectrum would check them
    cfg = _write(tmp_path, "map.cfg", f"map.B_values = 0.01\nmap.V0_values = 2.0\n{line}\n")
    out = tmp_path / "map"
    assert cli.main(["stability-map", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and setting in err
    assert not (out / "resolved.cfg").exists()


# one small run per subcommand, through each handler's whole code path
_SMALL_RUNS = {
    "simulate": "grid.num_modes = 32\nevolution.horizon = 0.5\n"
                "perturbation.nu = 0.01\n",
    "spectrum": "spectrum.truncation = 8\nspectrum.n_periods = 2\n",
    "aes-sweep": "aes.horizon = 0.4\naes.num_modes = 32\naes.epsilons = 0.1,0.05\n",
    "figures": "figures.regime = 1b\nfigures.num_modes = 32\nfigures.horizon = 0.5\n"
               "figures.truncation = 8\n"
               "figures.record_every = 0.5\n",
    "validate-kernel": "",
    "stability-map": "map.truncation = 8\nmap.B_values = 1\nmap.V0_values = -1\n",
}


def test_no_subcommand_loads_scipy(tmp_path, capsys):
    # scipy is the tests' reference library, not a runtime dependency: with
    # it unimportable, each small run exits as it does here, and
    # validate-kernel prints the same report under each hypothesis set
    runs = [(command, text) for command, text in _SMALL_RUNS.items()
            if command != "validate-kernel"]
    runs += [("validate-kernel", f"kernel.name = algebraic:3\nvalidate.which = {which}\n")
             for which in ("H", "Hprime", "both")]
    argvs = [[command, "--config", _write(tmp_path, f"{i}.cfg", text)]
             for i, (command, text) in enumerate(runs)]
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from nlgp import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cli.main(argv)\n"
        "    print(repr((code, out.getvalue())))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    got = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
    expected = []
    for argv in argvs:
        code = cli.main(argv)
        expected.append((code, capsys.readouterr().out))
    assert [code for code, _ in got] == [code for code, _ in expected]
    assert got[-3:] == expected[-3:]
    assert expected[-1][0] == 0 and expected[-1][1].count(": pass") == 9


class _ReadRecorder(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_config_key_is_read(tmp_path, capsys, command):
    # a key in a schema that no handler reads is a setting that does nothing
    cfg = _write(tmp_path, "small.cfg", _SMALL_RUNS[command])
    recorder = _ReadRecorder(cli.resolve_config(command, cfg, {}))
    handler = cli._COMMANDS[command][0]
    assert handler(recorder, None) in (0, 1)
    assert sorted(set(cli.SCHEMAS[command]) - recorder.read) == []


@pytest.mark.parametrize("command", ["figures", "aes-sweep"])
def test_blow_up_in_a_runner_leaves_only_the_echo(tmp_path, capsys, monkeypatch, command):
    # the runners write their outputs only once they have computed
    monkeypatch.setattr(evolution, "solve_ivp", _stalls_before_first_record)
    cfg = _write(tmp_path, "stall.cfg", _SMALL_RUNS[command])
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["resolved.cfg"]
    assert (out / "resolved.cfg").read_text() == format_flat_config(
        cli.resolve_config(command, cfg, {}))
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up: ")
    # an echo that cannot be written is a failure of its own
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert cli.main([command, "--config", cfg, "--out", str(blocker)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: FileExistsError: ")


@pytest.mark.parametrize("command, text", [
    ("spectrum", "spectrum.truncation = 8\nspectrum.n_periods = 2\n"),
    ("stability-map", "map.truncation = 8\n"),
    ("figures", "figures.regime = 1b\nfigures.num_modes = 32\nfigures.horizon = 0.5\n"
                "figures.truncation = 8\n"
                "figures.record_every = 0.5\n"),
])
def test_value_error_inside_the_bloch_core_is_exit_4(tmp_path, capsys, monkeypatch,
                                                     command, text):
    # a ValueError from a defect in the solve is not a config error
    def misshapen(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(bloch, "_negative_counts", misshapen)
    cfg = _write(tmp_path, "s.cfg", text)
    assert cli.main([command, "--config", cfg]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: ValueError: operands could not be broadcast together"]


def test_spectrum_csv_bytes_match_the_one_operator_path(tmp_path):
    # the spectrum-algebraic benchmark's inputs at seed 1234: the stacked
    # sweep writes the bytes of one spectrum(assemble(mu)) per solved mu
    eps = 0.5424335852414709
    cfg = _write(tmp_path, "s.cfg", f"kernel.name = algebraic:3\nkernel.epsilon = {eps!r}\n"
                                    "spectrum.n_periods = 4\nspectrum.truncation = 64\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
    p = cli.waves.solution_params(1.0, -1.0, 1.0, 1, kernels.ScaledKernel(
        kernels.KernelSpec.algebraic_decay(3.0), eps))
    solved = [bloch.spectrum(bloch.assemble(mu, 64, p)) for mu in (0.0, 0.25, 0.5)]
    bloch.write_eigen_csv(solved + [bloch._mirror(solved[1], 0.75)], tmp_path / "ref.csv")
    assert (out / "spectrum.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_spectrum_algebraic_evaluates_the_bessel_function_at_389_points(tmp_path,
                                                                       monkeypatch):
    # the spectrum-algebraic benchmark's settings: beta takes 1 point, the
    # sweep's bands 3 x 129 less s = 0, and B* 2, the far band ends (sampling
    # both bands took 20,001, all but s = 0 of 2 x 10,001)
    points, power_kv_of = [], kernels._power_kv

    def counting(nu):
        power_kv = power_kv_of(nu)
        return lambda a: points.append(np.size(a)) or power_kv(a)

    monkeypatch.setattr(kernels, "_power_kv", counting)
    cfg = _write(tmp_path, "s.cfg", "kernel.name = algebraic:3\nkernel.epsilon = 0.5\n"
                                    "spectrum.n_periods = 4\nspectrum.truncation = 64\n")
    assert cli.main(["spectrum", "--config", cfg]) == 1
    assert sum(points) == 1 + 386 + 2


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
                 "evolution.record_every = 0.25\nperturbation.nu = 0.05\n")
    outs = []
    for seed, tag in (("1", "a"), ("1", "b"), ("2", "c")):
        out = tmp_path / tag
        assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                         "--seed", seed]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


@pytest.mark.parametrize("command, text", [
    ("simulate", "grid.num_modes = 32\nevolution.horizon = 0.25\n"
                 "perturbation.nu = 0.05\n"),
    ("figures", "figures.regime = 1b\nfigures.num_modes = 32\nfigures.horizon = 0.5\n"),
])
def test_negative_seed_is_exit_2(tmp_path, capsys, command, text):
    # the generator would seed -3 as 3: a negative seed is refused, with its key
    cfg = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--seed", "-3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: run.seed must be nonnegative, got -3"]
    assert not out.exists()


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
                 "figures.record_every = 0.5\n"
                 "evolution.rtol = 1e-8\n"
                 "evolution.atol = 1e-8\n")
    out = tmp_path / "fig"
    assert cli.main(["figures", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    # [0, 8 pi] holds 4 wave periods: the spectra at mu = r/4, whatever the truncation
    with open(out / "spectrum.csv", newline="") as fh:
        mus = [float(row["mu"]) for row in csv.DictReader(fh)]
    assert mus == sorted(mus) and sorted(set(mus)) == [0.0, 0.25, 0.5, 0.75]
    # the positional regime wins over the config key
    out2 = tmp_path / "fig2"
    assert cli.main(["figures", "2a", "--config", cfg,
                     "--out", str(out2)]) == 0
    assert json.loads((out2 / "report.json").read_text())["regime"] == "2a"
    assert "figures.regime = 2a" in (out2 / "resolved.cfg").read_text().splitlines()


def test_python_api_defaults_match_the_cli_schemas(monkeypatch):
    def defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    compared = {command: set() for command in cli.SCHEMAS}
    # (callable, subcommand, {keyword: config key})
    for fn, command, keys in (
            (experiments.run_aes_sweep, "aes-sweep", {
                "B": "aes.B", "V0": "aes.V0", "k": "aes.k", "alpha": "aes.alpha",
                "horizon": "aes.horizon", "num_modes": "aes.num_modes",
                "rtol": "evolution.rtol", "atol": "evolution.atol",
                "record_every": "aes.record_every"}),
            (experiments.run_figure_regime, "figures", {
                "seed": "run.seed", "horizon": "figures.horizon",
                "num_modes": "figures.num_modes", "truncation": "figures.truncation",
                "rtol": "evolution.rtol", "atol": "evolution.atol",
                "record_every": "figures.record_every"}),
            (experiments.stability_map, "stability-map", {
                "k": "map.k", "eps": "map.eps", "alpha": "map.alpha",
                "n_periods": "map.n_periods", "truncation": "map.truncation"}),
            (evolution.EvolutionConfig, "simulate", {
                "time_horizon": "evolution.horizon", "rtol": "evolution.rtol",
                "atol": "evolution.atol", "record_every": "evolution.record_every"})):
        api, schema = defaults(fn), cli.SCHEMAS[command]
        for name, key in keys.items():
            assert (type(api[name]), api[name]) == (type(schema[key]), schema[key]), key
        compared[command] |= set(keys.values())
    eps = defaults(experiments.run_aes_sweep)["epsilons"]
    assert list(eps) == cli._parse_float_list(cli.SCHEMAS["aes-sweep"]["aes.epsilons"], "")

    # the kernel each runner scales when it is given none
    families = []

    class Recorded(kernels.ScaledKernel):
        def __post_init__(self):
            families.append(self.base.family)
            super().__post_init__()

    monkeypatch.setattr(kernels, "ScaledKernel", Recorded)
    experiments.run_aes_sweep((0.1,), horizon=0.2, num_modes=16, record_every=0.2)
    experiments.run_figure_regime("2a", horizon=0.25, num_modes=32, truncation=8,
                                  rtol=1e-6, atol=1e-6)
    experiments.stability_map([1.0], [-1.0], truncation=8)
    names = (cli.SCHEMAS["aes-sweep"]["aes.kernel"], cli.SCHEMAS["figures"]["figures.kernel"],
             cli.SCHEMAS["stability-map"]["map.kernel"])
    # run_aes_sweep scales its local reference first
    assert families == ["gaussian-normalized",
                        *(kernels.kernel_from_name(name).family for name in names)]

    # every other key is one the Python side takes without a default
    compared["aes-sweep"] |= {"aes.epsilons", "aes.kernel"}
    compared["figures"].add("figures.kernel")
    compared["stability-map"].add("map.kernel")
    required = {
        "aes-sweep": set(),
        "figures": {"figures.regime"},
        "stability-map": {"map.B_values", "map.V0_values"},
        "simulate": {*cli._SOLUTION_KEYS, "grid.period", "grid.num_modes",
                     "perturbation.nu", "run.seed"},
    }
    for command, keys in required.items():
        assert set(cli.SCHEMAS[command]) - compared[command] == keys, command


# regime settings small enough for a run of a few milliseconds
_SMALL_FIGURE = ("figures.num_modes = 32\nfigures.horizon = 6\nfigures.truncation = 12\n"
                 "evolution.rtol = 1e-6\nevolution.atol = 1e-6\n")


def test_figures_says_when_no_growth_window_resolves(tmp_path, capsys):
    # stable regime 2a: the deviation stays below 3 nu, so there is nothing to fit
    cfg = _write(tmp_path, "fig.cfg", "figures.regime = 2a\n" + _SMALL_FIGURE)
    assert cli.main(["figures", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["no resolvable exponential growth window"]
    assert err == ""


def test_figures_warns_when_theory_and_dynamics_disagree(tmp_path, capsys, monkeypatch):
    # regime 1a grows; a spectrum that shows no unstable mode must be flagged
    real = bloch.full_period_spectrum
    monkeypatch.setattr(bloch, "full_period_spectrum", lambda *args: [
        replace(rep, max_real_part=0.0) for rep in real(*args)])
    cfg = _write(tmp_path, "fig.cfg", "figures.regime = 1a\n" + _SMALL_FIGURE)
    assert cli.main(["figures", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    rate = float(out.splitlines()[1].removeprefix("fitted growth rate "))
    assert rate > 0.1
    assert err.splitlines() == [
        f"warning: dynamics grow at fitted rate {rate:.3g} but spectral abscissa is "
        "only 0; linear theory and dynamics disagree"]


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
                   "figures.record_every = 0.5\n",
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
    compile((out / "plot_map.py").read_text(), "plot_map.py", "exec")


def test_stability_map_prints_a_crit_when_b_star_is_undefined(tmp_path, capsys):
    # at eps = 100 the normalized Gaussian's multiplier underflows to 0 on
    # the lattice, so B* is undefined, as spectrum says; A_crit is defined
    cfg = _write(tmp_path, "m.cfg", "map.eps = 100\nmap.truncation = 8\n"
                 "map.B_values = 1\nmap.V0_values = -1,0\n")
    assert cli.main(["stability-map", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "B* undefined (kernel multiplier nonpositive on the lattice), A_crit = 2.45325"]


def test_kernel_flag_overrides_config(tmp_path, capsys):
    assert cli.main(["validate-kernel", "--kernel", "gaussian-raw"]) == 1
    # the same command with the config default (normalized) passes
    assert cli.main(["validate-kernel"]) == 0


# ---------------------------------------------------------------------------
# the front end describes each subcommand once and writes after computing


def test_schema_defaults_are_int_float_or_str():
    # each default's type is its key's type, and --help prints its name
    for command, schema in cli.SCHEMAS.items():
        for key, default in schema.items():
            assert type(default) in (int, float, str), (command, key)


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

    monkeypatch.setattr(evolution, "evolve", defect)
    cfg = _write(tmp_path, "sim.cfg", "grid.num_modes = 32\n")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err.strip() == "internal error: RuntimeError: boom"
    assert not (out / "resolved.cfg").exists()
