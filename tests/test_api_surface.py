"""The names that callers and the benchmark tracer bind must resolve.

``perfbench/tracing.py`` wraps module attributes by name and lists any it
cannot find as ``missing_hooks`` in a traced run, so a renamed or deleted
hook would otherwise pass unnoticed.  The file is parsed, not imported.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlgp
from nlgp import bloch, cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _span_targets() -> dict:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SPAN_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_TARGETS in {TRACING}")


def test_every_traced_hook_resolves():
    targets = _span_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets.values()
               if not hasattr(importlib.import_module(module), attr)]
    # the validators integrate nothing since each kernel states its first
    # moment; the benchmark's tracer still names the deleted quadrature
    assert missing == ["nlgp.kernels.quad"]
    # the smoke workloads shrink b_star's sampling through this keyword
    assert "samples" in inspect.signature(bloch.b_star).parameters


def test_every_exported_name_resolves():
    assert [name for name in nlgp.__all__ if not hasattr(nlgp, name)] == []
    # each name is the object of the module the table files it under, and
    # that module defines it
    for name in nlgp.__all__:
        home = importlib.import_module(f"nlgp.{nlgp._HOME[name]}")
        obj = getattr(nlgp, name)
        assert obj is getattr(home, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name
    assert nlgp.bloch is bloch


def test_imports_load_only_what_runs(tmp_path):
    # importing the package loads no module of it, a name loads its own
    # module, a spectrum run loads neither the evolution nor the experiments
    # nor json nor csv, and a seeded perturbation does not load numpy.random
    cfg = tmp_path / "s.cfg"
    cfg.write_text("spectrum.truncation = 16\n")
    script = (
        "import math\n"
        "import sys\n"
        "import nlgp\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('nlgp.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert nlgp.FIGURE_REGIMES['1a']['B'] == 0.01\n"
        "assert nlgp.spectral.__name__ == 'nlgp.spectral'\n"
        "assert loaded() == ['nlgp.runs', 'nlgp.spectral'], loaded()\n"
        "from nlgp import cli\n"
        f"assert cli.main(['spectrum', '--config', {str(cfg)!r}]) in (0, 1)\n"
        "late = {'nlgp.evolution', 'nlgp.experiments', 'json', 'csv'} & set(sys.modules)\n"
        "assert not late, late\n"
        "kern = nlgp.ScaledKernel(nlgp.KernelSpec.gaussian_raw(), 0.0)\n"
        "phi = nlgp.build_solution(nlgp.solution_params(0.01, -2.46, 1.0, 1, kern),\n"
        "                          nlgp.PeriodicGrid(8.0 * math.pi, 128))\n"
        "psi0 = nlgp.perturbed_initial(phi, 0.01, 1234)\n"
        "assert psi0 is not phi\n"
        "assert 'numpy.random' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                         capture_output=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("max real part ")


def test_solver_result_carries_what_the_tracer_reads():
    # perfbench/tracing.py times args[0] as the right-hand side and reads
    # result.nfev; evolve reads t, y and message
    from nlgp import evolution

    sol = evolution.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                              rtol=1e-8, atol=1e-10, t_eval=np.array([0.0, 1.0]),
                              max_step=np.inf)
    assert isinstance(sol.nfev, int) and sol.nfev > 0
    assert sol.success and isinstance(sol.message, str)
    assert np.array_equal(sol.t, [0.0, 1.0]) and sol.y.shape == (1, 2)
    assert abs(sol.y[0, -1] - np.exp(-1.0)) < 1e-7


def test_readme_python_examples_run(capsys):
    # the python blocks under "## Python API", run in order in one namespace
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    # B = 1 lies below B* = 1.064 at eps = 0.5, as `nlgp spectrum` reports
    assert capsys.readouterr().out == "unstable\n"
    assert namespace["traj"].times[-1] == 2.0


def test_readme_cli_examples_exit_as_stated(capsys):
    # the lines of the README's Examples block that state their exit code
    text = (ROOT / "README.md").read_text()
    block = text.split("\nExamples:\n\n```\n", 1)[1].split("\n```", 1)[0]
    stated = re.findall(r"^nlgp (.*?)\s+# exits (\d)", block, re.M)
    assert [args.split()[0] for args, _ in stated] == ["aes-sweep", "validate-kernel"]
    for args, code in stated:
        assert cli.main(args.split()) == int(code), args


def test_package_entry_points_resolve():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "nlgp.cli", "spectrum", "--help"],
                         env=env, text=True, capture_output=True)
    assert out.returncode == 0, out.stderr
    assert "spectrum.truncation = 64" in out.stdout
    # a fresh import: names loaded by earlier tests would hide a missing __dir__
    out = subprocess.run([sys.executable, "-c", "import nlgp\n"
                          "missing = set(nlgp.__all__) - set(dir(nlgp))\n"
                          "assert not missing, missing\n"],
                         env=env, text=True, capture_output=True)
    assert out.returncode == 0, out.stderr
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"nlgp": "nlgp.cli:main"}
    module, attr = scripts["nlgp"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
