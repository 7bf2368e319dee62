"""The names that callers and the benchmark tracer bind must resolve.

``perfbench/tracing.py`` wraps module attributes by name and lists any it
cannot find as ``missing_hooks`` in a traced run, so a renamed or deleted
hook would otherwise pass unnoticed.  The file is parsed, not imported.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np

import nlgp
from nlgp import bloch

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
    assert missing == []
    # the smoke workloads shrink b_star's sampling through this keyword
    assert "samples" in inspect.signature(bloch.b_star).parameters


def test_every_exported_name_resolves():
    assert [name for name in nlgp.__all__ if not hasattr(nlgp, name)] == []


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
