"""The names that callers and the benchmark tracer bind must resolve.

``perfbench/tracing.py`` wraps module attributes by name and lists any it
cannot find as ``missing_hooks`` in a traced run, so a renamed or deleted
hook would otherwise pass unnoticed.  The file is parsed, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

import nlgp
from nlgp import bloch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
