"""The names that callers and the benchmark tracer bind must resolve.

``perfbench/tracing.py`` wraps module attributes by name and lists any it
cannot find as ``missing_hooks`` in a traced run, so a renamed or deleted
hook would otherwise pass unnoticed.  The file is parsed, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
