"""The benchmark's tracer wraps entmin functions by (module, name): each
pair must still resolve, or a traced benchmark run breaks."""

import ast
import importlib
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def traced_pairs():
    for node in ast.parse(PROBE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {PROBE}")


def test_every_traced_name_resolves_to_a_callable():
    pairs = traced_pairs()
    assert pairs
    for mod_name, fn_name in pairs:
        mod = importlib.import_module(f"entmin.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"
