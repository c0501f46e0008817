"""The benchmark tracer wraps each function of its LAYERS table by looking
it up as ``getattr(sys.modules["hosite.<module>"], name)``, so every listed
name must stay a callable attribute of that module. LAYERS is read from the
tracer's source, which is neither imported nor changed here."""
from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise AssertionError("LAYERS not found in perfbench/tracer.py")


def test_every_traced_name_is_a_callable_of_its_module():
    layers = _layers()
    assert layers
    for module, name in layers:
        importlib.import_module(f"hosite.{module}")
        target = getattr(sys.modules[f"hosite.{module}"], name, None)
        assert callable(target), f"hosite.{module}.{name}"
