"""The package keeps no public API that nothing calls.

Every name ``hosite`` exports, and every public function or class defined
at the top of a ``src/hosite/`` module, must be referenced somewhere in
``src/hosite/`` outside its own definition and ``__init__.py``, or be
listed in ``UNCALLED`` with the reason it stays. Helpers that only tests
call belong in ``tests/oracles.py``.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hosite"

UNCALLED = {
    "hom_presheaves": "the benchmark tracer wraps it; the suite calls iter_hom_presheaves",
    "minimal_cover": "the benchmark tracer wraps it; the package reads GrothendieckTopology.least",
    "enumerate_presheaves": "the benchmark tracer wraps it; the suite walks with walk_flags",
    "sheafify_morphism": "the benchmark tracer wraps it; the engine calls transport_morphism",
    "check_comparison_lemmas": "the benchmark tracer wraps it; the suite runs _comparison_lemmas",
    "sample_presheaves": "perfbench/workloads.py draws the queries workload's presheaves with it",
    "gamma_shriek": "the left Kan extension along gamma, documented in the README",
    "gamma_shriek_morphism": "gamma_shriek on morphisms, the functor half of the left adjoint",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(modules) -> list[str]:
    return [alias.asname or alias.name for node in modules["__init__"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _defined(modules) -> list[str]:
    return [node.name for name, tree in modules.items() if name != "__init__"
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced(modules) -> set[str]:
    """Every name read as a variable or an attribute, except inside a
    definition of that same name."""
    found: set[str] = set()

    def visit(node, inside: frozenset[str]):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for name, tree in modules.items():
        if name != "__init__":
            visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    referenced = _referenced(modules)
    public = dict.fromkeys(_exported(modules) + _defined(modules))
    uncalled = [name for name in public if name not in referenced and name not in UNCALLED]
    assert uncalled == [], "public names nothing in src/hosite/ calls: move them to tests/oracles.py"


def test_every_listed_name_is_public_and_still_uncalled():
    # a listed name that gains a caller, or is deleted, leaves the list
    modules = _modules()
    public = set(_exported(modules) + _defined(modules))
    assert sorted(set(UNCALLED) - public) == []
    assert sorted(set(UNCALLED) & _referenced(modules)) == []
