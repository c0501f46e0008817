"""The package source parses as Python 3.10, the oldest version
``pyproject.toml`` accepts."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hosite"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    """Syntax only: ``feature_version`` rejects grammar newer than 3.10, such
    as ``except*`` or type-parameter lists, but not calls to stdlib APIs
    that 3.10 lacks, which only a 3.10 interpreter finds."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
