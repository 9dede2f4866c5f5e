"""Checks on the package source itself."""

import ast
from pathlib import Path

import spinalquad

PACKAGE = Path(spinalquad.__file__).parent


def test_no_module_relies_on_assert():
    # python -O strips assert statements, so no invariant may live in one.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert found == []
