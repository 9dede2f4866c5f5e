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


def test_only_records_splits_lines_and_cuts_comments():
    # Every text format reads its lines through graph._records, so no
    # other code may call splitlines, name a "#" or strip comments.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {
            inner
            for node in tree.body
            if path.name == "graph.py" and isinstance(node, ast.FunctionDef) and node.name == "_records"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if node in allowed:
                continue
            named = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            hash_literal = isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.strip() == "#"
            if named in ("splitlines", "_strip_comment") or hash_literal:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_decimal_reads_integer_tokens():
    # Every integer token of every text format is read by graph._decimal,
    # so no parser may call int() or a str digit test of its own.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (node.name.startswith("parse_") or node.name == "_twin_id")
        ]
        for reader in readers:
            for node in ast.walk(reader):
                calls_int = isinstance(node, ast.Call) and any(
                    isinstance(arg, ast.Name) and arg.id == "int" for arg in (node.func, *node.args)
                )
                digit_test = getattr(node, "attr", None) in ("isdecimal", "isdigit", "isnumeric")
                if calls_int or digit_test:
                    found.append(f"{path.name}:{reader.name}:{node.lineno}")
    assert found == []


def test_no_function_calls_itself():
    # Deep inputs must not hit the interpreter's recursion limit, so every
    # search keeps its path on an explicit stack.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                direct = isinstance(callee, ast.Name) and callee.id == func.name
                method = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == func.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in ("self", "cls")
                )
                if direct or method:
                    found.append(f"{path.name}:{func.name}:{node.lineno}")
    assert found == []


def test_only_interlace_builds_through_from_sorted():
    # Graph._from_sorted trusts its caller and checks nothing, so every
    # other graph is built through Graph, the one owner of the vertex
    # and edge rules.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {
            inner
            for node in tree.body
            if path.name == "interlace.py" and isinstance(node, ast.FunctionDef) and node.name == "interlace"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if node not in allowed and getattr(node, "attr", None) == "_from_sorted":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
