"""Checks on the package source itself."""

import ast
import dataclasses
import types
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


def test_faces_have_one_record():
    # A face's source is the vertex of its corner 0: QuadEmbedding
    # stores corners only, and no module keeps or reads a second copy.
    assert [f.name for f in dataclasses.fields(spinalquad.QuadEmbedding)] == ["spine", "corners", "header"]
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "sources"
        )
    assert found == []


def test_verify_imports_no_constructor():
    # The verifier judges what it is given and builds nothing: inside the
    # package it reads only the embedding record and the graph, and the
    # checks that build a surface before judging it live in families.py.
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("spinalquad")):
            package.extend(f"{node.module}:{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            package.extend(alias.name for alias in node.names if alias.name.startswith("spinalquad"))
    assert sorted(package) == ["embed:QuadEmbedding", "graph:Graph", "graph:components"]
    checks = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")]
    assert checks == []


DELETED = {
    "ChromaticEqualityReport",
    "_shared_sides",
    "boundary_matrix",
    "chromatic_equality_check",
    "format_complex",
    "matrix_rank_exact",
    "parse_twin_edge_list",
    "random_tree",
    "thickening_report",
}


def test_exports_match_the_names_bound_and_deleted_names_stay_gone():
    # __all__ lists, in order, exactly the public names the package
    # root binds; a submodule bound by importing it is not one of them.
    bound = {
        name
        for name, value in vars(spinalquad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert spinalquad.__all__ == sorted(spinalquad.__all__)
    assert set(spinalquad.__all__) == bound
    # No caller ran these, so no module defines them any more.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}:{name}" for name in names if name in DELETED)
    assert found == []
