"""No module of ``abr`` imports a name it never uses.  A name kept bound
only to be re-exported sits on a line marked ``# noqa: F401``, and
``from __future__ import annotations`` is used only by a module that has
an annotation."""

import ast
from pathlib import Path

import pytest

import abr

MODULES = sorted(Path(abr.__file__).resolve().parent.glob("*.py"))


def _annotated(node):
    return (isinstance(node, ast.AnnAssign) or isinstance(node, ast.arg) and node.annotation
            or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns)


def unused_imports(source):
    """(line, name) of each name that ``source`` imports, on a line without
    ``# noqa: F401``, and never reads or rebinds; ``annotations`` from
    ``__future__`` is read by any annotation."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if any(map(_annotated, ast.walk(tree))):
        used.add("annotations")
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_name_and_keeps_a_marked_one():
    source = ("from itertools import islice, repeat\n"
              "from .paths import LazyDivdiffColors  # noqa: F401  re-exported\n"
              "import os.path\n"
              "x = repeat(os.sep)\n")
    assert unused_imports(source) == [(1, "islice")]
    future = "from __future__ import annotations\n"
    assert unused_imports(future + "x = 1\n") == [(1, "annotations")]
    for annotated in ("x: int = 1\n", "def f(x: int): pass\n", "def f() -> int: pass\n"):
        assert unused_imports(future + annotated) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
