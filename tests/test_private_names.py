"""Every module-level private function or class of ``abr`` is read
somewhere in the package: a name, an attribute or an import of it, outside
its own definition.  One that only the tests read is dead code of the
package, or belongs in the tests."""

import ast
from pathlib import Path

import abr

MODULES = sorted(Path(abr.__file__).resolve().parent.glob("*.py"))


def unreferenced_private_names(sources):
    """(module, line, name) of each module-level ``_name`` function or class
    in ``sources`` (module name -> source text) that no other node of any
    of them reads, imports or names as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            private = (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and top.name.startswith("_") and not top.name.endswith("__"))
            if private:
                defined.append((module, top.lineno, top.name))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if not (private and name == top.name))
    return [entry for entry in defined if entry[2] not in used]


def test_the_scan_finds_a_private_name_read_only_by_itself():
    sources = {"a": ("def _dead(n):\n    return _dead(n - 1)\n"
                     "def _read(): pass\n"
                     "class _Imported: pass\n"
                     "def __getattr__(name): pass\n"),
               "b": "from .a import _Imported\nimport a\nx = a._read\n"}
    assert unreferenced_private_names(sources) == [("a", 1, "_dead")]


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_private_names(sources) == []
