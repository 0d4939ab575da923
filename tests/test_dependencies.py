"""bnladder is a numpy-only library: every module imports from the standard
library, from numpy, or from bnladder itself (by relative import)."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bnladder"


def _absolute_import_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {
        (f.name, root)
        for f in files
        for root in _absolute_import_roots(ast.parse(f.read_text(), filename=str(f)))
        if root not in allowed
    }
    assert foreign == set()
