"""Source hygiene: every module of the package uses what it imports."""

import ast
from pathlib import Path

import pytest

import legcurves

MODULES = sorted(p for p in Path(legcurves.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(path):
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
