"""Source hygiene: every module of the package uses what it imports,
and the code names its docs cite exist."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import legcurves

PACKAGE = Path(legcurves.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = Path(__file__).resolve().parents[1] / "README.md"


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


def _reads(node):
    """Names and attribute names an ast subtree reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def test_no_uncalled_private_functions():
    # every _private function, at module level or a method of a class,
    # is read somewhere in the package outside its own def
    units = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            units.extend(node.body if isinstance(node, ast.ClassDef)
                         else [node])
    reads = [(node, _reads(node)) for node in units]
    private = [node for node in units
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert private
    unread = [fn.name for fn in private
              if not any(fn.name in names for node, names in reads
                         if node is not fn)]
    assert unread == []


def _tracing_targets():
    """(FUNCTIONS, METHODS, FE_OPS, imported names) of the benchmark's
    tracer, read with ast so the benchmark is not imported."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    found, names = {}, {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            found[getattr(node.targets[0], "id", None)] = node.value
        elif isinstance(node, ast.ImportFrom) and node.module.startswith(
                "legcurves."):
            for a in node.names:
                names[a.asname or a.name] = (node.module, a.name)
    methods = [(k.elts[0].id, ast.literal_eval(k.elts[1]))
               for k in found["METHODS"].keys]
    return (ast.literal_eval(found["FUNCTIONS"]), methods,
            ast.literal_eval(found["FE_OPS"]), names)


def test_every_traced_entry_point_exists():
    functions, methods, fe_ops, names = _tracing_targets()
    assert functions and methods and fe_ops
    for modname, attrs in functions.items():
        mod = importlib.import_module("legcurves." + modname)
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"

    def cls(name):
        module, attr = names[name]
        return getattr(importlib.import_module(module), attr)
    # the tracer swaps these in the class __dict__, not via inheritance
    for name, attr in methods:
        assert attr in cls(name).__dict__, f"{name}.{attr}"
    for attr in fe_ops:
        assert attr in cls("Fe").__dict__, f"Fe.{attr}"


def _cited_names():
    """(where, module, name) for every backticked code name in README.md
    and in the package's docstrings.  A dotted name is cited from the
    package root (`char2._trace_hits`, `Curve.add`); a bare private name
    in a docstring (`_fiber_sum`) from the module the docstring is in."""
    texts = [("README.md", None, README.read_text())]
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    where = f"{path.name}:{getattr(node, 'name', 'module')}"
                    texts.append((where, path.stem, doc))
    for where, module, text in texts:
        for quoted in re.findall(r"`([^`\n]+)`", text):
            name = re.match(r"[A-Za-z_]\w*(\.\w+)*", quoted)
            if name and "." in name[0]:
                yield where, None, name[0]
            elif name and module and name[0].startswith("_"):
                yield where, module, name[0]


def _resolves(module, name):
    """Whether the cited name exists; None when it is not a package
    name (`itertools.combinations`, `pyproject.toml`)."""
    if module is not None:
        return hasattr(importlib.import_module("legcurves." + module), name)
    head, *rest = name.split(".")
    if rest == ["py"]:
        return (PACKAGE / name).exists() or None
    if (PACKAGE / f"{head}.py").exists():
        obj = importlib.import_module("legcurves." + head)
    elif hasattr(legcurves, head):
        obj = getattr(legcurves, head)
    else:
        return None
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_docs_cite_existing_code_names():
    cited = list(_cited_names())
    checked = [(where, module, name) for where, module, name in cited
               if _resolves(module, name) is not None]
    assert len(checked) > 20
    assert [c for c in checked if not _resolves(c[1], c[2])] == []
