"""The names the benchmark under ``perfbench/`` takes from lfmsemi still
exist: the functions and methods its tracer wraps, and the names its
files import.  The benchmark's own self-tests run on one Python version
only; this check runs with the tier-1 suite.  The benchmark files are
read with ``ast`` and never imported or edited."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _constant(tree: ast.Module, name: str):
    """The literal value assigned to the module-level *name*."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in tracing.py")


def _lfmsemi_imports(tree: ast.Module) -> dict:
    """Local name -> (module, attribute) of every ``from lfmsemi... import``."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lfmsemi")
            for alias in node.names}


def test_traced_functions_resolve():
    functions = _constant(_tree("tracing.py"), "FUNCTIONS")
    assert functions
    missing = [f"{module}.{name}" for module, names in functions.items() for name in names
               if not callable(getattr(importlib.import_module(f"lfmsemi.{module}"), name, None))]
    assert missing == []


def test_traced_methods_resolve():
    methods = _constant(_tree("tracing.py"), "METHODS")
    assert methods
    missing = [f"{module}.{cls}.{meth}" for module, cls, meth in methods
               if meth not in vars(getattr(importlib.import_module(f"lfmsemi.{module}"),
                                           cls, object))]
    assert missing == []


@pytest.mark.parametrize("name", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_imported_names_exist(name):
    imports = _lfmsemi_imports(_tree(name))
    if name == "kernels.py":
        assert imports
    missing = [f"{module}.{attr}" for module, attr in imports.values()
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_keywords_of_imported_callables_exist(name):
    """Every keyword a benchmark file passes to a callable it imports from
    lfmsemi by name is a parameter of that callable."""
    tree = _tree(name)
    imports = _lfmsemi_imports(tree)
    unknown = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imports):
            continue
        module, attr = imports[node.func.id]
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        unknown += [f"{attr}({kw.arg}=)" for kw in node.keywords
                    if kw.arg is not None and kw.arg not in params]
    assert unknown == []
