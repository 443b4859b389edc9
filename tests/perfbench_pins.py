"""The names the benchmark under ``perfbench/`` takes from lfmsemi, read
with ``ast`` off its files, which are never imported or edited here: the
functions and methods its tracer wraps (``tracing.FUNCTIONS`` and
``tracing.METHODS``) and the names its files import with
``from lfmsemi... import``.  ``tests/test_bench_pins.py`` checks that they
still exist, and ``tests/reach.py`` accepts them as never entered."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tree(name: str) -> ast.Module:
    """The syntax tree of the benchmark file *name*."""
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def constant(module: ast.Module, name: str):
    """The literal value assigned to the module-level *name*."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in tracing.py")


def lfmsemi_imports(module: ast.Module) -> dict:
    """Local name -> (module, attribute) of every ``from lfmsemi... import``."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(module)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lfmsemi")
            for alias in node.names}


def pinned() -> set:
    """Every pinned function, class or method as ``module.qualname`` of the
    module of ``src/lfmsemi`` that defines it, as ``maps.BallMap.__call__``.
    An imported name is resolved by importing it."""
    tracing = tree("tracing.py")
    names = {f"{module}.{name}" for module, funcs in constant(tracing, "FUNCTIONS").items()
             for name in funcs}
    names |= {f"{module}.{cls}.{meth}" for module, cls, meth in constant(tracing, "METHODS")}
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, attr in lfmsemi_imports(tree(path.name)).values():
            obj = getattr(importlib.import_module(module), attr)
            if hasattr(obj, "__qualname__"):
                names.add(f"{obj.__module__.removeprefix('lfmsemi.')}.{obj.__qualname__}")
    return names
