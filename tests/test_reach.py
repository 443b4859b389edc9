"""The comparison of ``tests/reach.py --check`` and what it reads, without
tracing: synthetic ledgers for the comparison, small sources for the
syntax-tree readers, and the stored ledger and README's Library API
section against ``src/lfmsemi`` as it is."""

import ast
import importlib
import json
from pathlib import Path

import reach

SRC = Path(reach.__file__).resolve().parents[1] / "src" / "lfmsemi"


def _ledger(**never):
    """A ledger of one line count per module and these never-entered names."""
    return {module: {"reached_lines": 1, "body_lines": 2, "never_entered": names}
            for module, names in never.items()}


def test_a_newly_unreached_function_is_named():
    stored = _ledger(maps={"compose": "pinned"})
    current = _ledger(maps={"compose": "pinned", "classify": "api"})
    failure, notes = reach.compare(stored, current)
    assert failure == "maps.classify is never entered, and the stored ledger does not list it"
    assert notes == []


def test_an_untagged_never_entered_function_is_named():
    stored = current = _ledger(maps={"compose": "pinned"}, verify={"check_self_map": None})
    failure, _ = reach.compare(stored, current)
    assert failure.startswith("verify.check_self_map is never entered, and it is neither pinned")


def test_pinned_functions_are_accepted_and_a_reached_one_is_a_note():
    stored = _ledger(maps={"compose": "pinned", "inverse": "pinned"})
    current = _ledger(maps={"compose": "pinned"})
    assert reach.compare(stored, current) == (
        None, ["maps.inverse is no longer listed as never entered"])


def test_reasons_follow_pins_api_and_private_callers():
    source = ("def pinned_one():\n    return _helper()\n\n"
              "def api_one():\n    return _shared()\n\n"
              "def reached():\n    return _shared()\n\n"
              "def _helper():\n    return _deeper()\n\n"
              "def _deeper():\n    return 1\n\n"
              "def _shared():\n    return 2\n\n"
              "def _orphan():\n    return 3\n")
    calls = reach.callers({"m": source})
    why = lambda name: reach.reason(name, {"m.pinned_one"}, {"m.api_one"}, calls)
    assert [why(f"m.{name}") for name in ("pinned_one", "api_one", "_helper", "_deeper",
                                          "_shared", "_orphan", "reached")] == \
        ["pinned", "api", "helper", "helper", None, None, None]


def test_functions_and_their_body_lines():
    source = ("import functools\n\n\n"
              "class A:\n    x = 1\n\n"
              "    @functools.cache\n    def f(self):\n        return [i for i in range(2)]\n\n\n"
              "def g():\n    def h():\n        return 1\n    return h\n")
    defs = reach.functions(source)
    assert defs == {"A.f": (7, "f"), "g": (12, "g"), "g.h": (13, "h")}
    lines = reach.body_lines(source, "m.py", set(defs.values()))
    assert lines == {(7, "f"): {9}, (12, "g"): {13, 15}, (13, "h"): {14}}


def test_the_library_api_section_lists_every_public_name():
    """Every public module-level function and class of ``src/lfmsemi`` is
    listed under its module, and every listed name exists."""
    listed = reach.documented(reach.README.read_text(encoding="utf-8"))
    public = {f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(public - listed) == []
    def resolve(name):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"lfmsemi.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj

    assert [name for name in sorted(listed) if resolve(name) is None] == []


def test_the_stored_ledger_names_functions_of_src_that_may_stay():
    """Each never-entered function of ``tests/reach.json`` is a function of
    its module and has a reason to stay now, so a README or benchmark edit
    that drops one fails here before the traced check runs."""
    stored = json.loads(reach.LEDGER.read_text())
    assert sorted(stored) == sorted(p.stem for p in SRC.glob("*.py"))
    why = reach.reasons()
    unknown, untagged = [], []
    for module, entry in stored.items():
        defs = reach.functions((SRC / f"{module}.py").read_text(encoding="utf-8"))
        names = [f"{module}.{n}" for n in entry["never_entered"]]
        unknown += [n for n in names if n.split(".", 1)[1] not in defs]
        untagged += [n for n in names if why(n) is None]
    assert unknown == [] and untagged == []
