"""Print which functions of ``src/lfmsemi`` the product reaches, per module.

The corpus is what the product runs, each under ``sys.settrace`` from
before ``lfmsemi`` is imported:

- every golden spec under ``tests/golden``, as ``lfmsemi report`` with the
  seed and tolerance profile its stored report names (``cli.main``);
- one ``lfmsemi report`` with ``--t``, ``--z0``, ``--csv`` and
  ``--output -``, and one without a spec (a usage error);
- the eight corpora of ``tests/census.py``, as its ``main`` runs them;
- one cycle of every benchmark workload at seeds 1 and 2, as
  ``tests/report_hashes.py`` runs them;
- the library example of README.

A module's line shows its function-body lines reached out of all of them
(the lines of its functions' code, less each ``def`` line) and the
functions never entered, each with why it may stay:

- ``pinned``: the benchmark names it (``tests/perfbench_pins.py``);
- ``api``: README's "Library API" section lists it;
- ``helper``: a private name whose only callers in ``src/lfmsemi`` are of
  these three kinds (callers read off the syntax tree, a nested function
  counting as its outermost one).

The ledger, ``tests/reach.json``, stores per module the line counts and the
never-entered functions with their reasons.  ``--check`` compares names
only, not line counts, which move with the Python and numpy versions: it
names the first function that is never entered and that the ledger does not
list (a function that was reached and is no longer, or a new one that the
corpus never reaches), then the first never-entered function with no
reason to stay, and exits 1 if there is either.  A function that the
ledger lists and that is reached now is printed, and fails nothing.

Run from anywhere, with the standard library and the checkout's
dependencies only::

    python tests/reach.py          # print the table
    python tests/reach.py --json   # ... and store the ledger in tests/reach.json
    python tests/reach.py --check  # ... and compare it with the stored ledger

Pytest does not collect this file; it reads ``perfbench/`` and writes
nothing there.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lfmsemi"
LEDGER = ROOT / "tests" / "reach.json"
README = ROOT / "README.md"
TESTS = ROOT / "tests"

#: the reasons a never-entered function may stay
PINNED, API, HELPER = "pinned", "api", "helper"


# ---------------------------------------------------------------------------
# the functions of a module, read off its syntax tree


def functions(source: str) -> dict:
    """Qualified name -> (first line, name) of every function of a module,
    methods as ``Class.method`` and nested functions as ``outer.inner``; the
    first line is that of its first decorator, as in its code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[prefix + child.name] = (first, child.name)
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def body_lines(source: str, path: str, keys) -> dict:
    """(first line, name) of each function of *keys* -> the lines of its
    code and of the comprehensions and lambdas inside it, less its first
    line; the code of the module and of class bodies counts for none."""
    lines = {}

    def visit(code, owner):
        key = (code.co_firstlineno, code.co_name)
        if key in keys:
            owner = key
        elif code.co_name.isidentifier():  # the module or a class body
            owner = None
        if owner is not None:
            lines.setdefault(owner, set()).update(
                line for _, _, line in code.co_lines() if line not in (None, owner[0]))
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                visit(const, owner)

    visit(compile(source, path, "exec"), None)
    return lines


def callers(sources: dict) -> dict:
    """Name -> the ``module.qualname`` of every function of *sources*
    (module -> text) whose body names it, as a variable or an attribute; a
    nested function's names count for its outermost function or method."""
    found = {}

    def visit(node, module, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, prefix + child.name + ".",
                      owner or f"{module}.{prefix}{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".", owner)
            else:
                if owner is not None:
                    name = (child.id if isinstance(child, ast.Name)
                            else child.attr if isinstance(child, ast.Attribute) else None)
                    if name is not None:
                        found.setdefault(name, set()).add(owner)
                visit(child, module, prefix, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "", None)
    return found


def documented(readme: str) -> set:
    """The ``module.name`` of every name README's "Library API" section
    lists: each bullet opens with its module, ``- `lfmsemi.maps`:``, and
    names it in backticks, a method as ``.name`` after its class."""
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    names, module, owner = set(), None, None
    for line in (section.group(1) if section else "").splitlines():
        opened = re.match(r"- `lfmsemi\.(\w+)`", line)
        if opened:
            module, line = opened.group(1), line[opened.end():]
        elif not line.startswith("  "):
            module = None
        for name in re.findall(r"`(\.?[A-Za-z_]\w*)`", line) if module else ():
            if name.startswith("."):
                names.add(f"{module}.{owner}{name}")
            else:
                owner = name
                names.add(f"{module}.{name}")
    return names


def reason(name: str, pinned: set, api: set, calls: dict, seen=frozenset()):
    """Why the never-entered function *name* (``module.qualname``) may
    stay: PINNED, API or HELPER (a private name whose callers all have a
    reason, through helpers too); None when it has none."""
    if name in pinned:
        return PINNED
    if name in api:
        return API
    last = name.rsplit(".", 1)[-1]
    if not last.startswith("_") or last.startswith("__") or name in seen:
        return None
    owners = calls.get(last, set()) - {name}
    if owners and all(reason(o, pinned, api, calls, seen | {name}) for o in owners):
        return HELPER
    return None


# ---------------------------------------------------------------------------
# the ledger and its comparison


def ledger(reached: dict, totals: dict, never: dict, why) -> dict:
    """module -> reached and total body lines and the never-entered
    functions, each with ``why(module.qualname)``."""
    return {module: {"reached_lines": reached[module], "body_lines": totals[module],
                     "never_entered": {name: why(f"{module}.{name}")
                                       for name in never[module]}}
            for module in sorted(totals)}


def compare(stored: dict, current: dict) -> tuple:
    """(failure, notes) of a current ledger against the stored one: the
    failure names the first never-entered function the stored ledger does
    not list, else the first with no reason to stay, modules and names in
    sorted order; None when there is neither.  The notes list each function
    the stored ledger lists as never entered and the current one does not."""
    notes = []
    for module in sorted(stored):
        now = current.get(module, {}).get("never_entered", {})
        notes += [f"{module}.{name} is no longer listed as never entered"
                  for name in sorted(stored[module]["never_entered"]) if name not in now]
    for module in sorted(current):
        was = stored.get(module, {}).get("never_entered", {})
        for name in sorted(current[module]["never_entered"]):
            if name not in was:
                return (f"{module}.{name} is never entered, and the stored ledger does "
                        "not list it", notes)
    for module in sorted(current):
        for name, why in sorted(current[module]["never_entered"].items()):
            if why is None:
                return (f"{module}.{name} is never entered, and it is neither pinned by "
                        "perfbench, nor in README's Library API, nor a private helper "
                        "reached only from those", notes)
    return None, notes


# ---------------------------------------------------------------------------
# the traced corpus


class _Probe:
    """The code objects entered and the lines run in the files of *paths*."""

    def __init__(self, paths):
        self.lines = {str(p): set() for p in paths}
        self.entered = set()  # (file, first line, name)

    def call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.lines:
            return None
        self.entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self.line


def _corpus(scratch: Path) -> None:
    """Run the corpus of the module docstring, its printed output discarded."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS), str(ROOT / "perfbench")]
    import census
    import report_hashes
    from lfmsemi import cli

    if Path(cli.__file__).resolve().parent != SRC:
        raise SystemExit(f"imported lfmsemi from {cli.__file__}, not {SRC}")
    golden = sorted((ROOT / "tests" / "golden").glob("**/*.report.json"))
    for report in golden:
        stored = json.loads(report.read_text())
        spec = report.with_name(report.name[: -len(".report.json")] + ".json")
        cli.main(["report", str(spec), "--seed", str(stored["seed"]),
                  "--tol-profile", stored["tol_profile"], "--output", str(scratch / "r.json")])
    cli.main(["report", str(ROOT / "tests" / "golden" / "elliptic_u0_ball_n2.json"),
              "--t", "[0, 0.5, 1.5]", "--z0", "[[0.1, 0.2], [0, -0.3]]",
              "--csv", str(scratch / "t.csv"), "--output", "-"])
    cli.main(["report"])  # a usage error: no spec
    census.main([])
    report_hashes.benchmark_reports()
    example = re.search(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(example.group(1), "README.md", "exec"), {"__name__": "readme_example"})


def measure() -> tuple:
    """Trace the corpus: (reached lines, body lines, never-entered names),
    each a dict keyed by module name."""
    paths = sorted(SRC.glob("*.py"))
    probe = _Probe(paths)
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(probe.call)
        try:
            _corpus(Path(scratch))
        finally:
            sys.settrace(None)
    reached, totals, never = {}, {}, {}
    for path in paths:
        source = path.read_text(encoding="utf-8")
        defs = functions(source)
        every = set().union(*body_lines(source, str(path), set(defs.values())).values())
        module = path.stem
        reached[module] = len(every & probe.lines[str(path)])
        totals[module] = len(every)
        never[module] = [name for name, (first, short) in defs.items()
                         if (str(path), first, short) not in probe.entered]
    return reached, totals, never


def reasons():
    """The ``reason`` of a ``module.qualname``, from the benchmark's pins,
    README's Library API section and the callers in ``src/lfmsemi``."""
    from perfbench_pins import pinned

    pins = pinned()
    api = documented(README.read_text(encoding="utf-8"))
    calls = callers({p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))})
    return lambda name: reason(name, pins, api, calls)


def table(current: dict) -> list:
    rows = []
    for module, entry in current.items():
        never = entry["never_entered"]
        rows.append(f"{module:<13} {entry['reached_lines']:>4} of {entry['body_lines']:>4} "
                    f"body lines reached, {len(never)} functions never entered")
        rows += [f"    {name} ({why or 'NO REASON'})" for name, why in never.items()]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help=f"store the ledger in {LEDGER.name}")
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {LEDGER.name}; exit 1 on a function newly never "
                           "entered or one with no reason to stay")
    args = parser.parse_args(argv)
    current = ledger(*measure(), reasons())
    print("\n".join(table(current)))
    if args.json:
        LEDGER.write_text(json.dumps(current, indent=2) + "\n")
        print(f"stored the ledger of {len(current)} modules in {LEDGER}")
    if args.check:
        failure, notes = compare(json.loads(LEDGER.read_text()), current)
        print("\n".join(notes + [failure or f"the never-entered functions of {len(current)} "
                                            f"modules match {LEDGER.name}"]))
        return 1 if failure else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
