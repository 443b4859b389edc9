"""Count the options of the library: the parameters with a default value
and the dataclass fields with a default value in ``src/lfmsemi``, read off
the syntax tree of each module.

    python tests/option_count.py          # the count
    python tests/option_count.py --list   # one line per option, then the count

Each line of ``--list`` reads ``module.py:line  owner.name``, where the
owner is the function or the dataclass.
"""

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lfmsemi"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _defaulted_parameters(args: ast.arguments) -> list:
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults):]
    return with_default + [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def options(src: Path = SRC) -> list:
    """(module, line, owner, name) of every option, in source order."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                owner = getattr(node, "name", "<lambda>")
                found += [(path.name, a.lineno, owner, a.arg)
                          for a in _defaulted_parameters(node.args)]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [(path.name, item.lineno, node.name, item.target.id)
                          for item in node.body if isinstance(item, ast.AnnAssign)
                          and item.value is not None and isinstance(item.target, ast.Name)]
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="name each option")
    args = parser.parse_args(argv)
    found = options()
    if args.list:
        for module, line, owner, name in found:
            print(f"{module}:{line}  {owner}.{name}")
    print(f"defaulted parameters and dataclass fields in src/lfmsemi: {len(found)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
