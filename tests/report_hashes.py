"""Print two sha256 hashes that change whenever any report of the pipeline
changes by a single byte.

- ``goldens``: over the reports of the specs under ``tests/golden`` (every
  ``*.report.json``, sorted by path), each regenerated as
  ``json.dumps(run_pipeline(spec, seed, tol_profile), sort_keys=True,
  indent=2) + "\\n"`` with the seed and tolerance profile its stored report
  names.  When the stored files are current, this is also the hash of the
  stored files.
- ``benchmark``: over the report text of every map of one cycle of every
  benchmark workload (``perfbench/workloads.py``, workloads by name),
  seeds 1 and 2, as ``workloads.run_case`` writes it.

Run from anywhere, with the checkout's ``src`` importable::

    python tests/report_hashes.py                  # print both hashes
    python tests/report_hashes.py --check          # compare the goldens byte for byte
    python tests/report_hashes.py --write-goldens  # re-store every golden report

``--check`` compares each regenerated golden report with its stored file,
lists the files that differ, each with the first JSON path at which it
differs (keys in sorted order, list items by index, as in
``stages.normal_form.chain_residual``), and exits 1 if any does (after
printing the hashes).  It is not a CI step: a BLAS build that rounds
differently moves the last digits, which ``tests/test_golden.py`` allows
for with a tolerance.  ``--write-goldens`` rewrites each
``tests/golden/**/*.report.json`` with the regenerated text and then
prints the hashes.  Pytest does not collect this file; it reads
``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from lfmsemi.cli import run_pipeline  # noqa: E402

BENCH_SEEDS = (1, 2)


def golden_reports() -> dict:
    """Path -> regenerated report text of every golden spec."""
    texts = {}
    for path in sorted(GOLDEN.glob("**/*.report.json")):
        stored = json.loads(path.read_text())
        spec = json.loads(path.with_name(path.name[: -len(".report.json")] + ".json").read_text())
        report = run_pipeline(spec, seed=stored["seed"], tol_profile=stored["tol_profile"])
        texts[path] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return texts


def benchmark_reports() -> list:
    """The report text of every benchmark map, in hash order."""
    import workloads

    return [workloads.run_case(w, w.case(seed, i)).report_text
            for _, w in sorted(workloads.WORKLOADS.items())
            for seed in BENCH_SEEDS for i in range(len(w.cycle))]


_MISSING = object()


def first_difference(a, b, path: str = ""):
    """The first JSON path at which the parsed reports a and b differ, in
    sorted key order; None when they are equal.  A key that one side lacks,
    or a list whose length differs, is a difference at its own path."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(f"{path}.{key}" if path else key, a.get(key, _MISSING), b.get(key, _MISSING))
                 for key in sorted(a.keys() | b.keys())]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:
        return None if type(a) is type(b) and a == b else path or "(the whole report)"
    for at, x, y in pairs:
        where = first_difference(x, y, at)
        if where is not None:
            return where
    return None


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="exit 1 unless every stored golden report is regenerated byte for byte")
    mode.add_argument("--write-goldens", action="store_true",
                      help="re-store every golden report from the current code")
    args = parser.parse_args(argv)
    goldens = golden_reports()
    if args.write_goldens:
        for path, text in goldens.items():
            path.write_text(text)
    bench = benchmark_reports()
    print(f"goldens   ({len(goldens)} reports): {digest(goldens.values())}")
    print(f"benchmark ({len(bench)} reports): {digest(bench)}")
    if not args.check:
        return 0
    differ = [path for path, text in goldens.items() if path.read_bytes() != text.encode()]
    for path in differ:
        where = first_difference(json.loads(path.read_text()), json.loads(goldens[path]))
        print(f"differs: {path.relative_to(ROOT)} at {where or 'no JSON path (bytes only)'}")
    print(f"{len(goldens) - len(differ)} of {len(goldens)} stored golden reports match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
