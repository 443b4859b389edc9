"""Print what the pipeline makes of three seeded corpora of maps, one table
per corpus.

- ``automorphisms``: 200 ball automorphisms U o phi_a, from
  ``np.random.default_rng(0)``: dims 1-4, then |a| in {0.3, 0.9, 0.99,
  0.999, 0.9999}, then 10 maps per cell.  Each map draws U (Haar, QR with
  the phases of R's diagonal taken out), then the direction of a.  phi_a is
  ``lfmsemi.ball_automorphism(a)``.  Every one of them embeds.
- ``siegel_dilation``: the half-plane automorphisms z -> lam z + 0.3 of
  dim 1, for 17 log-spaced lam from 1e3 to 1e7.  Every one of them embeds.
- ``dead_band``: the hyperbolic maps of ``perfbench/specs.hyperbolic_spec``
  with dilation 1 + 10^-k, k = 1..14, contraction block only, in dims 1-4,
  each drawn from ``np.random.default_rng([n, k])``.  Every one of them
  embeds; the small k lie in the dead band of the classifier.

Each map runs through ``cli.run_pipeline`` with its defaults.  A table
counts the maps of each (class, verdict, exit status, first failure),
where the first failure is the input or stage error, with its decimal
numbers replaced by ``#``, or else the first verify check that failed.  Below it
stand the worst wall time of one run and the largest report, in bytes of
the text ``lfmsemi report`` writes.

Run from anywhere, with the checkout's ``src`` importable::

    python tests/census.py

Pytest does not collect this file; it reads ``perfbench/`` and writes
nothing there.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from lfmsemi import ball_automorphism  # noqa: E402
from lfmsemi.cli import run_pipeline, to_jsonable  # noqa: E402

#: a decimal or exponent number, the measured values of an error message
_NUMBER = re.compile(r"[-+]?\d+(\.\d*(e[-+]?\d+)?|e[-+]?\d+)")


def automorphisms() -> list:
    import specs

    rng = np.random.default_rng(0)
    out = []
    for n in range(1, 5):
        for radius in (0.3, 0.9, 0.99, 0.999, 0.9999):
            for _ in range(10):
                u = specs.random_unitary(rng, n)
                direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                phi = ball_automorphism(radius * direction / np.linalg.norm(direction))
                out.append({"dimension": n, "domain": "ball", "A": to_jsonable(u @ phi.A),
                            "B": to_jsonable(u @ phi.B), "C": to_jsonable(phi.C),
                            "D": to_jsonable(phi.D)})
    return out


def siegel_dilation() -> list:
    return [{"domain": "siegel", "dimension": 1, "lambda": [float(lam), 0.0], "b": [0.3, 0.0]}
            for lam in np.logspace(3, 7, 17)]


def dead_band() -> list:
    import specs

    return [specs.hyperbolic_spec(np.random.default_rng([n, k]), n, 3,
                                  dilation=1 + 10.0 ** -k, contraction_only=True)
            for k in range(1, 15) for n in range(1, 5)]


CORPORA = {"automorphisms": automorphisms, "siegel_dilation": siegel_dilation,
           "dead_band": dead_band}


def outcome(report: dict) -> tuple:
    """(class, verdict, exit status, first failure) of one report; "-"
    where the run has none."""
    stages = report["stages"]
    first = "-"
    if "error" in report:
        first = f"input error: {report['error']}"
    else:
        for name, entry in stages.items():
            if entry["status"] == "error":
                first = f"{name} error: {entry['error']}"
                break
        else:
            failed = [c["check_id"] for c in stages.get("verify", {}).get("checks", [])
                      if not c["passed"]]
            first = failed[0] if failed else "-"
    return (stages.get("classify", {}).get("kind") or "-",
            stages.get("embed", {}).get("verdict") or "-",
            report["exit_status"], _NUMBER.sub("#", first))


def tally(spec_list) -> tuple:
    """(Counter of outcomes, worst wall time in s, largest report in bytes)."""
    counts, worst, largest = Counter(), 0.0, 0
    for spec in spec_list:
        start = time.perf_counter()
        report = run_pipeline(spec)
        worst = max(worst, time.perf_counter() - start)
        counts[outcome(report)] += 1
        largest = max(largest, len(json.dumps(report, sort_keys=True, indent=2)) + 1)
    return counts, worst, largest


def table(name: str, counts: Counter, worst: float, largest: int) -> list:
    rows = [f"{name} ({sum(counts.values())} maps)",
            f"  {'count':>5}  {'class':<10}  {'verdict':<15}  exit  first failure"]
    for (kind, verdict, status, first), count in sorted(counts.items(),
                                                        key=lambda item: (item[0][2], item[0])):
        rows.append(f"  {count:>5}  {kind:<10}  {verdict:<15}  {status:>4}  {first}")
    rows.append(f"  worst wall time {worst:.3f} s, largest report {largest} bytes")
    return rows


def main() -> int:
    for name, build in CORPORA.items():
        print("\n".join(table(name, *tally(build()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
