"""Set-up probe: what every CLI invocation pays before its first result.

A fresh interpreter imports ``lfmsemi`` from the checkout's ``src/`` and
runs one warm-up map through the workload's subcommand prefix. The
parent (``run.py``) times the whole process from spawn to exit.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lfmsemi.cli  # noqa: E402,F401  (the import is part of what is measured)

import workloads  # noqa: E402


def main(argv) -> int:
    workload = workloads.WORKLOADS[argv[0]]
    outcome = workloads.run_case(workload, workloads.warmup_case(workload, int(argv[1])))
    if not outcome.ok:
        sys.stderr.write(f"warm-up map failed: {outcome.mismatches} {outcome.error}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
