"""Run the test suite from a bare checkout: import ``lfmsemi`` from ``src/``.

``src/`` also goes on ``PYTHONPATH``, so that subprocesses started by the
tests (the CLI determinism criterion) import the same checkout.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
