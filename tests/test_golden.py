"""Golden reports: every spec under tests/golden/ must reproduce its stored
``report`` output.

Each case and dimension 1, 2 and 4 appears with a ball and a Siegel input
(an elliptic map with unitary index >= 1 has no Siegel-side affine form in
dimension 1), plus an elliptic ``condition_fails``, a parabolic and a
hyperbolic ``condition_fails``, a parabolic map with a non-normal
contraction block (``inconclusive``), a parabolic map whose contraction
eigenvalue has argument -2 and whose Im b lies between the principal
branch's budget and the paper's (it embeds), and an elliptic u0 map run
with ``--seed 12345``, a seed that reaches only the verification stage (the
u0 criterion is decided exactly and draws no samples), and two singular
maps, an elliptic u0 and a parabolic one, which no semigroup holds
(``condition_fails`` with the one margin ``invertible``: each has an
exactly zero eigenvalue).

Strings, integers and booleans must match exactly; floats within
1e-12 + 1e-9 |x|, so that another BLAS build does not fail the test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from lfmsemi.cli import run_pipeline

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.name[: -len(".report.json")] for p in GOLDEN.glob("*.report.json"))


def _mismatches(got, want, where="report"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isfinite(want) and abs(got - want) <= 1e-12 + 1e-9 * abs(want):
            return []
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def test_corpus_present():
    assert len(NAMES) == 31
    assert all((GOLDEN / f"{name}.json").exists() for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name):
    spec = json.loads((GOLDEN / f"{name}.json").read_text())
    want = json.loads((GOLDEN / f"{name}.report.json").read_text())
    report = run_pipeline(spec, seed=want["seed"], tol_profile=want["tol_profile"])
    got = json.loads(json.dumps(report, sort_keys=True))
    assert _mismatches(got, want) == []
