"""Stage prefixes and exit codes of ``run_pipeline``: for every golden spec
and every ``stop_after``, the stages of the shortened run are the first
stages of the full report, and its exit status is 3 on any error, 0 when
the run stops before ``embed``, the verdict's code when it stops at
``embed`` or ``semigroup``, and the full report's code at ``verify``.

Two error cases run at every ``stop_after`` as well: a spec that is not a
self-map (an input error, every stage skipped) and a start point outside
the ball (a ``semigroup`` stage error)."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from lfmsemi.cli import (
    EXIT_CONDITION_FAILS,
    EXIT_EMBEDDABLE,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    STAGES,
    run_pipeline,
)
from lfmsemi.embedding import CONDITION_FAILS, EMBEDDABLE, INCONCLUSIVE

from test_cli_options import HALF_SCALING_2D

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_NAMES = sorted(str(p.relative_to(GOLDEN))[: -len(".report.json")]
                      for p in GOLDEN.rglob("*.report.json"))

VERDICT_EXIT = {EMBEDDABLE: EXIT_EMBEDDABLE, CONDITION_FAILS: EXIT_CONDITION_FAILS,
                INCONCLUSIVE: EXIT_INCONCLUSIVE}

# z -> 2z sends the ball outside itself
NOT_A_SELF_MAP = {**HALF_SCALING_2D,
                  "A": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}

ERROR_CASES = {
    "not_a_self_map": (NOT_A_SELF_MAP, {}),
    "z0_outside_the_ball": (HALF_SCALING_2D, {"z0": [2.0, 0.0]}),
}


def _case(name):
    """(spec, keyword arguments of run_pipeline) of a case name."""
    if name in ERROR_CASES:
        return ERROR_CASES[name]
    stored = json.loads((GOLDEN / f"{name}.report.json").read_text())
    spec = json.loads((GOLDEN / f"{name}.json").read_text())
    return spec, {"seed": stored["seed"], "tol_profile": stored["tol_profile"]}


@functools.lru_cache(maxsize=None)
def _full_report(name):
    spec, kwargs = _case(name)
    return run_pipeline(spec, **kwargs)


def _expected_exit(full, stop_after):
    ran = STAGES[: STAGES.index(stop_after) + 1]
    if "error" in full or any(full["stages"][s]["status"] == "error" for s in ran):
        return EXIT_INPUT_ERROR
    if stop_after == "verify":
        return full["exit_status"]
    if "embed" not in ran:
        return EXIT_EMBEDDABLE
    return VERDICT_EXIT[full["stages"]["embed"]["verdict"]]


def test_corpus_present():
    assert len(GOLDEN_NAMES) == 34


@pytest.mark.parametrize("stop_after", STAGES)
@pytest.mark.parametrize("name", GOLDEN_NAMES + sorted(ERROR_CASES))
def test_prefix_and_exit_status(name, stop_after):
    spec, kwargs = _case(name)
    full = _full_report(name)
    report = run_pipeline(spec, stop_after=stop_after, **kwargs)
    ran = STAGES[: STAGES.index(stop_after) + 1]
    assert report["stages"] == {s: full["stages"][s] for s in ran}
    assert report.get("error") == full.get("error")
    assert report["exit_status"] == _expected_exit(full, stop_after)


def test_error_cases_fail_where_they_should():
    """The two error cases stop the pipeline where their names say."""
    bad_spec = _full_report("not_a_self_map")
    assert bad_spec["error"].startswith("constructor invariant violated")
    assert bad_spec["stages"] == {s: {"status": "skipped"} for s in STAGES}
    bad_start = _full_report("z0_outside_the_ball")["stages"]
    assert [bad_start[s]["status"] for s in STAGES] == ["ok", "ok", "ok", "error", "skipped"]
    assert "outside the ball domain" in bad_start["semigroup"]["error"]
    assert bad_start["embed"]["verdict"] == EMBEDDABLE
