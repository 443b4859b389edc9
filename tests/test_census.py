"""The census corpora of ``tests/census.py`` are seeded: two runs, each
drawing its maps anew, give the same table of outcomes, the same largest
report and the same largest chain residual (and, for
``perturbed_hyperbolic``, the same largest user-coordinate miss).  The
ledger check passes on an equal table and names a count that moved."""

import json

import census


def _twice(build):
    """The table of two runs of the corpus *build* draws, each drawn anew:
    (counts, largest report, largest chain residual)."""
    runs = [census.tally(build()) for _ in range(2)]
    return [(counts, largest, residual) for counts, _, largest, residual in runs]


def test_census_is_deterministic():
    first, again = _twice(lambda: census.siegel_dilation() + census.automorphisms()[:20])
    assert sum(first[0].values()) == 37
    assert first == again


def test_conjugates_are_deterministic():
    # the six conjugates of each of the first two goldens, sorted by path
    first, again = _twice(lambda: census.conjugates()[:12])
    assert sum(first[0].values()) == 12
    assert first == again


def test_perturbed_hyperbolic_is_deterministic():
    first, again = _twice(census.perturbed_hyperbolic)
    assert sum(first[0].values()) == 6
    assert first == again
    misses = [census.user_miss(census.perturbed_hyperbolic()) for _ in range(2)]
    assert misses[0] == misses[1] and misses[0][1] >= 1


def test_nonnormal_blocks_are_deterministic():
    first, again = _twice(census.nonnormal_blocks)
    assert sum(first[0].values()) == 26
    assert first == again


def _counted() -> dict:
    """corpus -> Counter of outcomes for the cheapest corpus, counted anew."""
    return {"siegel_dilation": census.tally(census.siegel_dilation())[0]}


def test_ledger_check_passes_on_an_equal_table():
    counted = _counted()
    assert census.first_moved(census.from_ledger(census.to_ledger(counted)), counted) is None
    # the stored ledger holds every corpus, and this one's counts as counted now
    stored = census.from_ledger(json.loads(census.LEDGER.read_text()))
    assert list(stored) == list(census.CORPORA)
    assert census.first_moved({"siegel_dilation": stored["siegel_dilation"]}, counted) is None


def test_ledger_check_names_an_edited_count():
    counted = _counted()
    ledger = census.to_ledger(counted)
    row = ledger["siegel_dilation"][-1]
    row["count"] += 1
    outcome = (row["class"], row["verdict"], row["exit"], row["first_failure"])
    assert census.first_moved(census.from_ledger(ledger), counted) == (
        "siegel_dilation", outcome, counted["siegel_dilation"][outcome] + 1,
        counted["siegel_dilation"][outcome])


def test_ledger_check_exits_1_naming_the_moved_outcome(tmp_path, monkeypatch, capsys):
    # the script end to end on the cheapest corpus, against its stored
    # counts with one edited
    ledger = {"siegel_dilation": json.loads(census.LEDGER.read_text())["siegel_dilation"]}
    ledger["siegel_dilation"][0]["count"] += 1
    edited = tmp_path / "census.json"
    edited.write_text(json.dumps(ledger))
    monkeypatch.setattr(census, "LEDGER", edited)
    monkeypatch.setattr(census, "CORPORA", {"siegel_dilation": census.siegel_dilation})
    assert census.main(["--check"]) == 1
    row = ledger["siegel_dilation"][0]
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"siegel_dilation: ('{row['class']}', '{row['verdict']}', {row['exit']}, "
        f"'{row['first_failure']}') counts {row['count'] - 1}, stored {row['count']}")
