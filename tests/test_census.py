"""The census corpora of ``tests/census.py`` are seeded: two runs, each
drawing its maps anew, give the same table of outcomes and the same
largest report."""

import census


def _run():
    counts, _, largest = census.tally(census.siegel_dilation() + census.automorphisms()[:20])
    return counts, largest


def test_census_is_deterministic():
    (counts, largest), (again, largest_again) = _run(), _run()
    assert sum(counts.values()) == 37
    assert counts == again and largest == largest_again
