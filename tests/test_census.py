"""The census corpora of ``tests/census.py`` are seeded: two runs, each
drawing its maps anew, give the same table of outcomes, the same largest
report and the same largest chain residual (and, for
``perturbed_hyperbolic``, the same largest user-coordinate miss)."""

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
