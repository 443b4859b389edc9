"""The family layer and the verify checks refuse malformed arguments with
an LfmError naming what is wrong, not a bare numpy error, a warning or a
silently ignored value.

- ``SemigroupFamily`` takes the domains ``"ball"`` and ``"siegel"`` only,
  ``at_many`` takes a scalar or a 1-d grid of times, and the first build
  refuses a generator with an entry that is not finite;
- the field of ``generator`` refuses a point of another width;
- ``verify_family``, ``check_semigroup_law`` and ``check_generator`` read
  their grid through the reader of ``at_many`` before any map is built and
  refuse an empty one; ``check_generator`` needs a finite step ``h > 0``,
  ``check_time_one`` a target map, and the ``tols`` of ``verify_family``
  name tolerances of ``DEFAULT_TOLS``, each a finite number >= 0;
- every public check reads its ``tol`` as ``verify_family`` reads its
  ``tols``, and takes a ``SamplerCfg`` only, before any map is built.
"""

import re
import warnings

import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.embedding import SemigroupFamily, build_semigroup, embed_map, generator
from lfmsemi.errors import DimensionError, DomainError
from lfmsemi.maps import BallMap
from lfmsemi.verify import (DEFAULT_TOLS, SamplerCfg, check_generator, check_identity_at_zero,
                            check_self_map, check_semigroup_law, check_time_one, verify_family)


def _ball_family():
    return build_semigroup(embed_map(BallMap([[0.5]], [0], [0])))


def _siegel_family():
    """The family of the library example of README: (z + 1/2) / (z/2 + 1)."""
    return build_semigroup(embed_map(BallMap(A=[[1.0]], B=[0.5], C=[0.5], D=1.0)))


@pytest.fixture(params=["ball", "siegel"])
def family(request):
    return _ball_family() if request.param == "ball" else _siegel_family()


# ---------------------------------------------------------------------------
# the family layer


@pytest.mark.parametrize("domain", ["disk", "", None, "Ball"])
def test_family_refuses_an_unknown_domain(domain):
    g = _ball_family().G
    with pytest.raises(DomainError, match=f"^unknown domain {domain!r}$"):
        SemigroupFamily("x", g, domain)


def test_each_domain_has_one_builder():
    assert emb._FLOWS == {"ball": emb._BallFlow, "siegel": emb._SiegelFlow}
    g = _ball_family().G
    assert isinstance(SemigroupFamily("x", g, "ball").at_many([0.5]), BallMap)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_a_generator_with_a_non_finite_entry_is_refused(family, value):
    """Each entry of G in turn: one DomainError from the part of the flow
    that reads G alone, at any grid, the empty one too, and no warning; not
    an overflow of lam^t (a NaN x of a Siegel G), a warning at t = 0 (an
    infinite beta) or a flow margin of NaN (a ball G)."""
    n = len(family.G)
    for i, j in np.ndindex(n, n):
        g = family.G.copy()
        g[i, j] = value
        sg = SemigroupFamily(family.case_kind, g, family.domain)
        for ts in ([0.0, 0.5, 1.0], []):
            _refused(lambda: sg.at_many(ts), r"^the generator's entries must be finite$")
        assert "_flow" not in vars(sg)  # a refused step is not kept


@pytest.mark.parametrize("ts", [[[0.5, 1.0]], np.zeros((2, 2)), np.zeros((1, 1, 1))])
def test_at_many_refuses_a_grid_of_rank_two_or_more(family, ts):
    pattern = "^times must be a scalar or a 1-d grid, got shape " + re.escape(str(np.shape(ts)))
    with pytest.raises(DomainError, match=pattern + "$"):
        family.at_many(ts)
    # a scalar is a grid of one time, and an empty grid a stack of no map
    assert len(family.at_many(0.5)) == 1
    assert len(family.at_many([])) == 0
    assert np.array_equal(family.at_many(0.5)[0].to_proj().mat,
                          family.at(0.5).to_proj().mat)


@pytest.mark.parametrize("points", [np.zeros(3), np.zeros((4, 2)), np.zeros((2, 4, 3)), 0.5])
def test_generator_refuses_a_point_of_another_width(points):
    field = generator(_ball_family())  # dim 1
    with pytest.raises(DimensionError, match=r"^points must have 1 coordinates, got shape "):
        field(points)
    assert field(np.zeros(1)).shape == (1,) and field(np.zeros((4, 1))).shape == (4, 1)
    assert field(np.zeros((2, 4, 1))).shape == (2, 4, 1)


# ---------------------------------------------------------------------------
# the verify checks


def _cfg(sg):
    return SamplerCfg(domain=sg.domain)


def _refused(call, pattern):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=pattern):
            call()


@pytest.mark.parametrize("grid,pattern", [
    ((), r"^t_grid: the grid holds no time$"),
    ([], r"^t_grid: the grid holds no time$"),
    (("a",), r"^t_grid: times must be real numbers, got \('a',\)$"),
    (None, r"^t_grid: times must be real numbers, got None$"),
    ((-1.0,), r"^t_grid: time -1\.0 lies outside 0 <= t < inf"),
    ((0.5, float("nan")), r"^t_grid: time nan lies outside 0 <= t < inf"),
    (((0.5, 1.0),), r"^t_grid: times must be a scalar or a 1-d grid, got shape \(1, 2\)$"),
])
def test_checks_refuse_a_bad_grid_before_building_a_map(family, monkeypatch, grid, pattern):
    cfg = _cfg(family)
    monkeypatch.setattr(SemigroupFamily, "at_many", lambda *args: pytest.fail("a map was built"))
    _refused(lambda: verify_family(family, t_grid=grid), pattern)
    _refused(lambda: check_semigroup_law(family, grid, cfg), pattern)
    _refused(lambda: check_generator(family, cfg, t_grid=grid), pattern)


def test_check_generator_takes_a_finite_step_above_zero(family):
    cfg = _cfg(family)
    for h in (0.0, -1e-3, float("nan"), float("inf"), "x", True, [1e-3], 1j):
        _refused(lambda: check_generator(family, cfg, h=h), r"^h must be a finite number > 0, got ")
    for h in (2e-3, 1e-3, np.float64(1e-3), 1):  # the steps of the acceptance criterion, and more
        assert check_generator(family, cfg, h=h).check_id == "generator_fd"


def test_check_time_one_refuses_no_target(family):
    _refused(lambda: check_time_one(family, None, _cfg(family)),
             r"^target_map: a map is required, got None$")


@pytest.mark.parametrize("tols,pattern", [
    ({"selfmap": 1e-3}, r"^tols: unknown key 'selfmap', expected one of \["),
    ({"law": "x"}, r"^tols\['law'\] must be a finite number >= 0, got 'x'$"),
    ({"law": -1e-8}, r"^tols\['law'\] must be a finite number >= 0, got -1e-08$"),
    ({"law": float("nan")}, r"^tols\['law'\] must be a finite number >= 0, got nan$"),
    ({"law": None}, r"^tols\['law'\] must be a finite number >= 0, got None$"),
    ([("law", 1e-8)], r"^tols must be a dict, got "),
])
def test_verify_family_refuses_bad_tolerances(family, tols, pattern):
    _refused(lambda: verify_family(family, tols=tols), pattern)


def test_verify_family_reads_its_grid_and_tolerances(family):
    _refused(lambda: verify_family(family, tols={"selfmap": 1e-3}), "^tols: unknown key ")
    cfg = _cfg(family)
    reports = verify_family(family, cfg, t_grid=(0.35, 0.8))  # the acceptance criterion's grid
    assert [r.check_id for r in reports][:3] == ["identity_at_zero", "semigroup_law", "self_map"]
    assert check_semigroup_law(family, 0.5, cfg).samples_used == cfg.count
    by_id = {r.check_id: r.tolerance for r in verify_family(family, tols={"law": 1e-3})}
    assert by_id["semigroup_law"] == 1e-3 and by_id["self_map"] == DEFAULT_TOLS["self_map"]
    zeros = {key: 0 for key in DEFAULT_TOLS}
    assert all(r.tolerance == 0.0 for r in verify_family(family, tols=zeros))


# the four calls that raised TypeError or AttributeError, or reported an
# exact identity as FAIL, when tol and cfg were read unchecked


def test_check_semigroup_law_refuses_a_tolerance_that_is_no_number(family, monkeypatch):
    cfg = _cfg(family)
    monkeypatch.setattr(SemigroupFamily, "at_many", lambda *args: pytest.fail("a map was built"))
    _refused(lambda: check_semigroup_law(family, (0.5,), cfg, tol="x"),
             r"^tol must be a finite number >= 0, got 'x'$")


def test_check_identity_at_zero_refuses_a_negative_tolerance(family):
    cfg = _cfg(family)
    _refused(lambda: check_identity_at_zero(family, cfg, tol=-1.0),
             r"^tol must be a finite number >= 0, got -1\.0$")
    report = check_identity_at_zero(family, cfg, tol=0)  # at(0) is the identity exactly
    assert report.passed and report.worst_margin == 0.0 and report.tolerance == 0.0


def test_check_self_map_refuses_a_nan_tolerance(family):
    cfg = _cfg(family)
    _refused(lambda: check_self_map(family.at(0.5), cfg, tol=float("nan")),
             r"^tol must be a finite number >= 0, got nan$")
    assert check_self_map(family.at(0.5), cfg, tol=np.float64(1e-9)).passed


@pytest.mark.parametrize("cfg", [None, "ball", {"seed": 0}])
def test_checks_refuse_a_sampler_that_is_no_sampler_cfg(family, monkeypatch, cfg):
    f = family.at(0.5)
    monkeypatch.setattr(SemigroupFamily, "at_many", lambda *args: pytest.fail("a map was built"))
    pattern = "^cfg must be a SamplerCfg, got " + re.escape(repr(cfg)) + "$"
    _refused(lambda: check_self_map(f, cfg), pattern)
    _refused(lambda: check_semigroup_law(family, (0.5,), cfg), pattern)
    _refused(lambda: check_identity_at_zero(family, cfg), pattern)
    _refused(lambda: check_time_one(family, family.target, cfg), pattern)
    _refused(lambda: check_generator(family, cfg), pattern)
    if cfg is not None:  # verify_family's default sampler
        _refused(lambda: verify_family(family, cfg), pattern)
