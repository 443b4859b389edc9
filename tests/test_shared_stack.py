"""One stack per report: the semigroup stage and the verify battery read
the maps of one ``at_many``.

When a run goes on to ``verify``, the semigroup stage builds the family at
the battery's times and then at the trajectory times the battery lacks
(``verify._battery_stack``); the trajectory rows are read off that stack and
the battery evaluates its sample on its own rows, the stack's first.  These
tests pin that such a report has the bytes of one assembled from separate
``emit_trajectory`` and ``verify_family`` calls (on a grid disjoint from the
battery's times and on a 401-time grid), that the battery's ``eval_many``
sees only its own rows, that a report builds its family once, and that an
error stays with its stage: a family whose build fails beyond t = 2 keeps
its trajectory and fails ``verify``, and one whose build fails only at a
trajectory time fails ``semigroup``, each with the error of that stage's
own build.
"""

import json

import numpy as np
import pytest

from lfmsemi import cli, verify
from lfmsemi.cli import TOL_PROFILES, emit_trajectory, parse_map_spec, run_pipeline
from lfmsemi.embedding import SemigroupFamily, build_semigroup, certify
from lfmsemi.errors import NumericError
from lfmsemi.maps import SIEGEL, BallMap, SiegelMap, cayley_to_ball
from lfmsemi.normal_forms import normal_form
from lfmsemi.verify import SamplerCfg, verify_family

from test_flow_generator import GOLDEN_SPECS

EMBEDDABLE = [p for p in GOLDEN_SPECS
              if json.loads(p.with_suffix(".report.json").read_text())["stages"]
              .get("verify", {}).get("status") == "ok"]

#: trajectory times that no battery time equals
DISJOINT_GRID = (0.1, 0.3, 0.7, 1.1, 2.6, 4.0)
DENSE_GRID = tuple((np.arange(401) / 200.0).tolist())


def _spec(path):
    return json.loads(path.read_text())


def _stored(path):
    return json.loads(path.with_suffix(".report.json").read_text())


def _family(spec):
    f = parse_map_spec(spec)
    return build_semigroup(certify(normal_form(cayley_to_ball(f) if isinstance(f, SiegelMap)
                                               else f)))


def _battery_times(sg) -> list:
    """The distinct times of ``verify_family``'s battery on its default grid."""
    return verify._battery(sg, None, list(verify.BATTERY_GRID))[1]


def _text(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _separate_report(spec, seed, profile, grid) -> dict:
    """The report of a run whose trajectory and battery each build their own
    maps: the ``semigroup`` prefix (``emit_trajectory`` on the family), then
    ``verify_family`` on the family."""
    report = run_pipeline(spec, seed=seed, tol_profile=profile, t_grid=grid,
                          stop_after="semigroup")
    sg = _family(spec)
    reports = verify_family(sg, SamplerCfg(seed=seed, domain=sg.domain),
                            tols=TOL_PROFILES[profile])
    report["stages"]["verify"] = cli.to_jsonable({
        "status": "ok",
        "checks": [cli._check_entry(r) for r in reports],
        "all_passed": all(r.passed for r in reports),
    })
    report["exit_status"] = cli._exit_status(report)
    return report


def test_corpus_holds_both_domains():
    domains = {_family(_spec(p)).domain for p in EMBEDDABLE}
    assert len(EMBEDDABLE) >= 20 and domains == {"ball", "siegel"}


def test_disjoint_grid_lacks_every_battery_time():
    for path in EMBEDDABLE:
        sg = _family(_spec(path))
        battery = _battery_times(sg)
        assert not set(battery) & set(DISJOINT_GRID)


@pytest.mark.parametrize("grid", [DISJOINT_GRID, DENSE_GRID], ids=["disjoint", "dense"])
def test_report_is_the_separate_builds(grid, monkeypatch):
    """The report of one stack has the bytes of the separate builds', and the
    battery evaluates its sample on its own rows only."""
    paths = EMBEDDABLE if grid is DISJOINT_GRID else EMBEDDABLE[::4]
    for path in paths:
        stored = _stored(path)
        spec, seed, profile = _spec(path), stored["seed"], stored["tol_profile"]
        want = _text(_separate_report(spec, seed, profile, grid))
        stacks = []
        for cls in (BallMap, SiegelMap):
            monkeypatch.setattr(cls, "eval_many", _recording(stacks, cls.eval_many))
        got = _text(run_pipeline(spec, seed=seed, tol_profile=profile, t_grid=grid))
        monkeypatch.undo()
        assert got == want, path.name
        battery = _battery_times(_family(spec))
        # the sample on the battery's rows, then the law's compositions
        assert stacks[0] == len(battery) and max(stacks) == len(battery), path.name


def _recording(sizes, eval_many):
    """eval_many, recording the number of maps of each stack it evaluates."""
    def wrapper(self, zs):
        if np.ndim(self.A if isinstance(self, BallMap) else self.M) == 3:
            sizes.append(len(self))
        return eval_many(self, zs)
    return wrapper


@pytest.mark.parametrize("stop_after", ["verify", "semigroup"])
def test_a_report_builds_its_family_once(stop_after, monkeypatch):
    builds = []
    at_many = SemigroupFamily.at_many
    monkeypatch.setattr(SemigroupFamily, "at_many",
                        lambda self, ts: builds.append(len(ts)) or at_many(self, ts))
    for path in EMBEDDABLE[::3]:
        builds.clear()
        report = run_pipeline(_spec(path), stop_after=stop_after)
        assert report["stages"][stop_after]["status"] == "ok"
        assert len(builds) == 1, path.name


# ---------------------------------------------------------------------------
# each error stays with its stage

SIEGEL_SPEC = _spec(next(p for p in EMBEDDABLE if _family(_spec(p)).domain == SIEGEL
                         and _spec(p)["dimension"] == 1))


def _dilation(rate: float) -> SemigroupFamily:
    """The family z -> e^{rate t} z on the half-plane H^1, whose build
    overflows beyond t = 709.78 / rate."""
    return SemigroupFamily("hyperbolic", np.array([[rate, 0.0], [0.0, 0.0]], dtype=complex),
                           SIEGEL)


def _build_error(sg, ts) -> str:
    with pytest.raises(NumericError) as exc:
        sg.at_many(ts)
    return str(exc.value)


def test_a_family_failing_beyond_two_fails_verify_only(monkeypatch):
    sg = _dilation(354.8)  # fails beyond t = 2.0005, inside the battery's times
    monkeypatch.setattr(cli, "build_semigroup", lambda cert: sg)
    report = run_pipeline(SIEGEL_SPEC)
    semigroup, stage = report["stages"]["semigroup"], report["stages"]["verify"]
    assert semigroup["status"] == "ok"
    assert semigroup["trajectory"] == emit_trajectory(sg, [1j], cli.DEFAULT_T_GRID)
    # the message of the battery's own build, as before the shared stack
    message = "time 2.25: t*log(lam) = 798.3 > 709, so lam^t overflows a double"
    assert _build_error(sg, _battery_times(sg)) == message
    assert stage == {"status": "error", "error": message}
    assert report["exit_status"] == cli.EXIT_INPUT_ERROR


def test_a_family_failing_at_a_trajectory_time_fails_semigroup(monkeypatch):
    sg = _dilation(150.0)  # fails beyond t = 4.73, after every battery time
    monkeypatch.setattr(cli, "build_semigroup", lambda cert: sg)
    grid = (0.0, 1.0, 5.0)
    report = run_pipeline(SIEGEL_SPEC, t_grid=grid)
    message = "time 5.0: t*log(lam) = 750 > 709, so lam^t overflows a double"
    assert _build_error(sg, grid) == message
    assert report["stages"]["semigroup"] == {"status": "error", "error": message}
    assert report["stages"]["verify"] == {"status": "skipped"}
    battery = _battery_times(sg)
    assert len(sg.at_many(battery)) == len(battery)  # the battery's times alone build


def test_a_negative_zero_time_gets_its_own_map():
    sg = _family(SIEGEL_SPEC)
    grid = (-0.0, 0.0, 0.5)
    stacked = verify._battery_stack(sg, np.array(grid))
    assert len(stacked.times) == len(_battery_times(sg)) + 1
    assert np.signbit(stacked.times[-1]) and stacked.times[-1] == 0.0
    start = cli._default_start(sg)
    assert emit_trajectory(stacked, start, grid) == emit_trajectory(sg, start, grid)
