"""What the library reads off its input, and how it refuses malformed input.

- ``build_semigroup`` reads the family's domain off the certificate's
  target map;
- malformed input raises an LfmError, not a bare numpy exception: the
  complex converters (``linalg.as_vector``, ``as_matrix``, the ``BallMap``
  and ``SiegelMap`` constructors, ``mat_exp``, ``domain_margin``,
  ``pointwise_distance``, the field of ``generator``) turn a ragged
  nesting into a DimensionError and an entry that is not a number into a
  DomainError, and
  ``SemigroupFamily.at_many`` refuses a time that is not a real number;
- a seed or sample size that is not an int of the right range (a bool
  included) is refused by ``SamplerCfg`` and the samplers with the rule
  ``run_pipeline`` applies to its seed;
- ``run_pipeline`` reports a malformed start point or time grid as an
  error of the semigroup stage, exit 3, and a 0-d array in a spec as an
  input error, which the report's input echo survives.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import linalg
from lfmsemi.cli import EXIT_INPUT_ERROR, parse_map_spec, run_pipeline
from lfmsemi.embedding import EMBEDDABLE, build_semigroup, certify, generator
from lfmsemi.errors import DimensionError, DomainError, LfmError
from lfmsemi.maps import (BALL, SIEGEL, BallMap, SiegelMap, cayley_to_ball, domain_margin,
                          pointwise_distance, sample_ball_points, sample_siegel_points)
from lfmsemi.normal_forms import normal_form
from lfmsemi.verify import SamplerCfg, verify_family

GOLDEN = Path(__file__).resolve().parent / "golden"
SPEC = json.loads((GOLDEN / "elliptic_u0_ball_n1.json").read_text())
RAGGED = [[0.1], [0.2, 0.3]]


# ---------------------------------------------------------------------------
# the complex converters


@pytest.mark.parametrize("convert", [linalg.as_vector, linalg.as_matrix])
def test_ragged_input_is_a_dimension_error(convert):
    with pytest.raises(DimensionError, match="^expected a regular array of numbers"):
        convert(RAGGED)


@pytest.mark.parametrize("value", ["x", [["a"]], [0.1, "x"], object(), {1: 2}])
@pytest.mark.parametrize("convert", [linalg.as_vector, linalg.as_matrix])
def test_non_numeric_input_is_a_domain_error(convert, value):
    with pytest.raises(DomainError, match="^entries must be numbers: "):
        convert(value)


@pytest.mark.parametrize("fields", [("x", [0], [0]), ([[0.5]], ["x"], [0]),
                                    ([[0.5]], [0], [object()]), ([[0.5]], [0], [0], "x")])
def test_ball_map_refuses_non_numeric_fields(fields):
    with pytest.raises(DomainError, match="^entries must be numbers: "):
        BallMap(*fields)


def test_ball_map_refuses_ragged_fields_and_an_array_d():
    with pytest.raises(DimensionError, match="^expected a regular array of numbers"):
        BallMap(RAGGED, [0, 0], [0, 0])
    with pytest.raises(DimensionError, match="^D must be a scalar$"):
        BallMap([[0.5]], [0], [0], [1.0])


@pytest.mark.parametrize("fields", [("x", [], 0, [], []), (2.0, [0.0], "x", [[0.5]], [0.0]),
                                    (2.0, [0.0], 1j, [["a"]], [0.0])])
def test_siegel_map_refuses_non_numeric_fields(fields):
    with pytest.raises(DomainError, match="^entries must be numbers: "):
        SiegelMap(*fields)


def test_siegel_map_refuses_ragged_fields():
    with pytest.raises(DimensionError, match="^expected a regular array of numbers"):
        SiegelMap(2.0, [0.0, 0.0], 1j, RAGGED, [0.0, 0.0])


# ---------------------------------------------------------------------------
# the other entry points that convert their input


def test_other_entry_points_refuse_non_numeric_input():
    sg = build_semigroup(certify(normal_form(parse_map_spec(SPEC))))
    f = sg.at(0.5)
    for call in (lambda: linalg.mat_exp("x"), lambda: domain_margin("x", BALL),
                 lambda: pointwise_distance(f, f, [["x"]]), lambda: generator(sg)("x")):
        with pytest.raises(DomainError, match="^entries must be numbers: "):
            call()
    for ts in ("x", [1j], [object()], RAGGED):
        with pytest.raises(DomainError, match="^times must be real numbers, got "):
            sg.at_many(ts)


# ---------------------------------------------------------------------------
# seeds and sample sizes


@pytest.mark.parametrize("seed", [-1, 1.5, "1", True, None])
def test_sampler_refuses_a_bad_seed(seed):
    with pytest.raises(DomainError, match=r"^sampler seed must be a non-negative integer"):
        SamplerCfg(seed=seed)


@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_sampler_refuses_a_bad_count(count):
    with pytest.raises(DimensionError, match=r"^sampler count must be a positive integer"):
        SamplerCfg(count=count)


@pytest.mark.parametrize("sampler", [sample_ball_points, sample_siegel_points])
def test_samplers_refuse_a_bad_size_or_seed(sampler):
    for dim, count in [(2, 2.5), (0, 10), (1.0, 10), (2, True)]:
        with pytest.raises(DimensionError, match="^dim and count must be positive integers"):
            sampler(dim, count)
    for seed in (-1, 1.5, True):
        with pytest.raises(DomainError, match=r"^seed: expected a non-negative integer"):
            sampler(2, 10, seed)
    assert sampler(2, 10, 0).shape == (10, 2)


def test_verify_family_never_meets_a_bad_seed():
    sg = build_semigroup(certify(normal_form(parse_map_spec(SPEC))))
    with pytest.raises(LfmError):
        verify_family(sg, SamplerCfg(seed=-1))
    assert all(r.passed for r in verify_family(sg, SamplerCfg(seed=0)))


# ---------------------------------------------------------------------------
# the pipeline


@pytest.mark.parametrize("z0,error", [
    ("x", "entries must be numbers: "),
    (object(), "entries must be numbers: "),
    (RAGGED, "expected a regular array of numbers"),
])
def test_malformed_start_point_is_a_semigroup_stage_error(z0, error):
    report = run_pipeline(SPEC, z0=z0)
    stage = report["stages"]["semigroup"]
    assert stage["status"] == "error" and stage["error"].startswith(error)
    assert report["stages"]["verify"] == {"status": "skipped"}
    assert report["exit_status"] == EXIT_INPUT_ERROR


@pytest.mark.parametrize("d,echo", [([np.array(1.0), 0.0], [1.0, 0.0]),
                                    (np.array(1 + 0j), [1.0, 0.0]),
                                    ([0.0, np.array(True)], [0.0, True])])
def test_array_spec_number_is_an_input_error(d, echo):
    """A 0-d array is not a spec number; the report echoes it as its item."""
    report = run_pipeline({**SPEC, "D": d})
    assert report["error"].startswith("D: complex numbers must be [re, im] pairs")
    assert report["input"]["D"] == echo and json.dumps(report)
    assert report["exit_status"] == EXIT_INPUT_ERROR


@pytest.mark.parametrize("t_grid", ["abc", None, [0.0, "x"], [0.0, [1.0]], [[1, 2]], 1.0])
def test_malformed_time_grid_is_a_semigroup_stage_error(t_grid):
    report = run_pipeline(SPEC, t_grid=t_grid)
    assert report["stages"]["semigroup"] == {
        "status": "error",
        "error": f"trajectory time grid must be a list of numbers, got {t_grid!r}"}
    assert report["exit_status"] == EXIT_INPUT_ERROR


# ---------------------------------------------------------------------------
# the family's domain is its target's


def _golden_certificates():
    out = []
    for path in sorted(GOLDEN.glob("*.report.json")):
        f = parse_map_spec(json.loads(path.with_name(path.name[:-len(".report.json")]
                                                     + ".json").read_text()))
        cert = certify(normal_form(cayley_to_ball(f) if isinstance(f, SiegelMap) else f))
        if cert.verdict == EMBEDDABLE:
            out.append((path.name, cert))
    return out


def test_family_domain_is_the_target_domain():
    certs = _golden_certificates()
    domains = {}
    for label, cert in certs:
        sg = build_semigroup(cert)
        assert sg.domain == (SIEGEL if isinstance(cert.target, SiegelMap) else BALL), label
        assert sg.G is cert.G and sg.target is cert.target, label
        domains[sg.case_kind] = domains.get(sg.case_kind, set()) | {sg.domain}
    # a Siegel spec of an elliptic map still has a ball family
    assert domains == {"elliptic_split": {BALL}, "elliptic_u0": {BALL},
                       "parabolic": {SIEGEL}, "hyperbolic": {SIEGEL}}


def test_target_without_a_domain_is_refused():
    _, cert = _golden_certificates()[0]
    for target in (None, cert.target.to_proj(), np.eye(2)):
        with pytest.raises(DomainError, match="^no domain for a target of type "):
            build_semigroup(dataclasses.replace(cert, target=target))
    with pytest.raises(DomainError, match="^build_semigroup requires an embeddable certificate$"):
        build_semigroup(dataclasses.replace(cert, G=None))
