"""CLI trajectory options and tolerance profiles: malformed ``--t`` and
``--z0`` are input errors (exit 3), negative times are rejected by name
at every entry point, an empty time grid writes a header-only CSV, and
``--tol-profile strict`` reaches the verification."""

import json

import pytest

from lfmsemi import cli
from lfmsemi.cli import EXIT_EMBEDDABLE, EXIT_INPUT_ERROR, parse_map_spec, run_pipeline
from lfmsemi.embedding import build_semigroup, embed_map
from lfmsemi.errors import DomainError

# z -> (z + 1/2) / (z/2 + 1), a hyperbolic disk automorphism: its family
# lives on the half-plane and has a time-one target
DISK_AUT = {
    "name": "disk automorphism",
    "dimension": 1,
    "domain": "ball",
    "A": [[[1.0, 0.0]]],
    "B": [[0.5, 0.0]],
    "C": [[0.5, 0.0]],
    "D": [1.0, 0.0],
}

# z -> z / 2 in the two-dimensional ball
HALF_SCALING_2D = {
    "name": "z/2",
    "dimension": 2,
    "domain": "ball",
    "A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    "B": [[0.0, 0.0], [0.0, 0.0]],
    "C": [[0.0, 0.0], [0.0, 0.0]],
    "D": [1.0, 0.0],
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(HALF_SCALING_2D))
    return path


def _input_error(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("input error: ")
    return err


class TestTrajectoryOptions:
    def test_scalar_t(self, spec_path, capsys):
        err = _input_error(capsys, ["semigroup", str(spec_path), "--t", "5"])
        assert "--t" in err

    def test_non_numeric_t(self, spec_path, capsys):
        err = _input_error(capsys, ["semigroup", str(spec_path), "--t", '["a"]'])
        assert "--t" in err

    def test_z0_without_pairs(self, spec_path, capsys):
        err = _input_error(capsys, ["semigroup", str(spec_path), "--z0", "[1,2]"])
        assert "--z0[0]" in err

    def test_empty_grid_header_only_csv(self, spec_path, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code = cli.main(["semigroup", str(spec_path), "--t", "[]", "--csv", str(csv_path)])
        assert code == EXIT_EMBEDDABLE
        assert csv_path.read_text() == "t,re_1,im_1,re_2,im_2\n"


class TestNegativeTimes:
    """The semigroup is defined for t >= 0 only."""

    def test_cli_rejects_negative_t(self, spec_path, capsys):
        err = _input_error(capsys, ["semigroup", str(spec_path), "--t", "[-3,-1,0,1]"])
        assert "--t" in err and "-3" in err

    @pytest.mark.parametrize("spec", [DISK_AUT, HALF_SCALING_2D], ids=["hyperbolic", "elliptic"])
    def test_pipeline_rejects_negative_t(self, spec):
        report = run_pipeline(spec, t_grid=(-3.0, -1.0, 0.0, 1.0))
        stage = report["stages"]["semigroup"]
        assert stage["status"] == "error" and "time -3.0" in stage["error"]
        assert report["exit_status"] == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("spec", [DISK_AUT, HALF_SCALING_2D], ids=["hyperbolic", "elliptic"])
    def test_family_rejects_negative_t(self, spec):
        sg = build_semigroup(embed_map(parse_map_spec(spec)))
        with pytest.raises(DomainError, match=r"time -1\.0 "):
            sg.at_many([0.0, -1.0, -3.0])
        with pytest.raises(DomainError, match=r"time -0\.5 "):
            sg.at(-0.5)


class TestTolerances:
    def test_strict_profile_recorded(self):
        report = run_pipeline(DISK_AUT, tol_profile="strict")
        tolerances = {c["check_id"]: c["tolerance"]
                      for c in report["stages"]["verify"]["checks"]}
        assert tolerances == {"identity_at_zero": 1e-11, "semigroup_law": 1e-9,
                              "self_map": 1e-10, "time_one": 1e-9, "generator_fd": 1e-6}

    def test_default_profile_recorded(self):
        report = run_pipeline(DISK_AUT)
        tolerances = {c["check_id"]: c["tolerance"]
                      for c in report["stages"]["verify"]["checks"]}
        assert tolerances == {"identity_at_zero": 1e-10, "semigroup_law": 1e-8,
                              "self_map": 1e-9, "time_one": 1e-8, "generator_fd": 1e-5}
