"""CLI trajectory options and tolerance profiles: malformed ``--t`` and
``--z0`` are input errors (exit 3), a ``--z0`` of the wrong dimension fails
the semigroup stage (exit 3), a decreasing ``--t`` is one before the
pipeline runs, negative times and hyperbolic times
whose lam^t overflows are rejected by name at every entry point, an
infinite time by every family, an
empty time grid writes a header-only CSV, a map without a trajectory
says on stderr why no CSV was written, ``--tol-profile strict``
reaches the verification, report values keep their JSON types, an
unknown tolerance profile, last stage or a negative seed is a SpecError
before the spec is parsed, a spec matrix with ragged rows is an input error
naming its field, usage errors and unwritable output paths exit 3, and a
run that exits 3 writes its input or stage error to stderr."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import cli
from lfmsemi.cli import (
    EXIT_EMBEDDABLE,
    EXIT_INPUT_ERROR,
    SpecError,
    parse_map_spec,
    run_pipeline,
)
from lfmsemi.embedding import build_semigroup, embed_map
from lfmsemi.errors import DomainError, NumericError

from test_trajectory import _family

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


# the dim-1 Siegel map z -> lam z + 0.3 + i with lam = 1 + 1e-7, in the dead
# band of fixed_points: its classification is a stage error
DEAD_BAND = {"domain": "siegel", "dimension": 1, "lambda": [1.0000001, 0], "b": [0.3, 1.0]}


def _run_process(argv):
    """``python -m lfmsemi.cli`` on argv in a fresh process, output as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "lfmsemi.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)


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

    @pytest.mark.parametrize("z0", ["[]", "[[0.0, 1.0]]"])
    def test_z0_of_the_wrong_dimension(self, z0, tmp_path, capsys):
        """A start point whose length is not the family's dimension fails
        the semigroup stage (exit 3) before its domain is checked: an empty
        one on the half-plane has no first coordinate to read."""
        spec = Path(__file__).parent / "golden" / "parabolic_siegel_n2.json"
        out = tmp_path / "report.json"
        code = cli.main(["report", str(spec), "--z0", z0, "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        stage = json.loads(out.read_text())["stages"]["semigroup"]
        assert stage["status"] == "error"
        assert stage["error"] == f"point has dimension {len(json.loads(z0))}, map expects 2"

    def test_empty_z0(self, spec_path, capsys):
        """An empty --z0 is invalid JSON, as an empty --t is; it does not
        fall back to the default start."""
        err = _input_error(capsys, ["report", str(spec_path), "--z0", ""])
        assert err.startswith("input error: --z0: invalid JSON")

    def test_decreasing_t(self, spec_path, capsys):
        """Rejected at the input boundary: no stage runs, no summary."""
        code = cli.main(["semigroup", str(spec_path), "--t", "[1, 0.5]"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.err == "input error: --t: times must be non-decreasing, got 0.5 after 1\n"
        assert captured.out == ""

    def test_pipeline_rejects_decreasing_t(self):
        report = run_pipeline(HALF_SCALING_2D, t_grid=(1.0, 0.5))
        stage = report["stages"]["semigroup"]
        assert stage == {"status": "error", "error": "trajectory time grid must be non-decreasing"}
        assert report["exit_status"] == EXIT_INPUT_ERROR

    def test_empty_grid_header_only_csv(self, spec_path, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code = cli.main(["semigroup", str(spec_path), "--t", "[]", "--csv", str(csv_path)])
        assert code == EXIT_EMBEDDABLE
        assert csv_path.read_text() == "t,re_1,im_1,re_2,im_2\n"


class TestInputErrorExits:
    """Usage errors, a negative seed and an unwritable --output or --csv
    path are input errors: exit 3 with one line on stderr that names the
    option, not argparse's exit 2 (``inconclusive``) or a traceback's 1
    (``condition_fails``)."""

    @pytest.mark.parametrize("args,named", [
        ([], "spec"),
        (["--tol-profile", "nope"], "--tol-profile"),
        (["--seed", "x"], "--seed"),
        (["--seed", "-1"], "seed"),
        (["--output", "{missing}/r.json"], "--output"),
        (["--csv", "{missing}/t.csv"], "--csv"),
    ], ids=["no_spec", "tol_profile", "seed_not_an_int", "negative_seed", "output", "csv"])
    def test_main(self, spec_path, tmp_path, capsys, args, named):
        argv = ["report"] + ([str(spec_path)] if args else [])
        argv += [a.format(missing=tmp_path / "missing") for a in args]
        err = _input_error(capsys, argv)
        assert err.count("\n") == 1 and named in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("args", [["report"], ["report", "{spec}", "--seed", "-1"],
                                      ["report", "{spec}", "--output", "{missing}/r.json"]],
                             ids=["no_spec", "negative_seed", "output"])
    def test_process_exit_status(self, spec_path, tmp_path, args):
        argv = [a.format(spec=spec_path, missing=tmp_path / "missing") for a in args]
        proc = _run_process(argv)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stderr.startswith("input error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("spec,line", [
        ({**HALF_SCALING_2D, "B": [[True, 0.0], [0.0, 0.0]]},
         "input error: B[0]: complex numbers must be [re, im] pairs of finite numbers, "
         "got [True, 0.0]"),
        (DEAD_BAND, "stage classify error: no fixed point found in the closed ball"),
    ], ids=["malformed_spec", "dead_band"])
    @pytest.mark.parametrize("output", [[], ["--output", "-"]], ids=["summary", "json_report"])
    def test_process_error_on_stderr(self, tmp_path, spec, line, output):
        """A run that exits 3 writes its input or stage error to stderr as
        one line; stdout holds the summary, or the JSON report alone."""
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        proc = _run_process(["report", str(path)] + output)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stderr == line + "\n"
        if output:
            assert json.loads(proc.stdout)["exit_status"] == EXIT_INPUT_ERROR
        else:
            assert proc.stdout == f"{line}\nexit status: 3\n"

    @pytest.mark.parametrize("content,option", [(b"\xff\xfe{", None),
                                                (b'{"dimension": 1' + b"0" * 5000 + b"}", None),
                                                (json.dumps(HALF_SCALING_2D).encode(), "--t")],
                             ids=["undecodable_bytes", "long_integer", "long_integer_in_t"])
    def test_unreadable_json(self, tmp_path, capsys, content, option):
        """The ValueErrors of reading JSON are input errors too."""
        path = tmp_path / "map.json"
        path.write_bytes(content)
        extra = [option, "[" + "1" * 5000 + "]"] if option else []
        err = _input_error(capsys, ["semigroup", str(path)] + extra)
        assert err.count("\n") == 1 and (option is None or err.startswith(f"input error: {option}"))

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--help"])
        assert exc.value.code == 0 and "--seed" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "golden"


class TestCsvWithoutTrajectory:
    """--csv writes nothing for a map without a trajectory, and says why on
    stderr, so that an older file at the path is not taken for its output;
    the exit status is the report's."""

    @pytest.mark.parametrize("name, code, reason", [
        ("elliptic_split_condition_fails_ball_n4", 1, "verdict condition_fails"),
        ("parabolic_nonnormal_inconclusive_siegel_n3", 2, "verdict inconclusive"),
    ], ids=["condition_fails", "inconclusive"])
    def test_verdict_without_family(self, tmp_path, capsys, name, code, reason):
        csv_path = tmp_path / "traj.csv"
        csv_path.write_text("older output\n")
        got = cli.main(["semigroup", str(GOLDEN / f"{name}.json"), "--csv", str(csv_path)])
        assert got == code
        assert capsys.readouterr().err == f"trajectory CSV not written: {reason}\n"
        assert csv_path.read_text() == "older output\n"

    def test_stage_error(self, tmp_path, capsys):
        spec_path, csv_path = tmp_path / "disk.json", tmp_path / "traj.csv"
        spec_path.write_text(json.dumps(DISK_AUT))
        code = cli.main(["report", str(spec_path), "--t", "[1, 1000]", "--csv", str(csv_path)])
        assert code == EXIT_INPUT_ERROR and not csv_path.exists()
        err = capsys.readouterr().err
        assert err.startswith("trajectory CSV not written: stage semigroup error: time 1000.0: ")

    def test_input_error(self, tmp_path, capsys):
        spec_path, csv_path = tmp_path / "bad.json", tmp_path / "traj.csv"
        spec_path.write_text(json.dumps({**DISK_AUT, "D": [0.0, 0.0]}))
        code = cli.main(["semigroup", str(spec_path), "--csv", str(csv_path)])
        assert code == EXIT_INPUT_ERROR and not csv_path.exists()
        err = capsys.readouterr().err
        assert err.startswith("trajectory CSV not written: input error: ")
        notice, line = err.splitlines()  # the error's own line follows the notice
        assert notice == f"trajectory CSV not written: {line}"


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

    @pytest.mark.parametrize("case", ["elliptic_split", "elliptic_u0", "parabolic", "hyperbolic"])
    def test_family_rejects_infinite_t(self, case):
        # an elliptic u0 family with every Re eig M < 0 would build the
        # limit map from e^{-inf} = 0 and return it
        sg = _family(case, 2, np.random.default_rng(1))
        with pytest.raises(DomainError, match=r"time inf lies outside 0 <= t < inf"):
            sg.at_many([0.5, np.inf])


class TestHyperbolicOverflow:
    """lam^t of the disk automorphism (lam = 3) overflows a double once
    t log(lam) > 709, at t > 646."""

    def test_cli_names_the_time(self, tmp_path, capsys):
        path = tmp_path / "disk.json"
        path.write_text(json.dumps(DISK_AUT))
        code = cli.main(["semigroup", str(path), "--t", "[1, 1000]"])
        out = capsys.readouterr().out
        assert code == EXIT_INPUT_ERROR
        assert "time 1000.0" in out and "> 709" in out

    def test_pipeline_records_a_stage_error(self):
        report = run_pipeline(DISK_AUT, t_grid=(1.0, 1000.0))
        stage = report["stages"]["semigroup"]
        assert stage["status"] == "error" and "time 1000.0" in stage["error"]
        assert report["stages"]["verify"] == {"status": "skipped"}
        assert report["exit_status"] == EXIT_INPUT_ERROR

    def test_family_names_the_time(self):
        sg = build_semigroup(embed_map(parse_map_spec(DISK_AUT)))
        with pytest.raises(NumericError, match=r"time 1000\.0: t\*log\(lam\) = 1098\.61 > 709"):
            sg.at_many([1.0, 1000.0, 2000.0])
        assert np.all(np.isfinite(sg.at_many([0.5, 640.0])([1j])))


class TestReportValues:
    def test_json_types_kept(self):
        values = [1.5, np.float64(1.5), 2, np.int64(2), True, np.bool_(False), "x", None,
                  1 + 2j, np.complex128(3j)]
        got = cli.to_jsonable({"v": values, "a": np.array([0.25, 0.5])})
        assert got == {"v": [1.5, 1.5, 2, 2, True, False, "x", None, [1.0, 2.0], [0.0, 3.0]],
                       "a": [0.25, 0.5]}
        assert [type(x) for x in got["v"][:8]] == [float, float, int, int, bool, bool, str,
                                                    type(None)]


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


class TestPipelineArguments:
    """An unknown tolerance profile or last stage is a SpecError naming the
    valid choices, raised before the spec is parsed."""

    @pytest.fixture(autouse=True)
    def no_parse(self, monkeypatch):
        def parse(spec):
            raise AssertionError("the spec was parsed")
        monkeypatch.setattr(cli, "parse_map_spec", parse)

    def test_unknown_tol_profile(self):
        with pytest.raises(SpecError, match=r"tol_profile: expected one of \['default', "
                                            r"'strict'\], got 'nope'"):
            run_pipeline(DISK_AUT, tol_profile="nope")

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", True])
    def test_seed_not_a_non_negative_integer(self, seed):
        with pytest.raises(SpecError, match=rf"^seed: expected a non-negative integer, "
                                            rf"got {re.escape(repr(seed))}$"):
            run_pipeline(DISK_AUT, seed=seed)

    def test_unknown_stop_after(self):
        with pytest.raises(SpecError, match=r"stop_after: expected one of \['classify', "
                                            r"'normal_form', 'embed', 'semigroup', 'verify'\], "
                                            r"got 'embedd'"):
            run_pipeline(DISK_AUT, stop_after="embedd")


class TestRaggedRows:
    """np.array refuses ragged rows with a bare ValueError; the spec reader
    reports them as an input error on the field instead."""

    RAGGED_BALL = dict(HALF_SCALING_2D, A=[[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    RAGGED_SIEGEL = {"dimension": 3, "domain": "siegel", "lambda": [1.0, 0.0],
                     "b": [0.0, 1.0], "a": [[0.0, 0.0], [0.0, 0.0]],
                     "c": [[0.0, 0.0], [0.0, 0.0]],
                     "M": [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]}

    @pytest.mark.parametrize("spec,field", [(RAGGED_BALL, "A"), (RAGGED_SIEGEL, "M")],
                             ids=["ball", "siegel"])
    def test_parse_names_the_field(self, spec, field):
        with pytest.raises(SpecError, match=rf"^{field}: rows must have equal lengths, "
                                            r"got lengths \[1, 2\]$"):
            parse_map_spec(spec)

    def test_cli_exits_with_input_error(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(self.RAGGED_BALL))
        code = cli.main(["classify", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_INPUT_ERROR
        assert out.startswith("input error: A: rows must have equal lengths, got lengths [1, 2]\n")
        assert "stage " not in out  # caught at the input boundary
