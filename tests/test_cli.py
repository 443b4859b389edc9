"""Tests for the CLI pipeline, spec parsing and report determinism."""

import json

import numpy as np
import pytest

from lfmsemi import cli
from lfmsemi.cli import (
    EXIT_CONDITION_FAILS,
    EXIT_EMBEDDABLE,
    EXIT_INPUT_ERROR,
    SpecError,
    emit_trajectory,
    parse_map_spec,
    run_pipeline,
    trajectory_csv,
)
from lfmsemi.embedding import build_semigroup, embed_elliptic_split, embed_parabolic

from test_embedding import parabolic_nf, split_nf


def ball_spec_1d(a, b, c, d, name="map"):
    return {
        "name": name,
        "dimension": 1,
        "domain": "ball",
        "A": [[[a.real if isinstance(a, complex) else a, getattr(a, "imag", 0.0)]]],
        "B": [[b, 0.0]],
        "C": [[c, 0.0]],
        "D": [d, 0.0],
    }


HALF_SCALING = ball_spec_1d(0.5, 0.0, 0.0, 1.0, "z/2")
DISK_AUT = ball_spec_1d(1.0, 0.5, 0.5, 1.0, "disk automorphism")
BAD_DENOM = ball_spec_1d(0.1, 0.0, 2.0, 1.0, "invalid")


class TestParseSpec:
    def test_ball_round_trip(self):
        f = parse_map_spec(HALF_SCALING)
        assert f.A[0, 0] == 0.5

    def test_siegel_spec(self):
        spec = {
            "dimension": 2,
            "domain": "siegel",
            "lambda": [3.0, 0.0],
            "b": [0.0, 1.0],
            "M": [[[0.5, 0.0]]],
            "a": [[0.0, 0.0]],
            "c": [[0.0, 0.0]],
        }
        g = parse_map_spec(spec)
        assert g.lam == 3.0 and g.b == 1j

    def test_denominator_invariant_diagnostic(self):
        with pytest.raises(SpecError) as err:
            parse_map_spec(BAD_DENOM)
        assert "denominator" in str(err.value)

    def test_malformed_complex(self):
        bad = dict(HALF_SCALING)
        bad["D"] = "1"
        with pytest.raises(SpecError) as err:
            parse_map_spec(bad)
        assert "D" in str(err.value)

    def test_siegel_spec_without_m(self):
        spec = {"domain": "siegel", "dimension": 2, "lambda": [2, 0], "b": [0, 1]}
        with pytest.raises(SpecError, match="^M: required for siegel maps of dimension 2$"):
            parse_map_spec(spec)
        dim1 = {"domain": "siegel", "dimension": 1, "lambda": [2, 0], "b": [0, 1]}
        assert parse_map_spec(dim1).lam == 2.0  # no w-block, so no M

    @pytest.mark.parametrize("missing", ["a", "c"])
    def test_siegel_spec_without_a_or_c(self, missing):
        spec = {"domain": "siegel", "dimension": 2, "lambda": [2, 0], "b": [0, 1],
                "M": [[[0.5, 0]]], "a": [[0, 0]], "c": [[0, 0]]}
        del spec[missing]
        with pytest.raises(SpecError,
                           match=f"^{missing}: required for siegel maps of dimension 2$"):
            parse_map_spec(spec)

    def test_missing_dimension(self):
        bad = {k: v for k, v in HALF_SCALING.items() if k != "dimension"}
        with pytest.raises(SpecError):
            parse_map_spec(bad)


class TestPipeline:
    def test_half_scaling_full(self):
        report = run_pipeline(HALF_SCALING)
        assert report["exit_status"] == EXIT_EMBEDDABLE
        assert report["stages"]["classify"]["kind"] == "elliptic"
        assert report["stages"]["classify"]["unitary_index"] == 0
        assert report["stages"]["normal_form"]["form_kind"] == "elliptic_u0"
        assert report["stages"]["embed"]["verdict"] == "embeddable"
        assert report["stages"]["verify"]["all_passed"] is True

    def test_disk_automorphism(self):
        report = run_pipeline(DISK_AUT)
        assert report["stages"]["classify"]["kind"] == "hyperbolic"
        assert report["stages"]["classify"]["delta"] == pytest.approx(1 / 3, abs=1e-6)
        assert report["stages"]["embed"]["automorphism"] is True
        assert report["stages"]["embed"]["verdict"] == "embeddable"
        assert report["exit_status"] == EXIT_EMBEDDABLE

    def test_malformed_spec(self):
        report = run_pipeline(BAD_DENOM)
        assert report["exit_status"] == EXIT_INPUT_ERROR
        assert "denominator" in report["error"]
        assert report["stages"]["classify"]["status"] == "skipped"

    def test_condition_fails_exit_code(self):
        # elliptic with a Jordan contraction block that admits no
        # dissipative logarithm
        a1 = np.array([[0.7, 0.51], [0.0, 0.7]])
        spec = {
            "name": "jordan",
            "dimension": 3,
            "domain": "ball",
            "A": cli.to_jsonable(np.block([
                [np.array([[np.exp(0.4j)]]), np.zeros((1, 2))],
                [np.zeros((2, 1)), a1],
            ]).astype(complex)),
            "B": cli.to_jsonable(np.zeros(3, dtype=complex)),
            "C": cli.to_jsonable(np.zeros(3, dtype=complex)),
            "D": [1.0, 0.0],
        }
        report = run_pipeline(spec)
        assert report["stages"]["embed"]["verdict"] == "condition_fails"
        assert report["exit_status"] == EXIT_CONDITION_FAILS

    def test_siegel_spec_without_a_is_an_input_error(self):
        spec = {"domain": "siegel", "dimension": 2, "lambda": [2, 0], "b": [0, 1],
                "M": [[[0.5, 0]]]}
        report = run_pipeline(spec)
        assert report["exit_status"] == EXIT_INPUT_ERROR
        assert report["error"] == "a: required for siegel maps of dimension 2"
        assert report["stages"]["classify"]["status"] == "skipped"

    def test_siegel_spec_without_m_is_an_input_error(self):
        spec = {"domain": "siegel", "dimension": 2, "lambda": [2, 0], "b": [0, 1]}
        report = run_pipeline(spec)
        assert report["exit_status"] == EXIT_INPUT_ERROR
        assert report["error"].startswith("M: ")
        assert report["stages"]["classify"]["status"] == "skipped"

    def test_siegel_input(self):
        spec = {
            "dimension": 1,
            "domain": "siegel",
            "lambda": [3.0, 0.0],
            "b": [0.0, 1.0],
        }
        report = run_pipeline(spec)
        assert report["stages"]["classify"]["kind"] == "hyperbolic"
        assert report["exit_status"] == EXIT_EMBEDDABLE

    def test_determinism_bytes(self):
        r1 = run_pipeline(DISK_AUT, seed=11)
        r2 = run_pipeline(DISK_AUT, seed=11)
        b1 = json.dumps(r1, sort_keys=True)
        b2 = json.dumps(r2, sort_keys=True)
        assert b1 == b2

    def test_report_serialization_lossless(self):
        report = run_pipeline(HALF_SCALING)
        assert json.loads(json.dumps(report, sort_keys=True)) == report

    def test_stop_after(self):
        report = run_pipeline(HALF_SCALING, stop_after="classify")
        assert "normal_form" not in report["stages"]


class TestTrajectory:
    def test_elliptic_radii(self):
        sg = build_semigroup(embed_elliptic_split(split_nf([], [[0.5]])))
        rows = emit_trajectory(sg, np.array([0.8]), [0.0, 1.0, 2.0, 3.0])
        assert len(rows) == 4
        for row in rows:
            t = row[0]
            assert abs(complex(row[1], row[2])) == pytest.approx(0.8 * 2 ** (-t), abs=1e-12)

    def test_parabolic_drift(self):
        sg = build_semigroup(embed_parabolic(parabolic_nf([], [], [], [], 1.0j)))
        rows = emit_trajectory(sg, np.array([2.0j]), [0.0, 1.0, 2.0])
        ims = [row[2] for row in rows]
        assert ims == pytest.approx([2.0, 3.0, 4.0], abs=1e-12)

    def test_monotone_grid_enforced(self):
        sg = build_semigroup(embed_elliptic_split(split_nf([], [[0.5]])))
        with pytest.raises(SpecError):
            emit_trajectory(sg, np.array([0.1]), [1.0, 0.5])

    def test_outside_domain(self):
        from lfmsemi.errors import DomainError

        sg = build_semigroup(embed_elliptic_split(split_nf([], [[0.5]])))
        with pytest.raises(DomainError):
            emit_trajectory(sg, np.array([1.5]), [0.0, 1.0])

    def test_csv_format(self):
        sg = build_semigroup(embed_elliptic_split(split_nf([], [[0.5]])))
        rows = emit_trajectory(sg, np.array([0.8]), [0.0, 0.5])
        text = trajectory_csv(rows, 1)
        lines = text.strip().split("\n")
        assert lines[0] == "t,re_1,im_1"
        assert len(lines) == 3
        val = float(lines[2].split(",")[1])
        assert val == pytest.approx(0.8 * 2 ** -0.5, abs=1e-16)


class TestMainEntry:
    def test_report_command(self, tmp_path, capsys):
        spec_path = tmp_path / "map.json"
        spec_path.write_text(json.dumps(HALF_SCALING))
        out_path = tmp_path / "report.json"
        code = cli.main(["report", str(spec_path), "--output", str(out_path)])
        assert code == EXIT_EMBEDDABLE
        report = json.loads(out_path.read_text())
        assert report["stages"]["verify"]["all_passed"] is True
        human = capsys.readouterr().out
        assert "classification: elliptic" in human

    def test_classify_command(self, tmp_path, capsys):
        spec_path = tmp_path / "map.json"
        spec_path.write_text(json.dumps(DISK_AUT))
        code = cli.main(["classify", str(spec_path)])
        assert code == EXIT_EMBEDDABLE == 0  # no certificate attempted yet
        out = capsys.readouterr().out
        assert "hyperbolic" in out

    def test_semigroup_csv(self, tmp_path):
        spec_path = tmp_path / "map.json"
        spec_path.write_text(json.dumps(HALF_SCALING))
        csv_path = tmp_path / "traj.csv"
        code = cli.main(["semigroup", str(spec_path), "--csv", str(csv_path),
                         "--t", "[0,1,2]", "--z0", "[[0.5,0.0]]"])
        assert code == EXIT_EMBEDDABLE
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "t,re_1,im_1"
        assert len(lines) == 4

    def test_byte_identical_outputs(self, tmp_path):
        spec_path = tmp_path / "map.json"
        spec_path.write_text(json.dumps(DISK_AUT))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli.main(["report", str(spec_path), "--seed", "42", "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_siegel_spec_without_c_exits_3(self, tmp_path, capsys):
        spec_path = tmp_path / "no_c.json"
        spec_path.write_text(json.dumps({"domain": "siegel", "dimension": 2, "lambda": [2, 0],
                                         "b": [0, 1], "M": [[[0.5, 0]]], "a": [[0, 0]]}))
        assert cli.main(["classify", str(spec_path)]) == EXIT_INPUT_ERROR
        out = capsys.readouterr().out
        assert "input error: c: required for siegel maps of dimension 2" in out
        assert "M/a/c" not in out

    def test_siegel_spec_without_m_exits_3(self, tmp_path, capsys):
        spec_path = tmp_path / "no_m.json"
        spec_path.write_text(json.dumps(
            {"domain": "siegel", "dimension": 2, "lambda": [2, 0], "b": [0, 1]}))
        assert cli.main(["classify", str(spec_path)]) == EXIT_INPUT_ERROR
        assert "input error: M: required for siegel maps" in capsys.readouterr().out

    def test_bad_input_exit(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{not json")
        code = cli.main(["report", str(spec_path)])
        assert code == EXIT_INPUT_ERROR
