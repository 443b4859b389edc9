"""Numbers in map specs and CLI options are finite JSON numbers.

Python's ``json`` reads ``NaN`` and ``Infinity``, and Python counts
``true`` and ``false`` as integers; each of them is an input error
(exit 3) that names its field, as a malformed ``--t`` already was.
"""

import json

import pytest

from lfmsemi import cli
from lfmsemi.cli import EXIT_EMBEDDABLE, EXIT_INPUT_ERROR

# z -> z / 2 in the two-dimensional ball
HALF_SCALING_2D = {
    "dimension": 2,
    "domain": "ball",
    "A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    "B": [[0.0, 0.0], [0.0, 0.0]],
    "C": [[0.0, 0.0], [0.0, 0.0]],
    "D": [1.0, 0.0],
}

# (z, w) -> (3 z + 1i, w / 2) on the two-dimensional half-plane
SIEGEL_2D = {
    "dimension": 2,
    "domain": "siegel",
    "lambda": [3.0, 0.0],
    "a": [[0.0, 0.0]],
    "b": [0.0, 1.0],
    "M": [[[0.5, 0.0]]],
    "c": [[0.0, 0.0]],
}

NAN = float("nan")
INF = float("inf")


def _run(tmp_path, capsys, spec, *options):
    """Exit code and output of ``lfmsemi classify`` on spec (written with
    ``json.dumps``, so NaN and Infinity are written as such)."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["classify", str(path), *options])
    out = capsys.readouterr()
    return code, out.out + out.err


@pytest.mark.parametrize("spec,field", [
    ({**HALF_SCALING_2D, "dimension": True, "D": [True, False]}, "dimension"),
    ({**HALF_SCALING_2D, "dimension": 2.0}, "dimension"),
    ({**HALF_SCALING_2D, "D": [True, False]}, "D"),
    ({**HALF_SCALING_2D, "D": [NAN, 0.0]}, "D"),
    ({**HALF_SCALING_2D, "D": [INF, 0.0]}, "D"),
    ({**HALF_SCALING_2D, "D": [1.0, -INF]}, "D"),
    ({**HALF_SCALING_2D, "D": [10 ** 400, 0]}, "D"),
    ({**HALF_SCALING_2D, "B": [[0.0, 0.0], [0.0, NAN]]}, "B[1]"),
    ({**HALF_SCALING_2D, "A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [INF, 0.0]]]},
     "A[1][1]"),
    ({**SIEGEL_2D, "lambda": [NAN, 0.0]}, "lambda"),
    ({**SIEGEL_2D, "b": [0.0, INF]}, "b"),
    ({**SIEGEL_2D, "M": [[[False, 0.0]]]}, "M[0][0]"),
])
def test_spec_number_is_an_input_error_naming_its_field(tmp_path, capsys, spec, field):
    code, out = _run(tmp_path, capsys, spec)
    assert code == EXIT_INPUT_ERROR
    assert f"input error: {field}: " in out
    assert "stage " not in out  # caught at the input boundary, not by a pipeline stage


@pytest.mark.parametrize("z0,field", [("[[NaN, 0], [0, 0]]", "--z0[0]"),
                                      ("[[0, 0], [0, Infinity]]", "--z0[1]"),
                                      ("[[true, 0], [0, 0]]", "--z0[0]")])
def test_z0_number_is_an_input_error(tmp_path, capsys, z0, field):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(HALF_SCALING_2D))
    code = cli.main(["semigroup", str(path), "--z0", z0])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err.startswith(f"input error: {field}: ")


def test_t_rejects_a_huge_integer(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(HALF_SCALING_2D))
    code = cli.main(["semigroup", str(path), "--t", "[0, 1" + "0" * 400 + "]"])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("input error: --t: ")


@pytest.mark.parametrize("spec", [HALF_SCALING_2D, SIEGEL_2D,
                                  {**HALF_SCALING_2D, "D": [1, 0]}])
def test_finite_numbers_still_classify(tmp_path, capsys, spec):
    code, out = _run(tmp_path, capsys, spec)
    assert code == EXIT_EMBEDDABLE and "classification: " in out
