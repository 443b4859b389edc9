"""The front end (parse -> classify -> normal form) keeps its bits.

Each kernel that was rewritten to cut its dispatch cost is checked against
the code it replaced, kept here as the reference:

- ``linalg.schur_form`` calls LAPACK's ``zgees`` directly, with its
  workspace size cached per n, on either path: numpy's bundled OpenBLAS
  through ``ctypes``, or scipy's wrapper; the reference is
  ``scipy.linalg.schur``, unsorted or with the unimodular eigenvalues
  first.  No run of a top-level golden imports scipy; an elliptic map
  whose contraction block has an ill-conditioned eigenbasis imports it
  for its logarithm;
- ``maps.fixed_points`` does its cluster bookkeeping on Python lists; the
  reference is the array version of :func:`reference_fixed_points`;
- the spec parser reads every field, ``--z0`` too, with one scan, one
  test and one ``np.array``; the reference is its former per-entry
  reader, :func:`reference_pairs`, whose bits and messages it keeps;
- ``BallMap.to_proj`` and ``SiegelMap.to_proj`` build the homogeneous
  matrix once and keep it; ``siegel_map_from_proj`` builds its map
  without the constructor's checks; the Siegel sample is cached.

The library refuses strings, bytes and bools where it wants numbers, which
numpy and ``float`` would convert.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from lfmsemi import cli, linalg, maps
from lfmsemi.cli import EXIT_INPUT_ERROR, SpecError, parse_map_spec, run_pipeline, to_jsonable
from lfmsemi.embedding import build_semigroup, certify
from lfmsemi.errors import DomainError
from lfmsemi.linalg import UNIMODULAR_TOL, schur_form
from lfmsemi.maps import (BALL, SIEGEL, BallMap, SiegelMap, cayley_to_ball, fixed_points,
                          heisenberg_map, sample_ball_points, sample_siegel_points,
                          siegel_map_from_proj, to_proj)
from lfmsemi.normal_forms import normal_form
from lfmsemi.verify import SamplerCfg, check_self_map

from test_fixed_points import WRONG_CLUSTER_MAPS, _ball_map, _linear, _workload_specs
from test_golden import _mismatches

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_SPECS = sorted(p for p in GOLDEN.rglob("*.json") if not p.name.endswith(".report.json"))


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


# ---------------------------------------------------------------------------
# schur_form against scipy.linalg.schur


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _schur_cases():
    """Random matrices, exact repeated eigenvalues and Jordan-like blocks,
    n = 1..9."""
    rng = np.random.default_rng(2027)
    cases = []
    for n in range(1, 10):
        for _ in range(3):
            cases.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q = _unitary(rng, n)
        repeated = np.repeat([0.5, 1.0, -0.3j], n)[:n]  # each value up to three times
        cases.append(np.diag(repeated).astype(complex))
        cases.append(q @ np.diag(repeated) @ q.conj().T)
        jordan = np.diag(np.exp(1j * np.arange(n))) + np.eye(n, k=1)
        cases.append(jordan.astype(complex))
        cases.append(q @ (0.7 * np.eye(n) + 0.2 * np.eye(n, k=1)) @ q.conj().T)
    return cases


UNIMODULAR = lambda lam: abs(abs(lam) - 1) <= UNIMODULAR_TOL  # noqa: E731 (scipy's sort)

NO_BUNDLED_ZGEES = "numpy's build ships no OpenBLAS with scipy_zgees_64_"


@pytest.fixture(params=["bundled", "scipy"])
def lapack_path(request, monkeypatch):
    """Each path of ``schur_form``: the one chosen at import where it is
    numpy's ``zgees``, and scipy's fallback."""
    if request.param == "bundled" and linalg._BUNDLED_ZGEES is None:
        pytest.skip(NO_BUNDLED_ZGEES)
    if request.param == "scipy":
        monkeypatch.setattr(linalg, "_BUNDLED_ZGEES", None)
    return request.param


@pytest.mark.parametrize("unimodular_first", [False, True], ids=["unsorted", "unimodular_first"])
def test_schur_form_has_the_bits_of_scipy_schur(lapack_path, unimodular_first):
    for a in _schur_cases():
        form = schur_form(a, unimodular_first=unimodular_first)
        if unimodular_first:
            t, z, _ = scipy.linalg.schur(a, output="complex", sort=UNIMODULAR)
        else:
            t, z = scipy.linalg.schur(a, output="complex")
        assert _bits(form.upper_triangular) == _bits(t)
        assert _bits(form.unitary) == _bits(z.conj().T)


def test_schur_form_workspace_is_queried_once_per_size(lapack_path):
    linalg._zgees_lwork.cache_clear()
    for n in (3, 3, 5, 3):
        schur_form(np.eye(n) + 0.1j * np.eye(n, k=1))
    assert linalg._zgees_lwork.cache_info().misses == 2


def test_unimodular_first_and_unimodular_count_make_one_decision(lapack_path):
    """Moduli just inside and just outside UNIMODULAR_TOL of 1: the leading
    block of the sorted form is exactly what ``unimodular_count`` counts."""
    eigs = np.array([(1 + 2e-9) * np.exp(0.3j), 1 - 0.5e-9, (1 - 2e-9) * np.exp(2j), 1.0,
                     (1 + 0.5e-9) * np.exp(-1j), np.exp(0.4j)])
    q = _unitary(np.random.default_rng(35), len(eigs))
    for a in (np.diag(eigs), q @ np.diag(eigs) @ q.conj().T):
        lead = np.diag(schur_form(a, unimodular_first=True).upper_triangular)
        u = linalg.unimodular_count(lead)
        assert u == 4
        assert [linalg._is_unimodular(lam) for lam in lead] == [True] * u + [False] * 2


@pytest.mark.parametrize("flag", [UNIMODULAR, 1], ids=["callable", "int"])
def test_a_unimodular_first_that_is_not_a_bool_is_a_domain_error(flag):
    with pytest.raises(DomainError, match="unimodular_first must be a bool"):
        schur_form(np.eye(2), flag)


def test_schur_form_is_reentrant(lapack_path):
    """Threads may take Schur forms at once: every call owns its buffers."""
    cases = _schur_cases()
    want = [_bits(schur_form(a, unimodular_first=True).unitary) for a in cases]
    with ThreadPoolExecutor(4) as pool:
        got = pool.map(lambda a: _bits(schur_form(a, unimodular_first=True).unitary), cases * 4)
        assert list(got) == want * 4


def _fresh_runs(runs) -> dict:
    """The reports of ``run_pipeline(spec, **options)`` for each (spec,
    options) of *runs* from a fresh interpreter that imports
    ``lfmsemi.cli``, with the scipy modules it held after the import and
    after the runs."""
    code = (
        "import json, sys\n"
        "from lfmsemi import cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "imported = scipy()\n"
        "reports = [cli.run_pipeline(spec, **options) for spec, options in json.load(sys.stdin)]\n"
        "print(json.dumps({'imported': imported, 'ran': scipy(), 'reports': reports}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], input=json.dumps(runs),
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def _run_goldens(names) -> dict:
    """:func:`_fresh_runs` of the golden specs *names*, each with its stored
    report's seed and tolerance profile, and each report checked against
    the stored one."""
    stored = [json.loads((GOLDEN / f"{name}.report.json").read_text()) for name in names]
    result = _fresh_runs([(json.loads((GOLDEN / f"{name}.json").read_text()),
                           {"seed": want["seed"], "tol_profile": want["tol_profile"]})
                          for name, want in zip(names, stored)])
    for name, got, want in zip(names, result["reports"], stored):
        assert _mismatches(got, want) == [], name
    return result


def test_a_parabolic_or_hyperbolic_run_imports_no_scipy():
    if linalg._BUNDLED_ZGEES is None:
        pytest.skip(NO_BUNDLED_ZGEES)
    result = _run_goldens(["hyperbolic_ball_n2", "parabolic_siegel_n2"])
    assert result["imported"] == [] and result["ran"] == []


def test_the_elliptic_goldens_import_no_scipy():
    # every logarithm of their contraction blocks has a conditioned
    # eigenbasis, which checks it without scipy's expm
    if linalg._BUNDLED_ZGEES is None:
        pytest.skip(NO_BUNDLED_ZGEES)
    names = sorted(p.name[: -len(".json")] for p in GOLDEN.glob("elliptic*.json")
                   if not p.name.endswith(".report.json"))
    assert len(names) == 14
    result = _run_goldens(names)
    assert result["imported"] == [] and result["ran"] == []


def test_a_jordan_block_imports_scipy_for_its_logarithm():
    # z -> diag(e^{0.5i}, [[0.7, 0.51], [0, 0.7]]) z: the contraction block's
    # eigenbasis is singular, so its principal logarithm is scipy's logm,
    # checked by scipy's expm
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0], a[1:, 1:] = np.exp(0.5j), [[0.7, 0.51], [0.0, 0.7]]
    spec = {"dimension": 3, "domain": "ball", "A": to_jsonable(a), "B": [[0.0, 0.0]] * 3,
            "C": [[0.0, 0.0]] * 3, "D": [1.0, 0.0]}
    result = _fresh_runs([(spec, {"stop_after": "embed"})])
    assert result["imported"] == []
    assert "scipy.linalg" in result["ran"]
    [report] = result["reports"]
    assert report["stages"]["embed"]["verdict"] == "condition_fails"
    assert report["stages"]["embed"]["margins"][0]["margin"] == pytest.approx(
        -0.00761077034698, abs=1e-12)


def test_frobenius_has_the_bits_of_numpy_norm():
    rng = np.random.default_rng(5)
    for shape in [(1,), (7,), (3, 3), (9, 9), (4, 2)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert linalg._frobenius(x) == np.linalg.norm(x)
        assert linalg._frobenius(x.T) == np.linalg.norm(x.T)
        m = x.reshape(len(x), -1)
        want = m / (np.linalg.norm(m) / np.sqrt(m.shape[0]))  # the former _unit_rms
        assert _bits(maps._unit_rms(m)) == _bits(want)


# ---------------------------------------------------------------------------
# fixed_points against its array version


def reference_fixed_points(f: BallMap):
    """``maps.fixed_points`` before its bookkeeping moved to Python lists:
    the same clusters, on arrays, from scipy's Schur form and the homogeneous
    matrix built and normalized with ``np.linalg.norm``.  Returns
    (interior, boundary, eigenvalues, matrix)."""
    n = f.dim
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[:n, :n], m[:n, n], m[n, :n], m[n, n] = f.A, f.B, np.conj(f.C), f.D
    m = m / (np.linalg.norm(m) / np.sqrt(m.shape[0]))
    n = len(m)
    eigs = np.diag(scipy.linalg.schur(m, output="complex")[0]).copy()
    scale = float(np.max(np.abs(eigs)))
    nonzero = np.abs(eigs) > 1e-12 * scale
    anchors = np.flatnonzero(nonzero)
    dist = np.abs(eigs[anchors, None] - eigs[None, :])
    order = np.argsort(dist, axis=1)
    reach = np.sort(dist, axis=1)
    sizes = np.arange(1, n + 1)
    split = ((maps._JORDAN_SPLIT_FACTOR * np.finfo(float).eps * scale) ** (1.0 / sizes)
             * max(1.0, scale) ** (1.0 - 1.0 / sizes))
    settled = nonzero & (np.sum(eigs[:, None] == eigs, axis=1) == 1)
    holds_settled = np.logical_or.accumulate(settled[order] & (order < anchors[:, None]), axis=1)
    rows, cols = np.nonzero(((reach <= split) & ~holds_settled)[:, ::-1])
    ks = n - cols
    shifts = eigs[anchors[rows]]
    for r in np.flatnonzero(ks > 1).tolist():
        shifts[r] = np.mean(eigs[order[rows[r], :ks[r]]])
    _, svals, vh = np.linalg.svd(m - shifts[:, None, None] * np.eye(n))
    cut = np.maximum(1.0, svals[:, :1])
    singular = (svals[:, -1] <= 1e-10 * cut[:, 0]).tolist()
    in_kernel = svals <= 1e-8 * cut
    first = np.searchsorted(rows, np.arange(len(anchors) + 1)).tolist()
    order, ks = order.tolist(), ks.tolist()
    blocks = [np.zeros((0, n), dtype=complex)]
    used = set()
    for a, i in enumerate(anchors.tolist()):
        if i in used:
            continue
        r = next((r for r in range(first[a], first[a + 1])
                  if singular[r] and used.isdisjoint(order[a][:ks[r]])), None)
        if r is None:
            used.add(i)
            continue
        used.update(order[a][:ks[r]])
        blocks.append(vh[r, in_kernel[r]].conj())
        if len(blocks[-1]) >= 2:
            rep = maps._nearest_kernel_point(np.column_stack(blocks[-1]))
            if rep is not None:
                blocks.append(rep[None])
    v = np.concatenate(blocks)
    tau = v[:, -1]
    finite = np.abs(tau) > 1e-9 * np.max(np.abs(v), axis=1, initial=0.0)
    points = v[finite, :-1] / tau[finite, None]
    radii = np.linalg.norm(points, axis=1)
    tol = maps._FIXED_POINT_TOL
    points, radii = points[radii < 1.0 + tol], radii[radii < 1.0 + tol]
    fixed = np.array([np.linalg.norm(f(p) - p) <= tol for p in points], dtype=bool)
    interior, boundary = [], []
    for p, r in zip(points[fixed], radii[fixed]):
        if any(np.linalg.norm(p - q_) <= 1e-7 for q_ in interior + boundary):
            continue
        (interior if r < 1.0 - tol else boundary).append(p)
    key = lambda p: tuple(np.round(np.concatenate([p.real, p.imag]), 10))  # noqa: E731
    return sorted(interior, key=key), sorted(boundary, key=key), eigs, m


def _assert_fixed_points_bits(f: BallMap):
    found = fixed_points(f)
    interior, boundary, eigs, m = reference_fixed_points(f)
    assert [_bits(p) for p in found[0]] == [_bits(p) for p in interior]
    assert [_bits(p) for p in found[1]] == [_bits(p) for p in boundary]
    assert _bits(found.eigenvalues) == _bits(eigs)
    assert _bits(found.proj.mat) == _bits(m)


def test_fixed_points_bits_on_the_goldens():
    assert len(GOLDEN_SPECS) == 34
    for path in GOLDEN_SPECS:
        _assert_fixed_points_bits(_ball_map(json.loads(path.read_text())))


def test_fixed_points_bits_on_the_workload_cycles():
    specs = _workload_specs()
    assert len(specs) == 138
    for spec in specs:
        _assert_fixed_points_bits(_ball_map(spec))


def _cluster_maps():
    """The cluster cases of test_fixed_points: a prefix whose mean is another
    eigenvalue, Jordan blocks, near-parabolic and Heisenberg maps."""
    out = [_linear(a) for a in WRONG_CLUSTER_MAPS]
    for k in (2, 3, 5, 8):
        q = _unitary(np.random.default_rng(k), k)
        out.append(_linear(q @ (0.5 * np.eye(k) + 0.3 * np.eye(k, k=1)) @ q.conj().T))
    for n in (1, 2, 3, 4):
        m = np.diag([0.5, 0.4, 0.3][: n - 1]).astype(complex)
        for k in (4, 5):
            lam = 1.0 + 10.0 ** -k
            out.append(cayley_to_ball(SiegelMap(lam, np.zeros(n - 1), 0.3 + 1j, m,
                                                np.zeros(n - 1))))
    for n in (2, 3, 4, 8):
        rng = np.random.default_rng(n)
        g = 0.3 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        out.append(cayley_to_ball(heisenberg_map(g, 0.7 + 1j * np.vdot(g, g).real)))
    return out


def test_fixed_points_bits_on_the_cluster_cases():
    for f in _cluster_maps():
        _assert_fixed_points_bits(f)


# ---------------------------------------------------------------------------
# the spec reader against the per-entry reader it replaced


def _reference_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


def _reference_complex(value, where: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and _reference_number(value[0]) and _reference_number(value[1])):
        raise SpecError(f"{where}: complex numbers must be [re, im] pairs of finite "
                        f"numbers, got {value!r}")
    return complex(value[0], value[1])


def reference_pairs(value, rank: int, where: str):
    """The spec parser's former per-entry converters: complex(re, im) of
    each pair, in order, each refusal naming its entry."""
    if rank == 0:
        return _reference_complex(value, where)
    if rank == 1:
        if not isinstance(value, list):
            raise SpecError(f"{where}: expected a list of [re, im] pairs")
        return np.array([_reference_complex(v, f"{where}[{i}]") for i, v in enumerate(value)],
                        dtype=complex)
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)):
        raise SpecError(f"{where}: expected a matrix of [re, im] pairs")
    lengths = sorted({len(row) for row in value})
    if len(lengths) > 1:
        raise SpecError(f"{where}: rows must have equal lengths, got lengths {lengths}")
    return np.array([[_reference_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
                     for i, row in enumerate(value)], dtype=complex)


def _read_both(value, rank: int, where: str):
    """The reader's and the reference's result, or the message of each
    refusal; a result is its type and bits."""
    out = []
    for read in (cli._pairs_in, reference_pairs):
        try:
            got = read(value, rank, where)
        except SpecError as exc:
            out.append(str(exc))
        else:
            out.append((type(got), _bits(got)))
    return out


#: the rank of each spec field
SPEC_RANKS = {"A": 2, "M": 2, "B": 1, "C": 1, "a": 1, "c": 1, "D": 0, "lambda": 0, "b": 0}


class _Started(Exception):
    """Raised in place of the pipeline, to stop ``main`` once its options are read."""


def _z0_of_main(monkeypatch, text: str):
    """The start point ``main`` hands the pipeline for ``--z0 text``."""
    seen = {}

    def started(spec, **options):
        seen.update(options)
        raise _Started

    monkeypatch.setattr(cli, "run_pipeline", started)
    with pytest.raises(_Started):
        cli.main(["semigroup", str(GOLDEN / "elliptic_u0_ball_n1.json"), "--z0", text])
    return seen["z0"]


def test_fast_path_has_the_bits_of_the_per_entry_path():
    """Every field of every golden spec, the complex numbers D, lambda and
    b too, reads to the bits and type of the per-entry reference."""
    fields = [(key, rank, value) for p in GOLDEN_SPECS
              for key, value in json.loads(p.read_text()).items()
              for rank in [SPEC_RANKS.get(key)] if rank is not None]
    assert {key for key, _, _ in fields} == set(SPEC_RANKS)
    for key, rank, value in fields:
        new, old = _read_both(value, rank, key)
        assert new == old and not isinstance(new, str), key


EXACT_PAIRS = [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1, -2], [2 ** 53 + 1, 0],
               [0, -(2 ** 63) - 1], [2 ** 64 + 3, 0.5], [sys.float_info.max / 2, -1e-300]]


@pytest.mark.parametrize("pair", EXACT_PAIRS)
def test_fast_path_is_exact_on_signed_zeros_and_ints(pair, monkeypatch):
    vector, matrix = [pair, [0.25, 1]], [[pair, [0.25, 1]], [[1, 0], pair]]
    for value, rank, where in [(vector, 1, "B"), (matrix, 2, "A"), (pair, 0, "D"),
                               (pair, 0, "lambda"), (pair, 0, "b")]:
        new, old = _read_both(value, rank, where)
        assert new == old and not isinstance(new, str), where
    z0 = _z0_of_main(monkeypatch, json.dumps(vector))
    assert _bits(z0) == _bits(reference_pairs(vector, 1, "--z0"))


@pytest.mark.parametrize("entry, error", [
    ([True, 0.0], r"^B\[1\]: complex numbers must be \[re, im\] pairs of finite numbers"),
    ([0.5, "1"], r"^B\[1\]: complex numbers must be \[re, im\] pairs of finite numbers"),
    ([0.5], r"^B\[1\]: complex numbers must be"),
    ([0.5, 0.0, 0.0], r"^B\[1\]: complex numbers must be"),
    ((0.5, 0.0), None),  # a tuple pair, as a library caller may give it
    ([float("nan"), 0.0], r"^B\[1\]: complex numbers must be"),
    ([10 ** 400, 0], r"^B\[1\]: complex numbers must be"),
    ([int(sys.float_info.max) + 1, 0], r"^B\[1\]: complex numbers must be"),
    ([sys.float_info.max, 0.0], None),
    ([np.float64(0.5), -sys.float_info.max], None),
    ([0.5, float("inf")], r"^B\[1\]: complex numbers must be"),
    ([np.array(0.5), 0.0], r"^B\[1\]: complex numbers must be"),
    ([np.int64(1), 0.0], r"^B\[1\]: complex numbers must be"),
])
def test_fast_path_leaves_the_other_entries_to_the_per_entry_path(entry, error):
    """Each entry reads as the reference reads it, or is refused with the
    reference's message, in a vector and as a complex number alike."""
    new, old = _read_both([[0.25, 0.0], entry], 1, "B")
    assert new == old
    if error is None:
        assert new == (np.ndarray, _bits(np.array([0.25, complex(*entry)], dtype=complex)))
    else:
        assert re.match(error, new)
    new, old = _read_both(entry, 0, "D")
    assert new == old


@pytest.mark.parametrize("value, error", [
    ([[[0.5, 0.0]], [[0.5, 0.0], [0.1, 0.0]]], r"^A: rows must have equal lengths"),
    ([[[0.5, 0.0]], ([0.5, 0.0],)], r"^A: expected a matrix of \[re, im\] pairs"),
    ([[[0.5, False]]], r"^A\[0\]\[0\]: complex numbers must be"),
    ([[[0.5, 0.0], ["x", 0.0]]], r"^A\[0\]\[1\]: complex numbers must be"),
])
def test_fast_path_leaves_malformed_matrices_to_the_per_entry_path(value, error):
    new, old = _read_both(value, 2, "A")
    assert new == old and re.match(error, new)


def test_to_jsonable_of_arrays_is_elementwise():
    """Numeric arrays go through tolist, complex ones as [re, im] pairs,
    as the item-by-item conversion gives them."""
    rng = np.random.default_rng(3)
    z = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    z[0, 0] = complex(-0.0, 0.0)
    for a in (z, z[0], z.real, np.arange(4), np.array([True, False]), z.astype(np.complex64)):
        want = [[float(np.real(v)), float(np.imag(v))] if isinstance(v, complex)
                else [[float(np.real(w)), float(np.imag(w))] for w in v]
                if isinstance(v, list) and v and isinstance(v[0], complex) else v
                for v in a.tolist()]
        got = to_jsonable(a)
        assert json.dumps(got) == json.dumps(want)


# ---------------------------------------------------------------------------
# the homogeneous matrix is built once; the Siegel sample is cached


def test_to_proj_is_built_once_and_read_only():
    spec = json.loads((GOLDEN / "parabolic_ball_n4.json").read_text())
    f = parse_map_spec(spec)
    p = f.to_proj()
    assert f.to_proj() is p and to_proj(f) is p
    assert not p.mat.flags.writeable
    assert _bits(p.mat) == _bits(maps._proj_of(np.block(
        [[f.A, f.B[:, None]], [np.conj(f.C)[None], np.ones((1, 1))]]), BALL, BALL).mat)
    s = SiegelMap(2.0, [0.1j], 0.5j, [[0.5]], [0.2])
    assert s.to_proj() is s.to_proj() and not s.to_proj().mat.flags.writeable
    with pytest.raises(ValueError):
        p.mat[0, 0] = 0.0
    copy = dataclasses.replace(f)  # a new map builds its own
    assert copy.to_proj() is not p and _bits(copy.to_proj().mat) == _bits(p.mat)


def test_a_stack_has_no_homogeneous_matrix():
    f = parse_map_spec(json.loads((GOLDEN / "elliptic_u0_ball_n2.json").read_text()))
    stack = build_semigroup(certify(normal_form(f))).at_many([0.5, 1.0])
    with pytest.raises(TypeError):
        stack.to_proj()
    with pytest.raises(TypeError):
        to_proj(stack)


def test_domain_is_a_class_attribute():
    assert BallMap.domain == BALL and SiegelMap.domain == SIEGEL
    for cls in (BallMap, SiegelMap):
        assert "domain" not in {field.name for field in dataclasses.fields(cls)}
    f = parse_map_spec(json.loads((GOLDEN / "elliptic_u0_ball_n2.json").read_text()))
    assert check_self_map(f, SamplerCfg(count=8)).passed
    assert "_proj" not in vars(f)  # read without building the matrix


def test_siegel_map_from_proj_has_the_constructor_fields():
    for path in GOLDEN_SPECS:
        f = _ball_map(json.loads(path.read_text()))
        try:
            nf = normal_form(f)
        except Exception:
            continue
        if nf.normal_map.domain != SIEGEL:
            continue
        p = nf.normal_map.to_proj()
        m = p.mat / p.mat[-1, -1]
        n = p.dim
        got = siegel_map_from_proj(p)
        want = SiegelMap(lam=m[0, 0], a=np.conj(m[0, 1:n] / 2j), b=m[0, n], M=m[1:n, 1:n],
                         c=m[1:n, n])
        for field in ("lam", "a", "b", "M", "c"):
            assert type(getattr(got, field)) is type(getattr(want, field))
            assert _bits(getattr(got, field)) == _bits(getattr(want, field))


def test_siegel_sample_is_cached_and_read_only():
    zs = sample_siegel_points(3, 20, 7)
    assert sample_siegel_points(3, 20, 7) is zs and not zs.flags.writeable
    ball = sample_ball_points(3, 20, 7)
    den = 1.0 - ball[:, :1]
    want = np.concatenate([1j * (1.0 + ball[:, :1]) / den, 1j * ball[:, 1:] / den], axis=1)
    assert _bits(zs) == _bits(want)
    with pytest.raises(ValueError):
        zs[0, 0] = 0.0


# ---------------------------------------------------------------------------
# strings, bytes and bools are not numbers


SPEC = json.loads((GOLDEN / "elliptic_u0_ball_n1.json").read_text())


def test_string_start_point_and_times_are_stage_errors():
    report = run_pipeline(SPEC, z0="0.3", t_grid=["1", "2"], stop_after="semigroup")
    assert report["exit_status"] == EXIT_INPUT_ERROR
    assert report["stages"]["semigroup"] == {
        "status": "error",
        "error": "trajectory time grid must be a list of numbers, got ['1', '2']"}
    report = run_pipeline(SPEC, z0="0.3", stop_after="semigroup")
    assert report["exit_status"] == EXIT_INPUT_ERROR
    assert report["stages"]["semigroup"]["error"].startswith("entries must be numbers: ")


@pytest.mark.parametrize("z0", [[True], [b"1"], np.array([False]), [True, 0.5]])
def test_bool_or_bytes_start_point_is_a_stage_error(z0):
    report = run_pipeline(SPEC, z0=z0, stop_after="semigroup")
    assert report["exit_status"] == EXIT_INPUT_ERROR
    assert report["stages"]["semigroup"]["error"].startswith("entries must be numbers: ")


@pytest.mark.parametrize("t_grid", [[True, False], (False,), np.array([0.5, 1.0]).astype(str),
                                    [True, 2.0]])
def test_bool_or_string_times_are_a_stage_error(t_grid):
    report = run_pipeline(SPEC, t_grid=t_grid, stop_after="semigroup")
    assert report["exit_status"] == EXIT_INPUT_ERROR
    assert report["stages"]["semigroup"]["error"].startswith(
        "trajectory time grid must be a list of numbers")


@pytest.mark.parametrize("call", [
    lambda: linalg.as_vector("1"),
    lambda: linalg.as_vector([True]),
    lambda: linalg.as_vector(b"1"),
    lambda: linalg.as_matrix([["0.5"]]),
    lambda: linalg.as_matrix(np.eye(2, dtype=bool)),
    lambda: BallMap([["0.5"]], ["0"], ["0"]),
    lambda: BallMap([[0.5]], [0], [0], True),
    lambda: SiegelMap("2", [], 0, [], []),
    lambda: linalg.as_vector([True, 0.5]),
    lambda: linalg.as_vector([np.array(True), 0.5]),
    lambda: linalg.as_matrix([np.array([True]), np.array([0.5])]),
], ids=["str", "bool list", "bytes", "str matrix", "bool array", "str ball map", "bool D",
        "str lam", "bool among floats", "0-d bool array among floats",
        "bool array row among float rows"])
def test_converters_refuse_strings_bytes_and_bools(call):
    with pytest.raises(DomainError, match="^entries must be numbers: "):
        call()


def test_family_times_refuse_strings_and_bools():
    sg = build_semigroup(certify(normal_form(parse_map_spec(SPEC))))
    for ts in (["1"], [True], np.array([b"1"]), [True, 2.0], [np.array(True), 1.0]):
        with pytest.raises(DomainError, match="^times must be real numbers, got "):
            sg.at_many(ts)
    assert _bits(sg.at_many(np.array([1, 2])).A) == _bits(sg.at_many([1.0, 2.0]).A)


def test_numbers_of_every_kind_still_convert():
    for value in (1, 0.5, 1j, np.float32(0.5), np.uint8(3), [1, 2.5], np.arange(3),
                  np.ones(2, dtype=np.complex64)):
        a = linalg.as_vector(value)
        assert a.dtype == complex
        assert _bits(a) == _bits(np.atleast_1d(np.asarray(value, dtype=complex)))
