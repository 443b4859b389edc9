"""Fixed points from one ``np.linalg.eig``, and one stacked SVD over
spread-bounded eigenvalue clusters.

``maps.fixed_points`` groups eigenvalues of the homogeneous matrix into a
cluster only when the cluster's farthest member lies within the Jordan
split ``(c eps scale)^(1/k) max(1, scale)^(1 - 1/k)`` of its anchor.  An
isolated simple eigenvalue gives its eigenvector; every other admissible
cluster is shifted in one stacked ``np.linalg.svd``, which does not run
when there is none.  The former search, which tried every prefix of
nearest eigenvalues with one SVD each, is kept here as the oracle
(:func:`prefix_search`): on the goldens and on two seeded cycles of every
benchmark workload both give the same points within 1e-12.  Where they
differ, the prefix search is wrong: a prefix whose *mean* equals some
other eigenvalue passed as a Jordan cluster and its eigenvectors were
lost, and two eigenvalues of a near-parabolic map 1e-5 apart passed as
one.  Every reported point of the goldens, the workload cycles, the
census corpora and seeded maps drawn to stress the clusters is a fixed
point at 40 digits.
"""

import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lfmsemi import cli, maps
from lfmsemi.cli import EXIT_EMBEDDABLE, EXIT_INPUT_ERROR, parse_map_spec
from lfmsemi.errors import LfmError, NumericError
from lfmsemi.linalg import schur_form
from lfmsemi.maps import (ELLIPTIC, HYPERBOLIC, PARABOLIC, BallMap, SiegelMap, ball_automorphism,
                          cayley_to_ball, classify, fixed_points, to_proj)

import census
from closed_forms import heisenberg_map

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SPECS = sorted(p for p in (ROOT / "tests" / "golden").rglob("*.json")
                      if not p.name.endswith(".report.json"))


def prefix_search(f, tol=1e-9):
    """The fixed points of f by the former search: for each eigenvalue,
    every prefix of its nearest eigenvalues from size n down to 1, one SVD
    of ``m - mean I`` each; the first singular prefix is the cluster."""
    m = to_proj(f).mat
    n = m.shape[0]
    eigs = schur_form(m).eigenvalues
    scale = float(np.max(np.abs(eigs)))
    candidates = []
    used = np.zeros(n, dtype=bool)
    for i in range(n):
        if used[i] or abs(eigs[i]) <= 1e-12 * scale:
            continue
        order = np.argsort(np.abs(eigs - eigs[i]))
        kernel = None
        for k in range(n, 0, -1):
            idx = order[:k]
            if np.any(used[idx]):
                continue
            lam_bar = np.mean(eigs[idx])
            _, svals, vh = np.linalg.svd(m - lam_bar * np.eye(n))
            if svals[-1] <= 1e-10 * max(1.0, svals[0]):
                kernel = [vh[j].conj() for j in range(n)
                          if svals[j] <= 1e-8 * max(1.0, svals[0])]
                used[idx] = True
                break
        if kernel is None:
            used[i] = True
            continue
        candidates.extend(kernel)
        if len(kernel) >= 2:
            rep = maps._nearest_kernel_point(np.column_stack(kernel))
            if rep is not None:
                candidates.append(rep)
    interior, boundary = [], []
    for v in candidates:
        tau = v[-1]
        if abs(tau) <= 1e-9 * np.max(np.abs(v)):
            continue
        p = v[:-1] / tau
        r = float(np.linalg.norm(p))
        if r >= 1.0 + tol:
            continue
        if np.linalg.norm(f(p) - p) > tol:
            continue
        if any(np.linalg.norm(p - q_) <= 1e-7 for q_ in interior + boundary):
            continue
        (interior if r < 1.0 - tol else boundary).append(p)
    if not interior and not boundary:
        raise NumericError("no fixed point found in the closed ball")
    key = lambda p: tuple(np.round(np.concatenate([p.real, p.imag]), 10))
    return sorted(interior, key=key), sorted(boundary, key=key)


def _ball_map(spec: dict) -> BallMap:
    """The ball map the pipeline classifies for a spec."""
    f = parse_map_spec(spec)
    return cayley_to_ball(f) if isinstance(f, SiegelMap) else f


def _perfbench(name: str):
    """The module *name* of ``perfbench/``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _workload_specs(names=None):
    """The maps of the cycle of every benchmark workload, or of those in
    *names*, at seeds 1 and 2."""
    workloads = _perfbench("workloads")
    return [json.loads(w.case(seed, i).spec_text)
            for name, w in sorted(workloads.WORKLOADS.items()) if names is None or name in names
            for seed in (1, 2) for i in range(len(w.cycle))]


def _bits(points):
    return [(p.shape, p.tobytes()) for p in points]


def _assert_matches_prefix_search(f):
    """fixed_points(f) and the prefix search: as many interior and as many
    boundary points, each within 1e-12 of its match in sort order."""
    for got, want in zip(fixed_points(f), prefix_search(f)):
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert np.max(np.abs(p - q)) <= 1e-12


#: goldens on which the prefix search fails: z -> (z1 / 2, 0) has the
#: homogeneous eigenvalues {1, 1/2, 0}, whose mean 1/2 is one of them (see
#: ``WRONG_CLUSTER_MAPS`` below); its fixed point is 0 in closed form
PREFIX_SEARCH_FAILS = {"elliptic_u0_singular_ball_n2"}


def test_goldens_match_the_prefix_search():
    assert len(GOLDEN_SPECS) == 34
    for path in GOLDEN_SPECS:
        f = _ball_map(json.loads(path.read_text()))
        if path.stem in PREFIX_SEARCH_FAILS:
            with pytest.raises(NumericError, match="no fixed point"):
                prefix_search(f)
            interior, boundary = fixed_points(f)
            assert _is_origin(interior) and boundary == []
        else:
            _assert_matches_prefix_search(f)


def test_workload_cycles_match_the_prefix_search():
    specs = _workload_specs()
    assert len(specs) == 138
    for spec in specs:
        _assert_matches_prefix_search(_ball_map(spec))


def _stacked_prefixes(f) -> int:
    """The number of rows of the stacked SVD of f: for each anchor (an
    eigenvalue of T, from ``np.linalg.eig``, of modulus above 1e-12 of the
    largest), the prefixes of its nearest eigenvalues whose farthest member
    lies within the Jordan split of their size and that hold no settled
    earlier anchor (settled: an anchor without an exact twin); less the
    singletons of isolated simple eigenvalues, settled anchors whose only
    prefix is their singleton and that no longer prefix holds."""
    eigs = np.linalg.eig(to_proj(f).mat)[0]
    n, scale = len(eigs), float(np.max(np.abs(eigs)))
    anchors = np.flatnonzero(np.abs(eigs) > 1e-12 * scale)
    settled = [abs(x) > 1e-12 * scale and np.sum(eigs == x) == 1 for x in eigs]
    inverse = 1.0 / np.arange(1, n + 1)
    split = ((maps._JORDAN_SPLIT_FACTOR * np.finfo(float).eps * scale) ** inverse
             * max(1.0, scale) ** (1.0 - inverse))
    dist = np.abs(eigs[anchors, None] - eigs[None, :])
    prefixes = []
    for i, reach, near in zip(anchors, dist, np.argsort(dist, axis=1)):
        for k in range(1, n + 1):
            if any(settled[j] and j < i for j in near[:k]):
                break
            if reach[near[k - 1]] <= split[k - 1]:
                prefixes.append((i, near[:k]))
    rows = Counter(i for i, _ in prefixes)
    held = {j for _, prefix in prefixes if len(prefix) > 1 for j in prefix}
    lone = [i for i, prefix in prefixes
            if len(prefix) == 1 and rows[i] == 1 and settled[i] and i not in held]
    return len(prefixes) - len(lone)


def test_one_stacked_svd(monkeypatch):
    """At most one SVD per map, whose stack holds exactly the prefixes of
    :func:`_stacked_prefixes`, and none when every eigenvalue is isolated
    and simple: on the goldens and workload cycles, many maps take none,
    every map of ``branch_search`` among them."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a.shape)
                        or svd(a, *args, **kw))
    specs = [json.loads(path.read_text()) for path in GOLDEN_SPECS] + _workload_specs()
    assert len(specs) == 34 + 138
    without = 0
    for spec in specs:
        f = _ball_map(spec)
        before = len(calls)
        fixed_points(f)
        n, rows = f.dim + 1, _stacked_prefixes(f)
        assert calls[before:] == ([(rows, n, n)] if rows else [])
        without += not rows
    assert without >= 80
    assert all(_stacked_prefixes(_ball_map(spec)) == 0
               for spec in _workload_specs({"branch_search"}))


def _raising_eig(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _inaccurate_eig(a, eig=np.linalg.eig):
    lam, vecs = eig(a)
    return lam, vecs + 1e-6  # a residual of about 1e-6


@pytest.mark.parametrize("eig, message", [
    (_raising_eig, "eigendecomposition failed: Eigenvalues did not converge"),
    (_inaccurate_eig, "eigendecomposition residual"),
], ids=["raises", "residual"])
def test_a_failed_eigendecomposition_is_a_classify_stage_error(eig, message, monkeypatch,
                                                                capsys):
    monkeypatch.setattr(np.linalg, "eig", eig)
    spec = ROOT / "tests" / "golden" / "hyperbolic_ball_n2.json"
    assert cli.main(["classify", str(spec)]) == EXIT_INPUT_ERROR
    assert f"stage classify error: {message}" in capsys.readouterr().err


def _fixed_point_bits(f):
    """Every bit of ``fixed_points(f)``: its points, eigenvalues and
    matrix, or the message of its error."""
    try:
        found = fixed_points(f)
    except NumericError as exc:
        return str(exc)
    interior, boundary = found
    return _bits(interior), _bits(boundary), _bits([found.eigenvalues, found.proj.mat])


def _census_maps():
    fs = []
    for build in census.CORPORA.values():
        for spec in build():
            try:
                fs.append(_ball_map(spec))
            except LfmError:  # a perturbed map that leaves the ball
                continue
    return fs


def _stress_elliptic(rng, n: int, pattern: str, radius: float) -> BallMap:
    """The ball map of ``census.stress_elliptic``."""
    hom = census.stress_elliptic(rng, n, pattern, radius)
    return BallMap(hom[:n, :n], hom[:n, n], np.conj(hom[n, :n]))


def _stress_maps() -> list:
    """Seeded maps of dims 1-8 drawn to stress the clusters: elliptic maps
    (:func:`_stress_elliptic`) of every pattern with the fixed point at
    |a| in {0, 0.5, 0.9, 1 - 1e-3, 1 - 1e-4, 1 - 1e-6}, and hyperbolic maps
    of dilation 1 + 10^-k, k = 1..6, and parabolic maps, from the
    benchmark's generators, each also moved by an automorphism of centre
    radius 0.9: near k = 6 two eigenvalues of T lie about 1e-6 apart and
    the SVD kernel of one of them is two-dimensional.  At |a| = 1 - 1e-6
    and N >= 3 ``fixed_points`` may find no point (ROADMAP item 19)."""
    specs = _perfbench("specs")
    rng = np.random.default_rng(39)
    fs = []
    for n in range(1, 9):
        for pattern in ("simple", "gaps", "jordan", "derogatory"):
            for radius in (0.0, 0.5, 0.9, 1 - 1e-3, 1 - 1e-4, 1 - 1e-6):
                for _ in range(3):
                    try:
                        fs.append(_stress_elliptic(rng, n, pattern, radius))
                    except LfmError:  # rounding took a map near the sphere out of the ball
                        continue
        boundary = [specs.hyperbolic_spec(rng, n, min(n, 3), dilation=1.0 + 10.0 ** -k)
                    for k in range(1, 7)]
        boundary += [specs.parabolic_spec(rng, n, min(n, 3)) for _ in range(3)]
        for spec in boundary:
            f = _ball_map(spec)
            direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mover = ball_automorphism(0.9 * direction / np.linalg.norm(direction))
            fs.append(f)
            try:
                fs.append(maps.conjugate(f, mover))
            except LfmError:
                continue
    return fs


def _residual_at_40_digits(f: BallMap, p: np.ndarray) -> float:
    """|f(p) - p| for the stored point p, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        z = [mpmath.mpc(x) for x in p.tolist()]
        den = mpmath.fsum(x * mpmath.conj(c) for x, c in zip(z, f.C.tolist())) + f.D
        image = [(mpmath.fsum(a * x for a, x in zip(row, z)) + b) / den
                 for row, b in zip(f.A.tolist(), f.B.tolist())]
        return float(mpmath.sqrt(mpmath.fsum(abs(w - x) ** 2 for w, x in zip(image, z))))


POINT_CORPORA = {
    "goldens": lambda: [_ball_map(json.loads(p.read_text())) for p in GOLDEN_SPECS],
    "workloads": lambda: [_ball_map(spec) for spec in _workload_specs()],
    "census": _census_maps,
    "stress": _stress_maps,
}

#: corpus -> (least number of maps, least number of points)
POINT_FLOORS = {"goldens": (34, 37), "workloads": (138, 138), "census": (500, 700),
                "stress": (700, 600)}


@pytest.mark.parametrize("corpus", list(POINT_CORPORA))
def test_reported_points_are_fixed_at_40_digits(corpus):
    """Every point fixed_points reports has |f(p) - p| <= 1e-9
    (``_FIXED_POINT_TOL``) in 40-digit arithmetic; a map with no point
    found (census ``small_spectrum``, ``dead_band``, ROADMAP item 19) has
    none to check."""
    fs = POINT_CORPORA[corpus]()
    least_maps, least_points = POINT_FLOORS[corpus]
    assert len(fs) >= least_maps
    points = 0
    for f in fs:
        try:
            interior, boundary = fixed_points(f)
        except NumericError:
            continue
        for p in interior + boundary:
            assert _residual_at_40_digits(f, p) <= maps._FIXED_POINT_TOL, f
            points += 1
    assert points >= least_points


def test_stress_maps_cover_their_patterns():
    fs = _stress_maps()
    assert {f.dim for f in fs} == set(range(1, 9))
    kinds, near = Counter(), 0
    for f in fs:
        try:
            cls = classify(f)
        except LfmError:  # the classifier's dead band near dilation 1
            kinds["error"] += 1
            continue
        kinds[cls.kind] += 1
        near += any(1.0 - np.linalg.norm(p) <= 2e-6 for p in cls.interior_fixed_points)
    assert kinds[ELLIPTIC] >= 400 and kinds[HYPERBOLIC] >= 60 and kinds[PARABOLIC] >= 40
    assert near >= 20  # interior fixed points within 1e-6 of the sphere


def test_fixed_points_is_reentrant():
    """Threads may find fixed points at once."""
    fs = [_ball_map(spec) for spec in _workload_specs()[:40]]
    want = [_fixed_point_bits(f) for f in fs]
    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(_fixed_point_bits, fs * 4)) == want * 4


# ---------------------------------------------------------------------------
# a prefix whose mean is another eigenvalue is no cluster


def _evenly_spaced(n):
    """z -> diag(1 - j / (2n)) z, j = 1..n: with the eigenvalue 1 of the
    homogeneous matrix, n + 1 eigenvalues evenly spaced on [1/2, 1] whose
    mean 3/4 is one of them (n even)."""
    return np.diag(1.0 - 0.5 * np.arange(1, n + 1) / n)


WRONG_CLUSTER_MAPS = [_evenly_spaced(2), _evenly_spaced(4), _evenly_spaced(8),
                      np.diag([0.6, 0.2]), np.diag([0.3, -0.4])]


def _is_origin(points):
    return len(points) == 1 and np.array_equal(points[0], np.zeros(len(points[0])))


def _linear(a):
    n = len(a)
    return BallMap(a, np.zeros(n), np.zeros(n))


@pytest.mark.parametrize("a", WRONG_CLUSTER_MAPS,
                         ids=["even_n2", "even_n4", "even_n8", "diag_0.6_0.2", "diag_0.3_-0.4"])
def test_mean_of_a_prefix_is_not_a_cluster(a):
    # the closed form: a linear contraction is elliptic and fixes exactly 0
    f = _linear(a)
    with pytest.raises(NumericError, match="no fixed point"):
        prefix_search(f)
    cls = classify(f)
    assert cls.kind == ELLIPTIC
    assert _is_origin(cls.interior_fixed_points)
    assert cls.boundary_fixed_points == []


def _ball_spec(a) -> dict:
    n = len(a)
    pair = lambda x: [float(np.real(x)), float(np.imag(x))]
    return {"dimension": n, "domain": "ball",
            "A": [[pair(x) for x in row] for row in a],
            "B": [[0.0, 0.0]] * n, "C": [[0.0, 0.0]] * n, "D": [1.0, 0.0]}


@pytest.mark.parametrize("n", [2, 4, 8])
def test_mean_of_a_prefix_report_exits_0(n, tmp_path):
    spec_path, out_path = tmp_path / "map.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(_ball_spec(_evenly_spaced(n))))
    assert cli.main(["report", str(spec_path), "--output", str(out_path)]) == EXIT_EMBEDDABLE
    classified = json.loads(out_path.read_text())["stages"]["classify"]
    assert classified["kind"] == ELLIPTIC
    assert classified["interior_fixed_points"] == [[[0.0, 0.0]] * n]


# ---------------------------------------------------------------------------
# Jordan clusters, which split by eps^(1/k): the bound must hold them whole


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_jordan_block_keeps_its_fixed_point(k):
    # z -> U J U^H z, J = 0.5 I + 0.3 N a Jordan block of size k: the
    # eigenvalue 0.5 of the homogeneous matrix splits by about eps^(1/k)
    # (0.01 at k = 8), and the whole cluster must lie within the bound
    rng = np.random.default_rng(k)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    jordan = 0.5 * np.eye(k) + 0.3 * np.eye(k, k=1)
    f = _linear(q @ jordan @ q.conj().T)
    found = fixed_points(f)
    eigs = found.eigenvalues
    cluster = eigs[np.argsort(np.abs(eigs))[:k]]
    assert np.max(np.abs(cluster - cluster[0])) > 0.0  # the computed eigenvalues split
    interior, boundary = found
    assert _is_origin(interior)
    assert boundary == []


# ---------------------------------------------------------------------------
# the near-parabolic dead band


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [4, 5])
def test_near_parabolic_siegel_map_is_hyperbolic(n, k):
    # (z, w) -> (lam z + 0.3 + i, M w), lam = 1 + 10^-k: the eigenvalues lam
    # and 1 of the homogeneous matrix lie 10^-k apart, far beyond the Jordan
    # split of a double eigenvalue (about 5e-7), so they are two clusters;
    # the Denjoy-Wolff point is e1 with dilation 1/lam
    lam = 1.0 + 10.0 ** -k
    m = np.diag([0.5, 0.4, 0.3][: n - 1]).astype(complex)
    f = cayley_to_ball(SiegelMap(lam, np.zeros(n - 1), 0.3 + 1j, m, np.zeros(n - 1)))
    cls = classify(f)
    assert cls.kind == HYPERBOLIC
    assert abs(cls.delta - 1.0 / lam) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_heisenberg_translation_is_parabolic(n):
    # (z, w) -> (z + 2i <w, g> + beta, w + g), Im beta = |g|^2: a parabolic
    # automorphism whose one fixed point in the closed ball is e1, where the
    # eigenvalue 1 has a Jordan block of size 3; split into singletons, its
    # inaccurate eigenvectors pass as extra boundary fixed points
    rng = np.random.default_rng(n)
    g = 0.3 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    f = cayley_to_ball(heisenberg_map(g, 0.7 + 1j * np.vdot(g, g).real))
    cls = classify(f)
    assert cls.kind == PARABOLIC
    assert cls.interior_fixed_points == [] and len(cls.boundary_fixed_points) == 1
    assert np.linalg.norm(cls.dw_point - np.eye(n)[0]) <= 1e-9


def test_nearest_kernel_point_in_closed_form():
    """On random orthonormal bases of dims 2-9, the point has tau = 1 and is
    orthogonal to every direction of the span with tau = 0, so it is the
    point of the affine fixed set nearest 0."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(2, n + 1))
        basis, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        v = maps._nearest_kernel_point(basis)
        assert abs(v[-1] - 1.0) <= 1e-15
        _, _, vh = np.linalg.svd(basis[-1][None])
        directions = basis @ vh[1:].conj().T  # the span's vectors with tau = 0
        assert np.max(np.abs(directions[-1])) <= 1e-15
        assert np.max(np.abs(directions.conj().T @ v)) <= 1e-14 * np.linalg.norm(v)
    flat = np.eye(3)[:, :2]  # tau = 0 on the whole span: no point
    assert maps._nearest_kernel_point(flat) is None
