"""Classification read off one Schur form of the homogeneous matrix.

``maps.classify`` takes the multipliers of an elliptic map, the eigenvalues
of its differential at the interior fixed point p, from the Schur form that
``maps.fixed_points`` computes: T (p, 1) = mu_p (p, 1), and the other
eigenvalues of T over mu_p are the multipliers.  The oracle is the
differential itself: its eigenvalues, and their unimodular count, the
unitary index.  The pipeline to the normal form makes one Schur form of T,
evaluates a map at a point inside ``classify`` only where ``fixed_points``
checks its candidates (the boundary points are not checked again), and
checks a ball map only at the input and for the u0 normal map, which
nothing in its reducer proves a self-map.  The unitary index is counted
once per classification.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lfmsemi import cli, maps, normal_forms
from lfmsemi.cli import run_pipeline
from lfmsemi.linalg import unimodular_count
from lfmsemi.maps import ELLIPTIC, BallMap, ball_automorphism, classify, compose
from lfmsemi.normal_forms import FORM_ELLIPTIC_U0

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SPECS = sorted(p for p in (ROOT / "tests" / "golden").rglob("*.json")
                      if not p.name.endswith(".report.json"))


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _elliptic_maps(count=80, seed=3):
    """phi_a o (z -> U L U^H z) o phi_a with L = blockdiag(diag(e^{i theta}),
    K): the fixed point a, the multipliers the eigenvalues of L.  K is
    diagonal or upper bidiagonal, with distinct diagonal entries and norm
    at most 0.95; u unimodular entries, 0 to n."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 1 + i % 8
        u = int(rng.integers(0, n + 1))
        k = n - u
        block = np.diag(0.9 * np.sqrt(rng.uniform(0.0, 1.0, k))
                        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k)))
        if k > 1 and i % 2:  # bidiagonal
            block += np.diag(0.5 * (rng.standard_normal(k - 1)
                                    + 1j * rng.standard_normal(k - 1)), 1)
        if k:
            block *= min(1.0, 0.95 / np.linalg.norm(block, 2))
        lin = np.zeros((n, n), dtype=complex)
        lin[range(u), range(u)] = np.exp(2j * np.pi * rng.uniform(0.05, 0.95, u))
        lin[u:, u:] = block
        q = _unitary(rng, n)
        a = 0.6 * rng.uniform(0.0, 1.0) * _unitary(rng, n)[:, 0]
        phi = ball_automorphism(a)
        inner = BallMap(q @ lin @ q.conj().T, np.zeros(n), np.zeros(n))
        out.append((compose(phi, compose(inner, phi)), u, k > 1 and i % 2))
    return out


ELLIPTIC_MAPS = _elliptic_maps()


def test_corpus_covers_dims_and_bidiagonal_blocks():
    assert len(ELLIPTIC_MAPS) == 80
    for n in range(1, 9):  # every dimension with unitary index 0 and 1
        assert {0, 1} <= {u for f, u, _ in ELLIPTIC_MAPS if f.dim == n}
    assert sum(bidiagonal for _, _, bidiagonal in ELLIPTIC_MAPS) == 28


@pytest.mark.parametrize("index", range(80))
def test_multipliers_are_the_spectrum_of_the_differential(index):
    f, u, _ = ELLIPTIC_MAPS[index]
    cls = classify(f)
    assert cls.kind == ELLIPTIC
    p = cls.interior_fixed_points[0]
    want = np.linalg.eigvals(f.differential(p))
    assert cls.unitary_index == unimodular_count(want) == u
    assert cls.multipliers.shape == want.shape
    cost = np.abs(cls.multipliers[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= 1e-12


def test_non_elliptic_maps_carry_no_multipliers():
    for name in ("hyperbolic_ball_n2", "parabolic_ball_n2"):
        f = cli.parse_map_spec(json.loads((ROOT / "tests" / "golden" / f"{name}.json").read_text()))
        cls = classify(f)
        assert cls.multipliers is None and cls.unitary_index is None


# ---------------------------------------------------------------------------
# call counts on the way to the normal form


class _Counts:
    def __init__(self):
        self.in_classify = self.in_fixed_points = False
        self.schur_shapes = []
        self.calls_in_classify = 0
        self.ball_checks = 0


@pytest.fixture
def counts(monkeypatch):
    c = _Counts()
    classify_, fixed_points, schur, call, init = (
        maps.classify, maps.fixed_points, maps.schur_form, BallMap.__call__,
        BallMap.__post_init__)

    def counted_classify(f):
        c.in_classify = True
        try:
            return classify_(f)
        finally:
            c.in_classify = False

    def counted_fixed_points(f):
        c.in_fixed_points = True
        try:
            return fixed_points(f)
        finally:
            c.in_fixed_points = False

    def counted_schur(a, *args, **kwargs):
        if c.in_classify:
            c.schur_shapes.append(np.shape(a))
        return schur(a, *args, **kwargs)

    def counted_call(self, z):
        c.calls_in_classify += c.in_classify and not c.in_fixed_points
        return call(self, z)

    def counted_init(self):
        c.ball_checks += 1
        return init(self)

    monkeypatch.setattr(cli, "classify", counted_classify)
    monkeypatch.setattr(maps, "fixed_points", counted_fixed_points)
    for module in (maps, normal_forms):
        monkeypatch.setattr(module, "schur_form", counted_schur)
    monkeypatch.setattr(BallMap, "__call__", counted_call)
    monkeypatch.setattr(BallMap, "__post_init__", counted_init)
    return c


@pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.stem)
def test_one_schur_form_of_t_and_no_rechecks(path, counts):
    spec = json.loads(path.read_text())
    report = run_pipeline(spec, stop_after="normal_form")
    n = spec["dimension"]
    assert report["stages"]["classify"]["status"] == "ok"
    assert counts.schur_shapes == [(n + 1, n + 1)]
    assert counts.calls_in_classify == 0
    stage = report["stages"]["normal_form"]
    u0 = stage["status"] == "ok" and stage["form_kind"] == FORM_ELLIPTIC_U0
    assert counts.ball_checks == 1 + u0


@pytest.mark.parametrize("path", [p for p in GOLDEN_SPECS if p.stem.startswith("elliptic")],
                         ids=lambda p: p.stem)
def test_unitary_index_is_counted_once(path, monkeypatch):
    """The CLI's classify stage, ``normal_form`` and the reducer each read
    ``Classification.unitary_index``; the multipliers are counted once."""
    calls = []
    monkeypatch.setattr(maps, "unimodular_count",
                        lambda eigs: calls.append(len(eigs)) or unimodular_count(eigs))
    report = run_pipeline(json.loads(path.read_text()), stop_after="normal_form")
    assert report["stages"]["classify"]["kind"] == ELLIPTIC
    assert len(calls) == 1
