"""Ball maps that skip the constructor's self-map check.

Every ball map the library hands out passes the exact self-map test of
:class:`~lfmsemi.maps.BallMap`.  Four kinds of map skip it, built by
``maps._trusted_ball_map``.  The automorphisms of ``ball_automorphism``,
built from their closed form, among them the one that centres a fixed
point in a reduction.  The intermediate maps of a reduction, which the
library only reads or evaluates: a unitary built to conjugate by and to
record in a chain, kept as a ``ProjMap``, and a map conjugated by a change
of variable (``conjugate`` of its ``ProjMap``, read back by
``maps._read_unchecked``).
The split normal map, whose reducer proves |Lambda_j| = 1 and
||A1|| <= 1 + 1e-10.  And the maps of a ball family whose generator has a
flow margin >= 0, self-maps by Nagumo's theorem; a margin within the
slack below 0 proves nothing for a large t, and those maps get the per-map
check.  The old
check is the oracle here: every trusted map of the golden pipelines and of
two seeded cycles of the four cases in dims 1-8 passes
``maps._self_map_margins`` with the self-map slack, and its fields have
the bits of the checked constructor's.  The other public builders
(``compose``, ``inverse``, ``conjugate``) keep the check, also on maps that
sit inside the slack, and ``conjugate`` has no switch that skips it.  The
sign of the generator gate near 0 is held to an mpmath pencil at 50 digits.
"""

import inspect
import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lfmsemi import embedding as emb, maps, normal_forms
from lfmsemi.cli import EXIT_EMBEDDABLE, run_pipeline
from lfmsemi.embedding import EMBEDDABLE, SemigroupFamily
from lfmsemi.errors import DomainError
from lfmsemi.linalg import mat_exp
from lfmsemi.maps import (BALL, BallMap, ProjMap, ball_automorphism, ball_map_from_proj,
                          compose, conjugate, inverse, to_proj)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SPECS = sorted(p for p in (ROOT / "tests" / "golden").rglob("*.json")
                      if not p.name.endswith(".report.json"))

#: the sites that build a trusted map, by the name of the calling function
SITES = {"ball_automorphism", "_change_of_variable", "_read_unchecked", "_ball_flow",
         "split_normal_map"}


def _fields(f):
    return [np.asarray(getattr(f, name)) for name in "ABCD"]


def _assert_checked_oracle(args, f):
    """f, built from args without a check, passes the old check with the
    self-map slack and has the bits of the checked ``BallMap(*args)``."""
    checked = BallMap(*args)
    for x, y in zip(_fields(f), _fields(checked)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    n = f.dim
    margins = maps._self_map_margins(f.A.reshape(-1, n, n), f.B.reshape(-1, n),
                                     f.C.reshape(-1, n))
    assert np.all(margins >= -1e-9), float(np.min(margins))


@pytest.fixture
def trusted(monkeypatch):
    """Records (site, args, map) of every trusted construction."""
    built = []
    original = maps._trusted_ball_map

    def record(*args):
        f = original(*args)
        built.append((sys._getframe(1).f_code.co_name, args, f))
        return f

    monkeypatch.setattr(maps, "_trusted_ball_map", record)
    monkeypatch.setattr(emb, "_trusted_ball_map", record)
    monkeypatch.setattr(normal_forms, "_trusted_ball_map", record)
    return built


def _run_specs(specs, built):
    for spec in specs:
        before = len(built)
        run_pipeline(spec)
        for site, args, f in built[before:]:
            assert site in SITES
            _assert_checked_oracle(args, f)


def test_golden_pipelines(trusted):
    specs = [json.loads(p.read_text()) for p in GOLDEN_SPECS]
    assert len(specs) == 34
    _run_specs(specs, trusted)
    assert {site for site, _, _ in trusted} == SITES


def test_seeded_cycles_of_every_case_and_dimension(trusted):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    w = workloads.WORKLOADS["triage"]  # the four cases x dims 1-8
    cases = [w.case(seed, i) for seed in (1, 2) for i in range(len(w.cycle))]
    assert {json.loads(c.spec_text)["dimension"] for c in cases} == set(range(1, 9))
    _run_specs([json.loads(c.spec_text) for c in cases], trusted)
    assert {site for site, _, _ in trusted} == SITES


# ---------------------------------------------------------------------------
# the public builders keep the check


def _error_of(build):
    with pytest.raises(DomainError) as exc:
        build()
    return str(exc.value)


def _scalar_map(a):
    return BallMap(np.array([[a]]), np.zeros(1), np.zeros(1))


def test_inverse_of_a_contraction_inside_the_automorphism_tolerance(trusted):
    # 1 - 5e-9 passes the automorphism test at its 1e-8 (deviation 7.1e-9),
    # but its inverse sits 3.5e-9 outside the ball
    f = _scalar_map(1.0 - 5e-9)
    assert emb.is_automorphism(f)
    message = _error_of(lambda: inverse(f))
    assert message == _error_of(lambda: ball_map_from_proj(to_proj(f).inverse()))
    assert message.startswith("not a self-map of the ball") and not trusted


def test_composition_of_maps_inside_the_slack(trusted):
    # each factor sits 8.5e-10 outside the ball, within the slack; the
    # composition sits 1.7e-9 outside, beyond it
    f = _scalar_map(1.0 + 1.2e-9)
    margin = maps._self_map_margins(f.A[None], f.B[None], f.C[None])[0]
    assert -1e-9 <= margin < 0
    message = _error_of(lambda: compose(f, f))
    assert message == _error_of(lambda: ball_map_from_proj(to_proj(f).then(to_proj(f))))
    assert message.startswith("not a self-map of the ball") and not trusted


def test_conjugation_of_a_map_inside_the_slack(trusted):
    # f sits 7.8e-10 outside the ball; conjugated by the automorphism at
    # 0.9, whose homogeneous matrix is badly conditioned, 1.5e-8 outside
    f = _scalar_map(1.0 + 1.1e-9)
    s = ball_automorphism([0.9])
    message = _error_of(lambda: conjugate(f, s))
    p = to_proj(s).inverse().then(to_proj(f)).then(to_proj(s))
    assert message == _error_of(lambda: ball_map_from_proj(p))
    assert message.startswith("not a self-map of the ball")
    assert [site for site, _, _ in trusted] == ["ball_automorphism"]  # s, not the conjugate


def test_automorphism_near_the_sphere_is_built(trusted):
    # S = T^H J T = (1 - |a|^2) J is tiny near the sphere, so rounding alone
    # sets the relative margin of the constructor's check: it refused every
    # centre with |a|^2 = 1 - 10^-k, k = 8 to 15
    a = np.array([0.6, 0.5j, 0.1])
    for k in range(6, 16):
        centre = np.sqrt(1.0 - 10.0 ** -k) * a / np.linalg.norm(a)
        f = ball_automorphism(centre)
        assert np.array_equal(f.B, centre) and np.array_equal(f.C, -centre)
        if k <= 7:
            _assert_checked_oracle(maps._automorphism_fields(centre), f)
    assert [site for site, _, _ in trusted] == ["ball_automorphism"] * 10
    with pytest.raises(DomainError, match="^automorphism center must lie inside the ball"):
        ball_automorphism(2.0 * a)


def test_inverse_of_a_contraction_keeps_the_check(trusted):
    f = BallMap(0.5 * np.eye(2), np.zeros(2), np.zeros(2))
    message = _error_of(lambda: inverse(f))
    assert message == _error_of(lambda: BallMap(2.0 * np.eye(2), np.zeros(2), np.zeros(2)))
    assert not trusted


def test_conjugation_by_a_non_automorphism_keeps_the_check(trusted):
    # s = 2 z is no automorphism; s f s^-1 (z) = 2 f(z / 2) = 0.5 z + 0.8 e1
    f = BallMap(0.5 * np.eye(2), np.array([0.4, 0.0]), np.zeros(2))
    message = _error_of(lambda: conjugate(f, ProjMap(np.diag([2.0, 2.0, 1.0]))))
    assert message == _error_of(lambda: BallMap(0.5 * np.eye(2), np.array([0.8, 0.0]),
                                                np.zeros(2)))
    # a conjugation by a non-automorphism that stays in the ball is checked and kept
    g = conjugate(f, ProjMap(np.diag([0.5, 0.5, 1.0])))
    assert not trusted and np.allclose(g.B, [0.2, 0.0])


def test_conjugate_hands_out_no_unchecked_ball_map(trusted):
    # s = diag(3, 1) sends f = (0.5 z1 + 0.4, 0.5 z2) to a map with
    # 0 -> (1.2, 0): a BallMap f gives a checked BallMap, so the call raises,
    # and a ProjMap f gives a ProjMap, which claims no self-map property
    f = BallMap(0.5 * np.eye(2), np.array([0.4, 0.0]), np.zeros(2))
    s = ProjMap(np.diag([3.0, 1.0, 1.0]))
    assert _error_of(lambda: conjugate(f, s)) == "not a self-map of the ball (margin -9.511e-01)"
    p = conjugate(to_proj(f), s)
    assert type(p) is ProjMap and np.allclose(p(np.zeros(2)), [1.2, 0.0])
    assert "checked" not in inspect.signature(conjugate).parameters
    assert not trusted


def test_public_builders_run_the_check_once(monkeypatch):
    calls = []
    original = maps._require_ball_self_maps
    monkeypatch.setattr(maps, "_require_ball_self_maps",
                        lambda *args: calls.append(1) or original(*args))
    f = BallMap(0.5 * np.eye(2), np.array([0.1, 0.0]), np.zeros(2))
    auto = ball_automorphism([0.3, 0.2j])
    calls.clear()
    for build in (lambda: compose(f, auto), lambda: inverse(auto),
                  lambda: conjugate(f, auto)):
        build()
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# the generator gate


def _split_family(theta, m):
    g = emb._split_matrix(theta, m)
    return g, SemigroupFamily("elliptic_split", g, BALL)


def test_generator_within_the_slack_gets_the_per_map_check(monkeypatch):
    # M = diag(2e-10, -0.5): the flow margin is -2e-10, inside the slack,
    # but exp(t G) leaves the ball by about 1.4e-10 t: exp(G) passes the
    # per-map check and exp(10 G) fails it, as it did before the gate
    g, family = _split_family(np.zeros(0), np.diag([2e-10, -0.5]).astype(complex))
    assert -1e-9 <= maps._flow_margin(g) < 0
    calls = []
    original = maps._require_ball_self_maps
    monkeypatch.setattr(maps, "_require_ball_self_maps",
                        lambda *args: calls.append(len(args[0])) or original(*args))
    stack = family.at_many([0.0, 0.5, 1.0])
    assert calls == [3]
    e = mat_exp(10.0 * g[:-1, :-1])
    message = _error_of(lambda: BallMap(e, np.zeros(2), np.zeros(2)))
    assert message.startswith("not a self-map of the ball")
    with pytest.raises(DomainError) as exc:
        family.at_many([0.0, 1.0, 10.0])
    assert str(exc.value) == message
    assert len(stack) == 3


def _mp_flow_margin(g: np.ndarray):
    """lambda_min(mu J - X) of X = J G + G^H J at 50 digits, mu midway
    between the two largest real parts of eig(J X): the rule of
    ``maps.pencil_margins``, on the exact values of the entries of G."""
    with mpmath.workdps(50):
        n = len(g)
        j = [mpmath.mpf(1)] * (n - 1) + [mpmath.mpf(-1)]
        gm = mpmath.matrix([[mpmath.mpc(complex(z).real, complex(z).imag) for z in row]
                            for row in g])
        x = mpmath.matrix(n, n)
        for r in range(n):
            for c in range(n):
                x[r, c] = j[r] * gm[r, c] + j[c] * mpmath.conj(gm[c, r])
        jx = mpmath.matrix(n, n)
        for r in range(n):
            for c in range(n):
                jx[r, c] = j[r] * x[r, c]
        top = sorted(mpmath.re(e) for e in mpmath.eig(jx, left=False, right=False))[-2:]
        mu = (top[0] + top[1]) / 2
        pencil = mpmath.matrix(n, n)
        for r in range(n):
            for c in range(n):
                pencil[r, c] = (mu * j[r] if r == c else 0) - x[r, c]
        return min(mpmath.re(e) for e in mpmath.eighe(pencil, eigvals_only=True))


@pytest.mark.parametrize("theta", [np.zeros(0), np.array([0.3])])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_generator_gate_sign_near_zero(theta, sign):
    q, _ = np.linalg.qr(np.array([[1.0, 2.0 - 1j], [0.5j, -1.0]]))
    g, family = _split_family(theta, q @ np.diag([sign * 1e-7, -0.5]) @ q.conj().T)
    exact = _mp_flow_margin(g)
    margin = maps._flow_margin(g)
    if sign > 0:  # the flow grows along an eigenvector of Herm M: refused
        assert exact < -mpmath.mpf("1e-8") and margin < -1e-9
        with pytest.raises(DomainError, match="^the flow of the generator leaves the ball"):
            family.at_many([0.0, 0.5, 1.0])
    else:  # dissipative: accepted
        assert exact >= 0 and margin >= -1e-9
        stack = family.at_many([0.0, 0.5, 1.0])
        assert len(stack) == 3


def test_gate_admits_a_small_generator_its_criterion_admits():
    # z -> diag(e^{0.3i}, exp(M)) z with M = [[m, beta], [0, m]], m = -1e-4:
    # the top eigenvalue of Herm M is m + |beta| / 2 = 5e-11, inside the
    # split criterion's 1e-10, and ||X||_F is 2.8e-4.  Over ||X||_F alone
    # the gate would refuse the family the criterion certified.
    m = np.array([[-1e-4, 2 * (1e-4 + 5e-11)], [0.0, -1e-4]], dtype=complex)
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0], a[1:, 1:] = np.exp(0.3j), mat_exp(m)
    spec = {"dimension": 3, "domain": "ball",
            "A": [[[z.real, z.imag] for z in row] for row in a.tolist()],
            "B": [[0.0, 0.0]] * 3, "C": [[0.0, 0.0]] * 3, "D": [1.0, 0.0]}
    report = run_pipeline(spec)
    assert report["stages"]["embed"]["verdict"] == EMBEDDABLE
    assert report["stages"]["semigroup"]["status"] == "ok"
    assert report["exit_status"] == EXIT_EMBEDDABLE
    g = emb._split_matrix(np.array([0.3]), m)
    x = maps.flow_form(g)
    unnormalised = maps.pencil_margins(x[None])[0]
    assert unnormalised == pytest.approx(-5e-11, rel=1e-3)
    assert unnormalised / np.linalg.norm(x) < -1e-9 <= maps._flow_margin(g)


def test_gate_refuses_a_generator_with_a_nan_entry():
    g, family = _split_family(np.zeros(0),
                              np.array([[-0.5, np.nan], [0.0, -0.5]], dtype=complex))
    assert np.isnan(maps._flow_margin(g))
    with pytest.raises(DomainError, match=r"^the flow of the generator leaves the ball "
                                          r"\(margin nan\)$"):
        family.at_many([0.0, 1.0])
