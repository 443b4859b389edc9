"""Exact decisions on the homogeneous matrix, against closed-form oracles.

A ball map is a self-map exactly when mu J - T^H J T >= 0 for some mu
(J = diag(I_N, -1)); an automorphism exactly when T^H J T = c J with
c > 0; the identity exactly when T is a multiple of I.  These tests check
the constructor's self-map test on linear maps (accepted iff the operator
norm is at most 1) and on Cayley images of affine Siegel maps (accepted
iff the conditions P1-P3 hold), the automorphism and identity predicates,
and the u0 criterion's margin: the constructor's pencil test on the
homogeneous generator, the same for every seed, checked against the two
bounds the branch lattice assumes, the closed form in dimension 1 and a
polished sphere sample on either side of the boundary.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import cli, maps
from lfmsemi import embedding as emb
from lfmsemi.embedding import is_automorphism
from lfmsemi.errors import DomainError
from lfmsemi.linalg import hermitian_part
from lfmsemi.maps import (
    BallMap,
    ProjMap,
    SiegelMap,
    ball_automorphism,
    cayley_to_ball,
    compose,
    heisenberg_map,
    identity_ball_map,
    identity_siegel_map,
    is_identity,
    unitary_ball_map,
)
from lfmsemi.normal_forms import FORM_ELLIPTIC_U0, NormalForm, normal_form, siegel_conditions


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _margin(f: BallMap) -> float:
    return float(maps._self_map_margins(f.A[None], f.B[None], f.C[None])[0])


def _accepted(make) -> bool:
    try:
        make()
    except DomainError:
        return False
    return True


# ---------------------------------------------------------------------------
# the self-map test


@pytest.mark.parametrize("norm", [0.5, 1.0, 1.0 + 1e-6, 1.05])
@pytest.mark.parametrize("n", range(1, 9))
def test_linear_map_is_accepted_iff_a_contraction(norm, n):
    rng = np.random.default_rng([n, int(norm * 1e6)])
    if norm == 1.0:
        a = _unitary(rng, n)
    else:
        sv = np.sort(rng.uniform(0.0, min(norm, 1.0), n))[::-1]
        sv[0] = norm
        a = _unitary(rng, n) @ np.diag(sv) @ _unitary(rng, n)
    assert np.linalg.norm(a, 2) == pytest.approx(norm, rel=1e-12)
    zeros = np.zeros(n)
    assert _accepted(lambda: BallMap(a, zeros, zeros)) == (norm <= 1.0)
    # closed form: the two largest eigenvalues of J S are 1 and ||a||^2
    gram = a.conj().T @ a
    exact = (1.0 - norm ** 2) / (2.0 * math.sqrt(np.linalg.norm(gram) ** 2 + 1.0))
    got = maps._self_map_margins(a[None], zeros[None], zeros[None])[0]
    assert got == pytest.approx(exact, abs=1e-14)


def test_constant_map_onto_the_sphere_has_margin_zero():
    # S = T^H J T vanishes, so mu = 0 and the margin is 0 / 0, taken as 0
    f = BallMap([[0.0, 0.0], [0.0, 0.0]], [0.6, 0.8j], [0.0, 0.0])
    assert _margin(f) == 0.0
    assert not is_automorphism(f)


def _random_siegel(rng, k, kind):
    """An affine Siegel map of dimension k + 1 with lam I - M^H M >= 0
    (kind 'p1' breaks it) and P2 tight, slack or violated."""
    lam = float(rng.uniform(0.5, 2.0))
    sv = rng.uniform(0.0, 0.95, k)
    if kind == "p1":
        sv[0] = 1.05
    m = math.sqrt(lam) * _unitary(rng, k) @ np.diag(sv) @ _unitary(rng, k)
    a = 0.5 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    c = 0.5 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    q = lam * np.eye(k) - m.conj().T @ m
    x = m.conj().T @ c - a
    need = float(np.vdot(c, c).real + np.vdot(x, np.linalg.solve(q, x)).real)
    room = {"tight": 0.0, "slack": 0.3, "violated": -0.3, "p1": 0.3}[kind]
    b = complex(rng.standard_normal(), need + room)
    return SiegelMap(lam, a, b, m, c)


def test_cayley_images_are_accepted_iff_the_siegel_conditions_hold():
    rng = np.random.default_rng(2024)
    seen = {}
    for trial in range(240):
        k = 1 + trial % 3
        kind = ("tight", "slack", "violated", "p1")[(trial // 3) % 4]
        g = _random_siegel(rng, k, kind)
        expected = all(cond.passed for cond in siegel_conditions(g))
        assert expected == (kind in ("tight", "slack"))
        assert _accepted(lambda: cayley_to_ball(g)) == expected, (trial, kind)
        seen[kind] = seen.get(kind, 0) + 1
    assert min(seen.values()) == 60


def test_siegel_spec_that_leaves_the_ball_is_an_input_error():
    # fails P2 by 3.17; a 1000-point sample of |z| <= 0.95 accepted it
    # (margin +0.0117), but its ball point of norm 0.9976 maps to norm 1.009
    spec = {"dimension": 2, "domain": "siegel", "lambda": [1.0, 0.0], "a": [[0.9, 0.0]],
            "b": [-2.1, 2.0], "M": [[[-0.9, 0.0]]], "c": [[0.1, 0.0]]}
    p2 = siegel_conditions(cli.parse_map_spec(spec))[1]
    assert p2.margin == pytest.approx(-3.168, abs=1e-3) and not p2.passed
    report = cli.run_pipeline(spec)
    assert report["exit_status"] == cli.EXIT_INPUT_ERROR
    assert report["error"].startswith("not a self-map of the ball (margin -")


# ---------------------------------------------------------------------------
# automorphisms and the identity


def _automorphisms(rng, n):
    yield ball_automorphism(0.6 * _unitary(rng, n)[0])
    yield unitary_ball_map(_unitary(rng, n))
    yield compose(ball_automorphism(0.3 * _unitary(rng, n)[:, 0]), unitary_ball_map(_unitary(rng, n)))
    if n > 1:
        gamma = 0.4 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        beta = complex(rng.standard_normal(), float(np.vdot(gamma, gamma).real))
        yield cayley_to_ball(heisenberg_map(gamma, beta))  # parabolic
        lam = float(rng.uniform(1.5, 3.0))  # hyperbolic: (z, w) -> (lam z, sqrt(lam) U w)
        yield cayley_to_ball(SiegelMap(lam, np.zeros(n - 1), 0.0,
                                       math.sqrt(lam) * _unitary(rng, n - 1), np.zeros(n - 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_automorphisms_have_margin_zero(n):
    rng = np.random.default_rng(n)
    count = 0
    for f in _automorphisms(rng, n):
        assert abs(_margin(f)) <= 1e-12
        assert is_automorphism(f)
        count += 1
    assert count == (3 if n == 1 else 5)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_self_maps_that_are_no_automorphisms(n):
    rng = np.random.default_rng([n, 1])
    k = max(n - 1, 1)
    maps_ = [BallMap(0.5 * np.eye(n), np.zeros(n), np.zeros(n)),
             BallMap(np.eye(n), 0.1 * np.ones(n) / n, np.zeros(n), 1.2)]
    if n > 1:  # touch the sphere (P2 tight) and stay inside (P2 slack)
        maps_ += [cayley_to_ball(_random_siegel(rng, k, kind)) for kind in ("tight", "slack")]
    for f in maps_:
        assert _margin(f) >= -1e-9
        assert not is_automorphism(f)


def test_is_identity_compares_the_matrix_with_its_corner():
    assert is_identity(identity_ball_map(3))
    assert is_identity(identity_siegel_map(3))
    assert is_identity(ProjMap(3.0 * np.eye(4)))
    near = np.eye(3)
    near[0, 1] = 1e-9
    assert not is_identity(BallMap(0.999999 * near, np.zeros(3), np.zeros(3)))
    assert not is_identity(BallMap(near, np.zeros(3), np.zeros(3)))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # corner entry 0: no division
    assert not is_identity(ProjMap(swap))
    assert not is_identity(unitary_ball_map(np.diag([1.0, -1.0])))


# ---------------------------------------------------------------------------
# the u0 criterion


U0_SPEC = Path(__file__).parent / "golden" / "elliptic_u0_seed12345_ball_n3.json"


def _u0_margin(m, delta):
    """The u0 pencil margin of the homogeneous generator of M and delta."""
    return emb._u0_margin(emb._u0_matrix(m, delta))


def _u0_expression(m, delta, zs):
    """The sampled oracle of the u0 margin: Re[delta (Mz)_1 |z|^2 - <Mz, z>]
    at each row z of zs."""
    mz = zs @ m.T
    norms2 = np.sum(np.abs(zs) ** 2, axis=1)
    return (delta * mz[:, 0] * norms2 - np.einsum("ij,ij->i", mz, zs.conj())).real


def test_u0_margin_is_the_exact_bound_and_seed_free():
    spec = json.loads(U0_SPEC.read_text())
    reports = [cli.run_pipeline(spec, seed=seed, stop_after="embed") for seed in (1, 2, 12345)]
    embed = reports[0]["stages"]["embed"]
    assert embed["verdict"] == emb.EMBEDDABLE and embed["criterion_id"].startswith("elliptic_u0")
    assert all(r["stages"]["embed"] == embed for r in reports)
    nf = normal_form(cli.parse_map_spec(spec))
    cert = emb.certify(nf)
    m, delta = cert.G[:-1, :-1], float(nf.parameters["delta"])
    margin = _u0_margin(m, delta)
    assert cert.margins[-1].margin == margin == embed["margins"][-1]["margin"]
    # on the sphere the expression is x^H (mu J - X) x at x = (z, 1) / sqrt(2)
    rng = np.random.default_rng(5)
    zs = rng.standard_normal((20000, 3)) + 1j * rng.standard_normal((20000, 3))
    zs /= np.linalg.norm(zs, axis=1)[:, None]
    assert np.all(_u0_expression(m, delta, zs) >= margin - 1e-12)


def _random_generator(rng, n):
    """A random logarithm M (n x n) and delta in [0.1, 0.9]."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m * rng.uniform(0.1, 2.0), float(rng.uniform(0.1, 0.9))


def _boundary_shift(m, delta):
    """The s at which the u0 margin of M - s I crosses 0, by bisection: on
    the closed ball the expression of M - s I is that of M plus
    s |z|^2 (1 - delta Re z1) >= 0, so its sign is monotone in s."""
    eye = np.eye(len(m))
    lo = float(np.linalg.eigvalsh(hermitian_part(m))[-1]) - 1.0  # Herm(M - lo I) > 0 fails
    hi = lo + 2.0 + (1.0 + delta) * float(np.linalg.norm(m, 2))
    assert _u0_margin(m - lo * eye, delta) < 0 <= _u0_margin(m - hi * eye, delta)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if _u0_margin(m - mid * eye, delta) >= 0 else (mid, hi)
    return hi


def test_u0_margin_implies_the_bounds_of_the_lattice():
    # the u0 ellipsoid of _lattice_shifts assumes Herm M <= eps I and
    # |delta M^H e1| <= eps - lambda_min(Herm M) for a margin >= -eps
    rng = np.random.default_rng(611)
    near = 0
    for trial in range(240):
        n = 1 + trial % 6
        m, delta = _random_generator(rng, n)
        if trial % 2:  # within 1e-9 of the boundary, on either side
            near += 1
            m = m - (_boundary_shift(m, delta) + rng.choice([-1e-9, 1e-9])) * np.eye(n)
        margin = _u0_margin(m, delta)
        eps = max(-margin, 0.0)
        herm = np.linalg.eigvalsh(hermitian_part(m))
        b = delta * np.linalg.norm(m[0])
        rounding = 1e-13 * (1.0 + np.linalg.norm(m))
        assert herm[-1] <= eps + rounding, trial
        assert b <= eps - herm[0] + rounding, trial
    assert near == 120


def test_u0_dim1_closed_form():
    # Ahat = e^m, m principal: the branch m + 2 pi i k with the least |.| is
    # k = 0, and on the circle the condition reads Re m + delta |m| <= 0
    rng = np.random.default_rng(1)
    seen = {True: 0, False: 0}
    for trial in range(400):
        v = float(rng.uniform(-np.pi, np.pi))
        delta = float(rng.uniform(0.0, 1.0)) if trial % 10 else float(trial % 20 == 0)
        if trial % 2 and delta < 1.0:  # close to the boundary u + delta |u + iv| = 0
            u = -delta * abs(v) / math.sqrt(1.0 - delta ** 2) + rng.choice([-1e-8, 1e-8])
        else:
            u = float(rng.uniform(-3.0, 0.5))
        m = complex(u, v)
        value = m.real + delta * abs(m)
        if abs(value) <= 1e-9 or u < -20.0:  # in the band, or Ahat too small to invert
            continue
        cert = emb.embed_elliptic_u0(NormalForm(FORM_ELLIPTIC_U0, None, [],
                                                {"Ahat": np.array([[np.exp(m)]]),
                                                 "delta": delta}))
        assert (cert.verdict == emb.EMBEDDABLE) == (value <= 0), (m, delta)
        seen[value <= 0] += 1
    assert min(seen.values()) > 100


def _sphere_min(m, delta, rng, count=20000):
    """The least u0 expression over a sphere sample of *count* points,
    each of the 5 best polished by a local minimiser on the sphere."""
    from scipy.optimize import minimize

    n = len(m)
    zs = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    zs /= np.linalg.norm(zs, axis=1)[:, None]
    vals = _u0_expression(m, delta, zs)

    def on_sphere(x):
        z = x[:n] + 1j * x[n:]
        return _u0_expression(m, delta, (z / np.linalg.norm(z))[None])[0]

    best = float(np.min(vals))
    for i in np.argsort(vals)[:5]:
        res = minimize(on_sphere, np.concatenate([zs[i].real, zs[i].imag]), method="BFGS",
                       options={"gtol": 1e-12})
        best = min(best, float(res.fun))
    return best


@pytest.mark.parametrize("n", range(2, 6))
def test_u0_verdict_at_the_boundary_matches_a_sphere_sample(n):
    rng = np.random.default_rng([n, 77])
    for _ in range(3):
        m, delta = _random_generator(rng, n)
        s_star = _boundary_shift(m, delta)
        for side in (-1e-6, 1e-6):
            shifted = m - (s_star + side) * np.eye(n)
            passed = _u0_margin(shifted, delta) >= -1e-10
            assert passed == (side > 0)
            assert passed == (_sphere_min(shifted, delta, rng) >= -1e-10), (n, side)
