"""Exact decisions on the homogeneous matrix, against closed-form oracles.

A ball map is a self-map exactly when mu J - T^H J T >= 0 for some mu
(J = diag(I_N, -1)); an automorphism exactly when T^H J T = c J with
c > 0; the identity exactly when T is a multiple of I.  These tests check
the constructor's self-map test on linear maps (accepted iff the operator
norm is at most 1) and on Cayley images of affine Siegel maps (accepted
iff the conditions P1-P3 hold), the automorphism and identity predicates,
the u0 criterion's margin (the exact two-radius bound, the same for every
seed) and the early stop of the sphere-quadratic bisection.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import cli, maps
from lfmsemi import embedding as emb
from lfmsemi.embedding import is_automorphism, sphere_quadratic_min
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
from lfmsemi.normal_forms import normal_form, siegel_conditions


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


def test_u0_margin_is_the_exact_bound_and_seed_free():
    spec = json.loads(U0_SPEC.read_text())
    reports = [cli.run_pipeline(spec, seed=seed, stop_after="embed") for seed in (1, 2, 12345)]
    embed = reports[0]["stages"]["embed"]
    assert embed["verdict"] == emb.EMBEDDABLE and embed["criterion_id"].startswith("elliptic_u0")
    assert all(r["stages"]["embed"] == embed for r in reports)
    cert = emb.certify(normal_form(cli.parse_map_spec(spec)))
    m, delta = cert.generator_data["M"], cert.generator_data["delta"]
    quad, mixed, _ = emb._u0_condition_margins(m, delta)
    assert cert.margins[-1].margin == min(quad, mixed) == embed["margins"][-1]["margin"]
    # the expression is at least |z|^2 min(quad, mixed) on the ball
    rng = np.random.default_rng(5)
    zs = rng.standard_normal((20000, 3)) + 1j * rng.standard_normal((20000, 3))
    zs *= (rng.uniform(0, 1, 20000) ** (1 / 6) / np.linalg.norm(zs, axis=1))[:, None]
    vals = emb._u0_expression(m, delta, zs)
    assert np.all(vals >= np.sum(np.abs(zs) ** 2, axis=1) * min(quad, mixed) - 1e-12)


# ---------------------------------------------------------------------------
# the sphere-quadratic bisection


def _sphere_min_300(g_herm, g_lin):
    """sphere_quadratic_min with the fixed 300-step bisection it had
    before the early stop."""
    w, v = np.linalg.eigh(hermitian_part(g_herm))
    b = v.conj().T @ np.asarray(g_lin, dtype=complex)
    mags = np.abs(b)
    lam_min = float(w[0])
    scale = max(1.0, float(np.max(np.abs(w))), float(np.max(mags)))
    active = mags > 1e-14 * scale

    def rho(mu):
        denom = np.where(active, 2.0 * (w - mu), 1.0)
        return np.where(active, mags / denom, 0.0)

    def norm2(mu):
        return float(np.sum(rho(mu) ** 2))

    phases = np.where(active, b / np.where(active, mags, 1.0), 0.0)
    min_active = bool(np.any(active & (np.abs(w - lam_min) <= 1e-12 * scale)))
    hard_norm = norm2(lam_min) if not min_active else np.inf
    if not min_active and hard_norm <= 1.0:
        r = rho(lam_min)
        pad = math.sqrt(max(0.0, 1.0 - float(np.sum(r ** 2))))
        x = (-r * phases).astype(complex)
        x[int(np.argmin(w))] += pad
    else:
        lo = lam_min - 0.5 * float(np.sum(mags)) - 1.0
        hi = lam_min - 1e-18 * scale
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if norm2(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)
        r = rho(mu)
        nrm = math.sqrt(float(np.sum(r ** 2)))
        r = r / nrm if nrm > 0 else r
        x = (-r * phases).astype(complex)
    value = float((x.conj() @ (w * x)).real + np.vdot(b, x).real)
    return value, v @ x


def test_sphere_min_early_stop_keeps_the_bits():
    rng = np.random.default_rng(300)
    for trial in range(400):
        n = 1 + trial % 8
        scale = 10.0 ** rng.uniform(-6, 4)
        g = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        g = hermitian_part(g)
        if trial % 5 == 1:
            g = g @ g.conj().T  # positive semidefinite
        lin = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if trial % 7 == 2:
            lin = 0 * lin
        val, arg = sphere_quadratic_min(g, lin)
        ref_val, ref_arg = _sphere_min_300(g, lin)
        assert val == ref_val and arg.tobytes() == ref_arg.tobytes()
