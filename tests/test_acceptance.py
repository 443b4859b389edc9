"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them inline).
Property-based at desk scale: N <= 8, double precision, fixed seeds.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from lfmsemi import embedding as emb, linalg, maps, normal_forms
from lfmsemi.embedding import (
    EMBEDDABLE,
    build_semigroup,
    embed_dim2,
    embed_elliptic_split,
    embed_elliptic_u0,
    embed_hyperbolic,
    embed_map,
    embed_parabolic,
)
from lfmsemi.maps import BallMap, SiegelMap, ball_automorphism, cayley_to_ball, \
    classify, compose, conjugate
from lfmsemi.normal_forms import NormalForm
from lfmsemi.verify import SamplerCfg, check_generator, verify_family

from closed_forms import heisenberg_map, hyperbolic_matrix, unitary_ball_map
from paper_budgets import (
    resonant_translation_weight,
    scalar_h_hyperbolic,
    scalar_h_parabolic,
    theta_hyperbolic,
    theta_parabolic,
)
from test_embedding import hyperbolic_nf, parabolic_nf, split_nf


def _line(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {label} ({detail})"


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_1_matrix_function_round_trips():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_log = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m0 = random_complex(rng, n, n)
        m0 *= rng.uniform(0.3, 2.8) / max(linalg.spectral_norm(m0), 1e-12)
        a = linalg.mat_exp(m0)
        back_m = linalg.mat_log_principal(a)
        back_a = linalg.mat_exp(linalg.mat_log_principal(a))
        worst_log = max(
            worst_log,
            float(np.linalg.norm(back_m - m0)),
            float(np.linalg.norm(back_a - a)) / max(1.0, float(np.linalg.norm(a))),
        )
    worst_penrose = 0.0
    for _ in range(60):
        mrows = int(rng.integers(1, 7))
        ncols = int(rng.integers(1, 7))
        rank = int(rng.integers(0, min(mrows, ncols) + 1))
        a = np.zeros((mrows, ncols), dtype=complex)
        for _ in range(rank):
            a += np.outer(random_complex(rng, mrows), random_complex(rng, ncols))
        ap = linalg.pinv(a)
        worst_penrose = max(
            worst_penrose,
            float(np.linalg.norm(a @ ap @ a - a)),
            float(np.linalg.norm(ap @ a @ ap - ap)),
            float(np.linalg.norm((a @ ap).conj().T - a @ ap)),
            float(np.linalg.norm((ap @ a).conj().T - ap @ a)),
        )
    elapsed = time.perf_counter() - start
    _line(1, "matrix kernel round trips and Penrose identities",
          worst_log <= 1e-8 and worst_penrose <= 1e-9 and elapsed < 10.0,
          f"log {worst_log:.2e}, penrose {worst_penrose:.2e}, {elapsed:.2f}s")


def test_criterion_2_normal_dissipative_equivalence():
    rng = np.random.default_rng(202)
    agree = True
    grid_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        u = random_unitary(rng, n)
        re = rng.uniform(-2.0, 0.5, n)
        re[np.abs(re) < 1e-3] = -0.3  # decisively signed spectra
        eigs = re + 1j * rng.uniform(-4.0, 4.0, n)
        m = u @ np.diag(eigs) @ u.conj().T
        dis = linalg.is_dissipative(m).dissipative
        contract = linalg.spectral_norm(linalg.mat_exp(m)) <= 1 + 1e-10
        agree &= dis == contract
        if dis:
            for t in np.arange(0.0, 5.05, 0.1):
                if linalg.spectral_norm(linalg.mat_exp(t * m)) > 1 + 1e-10:
                    grid_ok = False
    _line(2, "normal dissipative <=> contraction exponential + semigroup grid",
          agree and grid_ok)


def test_criterion_3_unimodular_row_decoupling():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        u = random_unitary(rng, n)
        b = random_complex(rng, n - 1, n - 1)
        b *= rng.uniform(0.1, 0.95) / linalg.spectral_norm(b)
        theta = rng.uniform(0, 2 * np.pi)
        a = u.conj().T @ np.block([
            [np.array([[np.exp(1j * theta)]]), np.zeros((1, n - 1))],
            [np.zeros((n - 1, 1)), b],
        ]) @ u
        form = linalg.schur_form(a, unimodular_first=True)
        worst = max(worst, float(np.max(np.abs(form.upper_triangular[0, 1:]))))
    _line(3, "planted unimodular eigenvalue decouples its Schur row",
          worst <= 1e-8, f"worst coupling {worst:.2e}")


def test_criterion_4_scalar_lemma_bounds():
    rng = np.random.default_rng(404)
    ts = np.geomspace(1e-4, 50.0, 200)
    worst_violation = 0.0
    for u in np.linspace(0.05, 4.0, 50):
        for v in np.linspace(0.0, 7.0, 50):
            bound = (u * u + v * v) / (2 * u)
            vals = np.array([scalar_h_parabolic(u, v, t) for t in ts])
            worst_violation = max(worst_violation, float(np.max(vals - bound)))
    for _ in range(50):
        lam = rng.uniform(0.2, 4.0)
        u = rng.uniform(-4.0, -lam / 2 - 0.05)
        for v in np.linspace(0.0, 6.0, 50):
            bound = -(u * u + v * v) / (lam * (2 * u + lam))
            vals = np.array([scalar_h_hyperbolic(lam, u, v, t) for t in ts])
            worst_violation = max(worst_violation, float(np.max(vals - bound)))
    limit_err = 0.0
    for u, v in [(0.5, 0.0), (1.0, 2.0), (3.0, 1.0)]:
        limit_err = max(limit_err, abs(scalar_h_parabolic(u, v, 1e-6)
                                       - (u * u + v * v) / (2 * u)))
    for lam, u, v in [(1.0, -1.0, 0.0), (2.0, -3.0, 1.0)]:
        limit_err = max(limit_err, abs(scalar_h_hyperbolic(lam, u, v, 1e-6)
                                       + (u * u + v * v) / (lam * (2 * u + lam))))
    _line(4, "scalar lemma bounds on the 50x50x200 grid and t->0 limits",
          worst_violation <= 1e-12 and limit_err <= 1e-4,
          f"violation {worst_violation:.2e}, limit err {limit_err:.2e}")


def _sup_parabolic(lam_eig, ts):
    u = -np.log(abs(lam_eig))
    v = np.angle(lam_eig) % (2 * np.pi)
    num = np.abs(np.expm1(ts * complex(-u, v))) ** 2
    den = ts * abs(1 - lam_eig) ** 2 * (-np.expm1(-2 * ts * u))
    return float(np.max(num / den))


def _sup_hyperbolic(lam, mu, ts):
    u = -np.log(abs(mu))
    v = np.angle(mu) % (2 * np.pi)
    log_lam = np.log(lam)
    num = lam ** ts * np.abs(np.expm1(ts * complex(-(log_lam / 2 + u), v))) ** 2
    den = ((lam ** ts - 1) / (lam - 1)) * (-np.expm1(-2 * ts * u)) \
        * abs(lam - np.sqrt(lam) * mu) ** 2
    return float(np.max(num / den))


def test_criterion_5_theta_consistency():
    rng = np.random.default_rng(505)
    ts = np.geomspace(1e-8, 60.0, 3000)
    worst_rel = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        eigs = rng.uniform(0.1, 0.9, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        th_p = theta_parabolic(eigs)
        lam = float(rng.uniform(1.2, 8.0))
        th_h = theta_hyperbolic(lam, eigs)
        for j, mu in enumerate(eigs):
            worst_rel = max(worst_rel,
                            abs(th_p[j] - _sup_parabolic(mu, ts)) / th_p[j],
                            abs(th_h[j] - _sup_hyperbolic(lam, mu, ts)) / th_h[j])
    worked_p = f"{theta_parabolic([np.exp(-1)])[0]:.6g}" == "1.25133"
    worked_h = f"{theta_hyperbolic(float(np.exp(2)), [np.exp(-1)])[0]:.6g}" == "0.156518"
    _line(5, "theta weights match their sup-over-t oracles and worked values",
          worst_rel <= 1e-6 and worked_p and worked_h,
          f"worst rel dev {worst_rel:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: the 300-case constructor corpus


def _corpus(rng):
    """Yields (label, certificate) pairs spanning all constructor kinds."""
    # elliptic split: normal contraction blocks embed unconditionally
    for _ in range(50):
        u_dim = int(rng.integers(1, 3))
        r_dim = int(rng.integers(1, 3))
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, u_dim))
        q = random_unitary(rng, r_dim)
        eigs = rng.uniform(0.15, 0.85, r_dim) * np.exp(1j * rng.uniform(-3.1, 3.1, r_dim))
        a1 = q @ np.diag(eigs) @ q.conj().T
        yield "elliptic_split", embed_elliptic_split(split_nf(lam, a1))
    # elliptic u0: small delta keeps the generator condition comfortable
    made = 0
    while made < 45:
        n = int(rng.integers(1, 4))
        u = random_unitary(rng, n)
        eigs = rng.uniform(0.3, 0.8, n) * np.exp(1j * rng.uniform(-2.0, 2.0, n))
        ahat = u @ np.diag(eigs) @ u.conj().T
        delta = float(rng.uniform(0.0, 0.25))
        nm = _u0_map(ahat, delta)
        if nm is None:
            continue
        cert = embed_elliptic_u0(NormalForm(
            normal_forms.FORM_ELLIPTIC_U0, nm, [], {"Ahat": ahat, "delta": delta}))
        if cert.verdict == EMBEDDABLE:
            made += 1
            yield "elliptic_u0", cert
    # parabolic with and without a translation part
    for with_translation in (True, False):
        for _ in range(45):
            p = int(rng.integers(1, 3)) if with_translation else 0
            q = int(rng.integers(0, 2))
            r = int(rng.integers(0 if p + q else 1, 3))
            a_vec = 0.5 * random_complex(rng, p)
            d_diag = np.exp(1j * rng.uniform(0.3, 5.9, q))
            a_diag = rng.uniform(0.2, 0.85, r) * np.exp(1j * rng.uniform(0, 2 * np.pi, r))
            c_vec = 0.7 * random_complex(rng, r)
            need = float(np.vdot(a_vec, a_vec).real)
            if r:
                need += float(np.sum(theta_parabolic(a_diag) * np.abs(c_vec) ** 2))
            b = complex(rng.uniform(-1, 1), need + rng.uniform(0.0, 0.5))
            label = "parabolic_translation" if with_translation else "parabolic_plain"
            yield label, embed_parabolic(parabolic_nf(a_vec, d_diag, a_diag, c_vec, b))
    # hyperbolic, including resonant translation entries
    for k in range(50):
        lam = float(rng.uniform(1.3, 8.0))
        q = int(rng.integers(0, 2))
        resonant = k % 5 == 0
        r = int(rng.integers(0 if q else 1, 3)) if not resonant else 1
        d_diag = np.exp(1j * rng.uniform(0.3, 5.9, q))
        if resonant:
            a_diag = np.array([1.0 / math.sqrt(lam)])
            c_vec = np.zeros(1)
            c_res = 0.6 * random_complex(rng, 1)
            need = resonant_translation_weight(lam) * float(np.sum(np.abs(c_res) ** 2))
        else:
            a_diag = rng.uniform(0.2, 0.8, r) * np.exp(1j * rng.uniform(0, 2 * np.pi, r))
            a_diag = a_diag[np.abs(1 - math.sqrt(lam) * a_diag) > 1e-3]
            r = len(a_diag)
            c_vec = 0.7 * random_complex(rng, r)
            c_res = np.zeros(r)
            need = float(np.sum(theta_hyperbolic(lam, a_diag) * np.abs(c_vec) ** 2)) if r else 0.0
        b = complex(rng.uniform(-1, 1), need + rng.uniform(0.0, 0.5))
        yield "hyperbolic", embed_hyperbolic(
            hyperbolic_nf(lam, d_diag, a_diag, c_vec, c_res, b))
    # dimension-2 catalogue through the full transport pipeline
    for k in range(40):
        kind = k % 5
        if kind == 0:  # parabolic psi1
            mu = rng.uniform(0.3, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            bcoef = 0.6 * random_complex(rng)
            im_c = float(theta_parabolic([mu])[0] * abs(bcoef) ** 2 + rng.uniform(0.02, 0.4))
            g = SiegelMap(1.0, np.array([bcoef]), 1j * im_c + rng.uniform(-1, 1),
                          np.diag([mu]), np.zeros(1))
        elif kind == 1:  # parabolic psi2
            g = SiegelMap(1.0, np.zeros(1), complex(rng.uniform(-1, 1), rng.uniform(0, 0.5)),
                          np.diag([np.exp(1j * rng.uniform(0.3, 5.9))]), np.zeros(1))
        elif kind == 2:  # parabolic psi3
            a = 0.5 * random_complex(rng)
            g = heisenberg_map(np.array([a]), 1j * abs(a) ** 2 + rng.uniform(-1, 1))
        elif kind == 3:  # hyperbolic psi1
            lam = float(rng.uniform(1.3, 6.0))
            mu = rng.uniform(0.3, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs(1 - math.sqrt(lam) * mu) <= 1e-3:
                mu *= 0.9
            bcoef = 0.6 * random_complex(rng)
            im_b = float(theta_hyperbolic(lam, [mu])[0] * abs(bcoef) ** 2
                         + rng.uniform(0.02, 0.4))
            g = SiegelMap(lam, np.array([bcoef]), 1j * im_b + rng.uniform(-1, 1),
                          math.sqrt(lam) * np.diag([mu]), np.zeros(1))
        else:  # hyperbolic psi2 (resonant translation)
            lam = float(rng.uniform(1.3, 6.0))
            btrans = 0.6 * random_complex(rng)
            im_a = resonant_translation_weight(lam) * abs(btrans) ** 2 + rng.uniform(0.02, 0.4)
            g = SiegelMap(lam, np.zeros(1), 1j * im_a + rng.uniform(-1, 1),
                          np.eye(1), np.array([btrans]))
        yield "dim2", embed_dim2(cayley_to_ball(g))
    # automorphisms of all three classes
    for k in range(40):
        kind = k % 3
        if kind == 0:
            n = int(rng.integers(1, 4))
            center = random_complex(rng, n)
            center *= rng.uniform(0, 0.6) / np.linalg.norm(center)
            f = compose(ball_automorphism(center),
                        compose(unitary_ball_map(random_unitary(rng, n)),
                                ball_automorphism(center)))
        elif kind == 1:
            gamma = 0.5 * random_complex(rng, 1)
            g = heisenberg_map(gamma, 1j * float(np.vdot(gamma, gamma).real)
                               + rng.uniform(-1, 1))
            f = cayley_to_ball(g)
        else:
            lam = float(rng.uniform(1.3, 6.0))
            g = SiegelMap(lam, np.zeros(1), rng.uniform(-1, 1),
                          math.sqrt(lam) * np.diag([np.exp(1j * rng.uniform(0.2, 6.0))]),
                          np.zeros(1))
            f = cayley_to_ball(g)
        assert emb.is_automorphism(f)
        cert = embed_map(f)
        assert cert.verdict == EMBEDDABLE, cert.notes  # automorphisms always embed
        yield "automorphism", cert


def test_criterion_6_semigroup_constructor_corpus():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    total = 0
    embeddable = 0
    failures = []
    ratio_checks = []
    for idx, (label, cert) in enumerate(_corpus(rng)):
        total += 1
        if cert.verdict != EMBEDDABLE:
            continue
        embeddable += 1
        sg = build_semigroup(cert)
        cfg = SamplerCfg(seed=606, count=25, domain=sg.domain)
        reports = verify_family(sg, cfg, t_grid=(0.35, 0.8))
        for rep in reports:
            if not rep.passed:
                failures.append((label, idx, str(rep)))
        if idx % 25 == 0:
            r1 = check_generator(sg, cfg, h=2e-3, t_grid=(0.5,))
            r2 = check_generator(sg, cfg, h=1e-3, t_grid=(0.5,))
            if abs(r1.worst_margin) > 1e-12:
                ratio_checks.append(abs(r1.worst_margin) / max(abs(r2.worst_margin), 1e-300))
    elapsed = time.perf_counter() - start
    ratios_ok = all(2.0 <= r <= 8.0 for r in ratio_checks) and ratio_checks
    _line(6, "constructor corpus: all built families pass the full battery",
          embeddable >= 300 and not failures and ratios_ok and elapsed < 120.0,
          f"{embeddable}/{total} embeddable, {len(failures)} failures, "
          f"median h-halving ratio "
          f"{np.median(ratio_checks) if ratio_checks else 0:.2f}, {elapsed:.1f}s")
    assert not failures, failures[:5]


def test_criterion_7_dim2_threshold_sharpness():
    lam = float(np.e)
    thresh = lam - 1.0  # (lam - 1) / ln(lam)^2 at lam = e
    # boundary instance: family exists and passes everything
    g = SiegelMap(lam, np.zeros(1), 1j * thresh + 0.4, np.eye(1), np.array([1.0]))
    cert = embed_dim2(cayley_to_ball(g))
    boundary_ok = cert.verdict == EMBEDDABLE
    sg = build_semigroup(cert)
    reports = verify_family(sg, SamplerCfg(seed=707, count=40, domain=sg.domain))
    boundary_ok &= all(r.passed for r in reports)
    # just below: some per-t self-map condition must fail on the grid
    im_a = thresh - 1e-3
    data = {"lam": lam, "theta_D": np.zeros(0), "m_diag": np.array([-0.5 + 0.0j]),
            "c": np.zeros(1), "c_res": np.array([1.0 + 0.0j]),
            "b": 1j * im_a + 0.4, "split": (0, 0, 1)}
    below = emb.SemigroupFamily("hyperbolic", hyperbolic_matrix(data), "siegel")
    violated = False
    for t in np.geomspace(0.01, 5.0, 60):
        conds = normal_forms.siegel_conditions(below.at(float(t)))
        if not all(c.margin >= -1e-10 for c in conds):
            violated = True
            break
    _line(7, "dim-2 hyperbolic threshold is sharp at Im a = e - 1",
          boundary_ok and violated,
          f"boundary family ok: {boundary_ok}, below-threshold violation: {violated}")


def _disk_map_oracles(rng):
    """(map, kind, dw, delta) with closed-form Moebius oracles."""
    out = []
    for _ in range(10):  # hyperbolic automorphisms (z + r)/(1 + r z)
        r = float(rng.uniform(0.2, 0.8))
        out.append((BallMap([[1.0]], [r], [r], 1.0), maps.HYPERBOLIC,
                    np.array([1.0]), (1 - r) / (1 + r)))
    for _ in range(5):  # elliptic contractions and rotations
        s = float(rng.uniform(0.2, 0.9))
        out.append((BallMap([[s]], [0.0], [0.0], 1.0), maps.ELLIPTIC, None, None))
        th = float(rng.uniform(0.3, 5.9))
        out.append((unitary_ball_map(np.diag([np.exp(1j * th)])), maps.ELLIPTIC,
                    None, None))
    for _ in range(10):  # parabolic: w + b upstairs, delta = 1
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.0))
        out.append((cayley_to_ball(SiegelMap(1.0, np.zeros(0), b, np.eye(0),
                                             np.zeros(0))),
                    maps.PARABOLIC, np.array([1.0]), 1.0))
    for _ in range(10):  # hyperbolic non-automorphisms: lam w + b upstairs
        lam = float(rng.uniform(1.5, 6.0))
        b = complex(rng.uniform(-1, 1), rng.uniform(0.0, 1.0))
        out.append((cayley_to_ball(SiegelMap(lam, np.zeros(0), b, np.eye(0),
                                             np.zeros(0))),
                    maps.HYPERBOLIC, np.array([1.0]), 1.0 / lam))
    return out


def _b2_map_oracles(rng):
    out = []
    for _ in range(5):  # hyperbolic Siegel dilations with a unitary w-block
        lam = float(rng.uniform(1.5, 6.0))
        g = SiegelMap(lam, np.zeros(1), rng.uniform(-1, 1),
                      math.sqrt(lam) * np.diag([np.exp(1j * rng.uniform(0.2, 6.0))]),
                      np.zeros(1))
        out.append((cayley_to_ball(g), maps.HYPERBOLIC, np.array([1.0, 0.0]), 1.0 / lam))
    for _ in range(5):  # parabolic Heisenberg automorphisms
        gamma = 0.4 * random_complex(rng, 1)
        g = heisenberg_map(gamma, 1j * float(np.vdot(gamma, gamma).real) + 0.3)
        out.append((cayley_to_ball(g), maps.PARABOLIC, np.array([1.0, 0.0]), 1.0))
    for _ in range(5):  # elliptic diagonal contractions
        d = rng.uniform(0.2, 0.8, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        out.append((BallMap(np.diag(d), np.zeros(2), np.zeros(2), 1.0),
                    maps.ELLIPTIC, None, None))
    return out


def test_criterion_8_classification_oracles():
    rng = np.random.default_rng(808)
    cases = _disk_map_oracles(rng) + _b2_map_oracles(rng)
    assert len(cases) >= 50
    worst_delta = 0.0
    kind_ok = True
    for f, kind, dw, delta in cases:
        cls = classify(f)
        kind_ok &= cls.kind == kind
        if dw is not None:
            kind_ok &= float(np.linalg.norm(cls.dw_point - dw)) < 1e-6
        if delta is not None:
            worst_delta = max(worst_delta, abs(cls.delta - delta))
    _line(8, f"{len(cases)} constructed maps classify with oracle delta",
          kind_ok and worst_delta <= 1e-6, f"worst |delta - oracle| {worst_delta:.2e}")


def test_criterion_9_conjugation_invariance():
    rng = np.random.default_rng(909)
    bases = [
        BallMap([[1.0]], [0.5], [0.5], 1.0),                       # hyperbolic disk
        cayley_to_ball(heisenberg_map(np.array([0.3]), 0.09j + 0.4)),  # parabolic B2
        BallMap(np.diag([0.5, 0.3j]), np.zeros(2), np.zeros(2), 1.0),  # elliptic B2
    ]
    ok = True
    worst = 0.0
    for f in bases:
        base_cls = classify(f)
        base_cert = embed_map(f)
        n = f.dim
        for _ in range(20):
            center = random_complex(rng, n)
            center *= rng.uniform(0.0, 0.6) / np.linalg.norm(center)
            s = compose(ball_automorphism(center),
                        unitary_ball_map(random_unitary(rng, n)))
            g = conjugate(f, s)
            cls = classify(g)
            ok &= cls.kind == base_cls.kind
            if base_cls.delta is not None:
                worst = max(worst, abs(cls.delta - base_cls.delta))
            cert = embed_map(g)
            ok &= cert.verdict == base_cert.verdict
    _line(9, "classification and verdict invariant under 20 automorphisms",
          ok and worst <= 1e-6, f"worst delta drift {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    spec = {
        "name": "disk automorphism",
        "dimension": 1,
        "domain": "ball",
        "A": [[[1.0, 0.0]]],
        "B": [[0.5, 0.0]],
        "C": [[0.5, 0.0]],
        "D": [1.0, 0.0],
    }
    spec_path = tmp_path / "map.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for run, threads in [(0, "1"), (1, "1"), (2, "4")]:
        out = tmp_path / f"report_{run}.json"
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "lfmsemi.cli", "report", str(spec_path),
             "--seed", "12345", "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    _line(10, "byte-identical machine reports across runs and thread counts",
          outputs[0] == outputs[1] == outputs[2])


def _u0_map(ahat, delta):
    n = ahat.shape[0]
    e1 = np.zeros(n)
    e1[0] = 1.0
    c = delta * ((ahat.conj().T - np.eye(n)) @ e1)
    try:
        return BallMap(ahat, np.zeros(n), c, 1.0)
    except Exception:
        return None
