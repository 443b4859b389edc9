"""One homogeneous generator per certificate.

Every embeddable certificate carries the (N+1) x (N+1) generator G of its
family, and :func:`lfmsemi.embedding.generator` is the projective vector
field of G.  The parabolic and hyperbolic criteria decide by the
flow invariance of H_N under G.  These tests pin that:

- the field of G matches the closed-form fields the four cases had before
  G (kept here as the oracle) on every golden family and on the families
  of one ``report_mixed`` and one ``trajectory_dense`` benchmark cycle;
- on the same families, the maps at(t), which the structured builders
  make from G, are the generic ``mat_exp(t G)`` up to a scalar, within
  1e-12 relative, from t = 0 to 3.5;
- the exact criterion accepts every map the paper's theta budget accepts,
  eigenvalue arguments in (pi, 2pi) included, with a margin never below
  the budget's;
- near the boundary of the exact criterion its verdict agrees with the
  self-map conditions P1-P3 of the principal family at 240 times;
- a normal-block map below the boundary exits 1 through the pipeline.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.cli import EXIT_CONDITION_FAILS, parse_map_spec, run_pipeline
from lfmsemi.embedding import (
    CONDITION_FAILS,
    EMBEDDABLE,
    SemigroupFamily,
    build_semigroup,
    certify,
    generator,
)
from lfmsemi.linalg import mat_exp
from lfmsemi.maps import (SIEGEL, SiegelMap, cayley_to_ball, sample_ball_points,
                          sample_siegel_points)
from lfmsemi.normal_forms import normal_form
from lfmsemi.verify import SamplerCfg, check_generator

from closed_forms import closed_form_data, cocycle_rate, siegel_matrix
from paper_budgets import resonant_translation_weight, theta_hyperbolic, theta_parabolic
from test_embedding import hyperbolic_nf, parabolic_nf

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SPECS = sorted(p for p in GOLDEN.rglob("*.json") if not p.name.endswith(".report.json"))


# ---------------------------------------------------------------------------
# the closed-form fields of the four cases, as written before G


def _split_field(d):
    theta, m = d["theta"], d["M"]
    u = len(theta)
    n = u + m.shape[0]
    gen = np.zeros((n, n), dtype=complex)
    gen[:u, :u] = np.diag(1j * theta)
    gen[u:, u:] = m
    return lambda z: np.asarray(z, dtype=complex) @ gen.T


def _u0_field(d):
    m, delta = d["M"], d["delta"]

    def gen_u0(z):
        z = np.asarray(z, dtype=complex)
        mz = z @ m.T
        return mz - delta * mz[..., :1] * z

    return gen_u0


def _parabolic_field(d):
    a, theta_d, m_diag, c, alpha = d["a"], d["theta_D"], d["m_diag"], d["c"], d["alpha"]
    p, q, r = d["split"]
    cdot0 = (cocycle_rate(np.conj(m_diag)) * c) if r else np.zeros(0, dtype=complex)

    def gen_parabolic(z):
        z = np.asarray(z, dtype=complex)
        u_part = z[..., 1:1 + p]
        v_part = z[..., 1 + p:1 + p + q]
        w_part = z[..., 1 + p + q:]
        gz = alpha + 2j * (u_part @ np.conj(a)) + 2j * (w_part @ np.conj(cdot0))
        return np.concatenate([np.asarray(gz)[..., None], np.broadcast_to(a, u_part.shape),
                               1j * theta_d * v_part, m_diag * w_part], axis=-1)

    return gen_parabolic


def _hyperbolic_field(d):
    lam = d["lam"]
    theta_d, m_diag, c, c_res, b = d["theta_D"], d["m_diag"], d["c"], d["c_res"], d["b"]
    p, q, r = d["split"]
    log_lam = math.log(lam)
    if r:
        adot0 = (log_lam / 2.0 - np.conj(m_diag)) / \
            (lam - math.sqrt(lam) * np.exp(np.conj(m_diag))) * c
        resdot0 = cocycle_rate(0.5 * log_lam + m_diag) * c_res
    else:
        adot0 = np.zeros(0, dtype=complex)
        resdot0 = np.zeros(0, dtype=complex)
    bdot0 = log_lam / (lam - 1.0) * b

    def gen_hyperbolic(z):
        z = np.asarray(z, dtype=complex)
        u_part = z[..., 1:1 + p]
        v_part = z[..., 1 + p:1 + p + q]
        w_part = z[..., 1 + p + q:]
        gz = log_lam * z[..., 0] + 2j * (w_part @ np.conj(adot0)) + bdot0
        return np.concatenate([
            np.asarray(gz)[..., None],
            0.5 * log_lam * u_part,
            (0.5 * log_lam + 1j * theta_d) * v_part,
            (0.5 * log_lam + m_diag) * w_part + resdot0,
        ], axis=-1)

    return gen_hyperbolic


ORACLE_FIELDS = {"elliptic_split": _split_field, "elliptic_u0": _u0_field,
                 "parabolic": _parabolic_field, "hyperbolic": _hyperbolic_field}


def _certificate(spec_text):
    """The normal form of a spec and its certificate."""
    f = parse_map_spec(json.loads(spec_text))
    nf = normal_form(cayley_to_ball(f) if isinstance(f, SiegelMap) else f)
    return nf, certify(nf)


def _family(nf, cert):
    """The family of an embeddable certificate and the data of its case's
    closed forms (``closed_forms.closed_form_data``)."""
    sg = build_semigroup(cert)
    return sg, closed_form_data(nf, sg.G)


def _golden_families():
    out = []
    for path in GOLDEN_SPECS:
        nf, cert = _certificate(path.read_text())
        if cert.verdict == EMBEDDABLE:
            out.append((path.stem, *_family(nf, cert)))
    return out


def _benchmark_families(seeds=(1,)):
    """The families of one report_mixed and one trajectory_dense cycle per
    seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = []
    for name in ("report_mixed", "trajectory_dense"):
        w = workloads.WORKLOADS[name]
        for seed in seeds:
            for i in range(len(w.cycle)):
                nf, cert = _certificate(w.case(seed, i).spec_text)
                assert cert.verdict == EMBEDDABLE, (name, seed, i)
                out.append((f"{name}[{i}]" if seed == 1 else f"{name}[{i}] seed {seed}",
                            *_family(nf, cert)))
    return out


def _assert_fields_match(families):
    for label, sg, data in families:
        sampler = sample_siegel_points if sg.domain == SIEGEL else sample_ball_points
        zs = sampler(sg.dim, 40, seed=7)
        want = ORACLE_FIELDS[sg.case_kind](data)(zs)
        got = generator(sg)(zs)
        assert got.shape == want.shape, label
        scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-14 * scale), label
        # one point at a time as well
        assert np.max(np.abs(generator(sg)(zs[3]) - want[3])) <= 1e-14 * scale[3], label


def test_generator_field_matches_the_closed_forms_on_the_goldens():
    families = _golden_families()
    assert {sg.case_kind for _, sg, _ in families} == set(ORACLE_FIELDS)
    for _, sg, _ in families:
        assert sg.dim == sg.G.shape[0] - 1
    _assert_fields_match(families)


def test_generator_field_matches_the_closed_forms_on_the_benchmark_families():
    families = _benchmark_families()
    assert len(families) == 32
    _assert_fields_match(families)


#: the times at which at(t) is compared with mat_exp(t G)
EXP_TIMES = (0.0, 1e-4, 0.25, 0.5, 1.0, 1.75, 2.0, 3.5)


def _assert_closed_forms_are_exp_tg(families):
    """The homogeneous matrix X of at(t) is c mat_exp(t G) for a scalar c:
    min_c |X - c Y|_F / |X|_F <= 1e-12 with Y = exp(t G), the least-squares
    c = <Y, X> / <Y, Y> in closed form."""
    for label, sg, _ in families:
        stack = sg.at_many(EXP_TIMES)
        ys = mat_exp(np.multiply.outer(EXP_TIMES, sg.G))
        for i, t in enumerate(EXP_TIMES):
            x, y = stack[i].to_proj().mat, ys[i]
            c = np.vdot(y, x) / np.vdot(y, y)
            assert np.linalg.norm(x - c * y) <= 1e-12 * np.linalg.norm(x), (label, t)


def test_closed_forms_are_exp_tg_on_the_goldens():
    families = _golden_families()
    assert {sg.case_kind for _, sg, _ in families} == set(ORACLE_FIELDS)
    _assert_closed_forms_are_exp_tg(families)


def test_closed_forms_are_exp_tg_on_the_benchmark_families():
    _assert_closed_forms_are_exp_tg(_benchmark_families())


def test_check_generator_passes_on_every_golden_family():
    for label, sg, _ in _golden_families():
        report = check_generator(sg, SamplerCfg(count=30, domain=sg.domain))
        assert report.passed, (label, report.worst_margin)


# ---------------------------------------------------------------------------
# seeded normal forms with diagonal contraction blocks


def _eigs(rng, r):
    """r contraction eigenvalues with arguments spread over (-pi, pi], so
    half of them have arguments in (pi, 2pi) in the paper's convention."""
    return rng.uniform(0.15, 0.85, r) * np.exp(1j * rng.uniform(-np.pi, np.pi, r))


def _parabolic(rng, k):
    p = int(rng.integers(0, k))
    q = int(rng.integers(0, k - p))
    r = k - p - q
    a = 0.4 * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
    d = np.exp(1j * rng.uniform(0.3, 6.0, q))
    eigs = _eigs(rng, r)
    c = 0.5 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    budget = float(np.vdot(a, a).real + np.sum(theta_parabolic(eigs) * np.abs(c) ** 2))
    b_re = float(rng.uniform(-1, 1))
    return (lambda ib: parabolic_nf(a, d, eigs, c, complex(b_re, ib))), budget


def _hyperbolic(rng, k):
    q = int(rng.integers(0, k))
    r = k - q
    lam = float(rng.uniform(1.3, 5.0))
    d = np.exp(1j * rng.uniform(0.3, 6.0, q))
    eigs = _eigs(rng, r)
    c = 0.5 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    c_res = np.zeros(r, dtype=complex)
    if rng.random() < 0.25:  # one resonant entry, sqrt(lam) mu = 1
        eigs[0] = 1.0 / math.sqrt(lam)
        c_res[0], c[0] = c[0], 0.0
    budget = float(np.sum(theta_hyperbolic(lam, eigs) * np.abs(c) ** 2)
                   + resonant_translation_weight(lam) * np.sum(np.abs(c_res) ** 2))
    b_re = float(rng.uniform(-1, 1))
    return (lambda ib: hyperbolic_nf(lam, d, eigs, c, c_res, complex(b_re, ib))), budget


def test_exact_criterion_accepts_every_map_the_budget_accepts():
    rng = np.random.default_rng(2024)
    beyond_pi = 0
    for i in range(200):
        make, budget = (_parabolic if i % 2 else _hyperbolic)(rng, int(rng.integers(1, 4)))
        im_b = budget + float(rng.uniform(0.0, 0.3))
        nf = make(im_b)
        eigs = np.diag(nf.parameters["A"])
        beyond_pi += int(np.any(np.angle(eigs) < 0))
        cert = certify(nf)
        assert cert.verdict == EMBEDDABLE, i
        exact = cert.margins[0].margin
        assert exact >= (im_b - budget) - 1e-12 * max(1.0, abs(im_b)), (i, exact, im_b - budget)
    assert beyond_pi >= 50


# ---------------------------------------------------------------------------
# the boundary sweep against the self-map conditions along the family

TIMES = np.geomspace(1e-3, 6.0, 240)


def _principal_family(nf):
    """The family of the principal logarithm, built by the closed forms
    from nf's parameters whether or not the criterion passes."""
    case = "parabolic" if nf.form_kind == "parabolic_siegel" else "hyperbolic"
    return SemigroupFamily(case, siegel_matrix(nf), SIEGEL)


def _self_maps_along(sg, tol=1e-9) -> bool:
    """P1-P3 (see :func:`lfmsemi.normal_forms.siegel_conditions`) of every
    map of the family at TIMES, to within tol relative to the map's size."""
    s = sg.at_many(TIMES)
    k = s.M.shape[-1]
    scale = 1.0 + np.abs(s.lam) + np.abs(s.b)
    mh = np.conj(np.swapaxes(s.M, -1, -2))
    q = s.lam.real[:, None, None] * np.eye(k) - mh @ s.M
    q = 0.5 * (q + np.conj(np.swapaxes(q, -1, -2)))
    p1 = np.min(np.linalg.eigvalsh(q), axis=-1)
    x = (mh @ s.c[..., None])[..., 0] - s.a
    qp = np.linalg.pinv(q, rcond=1e-10, hermitian=True)
    qpx = (qp @ x[..., None])[..., 0]
    p2 = s.b.imag - np.sum(np.abs(s.c) ** 2, axis=-1) - np.einsum("ti,ti->t", np.conj(x), qpx).real
    p3 = -np.linalg.norm((q @ qpx[..., None])[..., 0] - x, axis=-1)
    worst = np.min([p1, p2, p3, -np.abs(s.lam.imag)], axis=0)
    return bool(np.all(worst >= -tol * scale))


def test_boundary_sweep_agrees_with_the_flow():
    rng = np.random.default_rng(13)
    agreed = {EMBEDDABLE: 0, CONDITION_FAILS: 0}
    budget_fails = 0  # passing maps that the paper's budget does not accept
    for i in range(200):
        make, budget = (_parabolic if i % 2 else _hyperbolic)(rng, int(rng.integers(1, 4)))
        probe = certify(make(50.0))
        boundary = 50.0 - probe.margins[0].margin
        budget_fails += boundary + 0.02 < budget
        for side in (-0.02, 0.02):
            nf = make(boundary + side)
            cert = certify(nf)
            assert cert.verdict == (EMBEDDABLE if side > 0 else CONDITION_FAILS), (i, side)
            assert _self_maps_along(_principal_family(nf)) == (side > 0), (i, side)
            agreed[cert.verdict] += 1
    assert agreed == {EMBEDDABLE: 200, CONDITION_FAILS: 200}
    assert budget_fails >= 40


def test_normal_block_below_the_boundary_exits_1():
    # (z, w) -> (z + 2i<w, 0.3> + b, mu w), mu = 0.5 e^{-2i}: the principal
    # boundary is Im b = 0.09 * 1.94 = 0.1746
    mu = 0.5 * np.exp(-2j)
    spec = {"domain": "siegel", "dimension": 2, "lambda": [1.0, 0.0], "a": [[0.3, 0.0]],
            "c": [[0.0, 0.0]], "M": [[[mu.real, mu.imag]]]}
    below = run_pipeline({**spec, "b": [0.2, 0.15]})
    assert below["stages"]["embed"]["verdict"] == CONDITION_FAILS
    assert below["stages"]["embed"]["criterion_id"] == "parabolic_generator_invariance"
    assert below["exit_status"] == EXIT_CONDITION_FAILS
    above = run_pipeline({**spec, "b": [0.2, 0.2]})
    assert above["exit_status"] == 0 and above["stages"]["verify"]["all_passed"]


@pytest.mark.parametrize("kind", ["split", "u0"])
def test_elliptic_generators_are_the_block_matrices(kind):
    m = np.array([[-0.5, 0.2j], [0.1, -0.7 + 0.3j]])
    if kind == "split":
        g = emb._split_matrix(np.array([0.4]), m)
        assert np.array_equal(g[0], [0.4j, 0, 0, 0])
        assert np.array_equal(g[1:3, 1:3], m) and not np.any(g[3])
    else:
        g = emb._u0_matrix(m, 0.6)
        assert np.array_equal(g[:2, :2], m) and np.array_equal(g[2, :2], 0.6 * m[0])
        assert not np.any(g[:, 2])
