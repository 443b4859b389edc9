"""Tests for the embedding criteria, semigroup constructors and generators."""

import math

import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.embedding import (
    CONDITION_FAILS,
    EMBEDDABLE,
    INCONCLUSIVE,
    build_semigroup,
    embed_dim2,
    embed_elliptic_split,
    embed_elliptic_u0,
    embed_hyperbolic,
    embed_map,
    embed_parabolic,
    generator,
    is_automorphism,
    log_candidates,
)
from lfmsemi.errors import DomainError
from lfmsemi.linalg import hermitian_part, mat_exp
from lfmsemi.maps import (
    BallMap,
    SiegelMap,
    ball_automorphism,
    cayley_to_ball,
    conjugate,
    heisenberg_map,
    pointwise_distance,
    sample_ball_points,
    sample_siegel_points,
    unitary_ball_map,
)
from lfmsemi.normal_forms import (
    FORM_ELLIPTIC_SPLIT,
    FORM_ELLIPTIC_U0,
    FORM_HYPERBOLIC,
    FORM_PARABOLIC,
    NormalForm,
    elliptic_split,
    elliptic_u0,
    siegel_conditions,
)

from closed_forms import parabolic_matrix, siegel_data
from paper_budgets import (
    resonant_translation_weight,
    scalar_h_hyperbolic,
    scalar_h_parabolic,
    theta_hyperbolic,
    theta_parabolic,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def linear_ball_map(a):
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    return BallMap(a, np.zeros(n), np.zeros(n), 1.0)


def split_nf(lam_diag, a1):
    lam_diag = np.atleast_1d(np.asarray(lam_diag, dtype=complex))
    a1 = np.asarray(a1, dtype=complex).reshape(len(a1), -1) if len(a1) else np.zeros((0, 0), complex)
    n = len(lam_diag) + a1.shape[0]
    amat = np.zeros((n, n), dtype=complex)
    amat[: len(lam_diag), : len(lam_diag)] = np.diag(lam_diag)
    amat[len(lam_diag):, len(lam_diag):] = a1
    return NormalForm(
        FORM_ELLIPTIC_SPLIT,
        linear_ball_map(amat),
        [],
        {"Lambda": lam_diag, "A1": a1, "u": len(lam_diag)},
    )


def parabolic_nf(a, d_diag, a_diag, c, b):
    a = np.atleast_1d(np.asarray(a, complex)) if np.size(a) else np.zeros(0, complex)
    d_diag = np.atleast_1d(np.asarray(d_diag, complex)) if np.size(d_diag) else np.zeros(0, complex)
    a_diag = np.atleast_1d(np.asarray(a_diag, complex)) if np.size(a_diag) else np.zeros(0, complex)
    c = np.atleast_1d(np.asarray(c, complex)) if np.size(c) else np.zeros(0, complex)
    p, q, r = len(a), len(d_diag), len(a_diag)
    k = p + q + r
    m = np.zeros((k, k), dtype=complex)
    m[:p, :p] = np.eye(p)
    m[p:p + q, p:p + q] = np.diag(d_diag)
    m[p + q:, p + q:] = np.diag(a_diag)
    nm = SiegelMap(1.0, np.concatenate([a, np.zeros(q), c]), b, m,
                   np.concatenate([a, np.zeros(q + r)]))
    return NormalForm(FORM_PARABOLIC, nm, [],
                      {"a": a, "D": d_diag, "A": np.diag(a_diag), "c": c, "b": b,
                       "block_split": (p, q, r)})


def hyperbolic_nf(lam, d_diag, a_diag, c, c_res, b):
    d_diag = np.atleast_1d(np.asarray(d_diag, complex)) if np.size(d_diag) else np.zeros(0, complex)
    a_diag = np.atleast_1d(np.asarray(a_diag, complex)) if np.size(a_diag) else np.zeros(0, complex)
    c = np.atleast_1d(np.asarray(c, complex)) if np.size(c) else np.zeros(0, complex)
    c_res = np.atleast_1d(np.asarray(c_res, complex)) if np.size(c_res) else np.zeros(len(a_diag), complex)
    q, r = len(d_diag), len(a_diag)
    k = q + r
    m = np.zeros((k, k), dtype=complex)
    m[:q, :q] = np.diag(d_diag)
    m[q:, q:] = np.diag(a_diag)
    nm = SiegelMap(lam, np.concatenate([np.zeros(q), c]), b, math.sqrt(lam) * m,
                   np.concatenate([np.zeros(q), c_res]))
    return NormalForm(FORM_HYPERBOLIC, nm, [],
                      {"lam": float(lam), "b": complex(b), "c": c, "c_res": c_res,
                       "D": d_diag, "A": np.diag(a_diag), "block_split": (0, q, r)})


class TestScalarLemmas:
    def test_h_parabolic_value(self):
        expect = (1 - np.exp(-1)) / (1 + np.exp(-1))
        assert scalar_h_parabolic(1.0, 0.0, 1.0) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.462117, abs=1e-6)

    def test_h_parabolic_limit(self):
        for u in (0.3, 1.0, 2.5):
            assert scalar_h_parabolic(u, 0.0, 1e-6) == pytest.approx(u / 2, abs=1e-5)

    def test_h_parabolic_bound_grid(self):
        bound = (4 + 9) / (2 * 2)
        for t in np.geomspace(0.01, 50, 200):
            assert scalar_h_parabolic(2.0, 3.0, t) <= bound + 1e-12

    def test_h_parabolic_domain(self):
        with pytest.raises(DomainError):
            scalar_h_parabolic(-1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            scalar_h_parabolic(1.0, 0.0, 0.0)

    def test_h_hyperbolic_bound_unit(self):
        for t in np.geomspace(0.01, 50, 200):
            assert scalar_h_hyperbolic(1.0, -1.0, 0.0, t) <= 1.0 + 1e-12

    def test_h_hyperbolic_limit(self):
        lam, u = 1.0, -1.0
        expect = -u * u / (lam * (2 * u + lam))
        assert scalar_h_hyperbolic(lam, u, 0.0, 1e-6) == pytest.approx(expect, abs=1e-4)

    def test_h_hyperbolic_grid(self):
        bound = -(9 + 1) / (2 * (-6 + 2))
        assert bound == pytest.approx(1.25)
        for t in np.geomspace(0.01, 30, 200):
            assert scalar_h_hyperbolic(2.0, -3.0, 1.0, t) <= bound + 1e-12

    def test_h_hyperbolic_domain(self):
        with pytest.raises(DomainError):
            scalar_h_hyperbolic(2.0, -0.5, 0.0, 1.0)  # lam + 2u > 0


def sup_parabolic_oracle(lam):
    """sup over a t-grid of g(t) = |1-e^(t(-u+iv))|^2 / (t |1-lam|^2 (1-e^(-2tu)))."""
    u = -np.log(abs(lam))
    v = np.angle(lam) % (2 * np.pi)
    ts = np.geomspace(1e-8, 60.0, 4000)
    best = 0.0
    for t in ts:
        num = abs(np.expm1(t * complex(-u, v))) ** 2
        den = t * abs(1 - lam) ** 2 * (-np.expm1(-2 * t * u))
        best = max(best, num / den)
    return best


def sup_hyperbolic_oracle(lam, mu):
    """sup over t of the normalized alpha-expression from the proof."""
    u = -np.log(abs(mu))
    v = np.angle(mu) % (2 * np.pi)
    log_lam = np.log(lam)
    ts = np.geomspace(1e-8, 60.0, 4000)
    best = 0.0
    for t in ts:
        num = lam ** t * abs(np.expm1(t * complex(-(log_lam / 2 + u), v))) ** 2
        den = (lam ** t - 1) / (lam - 1) * (-np.expm1(-2 * t * u)) * abs(lam - np.sqrt(lam) * mu) ** 2
        best = max(best, num / den)
    return best


class TestTheta:
    def test_parabolic_worked_value(self):
        theta = theta_parabolic([np.exp(-1)])
        assert theta[0] == pytest.approx(0.5 / (1 - np.exp(-1)) ** 2, abs=1e-12)
        assert f"{theta[0]:.6g}" == "1.25133"
        assert theta[0] == pytest.approx(sup_parabolic_oracle(np.exp(-1)), rel=1e-6)

    def test_parabolic_real_specialization(self):
        lam = 0.4
        theta = theta_parabolic([lam])
        u = -np.log(lam)
        assert theta[0] == pytest.approx(u / (2 * (1 - lam) ** 2), abs=1e-12)

    def test_parabolic_complex_eig(self):
        lam = np.exp(-1 + 1j)
        theta = theta_parabolic([lam])
        assert theta[0] == pytest.approx(2 / (2 * abs(1 - lam) ** 2), abs=1e-12)
        assert theta[0] == pytest.approx(sup_parabolic_oracle(lam), rel=1e-6)

    def test_parabolic_domain(self):
        with pytest.raises(DomainError):
            theta_parabolic([1.0])

    def test_hyperbolic_worked_value(self):
        lam = float(np.exp(2))
        theta = theta_hyperbolic(lam, [np.exp(-1)])
        assert theta[0] == pytest.approx(1 / (np.exp(2) - 1), abs=1e-12)
        assert f"{theta[0]:.6g}" == "0.156518"
        assert theta[0] == pytest.approx(sup_hyperbolic_oracle(lam, np.exp(-1)), rel=1e-6)

    def test_hyperbolic_matches_sup_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            lam = float(rng.uniform(1.3, 6.0))
            mu = rng.uniform(0.2, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            got = theta_hyperbolic(lam, [mu])[0]
            assert got == pytest.approx(sup_hyperbolic_oracle(lam, mu), rel=1e-5)

    def test_hyperbolic_near_one_limit_finite(self):
        lam = 1 + 1e-6
        theta = theta_hyperbolic(lam, [0.5])
        assert np.isfinite(theta[0]) and theta[0] > 0

    def test_hyperbolic_domain(self):
        with pytest.raises(DomainError):
            theta_hyperbolic(0.9, [0.5])


class TestLogCandidates:
    def test_principal_first(self):
        a = np.diag([0.5, 0.3 + 0.1j])
        cands = log_candidates(a)
        assert np.allclose(cands[0], np.diag(np.log(np.diag(a))), atol=1e-12)
        for m in cands:
            assert np.linalg.norm(mat_exp(m) - a) < 1e-8

    def test_negative_axis_handled(self):
        a = np.diag([-0.5])
        cands = log_candidates(a)
        assert any(abs(m[0, 0].imag - np.pi) < 1e-9 for m in cands)

    def test_jordan_block_uniform_shifts(self):
        a = np.array([[0.7, 0.51], [0.0, 0.7]])
        cands = log_candidates(a)
        herms = {round(float(np.max(np.linalg.eigvalsh(hermitian_part(m)))), 9)
                 for m in cands}
        assert len(herms) == 1  # uniform imaginary shifts share the hermitian part

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            log_candidates(np.diag([0.5, 0.0]))


class TestEmbedEllipticSplit:
    def test_scalar_contraction(self):
        nf = split_nf([np.exp(0.5j)], [[0.5]])
        cert = embed_elliptic_split(nf)
        assert cert.verdict == EMBEDDABLE
        assert cert.G[1, 1] == pytest.approx(-np.log(2), abs=1e-12)

    def test_normal_contraction_embeddable(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(random_complex(rng, 3, 3))
        eigs = rng.uniform(0.2, 0.8, 3) * np.exp(1j * rng.uniform(-2.5, 2.5, 3))
        a1 = q @ np.diag(eigs) @ q.conj().T
        nf = split_nf([1.0], a1)
        cert = embed_elliptic_split(nf)
        assert cert.verdict == EMBEDDABLE
        m = cert.G[1:-1, 1:-1]
        for t in np.linspace(0, 4, 9):
            assert np.linalg.norm(mat_exp(t * m), 2) <= 1 + 1e-10

    def test_jordan_contraction_fails(self):
        # ||A1|| = 1 with log hermitian part strictly positive for every
        # branch: the certificate must be a definitive negative
        a1 = np.array([[0.7, 0.51], [0.0, 0.7]])
        nf = split_nf([1.0], a1)
        cert = embed_elliptic_split(nf)
        assert cert.verdict == CONDITION_FAILS
        assert all(not m.passed for m in cert.margins)

    def test_pure_unitary(self):
        nf = split_nf([np.exp(0.3j), np.exp(-1.1j)], [])
        cert = embed_elliptic_split(nf)
        assert cert.verdict == EMBEDDABLE

    def test_singular_block_rejected(self):
        nf = split_nf([1.0], [[0.0]])
        with pytest.raises(DomainError):
            embed_elliptic_split(nf)


class TestEmbedEllipticU0:
    def test_delta_zero_dissipative(self):
        ahat = np.exp(-1.0) * np.eye(2)
        nf = NormalForm(FORM_ELLIPTIC_U0, linear_ball_map(ahat), [],
                        {"Ahat": ahat, "delta": 0.0})
        cert = embed_elliptic_u0(nf)
        assert cert.verdict == EMBEDDABLE
        assert np.allclose(cert.G[:-1, :-1], -np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.7, 1.0])
    def test_scalar_matches_dense_sampling(self, delta):
        f = BallMap([[0.5]], [0.0], [delta * (0.5 - 1.0)], 1.0)
        nf = elliptic_u0(f)
        assert nf.parameters["delta"] == pytest.approx(delta, abs=1e-10)
        cert = embed_elliptic_u0(nf)
        m = -np.log(2)
        rng = np.random.default_rng(17)
        zs = rng.uniform(-1, 1, (100_000, 2)) @ np.array([1, 1j])
        zs = zs[np.abs(zs) <= 1][:, None]
        vals = (delta * (m * zs[:, 0]) * np.abs(zs[:, 0]) ** 2
                - m * np.abs(zs[:, 0]) ** 2).real
        oracle = bool(np.min(vals) >= -1e-10)
        assert (cert.verdict == EMBEDDABLE) == oracle

    def test_witness_case(self):
        # Herm M has the eigenvalue 2.4 > 0, so the condition fails near 0
        m = np.array([[-0.1, 5.0], [0.0, -0.1]])
        ahat = mat_exp(m)
        nf = NormalForm(FORM_ELLIPTIC_U0, None, [], {"Ahat": ahat, "delta": 1.0})
        cert = embed_elliptic_u0(nf)
        assert cert.verdict == CONDITION_FAILS
        assert cert.margins[0].margin < -1.0 and not cert.margins[0].passed

    def test_form_mismatch(self):
        nf = split_nf([1.0], [[0.5]])
        with pytest.raises(DomainError):
            embed_elliptic_u0(nf)


class TestEmbedParabolic:
    def test_automorphism_case_no_w_block(self):
        nf = parabolic_nf([0.3 + 0.1j], [], [], [], 0.8 + 1j * 0.1)
        cert = embed_parabolic(nf)
        assert cert.verdict == EMBEDDABLE
        assert cert.margins[0].margin == pytest.approx(0.0, abs=1e-12)

    def test_threshold_worked_value(self):
        thresh = 0.5 / (1 - np.exp(-1)) ** 2
        above = parabolic_nf([], [], [np.exp(-1)], [1.0], 1j * (thresh + 1e-3))
        below = parabolic_nf([], [], [np.exp(-1)], [1.0], 1j * (thresh - 1e-3))
        boundary = parabolic_nf([], [], [np.exp(-1)], [1.0], 1j * thresh)
        assert embed_parabolic(above).verdict == EMBEDDABLE
        assert embed_parabolic(below).verdict == CONDITION_FAILS
        assert embed_parabolic(boundary).verdict == EMBEDDABLE

    def test_commuting_parts(self):
        # tau moves (z, u, v) and fixes w; rho moves (z, w) and fixes (u, v)
        nf = parabolic_nf([0.2], [np.exp(0.9j)], [0.5], [0.4], 2.0j)
        cert = embed_parabolic(nf)
        assert cert.verdict == EMBEDDABLE
        data = siegel_data(nf)

        def part(**changes):
            return emb.SemigroupFamily("parabolic", parabolic_matrix({**data, **changes}),
                                       "siegel")

        tau_only = part(c=0 * data["c"], alpha=0.0, m_diag=0 * data["m_diag"])
        rho_only = part(a=0 * data["a"], theta_D=0 * data["theta_D"])
        zs = sample_siegel_points(4, 30)
        for t, s in [(0.3, 0.8), (1.0, 0.5)]:
            tau_t, rho_s = tau_only.at(t), rho_only.at(s)
            lhs = np.stack([tau_t(rho_s(z)) for z in zs])
            rhs = np.stack([rho_s(tau_t(z)) for z in zs])
            assert np.max(np.abs(lhs - rhs)) < 1e-9
        # and the full family is the composition of the parts
        full = build_semigroup(cert)
        for t in (0.4, 1.0):
            lhs = np.stack([tau_only.at(t)(rho_only.at(t)(z)) for z in zs])
            rhs = np.stack([full.at(t)(z) for z in zs])
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_nonnormal_block_inconclusive(self):
        nf = parabolic_nf([], [], [0.5, 0.5], [0.1, 0.1], 5.0j)
        params = dict(nf.parameters)
        params["A"] = np.array([[0.5, 0.3], [0.0, 0.5]])
        nf = NormalForm(nf.form_kind, nf.normal_map, [], params)
        assert embed_parabolic(nf).verdict == INCONCLUSIVE

    @pytest.mark.parametrize("coupling,verdict", [(1e-9, EMBEDDABLE), (1e-6, INCONCLUSIVE)])
    def test_triangular_block_is_normal_iff_diagonal(self, coupling, verdict):
        # a repeated eigenvalue: the commutator is coupling^2, below its
        # 1e-10 cut either way, so the off-diagonal cut 1e-8 decides
        nf = parabolic_nf([], [], [0.5, 0.5], [0.1, 0.1], 5.0j)
        params = dict(nf.parameters)
        params["A"] = np.array([[0.5, coupling], [0.0, 0.5]])
        nf = NormalForm(nf.form_kind, nf.normal_map, [], params)
        assert embed_parabolic(nf).verdict == verdict


class TestEmbedHyperbolic:
    def test_no_w_vector_embeddable(self):
        nf = hyperbolic_nf(3.0, [np.exp(0.7j)], [], [], [], 0.0)
        cert = embed_hyperbolic(nf)
        assert cert.verdict == EMBEDDABLE

    def test_threshold_worked_value(self):
        lam = float(np.exp(2))
        thresh = 1 / (np.exp(2) - 1)
        above = hyperbolic_nf(lam, [], [np.exp(-1)], [1.0], [], 1j * (thresh + 1e-3))
        below = hyperbolic_nf(lam, [], [np.exp(-1)], [1.0], [], 1j * (thresh - 1e-3))
        assert embed_hyperbolic(above).verdict == EMBEDDABLE
        assert embed_hyperbolic(below).verdict == CONDITION_FAILS

    def test_passing_instance_per_t_conditions(self):
        lam = 4.0
        nf = hyperbolic_nf(lam, [], [0.4], [0.8], [], 1.0j)
        cert = embed_hyperbolic(nf)
        assert cert.verdict == EMBEDDABLE
        sg = build_semigroup(cert)
        for t in np.arange(0.1, 5.01, 0.35):
            for cond in siegel_conditions(sg.at(t)):
                assert cond.margin >= -1e-9, (t, cond)

    def test_resonant_weight(self):
        lam = float(np.exp(2))
        w = resonant_translation_weight(lam)
        assert w == pytest.approx((np.exp(2) - 1) / 4.0, abs=1e-12)
        res_eig = 1 / math.sqrt(lam)
        above = hyperbolic_nf(lam, [], [res_eig], [0.0], [1.0], 1j * (w + 1e-3))
        below = hyperbolic_nf(lam, [], [res_eig], [0.0], [1.0], 1j * (w - 1e-3))
        assert embed_hyperbolic(above).verdict == EMBEDDABLE
        assert embed_hyperbolic(below).verdict == CONDITION_FAILS


class TestEmbedDim2:
    def test_psi3_automorphism_always(self):
        a = 0.4
        g = heisenberg_map(np.array([a]), 1j * a * a + 0.5)
        f = cayley_to_ball(g)
        cert = embed_dim2(f)
        assert cert.verdict == EMBEDDABLE
        assert cert.criterion_id == "dim2_parabolic_psi3"

    def test_psi2_rotation_always(self):
        g = SiegelMap(1.0, np.zeros(1), 0.7 + 0.2j, np.diag([np.exp(1.1j)]), np.zeros(1))
        f = cayley_to_ball(g)
        cert = embed_dim2(f)
        assert cert.verdict == EMBEDDABLE
        assert cert.criterion_id == "dim2_parabolic_psi2"

    def test_hyperbolic_psi2_threshold(self):
        lam = float(np.e)
        thresh = (lam - 1.0)  # (lam-1)/ln(lam)^2 at lam = e
        assert thresh == pytest.approx(np.e - 1, abs=1e-12)
        for im_a, expected in [(thresh + 1e-3, EMBEDDABLE), (thresh - 1e-3, CONDITION_FAILS)]:
            g = SiegelMap(lam, np.zeros(1), im_a * 1j + 0.2, np.eye(1), np.array([1.0]))
            f = cayley_to_ball(g)
            cert = embed_dim2(f)
            assert cert.criterion_id == "dim2_hyperbolic_psi2"
            assert cert.verdict == expected, im_a

    def test_psi1_parabolic_cross_check(self):
        # threshold for (u1 + 2i b u2 + c, lam u2) matches theta_parabolic
        lam = np.exp(-1)
        theta = theta_parabolic([lam])[0]
        b_coef = 1.0
        for im_c, expected in [(theta + 1e-3, EMBEDDABLE), (theta - 1e-3, CONDITION_FAILS)]:
            g = SiegelMap(1.0, np.array([b_coef]), 1j * im_c, np.diag([lam]), np.zeros(1))
            f = cayley_to_ball(g)
            cert = embed_dim2(f)
            assert cert.criterion_id == "dim2_parabolic_psi1"
            assert cert.verdict == expected

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            embed_dim2(linear_ball_map(np.eye(1) / 2))


class TestEmbedAutomorphism:
    """Automorphisms always embed: ``embed_map`` on one of each class."""

    def test_unitary(self):
        rng = np.random.default_rng(19)
        q, _ = np.linalg.qr(random_complex(rng, 2, 2))
        q = q * (np.diag(np.linalg.qr(random_complex(rng, 2, 2))[1]) / 1).real ** 0
        f = unitary_ball_map(q)
        assert is_automorphism(f)
        cert = embed_map(f)
        assert cert.verdict == EMBEDDABLE
        sg = build_semigroup(cert)
        zs = sample_ball_points(2, 50)
        assert pointwise_distance(sg.at(1.0), cert.target, zs) < 1e-8

    def test_b2_parabolic_automorphism(self):
        gamma = np.array([0.3])
        g = heisenberg_map(gamma, 1j * 0.09 + 0.4)
        f = cayley_to_ball(g)
        assert is_automorphism(f)
        cert = embed_map(f)
        assert cert.verdict == EMBEDDABLE
        sg = build_semigroup(cert)
        zs = sample_siegel_points(2, 40)
        for t, s in [(0.5, 0.5), (0.3, 1.2)]:
            lhs = np.stack([sg.at(t + s)(z) for z in zs])
            rhs = np.stack([sg.at(t)(sg.at(s)(z)) for z in zs])
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_disk_hyperbolic_automorphism(self):
        f = BallMap([[1.0]], [0.5], [0.5], 1.0)
        assert is_automorphism(f)
        cert = embed_map(f)
        assert cert.verdict == EMBEDDABLE
        sg = build_semigroup(cert)
        zs = sample_siegel_points(1, 50)
        assert pointwise_distance(sg.at(1.0), cert.target, zs) < 1e-8


class TestBuildSemigroup:
    def test_elliptic_powers(self):
        nf = split_nf([], [[0.5]])
        # u = 0 block empty: use u0-free split with empty Lambda
        cert = embed_elliptic_split(nf)
        sg = build_semigroup(cert)
        for t in (0.0, 0.5, 1.0, 2.5):
            assert sg.at(t).A[0, 0] == pytest.approx(2.0 ** (-t), abs=1e-12)

    def test_parabolic_time_one(self):
        nf = parabolic_nf([0.2], [np.exp(0.9j)], [0.5], [0.4], 2.0j)
        cert = embed_parabolic(nf)
        sg = build_semigroup(cert)
        zs = sample_siegel_points(4, 50)
        assert pointwise_distance(sg.at(1.0), cert.target, zs) < 1e-9

    def test_hyperbolic_halves(self):
        nf = hyperbolic_nf(4.0, [np.exp(0.5j)], [0.4], [0.5], [], 1.0j)
        cert = embed_hyperbolic(nf)
        sg = build_semigroup(cert)
        zs = sample_siegel_points(3, 40)
        half = sg.at(0.5)
        whole = sg.at(1.0)
        lhs = np.stack([half(half(z)) for z in zs])
        rhs = np.stack([whole(z) for z in zs])
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_identity_at_zero(self):
        nf = hyperbolic_nf(3.0, [], [0.3], [0.2], [], 0.5j)
        sg = build_semigroup(embed_hyperbolic(nf))
        zs = sample_siegel_points(2, 30)
        assert np.max(np.abs(np.stack([sg.at(0.0)(z) for z in zs]) - zs)) < 1e-10

    def test_rejects_negative_certificate(self):
        nf = hyperbolic_nf(4.0, [], [0.4], [5.0], [], 0.0)
        cert = embed_hyperbolic(nf)
        assert cert.verdict == CONDITION_FAILS
        with pytest.raises(DomainError):
            build_semigroup(cert)


def fd_generator_residual(sg, gen, zs, t: float, h: float = 1e-4) -> float:
    worst = 0.0
    for z in zs:
        plus = sg.at(t + h)(z)
        minus = sg.at(t - h)(z)
        fd = (plus - minus) / (2 * h)
        worst = max(worst, float(np.linalg.norm(fd - gen(sg.at(t)(z)))))
    return worst


class TestGenerator:
    def test_elliptic_scalar(self):
        nf = split_nf([], [[0.5]])
        sg = build_semigroup(embed_elliptic_split(nf))
        gen = generator(sg)
        z = np.array([0.3 + 0.1j])
        assert np.allclose(gen(z), -np.log(2) * z, atol=1e-12)

    def test_elliptic_u0_fd(self):
        f = BallMap([[0.5]], [0.0], [0.35 * (0.5 - 1.0)], 1.0)
        cert = embed_elliptic_u0(elliptic_u0(f))
        assert cert.verdict == EMBEDDABLE
        sg = build_semigroup(cert)
        gen = generator(sg)
        zs = sample_ball_points(1, 20)
        assert fd_generator_residual(sg, gen, zs, 0.7) < 1e-5

    def test_parabolic_translation_constant_field(self):
        nf = parabolic_nf([], [], [], [], 1.0j + 0.3)
        sg = build_semigroup(embed_parabolic(nf))
        gen = generator(sg)
        for z in sample_siegel_points(1, 10):
            assert np.allclose(gen(z), [1.0j + 0.3], atol=1e-12)

    def test_parabolic_fd(self):
        nf = parabolic_nf([0.2], [np.exp(0.9j)], [0.5], [0.4], 2.0j)
        sg = build_semigroup(embed_parabolic(nf))
        gen = generator(sg)
        zs = sample_siegel_points(4, 15)
        assert fd_generator_residual(sg, gen, zs, 0.5) < 1e-5

    def test_hyperbolic_fd_with_resonance(self):
        lam = float(np.exp(2))
        nf = hyperbolic_nf(lam, [np.exp(1.3j)], [1 / math.sqrt(lam)], [0.0], [0.4],
                           1j * (resonant_translation_weight(lam) * 0.16 + 0.05))
        cert = embed_hyperbolic(nf)
        assert cert.verdict == EMBEDDABLE
        sg = build_semigroup(cert)
        gen = generator(sg)
        zs = sample_siegel_points(3, 15)
        assert fd_generator_residual(sg, gen, zs, 0.4) < 1e-5

    def test_fd_order_two(self):
        nf = hyperbolic_nf(3.0, [], [0.3], [0.2], [], 0.5j)
        sg = build_semigroup(embed_hyperbolic(nf))
        gen = generator(sg)
        zs = sample_siegel_points(2, 10)
        res_h = fd_generator_residual(sg, gen, zs, 0.5, h=1e-3)
        res_h2 = fd_generator_residual(sg, gen, zs, 0.5, h=5e-4)
        assert res_h / res_h2 == pytest.approx(4.0, rel=0.3)


class TestScalarInvariants:
    def test_power_ratio_above_log(self):
        for lam in (1.5, np.e, 4.0, 10.0):
            for t in np.geomspace(0.01, 20, 100):
                assert (lam ** t - 1) / t >= np.log(lam) - 1e-12

    def test_paraim_per_t_conditions(self):
        # parabolic passing instance: per-t conditions on the grid
        m = complex(-1.0, 0.7)
        c = np.array([0.6])
        im_b = float(theta_parabolic([np.exp(m)])[0] * abs(c[0]) ** 2) + 0.05
        for t in np.arange(0.1, 5.01, 0.245):
            a_t = np.exp(t * m)
            q_t = 1 - abs(a_t) ** 2
            c_t = (np.expm1(t * np.conj(m)) / np.expm1(np.conj(m))) * c
            assert q_t >= -1e-10
            val = abs(c_t[0]) ** 2 / q_t
            assert t * im_b >= val - 1e-10
