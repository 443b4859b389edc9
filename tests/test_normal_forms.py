"""Tests for the normal-form reductions and their conjugation chains."""

import copy
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import maps
from lfmsemi.cli import parse_map_spec, run_pipeline
from lfmsemi.errors import DomainError, FormError, WrongFormError
from lfmsemi.linalg import pinv, spectral_norm, spectral_radius
from lfmsemi.maps import (
    BallMap,
    ProjMap,
    SiegelMap,
    ball_automorphism,
    cayley_to_ball,
    _siegel_chain,
    cayley_to_siegel,
    classify,
    conjugate,
    siegel_map_from_proj,
)
from lfmsemi.normal_forms import (
    FORM_ELLIPTIC_SPLIT,
    FORM_ELLIPTIC_U0,
    FORM_HYPERBOLIC,
    RESONANCE_TOL,
    SNAP_TOL,
    NormalForm,
    _is_diagonal,
    _moved,
    _split_blocks,
    chain_map,
    conjugation_residual,
    elliptic_split,
    elliptic_u0,
    hyperbolic_conditions,
    hyperbolic_normal_form,
    normal_form,
    parabolic_conditions,
    parabolic_normal_form,
    siegel_conditions,
    siegel_normal_map,
)

from closed_forms import heisenberg_map, unitary_ball_map


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def linear_ball_map(a):
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    return BallMap(a, np.zeros(n), np.zeros(n), 1.0)


class TestEllipticSplit:
    def test_plain_block_diagonal(self):
        theta = 0.7
        f = linear_ball_map(np.diag([np.exp(1j * theta), 0.5]))
        nf = elliptic_split(f, classify(f))
        assert nf.form_kind == FORM_ELLIPTIC_SPLIT
        assert nf.parameters["u"] == 1
        assert nf.parameters["Lambda"][0] == pytest.approx(np.exp(1j * theta), abs=1e-10)
        assert nf.parameters["A1"][0, 0] == pytest.approx(0.5, abs=1e-10)
        assert conjugation_residual(nf, f) < 1e-8

    def test_conjugated_recovers_blocks(self):
        rng = np.random.default_rng(23)
        theta = 1.1
        base = np.diag([np.exp(1j * theta), 0.5])
        u = random_unitary(rng, 2)
        f = conjugate(linear_ball_map(base), unitary_ball_map(u))
        nf = elliptic_split(f, classify(f))
        assert nf.parameters["u"] == 1
        assert nf.parameters["Lambda"][0] == pytest.approx(np.exp(1j * theta), abs=1e-9)
        a1 = nf.parameters["A1"]
        assert np.linalg.eigvals(a1)[0] == pytest.approx(0.5, abs=1e-9)
        assert conjugation_residual(nf, f) < 1e-8

    def test_moved_fixed_point(self):
        rng = np.random.default_rng(29)
        base = np.diag([np.exp(0.4j), 0.3])
        center = np.array([0.2, -0.1 + 0.2j])
        f = conjugate(linear_ball_map(base), ball_automorphism(center))
        nf = elliptic_split(f, classify(f))
        assert sorted(np.angle(nf.parameters["Lambda"])) == pytest.approx([0.4], abs=1e-8)
        assert conjugation_residual(nf, f) < 1e-8

    def test_full_unitary(self):
        rng = np.random.default_rng(31)
        f = linear_ball_map(random_unitary(rng, 3))
        nf = elliptic_split(f, classify(f))
        assert nf.parameters["u"] == 3
        assert nf.parameters["A1"].size == 0
        assert np.allclose(np.abs(nf.parameters["Lambda"]), 1.0)

    def test_u0_rejected(self):
        f = linear_ball_map(np.eye(2) / 2)
        with pytest.raises(WrongFormError):
            elliptic_split(f, classify(f))

    def test_contraction_blocks_certified(self):
        rng = np.random.default_rng(37)
        a1 = random_complex(rng, 2, 2)
        a1 *= 0.6 / spectral_norm(a1)
        base = np.zeros((3, 3), dtype=complex)
        base[0, 0] = np.exp(2.0j)
        base[1:, 1:] = a1
        f = conjugate(linear_ball_map(base), unitary_ball_map(random_unitary(rng, 3)))
        nf = elliptic_split(f, classify(f))
        assert spectral_radius(nf.parameters["A1"]) < 1 - 1e-9
        assert spectral_norm(nf.parameters["A1"]) <= 1 + 1e-10

    @staticmethod
    def _a1_moves(spec):
        """A1 of the spec, and how far each of the 64 one-ulp moves of the
        real and imaginary parts of its 4x4 A moves A1, the verdict and exit
        status held."""
        def a1_and_outcome(s):
            report = run_pipeline(s, stop_after="embed")
            a1 = np.array(report["stages"]["normal_form"]["parameters"]["A1"])
            return a1[..., 0] + 1j * a1[..., 1], [report["stages"]["embed"]["verdict"],
                                                  report["exit_status"]]

        base, outcome = a1_and_outcome(spec)
        moves = []
        for i, j, part, to in itertools.product(range(4), range(4), (0, 1), (np.inf, -np.inf)):
            moved = copy.deepcopy(spec)
            moved["A"][i][j][part] = float(np.nextafter(spec["A"][i][j][part], to))
            a1, moved_outcome = a1_and_outcome(moved)
            assert moved_outcome == outcome
            moves.append(float(np.max(np.abs(a1 - base))))
        assert len(moves) == 64
        return base, max(moves)

    def test_a1_does_not_hang_on_the_last_ulp_of_the_input(self):
        # the Schur vectors of the contraction block are unique up to
        # phases, which rounding picks; with the entry of each column
        # nearest the diagonal above SNAP_TOL ||A1|| real and >= 0, a one-ulp
        # move of A moves A1 by rounding only (up to 1.58 when the phases
        # were free)
        path = Path(__file__).parent / "golden" / "elliptic_split_condition_fails_ball_n4.json"
        base, worst = self._a1_moves(json.loads(path.read_text()))
        assert base[0, 1].real > 0.5 and abs(base[0, 1].imag) <= 1e-15
        assert worst <= 1e-13

    def test_a1_phase_skips_a_superdiagonal_at_rounding_level(self):
        # contraction block [[0.3, 0, c], [0, -0.2, 0], [0, 0, 0.4i]]: the
        # superdiagonal is rounding, so its phase must not turn c (up to 1.0
        # when the first superdiagonal set the phases)
        rng = np.random.default_rng(5)
        q = random_unitary(rng, 4)
        lin = np.zeros((4, 4), dtype=complex)
        lin[0, 0] = np.exp(0.7j)
        lin[1:, 1:] = np.diag([0.3, -0.2, 0.4j])
        lin[1, 3] = 0.5j
        a = q @ lin @ q.conj().T
        spec = {"dimension": 4, "domain": "ball", "D": [1.0, 0.0],
                "A": [[[z.real, z.imag] for z in row] for row in a.tolist()],
                "B": [[0.0, 0.0]] * 4, "C": [[0.0, 0.0]] * 4}
        base, worst = self._a1_moves(spec)
        assert np.max(np.abs(np.diag(base, 1))) <= 1e-14
        assert abs(base[0, 2] - 0.5) <= 1e-14
        assert worst <= 1e-13


class TestEllipticU0:
    def test_linear_contraction(self):
        f = linear_ball_map(np.eye(2) / 2)
        nf = elliptic_u0(f, classify(f))
        assert nf.form_kind == FORM_ELLIPTIC_U0
        assert nf.parameters["delta"] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(nf.parameters["Ahat"], np.eye(2) / 2, atol=1e-12)

    def test_scalar_delta_oracle(self):
        # phi(z) = (z/2) / (cz + 1); solving (conj(A) - 1) V = conj(C)
        # gives delta = |C| / |1/2 - 1| = 2|c|
        c = 0.1 - 0.05j
        f = BallMap([[0.5]], [0.0], [np.conj(c)], 1.0)
        nf = elliptic_u0(f, classify(f))
        assert nf.parameters["delta"] == pytest.approx(2 * abs(c), abs=1e-10)
        assert conjugation_residual(nf, f) < 1e-8

    def test_chain_round_trip(self):
        rng = np.random.default_rng(41)
        base = BallMap([[0.5, 0.1], [0.0, 0.4j]], np.zeros(2),
                       [0.05, 0.02 - 0.01j], 1.0)
        f = conjugate(base, ball_automorphism([0.1, 0.05 + 0.1j]))
        nf = elliptic_u0(f, classify(f))
        assert conjugation_residual(nf, f) < 1e-8
        assert 0.0 <= nf.parameters["delta"] <= 1.0

    def test_iterate_bound(self):
        # delta |(Ahat^n)^H e1 - e1| <= 1 must hold for all n
        c = 0.12
        f = BallMap([[0.5]], [0.0], [c], 1.0)
        nf = elliptic_u0(f, classify(f))
        ahat, delta = nf.parameters["Ahat"], nf.parameters["delta"]
        e1 = np.zeros(ahat.shape[0])
        e1[0] = 1.0
        power = np.eye(ahat.shape[0], dtype=complex)
        for _ in range(50):
            power = power @ ahat
            assert delta * np.linalg.norm(power.conj().T @ e1 - e1) <= 1 + 1e-10

    def test_split_case_rejected(self):
        f = linear_ball_map(np.diag([np.exp(0.3j), 0.5]))
        with pytest.raises(WrongFormError):
            elliptic_u0(f, classify(f))


class TestSiegelReduce:
    """The affine Siegel form of a non-elliptic ball map and its self-map
    conditions."""

    def test_translation(self):
        g = SiegelMap(1.0, np.zeros(1), 1j, np.eye(1), np.zeros(1))
        f = cayley_to_ball(g)
        report = siegel_conditions(cayley_to_siegel(f))
        margins = {c.name: c.margin for c in report}
        assert all(c.passed for c in report)
        assert margins["P1"] == pytest.approx(0.0, abs=1e-9)
        assert margins["P2"] == pytest.approx(1.0, abs=1e-8)
        assert margins["P3"] == pytest.approx(0.0, abs=1e-9)

    def test_heisenberg_automorphism_sharp(self):
        gamma = np.array([0.4 - 0.2j])
        g = heisenberg_map(gamma, 1j * float(np.vdot(gamma, gamma).real))
        f = cayley_to_ball(g)
        margins = {c.name: c.margin for c in siegel_conditions(cayley_to_siegel(f))}
        assert margins["P2"] == pytest.approx(0.0, abs=1e-8)

    def test_violation_reported(self):
        # Im b too small for the contraction part: P2 must fail
        bad = SiegelMap(1.0, np.array([0.8]), 0.01j, np.diag([0.5]), np.zeros(1))
        report = siegel_conditions(bad)
        p2 = next(c for c in report if c.name == "P2")
        assert not p2.passed and p2.margin < 0

    def test_elliptic_rejected(self):
        with pytest.raises(FormError):
            cayley_to_siegel(linear_ball_map(np.eye(2) / 2))


class TestParabolicNormalForm:
    def test_disk_automorphism(self):
        g = heisenberg_map(np.zeros(0), 1.0)  # z + 1 upstairs
        f = cayley_to_ball(g)
        nf = parabolic_normal_form(f, classify(f))
        p, q, r = nf.parameters["block_split"]
        assert (p, q, r) == (0, 0, 0)
        assert nf.parameters["b"].imag >= -1e-10
        assert conjugation_residual(nf, f) < 1e-8

    def test_b2_automorphism(self):
        gamma = np.array([0.3 + 0.1j])
        g = heisenberg_map(gamma, 1j * float(np.vdot(gamma, gamma).real) + 0.7)
        f = cayley_to_ball(g)
        nf = parabolic_normal_form(f, classify(f))
        p, q, r = nf.parameters["block_split"]
        assert p == 1 and r == 0
        a = nf.parameters["a"]
        b = nf.parameters["b"]
        assert b.imag - np.vdot(a, a).real == pytest.approx(0.0, abs=1e-8)
        assert conjugation_residual(nf, f) < 1e-8

    def test_b2_contraction_with_budget(self):
        g = SiegelMap(1.0, np.array([0.5]), 0.5j, np.diag([0.5]), np.zeros(1))
        f = cayley_to_ball(g)
        nf = parabolic_normal_form(f, classify(f))
        p, q, r = nf.parameters["block_split"]
        assert (p, q, r) == (0, 0, 1)
        conds = parabolic_conditions(nf)
        for cond in conds[1:]:
            assert cond.margin >= -1e-10, cond
        # budget oracle: Im b - <Q+ c, c> with Q = 1 - 0.25
        assert conds[2].margin == pytest.approx(0.5 - 0.25 / 0.75, abs=1e-8)
        assert conjugation_residual(nf, f) < 1e-8

    def test_translation_elimination(self):
        # w-translation present upstream; the normal form must remove it
        g = SiegelMap(1.0, np.zeros(1), 1.0 + 2.0j, np.diag([0.4]), np.array([0.3]))
        f = cayley_to_ball(g)
        nf = parabolic_normal_form(f, classify(f))
        assert np.allclose(nf.normal_map.c, 0.0)
        assert conjugation_residual(nf, f) < 1e-8

    def test_d_block_never_has_eigenvalue_one(self):
        g = SiegelMap(1.0, np.zeros(2), 1.5j,
                      np.diag([np.exp(0.9j), 0.5]), np.zeros(2))
        f = cayley_to_ball(g)
        nf = parabolic_normal_form(f, classify(f))
        d = np.atleast_1d(nf.parameters["D"])
        assert np.min(np.abs(d - 1.0)) > 1e-9
        assert parabolic_conditions(nf)[0].passed

    def test_perturbed_chain_has_large_residual(self):
        # the residual sees a chain step that does not carry f onto the normal map
        f = cayley_to_ball(heisenberg_map(np.array([0.3]), 1j * 0.09 + 0.4))
        nf = parabolic_normal_form(f, classify(f))
        assert conjugation_residual(nf, f) < 1e-8
        step = nf.conjugations[-1]
        bad = ProjMap(step.mat + 1e-3, step.domain, step.codomain)
        chain = nf.conjugations[:-1] + [bad]
        assert conjugation_residual(dataclasses.replace(nf, conjugations=chain), f) > 1e-4

    def test_non_parabolic_rejected(self):
        f = linear_ball_map(np.eye(2) / 2)
        with pytest.raises(DomainError):
            parabolic_normal_form(f, classify(f))


class TestHyperbolicNormalForm:
    def test_disk_automorphism(self):
        f = BallMap([[1.0]], [0.5], [0.5], 1.0)
        nf = hyperbolic_normal_form(f, classify(f))
        assert nf.parameters["lam"] == pytest.approx(3.0, abs=1e-8)
        assert abs(nf.parameters["b"]) < 1e-8
        assert conjugation_residual(nf, f) < 1e-8

    def test_b2_automorphism(self):
        lam = 2.5
        g = SiegelMap(lam, np.zeros(1), 0.3, np.sqrt(lam) * np.diag([np.exp(0.8j)]),
                      np.zeros(1))
        f = cayley_to_ball(g)
        nf = hyperbolic_normal_form(f, classify(f))
        p, q, r = nf.parameters["block_split"]
        assert r == 0 and q == 1
        assert abs(nf.parameters["b"].imag) < 1e-8  # real b for automorphisms
        d = np.atleast_1d(nf.parameters["D"])
        assert abs(abs(d[0]) - 1.0) < 1e-9
        assert conjugation_residual(nf, f) < 1e-8

    def test_contraction_block_with_coefficient(self):
        lam = 4.0
        g = SiegelMap(lam, np.array([1.0]), 1.0j, np.sqrt(lam) * np.diag([0.4]),
                      np.zeros(1))
        f = cayley_to_ball(g)
        nf = hyperbolic_normal_form(f, classify(f))
        p, q, r = nf.parameters["block_split"]
        assert (p, q, r) == (0, 0, 1)
        assert abs(nf.parameters["c"][0]) > 0.1
        assert np.allclose(nf.parameters["c_res"], 0.0)
        assert conjugation_residual(nf, f) < 1e-8
        for cond in hyperbolic_conditions(nf):
            assert cond.passed, cond

    def test_translation_converted_to_coefficient(self):
        # upstream translation in the w-slot, nonresonant
        lam = 4.0
        g = SiegelMap(lam, np.zeros(1), 2.0j, np.sqrt(lam) * np.diag([0.4]),
                      np.array([0.5]))
        f = cayley_to_ball(g)
        nf = hyperbolic_normal_form(f, classify(f))
        assert np.allclose(nf.normal_map.c, 0.0)
        assert conjugation_residual(nf, f) < 1e-8

    def test_resonant_translation_kept(self):
        lam = float(np.exp(2.0))
        g = SiegelMap(lam, np.zeros(1), 0.5j, np.eye(1), np.array([0.3]))
        f = cayley_to_ball(g)
        nf = hyperbolic_normal_form(f, classify(f))
        assert abs(nf.parameters["c_res"][0]) == pytest.approx(0.3, abs=1e-7)
        assert np.allclose(nf.parameters["c"], 0.0)
        assert conjugation_residual(nf, f) < 1e-8

    def test_svd_identity(self):
        # <Q+ A^H c, A^H c> + |c|^2 = <P+ c, c> for a strict contraction
        rng = np.random.default_rng(43)
        a = random_complex(rng, 3, 3)
        a *= 0.8 / spectral_norm(a)
        c = random_complex(rng, 3)
        q = np.eye(3) - a.conj().T @ a
        p = np.eye(3) - a @ a.conj().T
        lhs = np.vdot(a.conj().T @ c, pinv(q) @ (a.conj().T @ c)).real + np.vdot(c, c).real
        rhs = np.vdot(c, pinv(p) @ c).real
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_non_hyperbolic_rejected(self):
        f = linear_ball_map(np.eye(2) / 2)
        with pytest.raises(DomainError):
            hyperbolic_normal_form(f, classify(f))


def two_move_hyperbolic_normal_form(f):
    """The hyperbolic reduction of earlier versions, kept as the reference
    of :func:`hyperbolic_normal_form`: a first Heisenberg move removes the
    u- and v-translations, a second one converts the w-translation into the
    z-row coefficient (or, on a resonant entry of a diagonal A, removes the
    z-row coefficient)."""
    cls = classify(f)
    s, chain = _siegel_chain(f, cls.dw_point)
    lam = float(s.lam.real)
    sq = np.sqrt(lam)
    w, p, q, r, d_diag, a_block = _split_blocks(s.M / sq)
    if s.M.shape[0]:
        k = len(w)
        s, chain = _moved(s, chain, SiegelMap(1.0, np.zeros(k), 0.0, w, np.zeros(k)))
    gamma = np.zeros(p + q + r, dtype=complex)
    if p:
        gamma[:p] = s.c[:p] / (sq - 1.0)
    if q:
        gamma[p:p + q] = np.linalg.solve(sq * np.diag(d_diag) - np.eye(q), s.c[p:p + q])
    if p or q:
        s, chain = _moved(s, chain, heisenberg_map(gamma, 1j * float(np.vdot(gamma, gamma).real)))
    assert np.max(np.abs(s.a[:p + q]), initial=0.0) <= SNAP_TOL
    c_res = np.zeros(r, dtype=complex)
    diag = np.diag(a_block)
    res = np.abs(1.0 - sq * diag) <= RESONANCE_TOL
    if r:
        if not _is_diagonal(a_block):
            assert not np.any(res)
            gamma3 = np.linalg.solve(sq * a_block - np.eye(r), s.c[p + q:])
        else:
            gamma3 = np.zeros(r, dtype=complex)
            gamma3[~res] = s.c[p + q:][~res] / (sq * diag[~res] - 1.0)
            gamma3[res] = s.a[p + q:][res] / -(sq * np.conj(diag[res]) - lam)
        full = np.concatenate([np.zeros(p + q, dtype=complex), gamma3])
        s, chain = _moved(s, chain, heisenberg_map(full, 1j * float(np.vdot(full, full).real)))
        c_res[res] = s.c[p + q:][res]
    c_vec = s.a[p + q:].copy()
    c_vec[res] = 0.0
    b = complex(s.b)
    normal_map = siegel_normal_map(lam, np.zeros(p), d_diag, a_block, c_vec, c_res, b, sq)
    params = {"lam": lam, "b": b, "c": c_vec, "c_res": c_res, "D": d_diag,
              "A": a_block, "block_split": (p, q, r)}
    return NormalForm(FORM_HYPERBOLIC, normal_map, chain, params)


def _hyperbolic_with_blocks(rng, blocks, lam, triangular=False, resonant=False):
    """A hyperbolic ball map whose Siegel form has u-, v- and w-blocks of
    the sizes *blocks* = (p, q, r), seen through a random unitary of the
    w-variables and a random unitary of the ball.  A is diagonal, or upper
    triangular when *triangular*; with *resonant* its first entry is
    1 / sqrt(lam).  Every translation is nonzero, and Im b clears the
    self-map budget by at least 0.1."""
    p, q, r = blocks
    sq = np.sqrt(lam)
    a_block = np.diag(rng.uniform(0.1, 0.7, r) * np.exp(1j * rng.uniform(0, 2 * np.pi, r)))
    if resonant:
        a_block[0, 0] = 1.0 / sq
    if triangular:
        a_block += np.triu(0.2 * random_complex(rng, r, r), 1)
    m0 = np.zeros((p + q + r, p + q + r), dtype=complex)
    m0[:p, :p] = np.eye(p)
    m0[p:p + q, p:p + q] = np.diag(np.exp(1j * rng.uniform(0.5, 2 * np.pi - 0.5, q)))
    m0[p + q:, p + q:] = a_block
    m0 *= sq
    c0 = 0.4 * random_complex(rng, p + q + r)
    # the self-map conditions: x = M^H c - a vanishes off the w-block
    a0 = m0.conj().T @ c0
    a0[p + q:] = 0.4 * random_complex(rng, r)
    if resonant:
        a0[p + q] = 0.0  # a resonant entry has no z-row coefficient to keep
    q_w = lam * (np.eye(r) - a_block.conj().T @ a_block)
    x_w = (m0.conj().T @ c0 - a0)[p + q:]
    budget = float(np.vdot(c0, c0).real + np.vdot(x_w, np.linalg.solve(q_w, x_w)).real)
    v = random_unitary(rng, p + q + r)
    g = SiegelMap(lam, v @ a0, complex(rng.uniform(-1, 1), budget + rng.uniform(0.1, 1.0)),
                  v @ m0 @ v.conj().T, v @ c0)
    return conjugate(cayley_to_ball(g), unitary_ball_map(random_unitary(rng, p + q + r + 1)))


def _one_move_corpus():
    """Seeded hyperbolic maps of dims 3-6, each with a w-block and a u- or
    v-block, with diagonal and triangular A and one resonant entry."""
    rng = np.random.default_rng(2026)
    cases = []
    for blocks in [(1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 0, 1), (1, 1, 2), (0, 2, 2),
                   (1, 2, 2), (2, 1, 2)]:
        for triangular in (False, True)[:blocks[2]]:  # a 1 x 1 A is diagonal
            f = _hyperbolic_with_blocks(rng, blocks, float(rng.uniform(1.5, 6.0)), triangular)
            cases.append(pytest.param(blocks, triangular, False, f, id="pqr=%d%d%d-%s" % (
                *blocks, "triangular" if triangular else "diagonal")))
    f = _hyperbolic_with_blocks(rng, (1, 1, 2), 4.0, resonant=True)
    return cases + [pytest.param((1, 1, 2), False, True, f, id="pqr=112-resonant")]


class TestOneHeisenbergMove:
    """The one-move reduction against the two-move reduction of earlier
    versions."""

    @pytest.mark.parametrize("blocks, triangular, resonant, f", _one_move_corpus())
    def test_matches_the_two_move_reduction(self, blocks, triangular, resonant, f):
        nf, ref = hyperbolic_normal_form(f, classify(f)), two_move_hyperbolic_normal_form(f)
        assert nf.form_kind == ref.form_kind == FORM_HYPERBOLIC
        assert nf.parameters["block_split"] == ref.parameters["block_split"] == blocks
        assert _is_diagonal(nf.parameters["A"]) is not triangular
        assert bool(np.any(nf.parameters["c_res"])) is resonant
        assert set(nf.parameters) == set(ref.parameters)
        for key, value in ref.parameters.items():
            got = np.asarray(nf.parameters[key])
            assert np.max(np.abs(got - value), initial=0.0) <= 1e-12, key
        # rotation, Cayley transform, unitary move and one Heisenberg move
        assert len(nf.conjugations) == len(ref.conjugations) - 1 == 4
        step = siegel_map_from_proj(nf.conjugations[-1])  # (z + 2i<w,g> + beta, w + g)
        assert abs(step.lam - 1.0) <= 1e-15 and np.allclose(step.M, np.eye(len(step.M)))
        assert np.allclose(step.a, step.c)
        assert step.b.imag == pytest.approx(np.vdot(step.c, step.c).real)
        assert conjugation_residual(nf, f) <= 1e-9


# ---------------------------------------------------------------------------
# the chain residual: one projective matrix identity, no sample points

GOLDEN_SPECS = sorted(p for p in (Path(__file__).parent / "golden").glob("**/*.json")
                      if not p.name.endswith(".report.json"))


def _golden_reduction(path):
    """The ball map of a golden spec and its normal form."""
    f = parse_map_spec(json.loads(path.read_text()))
    f = cayley_to_ball(f) if isinstance(f, SiegelMap) else f
    return f, normal_form(f)


def _lstsq_residual(nf, f):
    """min_c ||X - c Y||_F / ||Y||_F by least squares on the raveled
    matrices: X of chain o f o chain^-1, Y of the normal map."""
    x = conjugate(f.to_proj(), chain_map(nf.conjugations)).mat.ravel()
    y = nf.normal_map.to_proj().mat
    c = np.linalg.lstsq(y.reshape(-1, 1), x, rcond=None)[0]
    return np.linalg.norm(x - c * y.ravel()) / np.linalg.norm(y)


def test_normal_form_stage_draws_no_samples(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sample was drawn before verification")

    for path in GOLDEN_SPECS:
        spec = json.loads(path.read_text())
        want = run_pipeline(spec, stop_after="embed")
        with monkeypatch.context() as patch:
            patch.setattr(maps, "_ball_sample_cached", refuse)
            patch.setattr(maps, "_siegel_sample_cached", refuse)
            assert run_pipeline(spec, stop_after="embed") == want, path.name


@pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.stem)
def test_chain_residual_is_the_least_squares_residual(path):
    # on the reduction's chain the residual is rounding, and both read it
    # relative to ||Y||_F; on a chain whose last step is off by 1e-3 it is
    # not, and the two agree to 1e-12 of it
    f, nf = _golden_reduction(path)
    assert conjugation_residual(nf, f) == pytest.approx(_lstsq_residual(nf, f), abs=1e-12)
    step = nf.conjugations[-1]
    bad = dataclasses.replace(nf, conjugations=nf.conjugations[:-1] + [
        ProjMap(step.mat + 1e-3, step.domain, step.codomain)])
    want = _lstsq_residual(bad, f)
    assert want > 1e-5
    assert conjugation_residual(bad, f) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("f", [
    linear_ball_map(np.diag([np.exp(0.7j), 0.5])),
    ball_automorphism(np.array([0.3, -0.2j])),
    BallMap(np.array([[0.4, 0.1j], [0.0, 0.3]]), np.array([0.1, 0.2j]),
            np.array([0.05j, 0.1]), 1.0),
], ids=["linear", "automorphism", "general"])
def test_empty_chain_onto_itself_is_exactly_zero(f):
    assert conjugation_residual(NormalForm(FORM_ELLIPTIC_SPLIT, f, [], {}), f) == 0.0
