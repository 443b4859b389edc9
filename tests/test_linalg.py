"""Tests for the dense complex linear algebra kernel."""

import warnings

import mpmath
import numpy as np
import pytest

from lfmsemi import linalg
from lfmsemi.errors import BranchError, DimensionError, DomainError, NumericError


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def series_exp(m, terms=60):
    """Truncated Taylor series oracle for the matrix exponential."""
    n = m.shape[0]
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


def power_iteration_norm(a, rng, iters=500):
    """Independent spectral-norm oracle: power iteration on A^H A."""
    samples = random_complex(rng, 10_000, a.shape[1])
    samples /= np.linalg.norm(samples, axis=1)[:, None]
    best = samples[np.argmax(np.linalg.norm(samples @ a.T, axis=1))]
    x = best / np.linalg.norm(best)
    for _ in range(iters):
        y = a.conj().T @ (a @ x)
        x = y / np.linalg.norm(y)
    return np.linalg.norm(a @ x)


@pytest.mark.parametrize("dtype", [float, complex])
def test_frobenius_has_the_bits_of_numpy_norm(dtype):
    """``linalg._frobenius`` is ``np.linalg.norm`` without an axis, bit for
    bit, on real and complex arrays: 1-d, 2-d, transposed, empty."""
    rng = np.random.default_rng(12)
    for shape in [(0,), (1,), (7,), (0, 3), (3, 0), (1, 1), (4, 4), (9, 9), (5, 3)]:
        for scale in (1e-200, 1e-8, 1.0, 1e150):
            x = scale * rng.standard_normal(shape)
            if dtype is complex:
                x = x + 1j * scale * rng.standard_normal(shape)
            for a in (x, x.T):
                got, want = linalg._frobenius(a), np.linalg.norm(a)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (shape, scale)


class TestSpectralNorm:
    def test_identity(self):
        assert linalg.spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0)

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 4, 4)
        oracle = power_iteration_norm(a, rng)
        assert abs(linalg.spectral_norm(a) - oracle) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            linalg.spectral_norm(np.zeros((0, 3)))


class TestSpectralRadius:
    def test_diagonal(self):
        assert linalg.spectral_radius(np.diag([0.5j, -1 / 3])) == pytest.approx(0.5)

    def test_nilpotent(self):
        assert linalg.spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0)

    def test_companion_golden_ratio(self):
        # companion matrix of z^2 - z - 1; oracle is the closed-form root
        comp = np.array([[0.0, 1.0], [1.0, 1.0]])
        golden = (1 + np.sqrt(5)) / 2
        assert linalg.spectral_radius(comp) == pytest.approx(golden, abs=1e-10)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            linalg.spectral_radius(np.ones((2, 3)))


class TestSchur:
    def test_diagonal_input(self):
        d = np.diag([2.0 + 0j, -1j, 0.5])
        form = linalg.schur_form(d)
        assert np.allclose(form.reconstruct(), d, atol=1e-12)
        assert sorted(np.diag(form.upper_triangular), key=abs) == pytest.approx(
            sorted(np.diag(d), key=abs)
        )

    def test_hermitian_triangularizes_diagonally(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 4, 4)
        h = (a + a.conj().T) / 2
        t = linalg.schur_form(h).upper_triangular
        assert np.max(np.abs(t - np.diag(np.diag(t)))) < 1e-10

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 5, 5)
        form = linalg.schur_form(a)
        assert np.linalg.norm(form.reconstruct() - a) < 1e-10 * np.linalg.norm(a)
        # strictly lower part of T vanishes
        t = form.upper_triangular
        assert np.max(np.abs(np.tril(t, -1))) < 1e-12
        # unitarity
        u = form.unitary
        assert np.linalg.norm(u @ u.conj().T - np.eye(5)) < 1e-12

    def test_sorting(self):
        a = np.diag([0.3, 1.0, 0.5, np.exp(0.4j)])
        form = linalg.schur_form(a, unimodular_first=True)
        lead = np.abs(np.diag(form.upper_triangular)[:2])
        assert np.allclose(lead, 1.0, atol=1e-12)


class TestSvd:
    def test_zero(self):
        form = linalg.svd_form(np.zeros((3, 2)))
        assert np.allclose(form.singular_values, 0.0)

    def test_unitary(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 4)
        assert np.allclose(linalg.svd_form(u).singular_values, 1.0, atol=1e-12)

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, 3, 4)
        oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0))[::-1]
        got = linalg.svd_form(a).singular_values
        assert np.allclose(got, oracle[: len(got)], atol=1e-9)

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(17)
        a = random_complex(rng, 4, 3)
        form = linalg.svd_form(a)
        assert np.linalg.norm(form.reconstruct() - a) < 1e-10 * np.linalg.norm(a)
        s = form.singular_values
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)


def penrose_residuals(a, ap):
    return (
        np.linalg.norm(a @ ap @ a - a),
        np.linalg.norm(ap @ a @ ap - ap),
        np.linalg.norm((a @ ap).conj().T - a @ ap),
        np.linalg.norm((ap @ a).conj().T - ap @ a),
    )


class TestPinv:
    def test_diagonal(self):
        got = linalg.pinv(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)

    def test_invertible(self):
        rng = np.random.default_rng(19)
        a = random_complex(rng, 3, 3) + 3 * np.eye(3)
        assert np.allclose(linalg.pinv(a), np.linalg.inv(a), atol=1e-9)

    def test_rank_one(self):
        rng = np.random.default_rng(23)
        u = random_complex(rng, 4)
        v = random_complex(rng, 3)
        a = np.outer(u, v.conj())
        expected = np.outer(v, u.conj()) / (np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2)
        assert np.allclose(linalg.pinv(a), expected, atol=1e-12)
        assert max(penrose_residuals(a, linalg.pinv(a))) < 1e-9

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (2, 5)])
    def test_penrose_identities_all_ranks(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        for rank in range(min(m, n) + 1):
            a = sum(
                (np.outer(random_complex(rng, m), random_complex(rng, n)) for _ in range(rank)),
                np.zeros((m, n), dtype=complex),
            )
            assert max(penrose_residuals(a, linalg.pinv(a))) < 1e-9

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            linalg.pinv(np.eye(2), rank_tol=0.0)

    @pytest.mark.parametrize("rank_tol", [float("nan"), -1e-10, -np.inf])
    def test_tol_that_is_not_above_zero(self, rank_tol):
        # a NaN cut is not <= 0, and s > NaN would zero every singular
        # value, so that pinv(I) would be the zero matrix
        with pytest.raises(DomainError, match=r"^rank_tol must be positive, got "):
            linalg.pinv(np.eye(2), rank_tol=rank_tol)


def bordered_reference(q, x, s):
    """lambda_min(Q), s - x^H Q^+ x and -|Q Q^+ x - x| with numpy's own
    hermitian pseudo-inverse."""
    qp = np.linalg.pinv(q, rcond=1e-10, hermitian=True)
    return (float(np.linalg.eigvalsh(q)[0]), s - float(np.vdot(x, qp @ x).real),
            -float(np.linalg.norm(q @ qp @ x - x)))


def random_psd(rng, n, rank):
    """A hermitian n x n matrix with `rank` eigenvalues in [0.5, 3], the
    others 0, and an orthonormal basis of its kernel."""
    u = random_unitary(rng, n)
    eigs = np.concatenate([rng.uniform(0.5, 3.0, rank), np.zeros(n - rank)])
    q = (u * eigs) @ u.conj().T
    return (q + q.conj().T) / 2, u[:, rank:]


class TestSchurMargins:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_numpy_pinv_at_every_rank(self, n):
        rng = np.random.default_rng([n, 71])
        for rank in range(n + 1):
            for inside in (True, False):
                q, kernel = random_psd(rng, n, rank)
                x = q @ random_complex(rng, n)
                if not inside and rank < n:
                    x = x + kernel @ random_complex(rng, n - rank)
                s = float(rng.uniform(-2.0, 2.0))
                got = linalg.schur_margins(q, x, s)
                want = bordered_reference(q, x, s)
                scale = 1.0 + np.linalg.norm(q) + np.linalg.norm(x) ** 2 + abs(s)
                assert got.psd == pytest.approx(want[0], abs=1e-13 * scale)
                assert got.complement == pytest.approx(want[1], abs=1e-12 * scale)
                assert got.in_range == pytest.approx(want[2], abs=1e-12 * scale)
                if inside or rank == n:
                    assert got.in_range >= -1e-12 * scale
                else:
                    assert got.in_range < -1e-3
                assert got.cut == pytest.approx(1e-10 * max(1.0, np.linalg.norm(q, 2)), rel=1e-12)

    def test_sign_of_the_bordered_matrix(self):
        # for x in the range of Q >= 0, [[Q, x], [x^H, s]] >= 0 exactly
        # when the Schur complement is >= 0
        rng = np.random.default_rng(73)
        for trial in range(200):
            n = 1 + trial % 5
            q, _ = random_psd(rng, n, int(rng.integers(1, n + 1)))
            x = q @ random_complex(rng, n)
            s = float(np.vdot(x, np.linalg.pinv(q, hermitian=True) @ x).real)
            s += float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1e-3, 1.0))
            bordered = np.block([[q, x[:, None]], [x.conj()[None], np.array([[s]])]])
            got = linalg.schur_margins(q, x, s)
            assert (got.complement >= 0) == (np.linalg.eigvalsh(bordered)[0] >= -1e-12)

    def test_indefinite_q_reports_its_least_eigenvalue(self):
        q = np.diag([2.0, -0.5])
        got = linalg.schur_margins(q, np.array([1.0, 1.0]), 1.0)
        assert got.psd == -0.5
        assert got.complement == 0.5 and got.in_range == -1.0

    def test_empty(self):
        got = linalg.schur_margins(np.zeros((0, 0)), np.zeros(0), 0.25)
        assert tuple(got) == (0.0, 0.25, 0.0, 1e-10)


class TestMatExp:
    def test_zero(self):
        assert np.allclose(linalg.mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_rotation(self):
        got = linalg.mat_exp(np.diag([1j * np.pi]))
        assert abs(got[0, 0] + 1.0) < 1e-12

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(29)
        m = random_complex(rng, 4, 4)
        m *= 2.0 / linalg.spectral_norm(m)
        assert np.linalg.norm(linalg.mat_exp(m) - series_exp(m)) < 1e-10

    def test_commuting_product_rule(self):
        rng = np.random.default_rng(31)
        m1 = random_complex(rng, 3, 3)
        m1 /= linalg.spectral_norm(m1)
        m2 = 0.7 * m1 + 0.3 * np.eye(3)  # commutes with m1
        lhs = linalg.mat_exp(m1 + m2)
        rhs = linalg.mat_exp(m1) @ linalg.mat_exp(m2)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def mp_expm(m):
    """exp(m) in mpmath at 40 digits, rounded to complex doubles."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(m.tolist()))
        return np.array([[complex(e[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])])


def generator(kind, n, rng):
    """An n x n generator with 1-norm 8: diagonal, upper triangular (the
    Schur form of a normal-form generator) or dense and far from normal."""
    if kind == "diagonal":
        m = np.diag(random_complex(rng, n))
    elif kind == "triangular":
        m = np.triu(random_complex(rng, n, n)) + 2 * np.diag(random_complex(rng, n))
    else:
        m = random_complex(rng, n, n) + 4 * np.triu(random_complex(rng, n, n), 1)
    return m * (8.0 / np.abs(m).sum(axis=0).max())


def pade_choice(a):
    """The Pade degree and scaling s that ``scipy.linalg.expm`` picks for
    the square matrix a (its own chooser, which scales its work array)."""
    from scipy.linalg._matfuncs_expm import pick_pade_structure

    work = np.empty((5,) + a.shape, dtype=complex)
    work[0] = a
    return pick_pade_structure(work)


#: t M for these t spans 1-norms 0 to 16: every Pade degree and s up to 2
ORACLE_TIMES = np.array([0.0, 0.002, 0.02, 0.1, 0.25, 0.6, 1.0, 2.0])


class TestMatExpOracle:
    """Stacks t M, t in [0, 2], against mpmath at 40 digits."""

    @pytest.mark.parametrize("kind", ["diagonal", "triangular", "dense"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_relative_error(self, kind, n):
        m = generator(kind, n, np.random.default_rng([n, len(kind)]))
        stack = ORACLE_TIMES[:, None, None] * m
        got = linalg.mat_exp(stack)
        for t, g in zip(ORACLE_TIMES, got):
            ref = mp_expm(t * m)
            assert np.linalg.norm(g - ref) <= 1e-13 * np.linalg.norm(ref), (t, kind, n)

    @pytest.mark.parametrize("kind", ["triangular", "dense"])
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_grid_crosses_degrees_and_scalings(self, kind, n):
        m = generator(kind, n, np.random.default_rng([n, len(kind)]))
        degree, s = zip(*(pade_choice(t * m) for t in ORACLE_TIMES[1:]))
        assert len(set(degree)) >= 3 and max(s) >= 1


class TestMatExpOverflow:
    """An exponential that overflows raises NumericError and no
    floating-point warning, whatever the warning filter."""

    @pytest.mark.parametrize("m", [
        [[800.0, 1.0], [0.0, 1.0]],
        [np.eye(2), [[800.0, 1.0], [0.0, 1.0]], np.zeros((2, 2))],
        np.diag([800.0, 1.0]),
        [[[800.0]]],
    ], ids=["single", "stack", "diagonal", "one-by-one"])
    def test_numeric_error_without_warning(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="matrix exponential overflowed"):
                linalg.mat_exp(np.array(m, dtype=complex))

    def test_large_finite_result(self):
        """Near the overflow threshold the result is finite and warns
        nothing."""
        m = np.array([[700.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.mat_exp(m)
        ref = mp_expm(m)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_triangular_diagonal_is_exp_of_the_diagonal(self):
        """The squarings of a triangular matrix recompute its diagonal, so
        the corner is e^700 to within about an ulp."""
        got = linalg.mat_exp(np.array([[700.0, 1.0], [0.0, 1.0]]))[0, 0]
        with mpmath.workdps(40):
            want = mpmath.exp(700)
            assert abs(mpmath.mpf(got.real) - want) <= 1e-15 * want and got.imag == 0.0


class TestMatLogPrincipal:
    def test_identity(self):
        assert np.allclose(linalg.mat_log_principal(np.eye(3)), 0.0, atol=1e-14)

    def test_scalar(self):
        a = np.diag([np.exp(-1 + 0.5j)])
        assert np.allclose(linalg.mat_log_principal(a), np.diag([-1 + 0.5j]), atol=1e-10)

    def test_round_trip_exp_of_log(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m0 = random_complex(rng, 4, 4)
            m0 *= 2.9 / linalg.spectral_norm(m0)  # spectrum inside |Im| < 3
            a = linalg.mat_exp(m0)
            back = linalg.mat_exp(linalg.mat_log_principal(a))
            assert np.linalg.norm(back - a) < 1e-8 * max(1.0, np.linalg.norm(a))

    def test_principal_strip(self):
        rng = np.random.default_rng(41)
        a = random_complex(rng, 4, 4) + 4 * np.eye(4)
        logs = np.linalg.eigvals(linalg.mat_log_principal(a))
        assert np.all(logs.imag > -np.pi - 1e-12) and np.all(logs.imag <= np.pi + 1e-12)

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            linalg.mat_log_principal(np.diag([1.0, 0.0]))

    def test_negative_axis_rejected(self):
        with pytest.raises(BranchError) as err:
            linalg.mat_log_principal(np.diag([-2.0, 1.0]))
        assert "-2" in str(err.value)


class TestIsDissipative:
    def test_normal_left_halfplane(self):
        res = linalg.is_dissipative(np.diag([-1 + 5j, -0.2]))
        assert res.dissipative and res.witness is None

    def test_positive_scalar_witness(self):
        res = linalg.is_dissipative(np.diag([0.1]))
        assert not res.dissipative
        assert abs(abs(res.witness[0]) - 1.0) < 1e-12
        w = res.witness
        assert (w.conj() @ np.diag([0.1]) @ w).real > 0

    def test_agrees_with_sampling_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            m = random_complex(rng, 3, 3)
            # keep the hermitian spectrum away from zero so sampling decides
            shift = rng.choice([-1.0, 1.0]) * 0.5
            m = m + shift * np.eye(3) * linalg.spectral_norm(m)
            samples = random_complex(rng, 100_000, 3)
            samples /= np.linalg.norm(samples, axis=1)[:, None]
            best = np.max(np.einsum("ij,jk,ik->i", samples.conj(), m, samples).real)
            verdict = linalg.is_dissipative(m)
            if best > 1e-9:
                assert not verdict.dissipative
            else:
                assert verdict.dissipative

    def test_witness_direct(self):
        rng = np.random.default_rng(47)
        m = random_complex(rng, 4, 4) + 0.5 * np.eye(4)
        res = linalg.is_dissipative(m)
        if not res.dissipative:
            quad = (res.witness.conj() @ m @ res.witness).real
            assert quad > 0
            assert quad == pytest.approx(res.margin, rel=1e-9)


class TestModuleProperties:
    def test_normal_dissipative_iff_contraction_exp(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            u = random_unitary(rng, n)
            eigs = rng.uniform(-2, 1, n) + 1j * rng.uniform(-4, 4, n)
            # keep real parts decisively signed so the equivalence is exact
            eigs.real = np.where(np.abs(eigs.real) > 1e-3, eigs.real, -0.5)
            m = u @ np.diag(eigs) @ u.conj().T
            dis = linalg.is_dissipative(m).dissipative
            contracts = linalg.spectral_norm(linalg.mat_exp(m)) <= 1 + 1e-10
            assert dis == contracts

    def test_dissipative_semigroup_contraction(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            m = random_complex(rng, 3, 3)
            m = m - (linalg.is_dissipative(m).margin + 0.1) * np.eye(3)
            assert linalg.is_dissipative(m).dissipative
            for t in np.arange(0.0, 5.01, 0.5):
                assert linalg.spectral_norm(linalg.mat_exp(t * m)) <= 1 + 1e-10

    def test_unimodular_row_decoupling(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            u = random_unitary(rng, n)
            b = random_complex(rng, n - 1, n - 1)
            b *= rng.uniform(0.2, 0.9) / linalg.spectral_norm(b)
            theta = rng.uniform(0, 2 * np.pi)
            a = u.conj().T @ np.block([
                [np.array([[np.exp(1j * theta)]]), np.zeros((1, n - 1))],
                [np.zeros((n - 1, 1)), b],
            ]) @ u
            form = linalg.schur_form(a, unimodular_first=True)
            t = form.upper_triangular
            assert np.max(np.abs(t[0, 1:])) < 1e-8

    def test_log_exp_identity_on_strip(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            m = random_complex(rng, 3, 3)
            m *= (np.pi - 0.2) / linalg.spectral_norm(m)
            back = linalg.mat_log_principal(linalg.mat_exp(m))
            assert np.linalg.norm(back - m) < 1e-8

    def test_log_exp_identity_arbitrary_real_parts(self):
        # imaginary parts stay in the strip; real parts roam freely
        rng = np.random.default_rng(73)
        for shift in (-4.0, 0.0, 3.0):
            m = random_complex(rng, 3, 3)
            m *= (np.pi - 0.3) / linalg.spectral_norm(m)
            m = m + shift * np.eye(3)
            back = linalg.mat_log_principal(linalg.mat_exp(m))
            assert np.linalg.norm(back - m) < 1e-8 * max(1.0, np.exp(shift))

    def test_unitary_first_column(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            v = random_complex(rng, int(rng.integers(1, 6)))
            q = linalg.unitary_with_first_column(v)
            assert np.linalg.norm(q @ q.conj().T - np.eye(len(v))) < 1e-12
            assert np.linalg.norm(q[:, 0] - v / np.linalg.norm(v)) < 1e-12
