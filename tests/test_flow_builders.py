"""The two builders of exp(t G): the ball flow and the affine Siegel flow.

The Siegel builder reads the entries of exp(t G) off the first and second
divided differences of s -> e^{ts}; these tests hold both to mpmath at 50
digits at coincident points, at gaps from 1e-3 down to 1e-12 and at
separated points.  The ball builder solves K^T h = r once per family; an
elliptic u0 family with cond(M) = 6.9e7 still matches the normal-map
builder applied to exp(t M) within 1e-12.  A generator whose w-block is
not diagonal is refused, and so is one with a nonzero entry that its
builder does not read: the ball flow's last column, the Siegel flow's
first column below the z-row and its last row.

The ball builder reads exp(t K) off one eigendecomposition K = V diag(l)
V^-1 while cond(V) <= 1e2.  On a sweep of cond(V) up to that cut, against
mpmath at 40 digits, each exp(t K) is within the eigenvector method's
first-order bound 8 cond(V) (1 + t |K|) eps (and t = 0 gives the identity
exactly), and near the cut (cond(V) 30 and 99) the worst error of the
sweep is below that of ``mat_exp``.  A Jordan block, whose eigenbasis is
singular, takes ``mat_exp(t K)`` and has its bits.
"""

import mpmath
import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.embedding import SemigroupFamily
from lfmsemi.errors import DomainError
from lfmsemi.linalg import mat_exp, mat_log_principal
from lfmsemi.maps import BALL, SIEGEL, ProjMap
from lfmsemi.normal_forms import u0_normal_map

TS = np.array([0.0, 1e-6, 0.3, 1.0, 2.0, 7.5])
GAPS = [1e-3, 1e-5, 1e-7, 1e-9, 1e-12]
#: directions of the near-coincident points, one per ordering of the widest
#: pair in emb._dd2 (a-c, a-b, b-c)
SHAPES = [(0.3 + 0.4j, 1.0), (1.0, 0.2 - 0.5j), (-1.0j, 0.6 + 0.8j)]
BASES = [0.0, -0.7 + 2.0j, 0.55]



def _mp(z):
    return mpmath.mpc(complex(z).real, complex(z).imag)


@mpmath.workdps(50)
def _dd1_mp(a, b, t):
    a, b, t = _mp(a), _mp(b), mpmath.mpf(t)
    if a == b:
        return complex(t * mpmath.exp(t * a))
    return complex((mpmath.exp(t * a) - mpmath.exp(t * b)) / (a - b))


@mpmath.workdps(50)
def _dd2_mp(a, b, c, t):
    """f[a, b, c] for f(s) = e^{ts}, by the recurrence on distinct points
    or, on coincident ones, by the derivatives of f."""
    a, b, c, t = _mp(a), _mp(b), _mp(c), mpmath.mpf(t)
    f = lambda s: mpmath.exp(t * s)
    if a == b == c:
        return complex(t * t / 2 * f(a))
    if a == b:
        a, c = c, a
    if b == c:
        return complex((t * f(b) - (f(b) - f(a)) / (b - a)) / (c - a))
    return complex(((f(a) - f(b)) / (a - b) - (f(b) - f(c)) / (b - c)) / (a - c))


def _close(got, want, rel):
    return abs(complex(got) - want) <= rel * abs(want)


@pytest.mark.parametrize("base", BASES)
def test_dd1_matches_mpmath(base):
    pairs = [(base, base)] + [(base, base + g * d) for g in GAPS for d, _ in SHAPES]
    pairs += [(base, base - 1.3 + 0.4j), (base + 2.0, base - 3.0j)]
    for a, b in pairs:
        got = emb._dd1(np.array([a], dtype=complex), np.array([b], dtype=complex), TS)[:, 0]
        assert got.shape == TS.shape
        for t, x in zip(TS.tolist(), got):
            assert _close(x, _dd1_mp(a, b, t), 1e-14), (a, b, t)


def test_dd1_stays_finite_where_e_to_the_gap_overflows():
    """At t = 600, e^{t(a - b)} = e^{5460} overflows a double, but DD1 is
    about e^{660} / 9.1."""
    a, b, t = np.array([1.1 + 0.3j]), np.array([-8.0 + 1.0j]), np.array([600.0])
    for x, y in ((a, b), (b, a)):
        got = emb._dd1(x, y, t)[0, 0]
        assert _close(got, _dd1_mp(x[0], y[0], 600.0), 1e-13)


@pytest.mark.parametrize("base", BASES)
def test_dd2_matches_mpmath(base):
    triples = [(base, base, base)]
    triples += [(base, base + g * d, base + g * e) for g in GAPS for d, e in SHAPES]
    triples += [(base, base - 1.3 + 0.4j, base + 0.9), (base + 2.0, base - 3.0j, base),
                (base, base, base + 1.5), (base, base + 1e-7, base + 2.0)]
    for a, b, c in triples:
        got = emb._dd2(a, b, c, TS)
        assert got.shape == TS.shape
        for t, x in zip(TS.tolist(), got):
            assert _close(x, _dd2_mp(a, b, c, t), 1e-13), (a, b, c, t)


def test_dd2_of_coincident_points_is_the_taylor_term():
    t = np.array([0.5, 1.0, 3.0, 1000.0])
    assert np.array_equal(emb._dd2(0.0, 0.0, 0.0, t), t * t * 0.5)


def test_ill_conditioned_u0_family_matches_the_normal_maps():
    """exp(M) has the eigenvalues 1 - 1e-8, 0.5 and 0.6, so cond(M) = 6.9e7;
    the coupling of e1 to the other two makes the solve K^T h = r pivot
    away from e1, and h = delta e1 only up to rounding."""
    delta = 0.05
    q = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))[0]
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0], m[0, 1:] = np.log(1.0 - 1e-8), [3e-5, 2e-5 - 1e-5j]
    m[1:, 1:] = q @ np.diag(np.log([0.5, 0.6])) @ q.conj().T
    assert np.linalg.cond(m) > 6.9e7
    g = emb._u0_matrix(m, delta)
    assert np.max(np.abs(np.linalg.solve(m.T, g[-1, :-1]) - [delta, 0, 0])) < 1e-15
    stack = SemigroupFamily("elliptic_u0", g, BALL).at_many(
        np.linspace(0.0, 3.0, 31))
    for i, t in enumerate(np.linspace(0.0, 3.0, 31).tolist()):
        got = stack[i].to_proj().mat
        want = u0_normal_map(mat_exp(t * m), delta).to_proj().mat
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), t


def test_non_diagonal_w_block_is_refused():
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0], g[0, -1] = 0.0, 2.0j
    g[1:3, 1:3] = [[-0.5, 0.1], [0.0, -0.7]]
    sg = SemigroupFamily("parabolic", g, SIEGEL)
    with pytest.raises(DomainError, match="not diagonal"):
        sg.at_many([0.5, 1.0])
    g[1, 2] = 0.0
    assert len(SemigroupFamily("parabolic", g, SIEGEL).at_many([0.5, 1.0])) == 2


def test_ball_generator_with_a_last_column_is_refused():
    # z -> (e^-1 z + 0.3 (1 - e^-1)) is exp(G) at 0.2+0.1i: 0.2632+0.0368i,
    # where a builder reading only K and r gave e^-1 z = 0.0736+0.0368i
    z = np.array([0.2 + 0.1j])
    g = np.array([[-1.0, 0.3], [0.0, 0.0]], dtype=complex)
    want = ProjMap(mat_exp(g))(z)
    assert np.allclose(want, [0.26321206 + 0.03678794j])
    for corner in (0.0, 0.5):
        g[1, 1] = corner
        with pytest.raises(DomainError, match="last column is not zero"):
            SemigroupFamily("x", g, BALL).at(1.0)
    g[:, -1] = 0.0
    assert np.allclose(SemigroupFamily("x", g, BALL).at(1.0)(z), ProjMap(mat_exp(g))(z),
                       atol=1e-15)


@pytest.mark.parametrize("entry", [(2, 2), (1, 0)], ids=["last_row", "first_column"])
def test_siegel_generator_outside_the_affine_form_is_refused(entry):
    # on H_2, at (0.1+2i, 0.3): a builder that did not read G[2, 2] = 0.4 or
    # G[1, 0] = 0.3 gave (0.1649+3.4272i, 0.2456) both times, where exp(G)
    # gives (0.1105+2.3155i, 0.1646) and (0.1649+3.4272i, 0.2812+0.7282i)
    p = np.array([0.1 + 2.0j, 0.3])
    g = np.zeros((3, 3), dtype=complex)
    g[0, 0], g[1, 1], g[0, 2] = 0.5, -0.2, 0.1j
    affine = ProjMap(mat_exp(g), SIEGEL, SIEGEL)(p)
    assert np.allclose(SemigroupFamily("x", g, SIEGEL).at(1.0)(p), affine, atol=1e-14)
    assert np.allclose(affine, [0.16487213 + 3.4271868j, 0.24561923])
    g[entry] = {(2, 2): 0.4, (1, 0): 0.3}[entry]
    want = {(2, 2): [0.11051709 + 2.31551275j, 0.16464349],
            (1, 0): [0.16487213 + 3.4271868j, 0.28119025 + 0.72818171j]}[entry]
    assert np.allclose(ProjMap(mat_exp(g), SIEGEL, SIEGEL)(p), want)
    with pytest.raises(DomainError, match="below the z-row or last row is not zero"):
        SemigroupFamily("x", g, SIEGEL).at_many([0.5, 1.0])


#: the times of the ball-flow sweep: t |K| from 0 to about 40
SWEEP_TIMES = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0])


@mpmath.workdps(40)
def _expm_mp(m):
    e = mpmath.expm(mpmath.matrix(m.tolist()))
    return np.array([[complex(e[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])])


def _with_eigenbasis_cond(n, cond, rng):
    """An n x n K = V diag(l) V^-1 with Re l in (-1.5, 0] and unit columns
    of V, two of them at the angle 2 arctan(1 / cond) and the others
    orthonormal to them, so that cond(V) = cond."""
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    phi = 2.0 * np.arctan(1.0 / cond)
    v = q.copy()
    v[:, 1] = np.cos(phi) * q[:, 0] + np.sin(phi) * q[:, 1]
    lam = -rng.uniform(0.0, 1.5, n) + 1j * rng.uniform(-3.0, 3.0, n)
    return v @ np.diag(lam) @ np.linalg.inv(v)


def _refuse_mat_exp(m):
    raise AssertionError("the ball flow took mat_exp")


@pytest.mark.parametrize("cond", [1.0, 3.0, 10.0, 30.0, 99.0])
def test_eigen_flow_sweep_against_mpmath(cond, monkeypatch):
    eps = np.finfo(float).eps
    worst_eigen = worst_mat_exp = 0.0
    for n in (2, 3, 4):
        for seed in (0, 1):
            k = _with_eigenbasis_cond(n, cond, np.random.default_rng([n, int(cond), seed]))
            cond_v = np.linalg.cond(np.linalg.eig(k)[1])
            assert cond_v == pytest.approx(cond, rel=1e-6) and cond_v <= emb._EIGEN_FLOW_COND
            with monkeypatch.context() as patch:
                patch.setattr(emb, "mat_exp", _refuse_mat_exp)
                got = emb._EigenExp.of(k)(SWEEP_TIMES)
            assert np.array_equal(got[0], np.eye(n))
            by_mat_exp = mat_exp(SWEEP_TIMES[:, None, None] * k)
            for t, e, m in zip(SWEEP_TIMES.tolist(), got, by_mat_exp):
                want = _expm_mp(t * k)
                error = np.linalg.norm(e - want) / np.linalg.norm(want)
                assert error <= 8 * cond_v * (1 + t * np.linalg.norm(k, 2)) * eps, (n, seed, t)
                worst_eigen = max(worst_eigen, error)
                worst_mat_exp = max(worst_mat_exp, np.linalg.norm(m - want) / np.linalg.norm(want))
    if cond >= 30:
        assert worst_eigen <= worst_mat_exp


def test_jordan_block_takes_mat_exp():
    """A1 = [[0.5, 0.1], [0, 0.5]] is one Jordan block: its logarithm K has
    a singular eigenbasis, so the family is mat_exp(t K), bit for bit."""
    k = mat_log_principal(np.array([[0.5, 0.1], [0.0, 0.5]]))
    assert np.linalg.cond(np.linalg.eig(k)[1]) > 1e12
    ts = np.linspace(0.0, 2.0, 401)
    sg = SemigroupFamily("elliptic_split", emb._split_matrix(np.zeros(0), k), BALL)
    stack = sg.at_many(ts)
    assert stack.A.tobytes() == mat_exp(ts[:, None, None] * k).tobytes()
    assert np.array_equal(stack.A[0], np.eye(2))
