"""The two builders of exp(t G): the ball flow and the affine Siegel flow.

The Siegel builder reads the entries of exp(t G) off the first and second
divided differences of s -> e^{ts}; these tests hold both to mpmath at 50
digits at coincident points, at gaps from 1e-3 down to 1e-12 and at
separated points.  The ball builder solves K^T h = r once per family; an
elliptic u0 family with cond(M) = 6.9e7 still matches the normal-map
builder applied to exp(t M) within 1e-12.  A generator whose w-block is
not diagonal is refused.
"""

import mpmath
import numpy as np
import pytest

from lfmsemi import embedding as emb
from lfmsemi.embedding import SemigroupFamily
from lfmsemi.errors import DomainError
from lfmsemi.linalg import mat_exp
from lfmsemi.maps import BALL, SIEGEL
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
    stack = SemigroupFamily("elliptic_u0", {"M": m, "delta": delta, "G": g}, BALL).at_many(
        np.linspace(0.0, 3.0, 31))
    for i, t in enumerate(np.linspace(0.0, 3.0, 31).tolist()):
        got = stack[i].to_proj().mat
        want = u0_normal_map(mat_exp(t * m), delta).to_proj().mat
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), t


def test_non_diagonal_w_block_is_refused():
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0], g[0, -1] = 0.0, 2.0j
    g[1:3, 1:3] = [[-0.5, 0.1], [0.0, -0.7]]
    sg = SemigroupFamily("parabolic", {"G": g}, SIEGEL)
    with pytest.raises(DomainError, match="not diagonal"):
        sg.at_many([0.5, 1.0])
    g[1, 2] = 0.0
    assert len(SemigroupFamily("parabolic", {"G": g}, SIEGEL).at_many([0.5, 1.0])) == 2
