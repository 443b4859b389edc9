"""One map class per domain: a BallMap or SiegelMap holds one map or a
stack of maps with a leading time axis.

These tests pin that a stack built directly with the constructor has the
items of ``SemigroupFamily.at_many``, bit for bit, that it runs the batched
exact self-map check once (``at_many`` runs none: it checks the family's
generator), that it evaluates one point array per map with the bits of
each item, that its shapes and entries are checked as those of
one map are (NaN in any field is rejected), and that a single map is no
stack.
"""

import numpy as np
import pytest

from lfmsemi import embedding as emb, maps
from lfmsemi.embedding import SemigroupFamily
from lfmsemi.errors import DimensionError, DomainError
from lfmsemi.linalg import UNIMODULAR_TOL
from lfmsemi.maps import (BALL, SIEGEL, BallMap, SiegelMap, sample_ball_points,
                          sample_siegel_points, unitary_index)

from closed_forms import hyperbolic_matrix, parabolic_matrix
from test_trajectory import _family as _any_dim_family

TIMES = np.linspace(0.0, 2.0, 41)
NAN = float("nan")


def _family(case, n, rng):
    """A valid family of the case in dimension n (n >= 3 for the Siegel
    cases, which then have u-, v- and w-blocks), with its generator G."""
    if case == "elliptic_split":
        g = rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1))
        data = {"theta": np.array([0.7]), "u": 1, "M": 0.15 * g - 0.6 * np.eye(n - 1)}
        return SemigroupFamily(case, emb._split_matrix(data["theta"], data["M"]), BALL)
    if case == "elliptic_u0":
        m = 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) - np.eye(n)
        return SemigroupFamily(case, emb._u0_matrix(m, 0.5), BALL)
    r = n - 3
    data = {"theta_D": np.array([1.3]), "m_diag": -rng.uniform(0.2, 1.0, r) + 1j,
            "c": 0.3 * (rng.standard_normal(r) + 1j * rng.standard_normal(r)),
            "split": (1, 1, r)}
    if case == "parabolic":
        data.update(a=np.array([0.2 - 0.1j]), alpha=0.4 + 2.0j)
        return SemigroupFamily(case, parabolic_matrix(data), SIEGEL)
    data.update(lam=2.5, c_res=np.zeros(r, dtype=complex), b=0.3 + 1.5j)
    data["m_diag"] = data["m_diag"] - 1.0
    return SemigroupFamily(case, hyperbolic_matrix(data), SIEGEL)


def _fields(f):
    names = ("A", "B", "C", "D") if isinstance(f, BallMap) else ("lam", "a", "b", "M", "c")
    return [np.asarray(getattr(f, name)) for name in names]


def _same_bits(f, g):
    assert type(f) is type(g)
    for x, y in zip(_fields(f), _fields(g)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _direct(stack):
    """The stack rebuilt with the constructor from copies of its arrays."""
    if isinstance(stack, BallMap):
        return BallMap(*(np.array(x) for x in (stack.A, stack.B, stack.C)))
    return SiegelMap(*(np.array(x) for x in (stack.lam, stack.a, stack.b, stack.M, stack.c)))


CASES = ("elliptic_split", "elliptic_u0", "parabolic", "hyperbolic")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", [3, 5])
def test_direct_stack_items_are_at_many_items(case, n):
    sg = _family(case, n, np.random.default_rng([n, CASES.index(case)]))
    stack = sg.at_many(TIMES)
    direct = _direct(stack)
    assert type(direct) is type(stack) and len(direct) == len(TIMES) and direct.dim == n
    for i in range(len(TIMES)):
        _same_bits(direct[i], stack[i])
    if isinstance(stack, BallMap):  # an item has the bits of its own checked map
        for i in (0, 17, len(TIMES) - 1):
            _same_bits(direct[i], BallMap(stack.A[i], stack.B[i], stack.C[i]))


@pytest.mark.parametrize("case", CASES)
def test_images_are_item_images(case):
    sg = _family(case, 4, np.random.default_rng(5))
    stack = sg.at_many(TIMES)
    z = np.array([0.2, 0.1j, -0.1, 0.05]) if sg.domain == BALL else np.array([1j, 0.1, 0.2j, 0.0])
    images = stack(z)
    assert images.shape == (len(TIMES), 4)
    for i, f in enumerate(stack):
        assert f(z).shape == (4,)  # one map: its image of z
        assert images[i].tobytes() == f(z).tobytes()
        assert images[i].tobytes() == f.eval_many(z[None])[0].tobytes()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stack_takes_one_point_array_per_map(case, n):
    # the semigroup law of verify_family composes its pairs this way
    sg = _any_dim_family(case, n, np.random.default_rng([n, CASES.index(case)]))
    stack = sg.at_many(TIMES)
    sampler = sample_ball_points if sg.domain == BALL else sample_siegel_points
    points = np.stack([sampler(n, 12, seed=i) for i in range(len(TIMES))])
    images = stack.eval_many(points)
    assert images.shape == (len(TIMES), 12, n)
    for i, f in enumerate(stack):
        assert images[i].tobytes() == f.eval_many(points[i]).tobytes()


@pytest.mark.parametrize("case", ["elliptic_split", "elliptic_u0"])
def test_direct_stack_checks_once(case, monkeypatch):
    calls = []
    check = maps._require_ball_self_maps
    monkeypatch.setattr(maps, "_require_ball_self_maps",
                        lambda *args: calls.append(len(args[0])) or check(*args))
    stack = _family(case, 4, np.random.default_rng(2)).at_many(TIMES)
    assert calls == []
    direct = _direct(stack)
    assert calls == [len(TIMES)]
    direct[3].eval_many(sample_ball_points(4, 10))
    list(direct)
    assert calls == [len(TIMES)]


def test_siegel_items_are_not_checked_again(monkeypatch):
    stack = _family("hyperbolic", 4, np.random.default_rng(4)).at_many(TIMES)
    built = []
    init = SiegelMap.__post_init__
    monkeypatch.setattr(SiegelMap, "__post_init__", lambda self: built.append(1) or init(self))
    items = list(stack) + [stack[3:7], stack[[0, 40]]]
    assert built == [] and len(items[-2]) == 4 and len(items[-1]) == 2
    for i, f in enumerate(stack):
        assert type(f.lam) is complex and type(f.b) is complex
        _same_bits(f, SiegelMap(stack.lam[i], stack.a[i], stack.b[i], stack.M[i], stack.c[i]))
    _same_bits(items[-1][1], stack[40])


@pytest.mark.parametrize("case", CASES)
def test_at_many_of_no_times_is_empty(case):
    sg = _family(case, 3, np.random.default_rng(1))
    stack = sg.at_many([])
    assert len(stack) == 0 and list(stack) == [] and stack.dim == 3


def _ball_fields(t=4, n=3):
    return {"A": 0.5 * np.tile(np.eye(n, dtype=complex), (t, 1, 1)),
            "B": np.zeros((t, n), dtype=complex), "C": np.zeros((t, n), dtype=complex)}


def _siegel_fields(t=4, k=2):
    return {"lam": np.full(t, 2.0, dtype=complex), "a": np.zeros((t, k), dtype=complex),
            "b": np.full(t, 1j), "M": 0.5 * np.tile(np.eye(k, dtype=complex), (t, 1, 1)),
            "c": np.zeros((t, k), dtype=complex)}


def _with(fields, name, value):
    """A copy of the fields with field *name* replaced by *value*."""
    return {**fields, name: value}


def _poisoned(fields, name, value):
    """A copy of the fields with the first entry of map 2 of *name* set to value."""
    out = {key: np.array(x) for key, x in fields.items()}
    out[name][(2,) + (0,) * (out[name].ndim - 1)] = value
    return out


def _item(fields, i):
    return {key: x[i] for key, x in fields.items()}


@pytest.mark.parametrize("name,shape", [("A", (4, 3, 2)), ("A", (4, 2, 2)), ("A", (4, 0, 0)),
                                        ("B", (4, 2)), ("B", (3, 3)), ("C", (4, 3, 1)),
                                        ("C", (5, 3))])
def test_ball_stack_shape_mismatch(name, shape):
    with pytest.raises(DimensionError):
        BallMap(**_with(_ball_fields(), name, np.zeros(shape, dtype=complex)))


@pytest.mark.parametrize("name,shape", [("lam", (3,)), ("lam", (4, 1)), ("a", (4, 3)),
                                        ("a", (2,)), ("b", (3,)), ("M", (4, 2, 3)),
                                        ("M", (4, 3, 3)), ("c", (4, 1)), ("c", (3, 2))])
def test_siegel_stack_shape_mismatch(name, shape):
    with pytest.raises(DimensionError):
        SiegelMap(**_with(_siegel_fields(), name, np.zeros(shape, dtype=complex)))


NON_FINITE = [NAN, complex(0.0, NAN), float("inf"), complex(float("-inf"), 0.0)]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", "ABC")
def test_ball_map_rejects_non_finite_entries(name, value):
    bad = _poisoned(_ball_fields(), name, value)
    with pytest.raises(DomainError):
        BallMap(**bad)
    with pytest.raises(DomainError):
        BallMap(**_item(bad, 2))
    BallMap(**_item(bad, 1))


@pytest.mark.parametrize("value", NON_FINITE)
def test_ball_map_rejects_non_finite_denominator(value):
    # unchecked, a NaN D gives an all-NaN map and an infinite D the constant map 0
    with pytest.raises(DomainError, match="must be finite"):
        BallMap([[0.5]], [0], [0], value)
    with pytest.raises(DomainError, match="must be finite"):
        BallMap(**_ball_fields(), D=value)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["lam", "a", "b", "M", "c"])
def test_siegel_map_rejects_non_finite_entries(name, value):
    bad = _poisoned(_siegel_fields(), name, value)
    with pytest.raises(DomainError):
        SiegelMap(**bad)
    with pytest.raises(DomainError):
        SiegelMap(**_item(bad, 2))
    SiegelMap(**_item(bad, 1))


def test_single_map_messages_are_kept():
    with pytest.raises(DomainError, match="^matrix entries must be finite$"):
        BallMap([[NAN]], [0], [0])
    with pytest.raises(DomainError, match="^vector entries must be finite$"):
        BallMap([[0.5]], [NAN], [0])
    with pytest.raises(DimensionError, match="^A, B, C dimensions disagree$"):
        BallMap(np.eye(2) / 2, [0], [0, 0])
    with pytest.raises(DomainError, match=r"^denominator vanishes at the origin \(D = 0\)$"):
        BallMap([[0.5]], [0], [0], 0.0)
    with pytest.raises(DomainError, match="^matrix entries must be finite$"):
        SiegelMap(2.0, [0.0], 1j, [[NAN]], [0.0])
    with pytest.raises(DomainError, match="^vector entries must be finite$"):
        SiegelMap(2.0, [NAN], 1j, [[0.5]], [0.0])
    with pytest.raises(DimensionError, match="^a, c, M dimensions disagree$"):
        SiegelMap(2.0, [0.0, 0.0], 1j, [[0.5]], [0.0])


def test_nan_sample_margin_fails_the_self_map_check():
    # the constructor rejects NaN entries first; the exact self-map check
    # must too: a map with a NaN entry gets a NaN margin, the others theirs
    bad = _poisoned(_ball_fields(), "A", NAN)
    margins = maps._self_map_margins(bad["A"], bad["B"], bad["C"])
    assert np.isnan(margins[2]) and not np.isnan(np.delete(margins, 2)).any()
    with pytest.raises(DomainError, match=r"^not a self-map of the ball \(margin nan\)$"):
        maps._require_ball_self_maps(bad["A"], bad["B"], bad["C"])


def test_single_map_is_no_stack():
    f = BallMap(0.5 * np.eye(2), np.zeros(2), np.zeros(2))
    g = SiegelMap(2.0, np.zeros(1), 1j, 0.5 * np.eye(1), np.zeros(1))
    for h in (f, g):
        with pytest.raises(TypeError):
            len(h)
        with pytest.raises(TypeError, match="^a single map is not a stack of maps$"):
            h[0]
    assert isinstance(g.lam, complex) and isinstance(g.b, complex)


def test_stack_called_on_one_point_gives_every_image():
    s = SiegelMap([2.0, 3.0], np.zeros((2, 0)), [1j, 1j], np.zeros((2, 0, 0)), np.zeros((2, 0)))
    assert s([1j]).tobytes() == np.array([[3j], [4j]]).tobytes()
    f = BallMap([0.5 * np.eye(2), 0.25 * np.eye(2)], [[0.1, 0.0], [0.0, 0.2j]],
                [[0.0, 0.3], [0.2, 0.0]])
    z = np.array([0.5, -0.25j])
    images = f(z)
    assert images.shape == (2, 2)
    for i in range(2):
        assert images[i].tobytes() == f[i](z).tobytes()
        den = np.vdot(f.C[i], z) + 1.0
        assert np.allclose(images[i], (f.A[i] @ z + f.B[i]) / den, rtol=0, atol=1e-15)
    with pytest.raises(DomainError):
        f([1.0, 1.0])  # the one point is checked once, against the ball


def test_stack_is_no_single_map():
    f = BallMap([0.5 * np.eye(2), 0.25 * np.eye(2)], np.zeros((2, 2)), np.zeros((2, 2)))
    s = SiegelMap([2.0, 3.0], np.zeros((2, 1)), [1j, 1j], np.zeros((2, 1, 1)), np.zeros((2, 1)))
    z = np.zeros(2)
    for single in (f.to_proj, lambda: f.differential(z), lambda: f.denominator(z), s.to_proj):
        with pytest.raises(TypeError, match="^a stack of maps is not a single map"):
            single()


def test_unitary_index_counts_unimodular_eigenvalues():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        for u in range(n + 1):
            theta = rng.uniform(-3, 3, u)
            a = np.diag(np.concatenate([np.exp(1j * theta), rng.uniform(0.1, 0.9, n - u)]))
            f = BallMap(a, np.zeros(n), np.zeros(n))
            eigs = np.linalg.eigvals(f.differential(np.zeros(n)))
            assert unitary_index(f) == u == \
                int(np.sum(np.abs(np.abs(eigs) - 1.0) <= UNIMODULAR_TOL))
