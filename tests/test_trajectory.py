"""Families built on a whole time grid at once.

``SemigroupFamily.at_many(ts)`` builds every map of the grid as exp(t G)
of the family's generator and checks a ball family once, by the exact
flow margin of its generator. These tests pin that item i of the stack has the bits of
``at(ts[i])``, that it matches the closed forms the four cases had before
they were built from G (kept here as the oracle) within 1e-12 relative,
on hand-made families, every golden family and the families of one
``report_mixed`` and one ``trajectory_dense`` cycle, that a stacked
``mat_exp`` matches one call per matrix (across Pade degrees, scalings and
the exact diagonal path), that trajectory rows keep the bits of the
images, that the stack's self-map margins are the per-map margins and the
closed form of a linear map, and that a family leaving the ball is refused
at its generator, with the closed-form margin, on every grid (also where
its map at the first time would pass).
"""

import math

import numpy as np
import pytest

from lfmsemi import cli, embedding as emb, maps
from lfmsemi.cli import emit_trajectory, run_pipeline
from lfmsemi.embedding import SemigroupFamily
from lfmsemi.errors import DimensionError, DomainError
from lfmsemi.linalg import mat_exp
from lfmsemi.maps import BALL, SIEGEL, BallMap, SiegelMap, sample_ball_points
from lfmsemi.normal_forms import siegel_normal_map, split_normal_map, u0_normal_map

from closed_forms import expm1c, hyperbolic_matrix, parabolic_matrix
from test_flow_generator import _benchmark_families, _golden_families
from test_linalg import pade_choice

GRID = np.arange(401) / 200.0


def _dissipative(rng, n, shift=0.6):
    """A random n x n matrix with hermitian part <= -shift/2."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.15 * g - shift * np.eye(n)


def _family(case, n, rng):
    """A valid family of the case in dimension n, from its generator data."""
    if case == "elliptic_split":
        data = {"theta": rng.uniform(-3, 3, 1), "u": 1,
                "M": _dissipative(rng, n - 1) if n > 1 else np.zeros((0, 0), dtype=complex)}
        data["G"] = emb._split_matrix(data["theta"], data["M"])
        return SemigroupFamily(case, data, BALL)
    if case == "elliptic_u0":
        # Re[delta <Mz, e1> |z|^2 - <Mz, z>] >= 0 on the ball for M = -I + small
        m = 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) - np.eye(n)
        return SemigroupFamily(case, {"M": m, "delta": 0.5, "G": emb._u0_matrix(m, 0.5)}, BALL)
    k = n - 1
    p = min(k, 1)
    q = min(k - p, 1)
    r = k - p - q
    m_diag = -rng.uniform(0.2, 1.0, r) + 1j * rng.uniform(-2, 2, r)
    c = 0.3 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    theta_d = rng.uniform(-3, 3, q)
    if case == "parabolic":
        data = {"a": 0.3 * (rng.standard_normal(p) + 1j * rng.standard_normal(p)),
                "theta_D": theta_d, "m_diag": m_diag, "c": c,
                "alpha": complex(rng.standard_normal(), 2.0), "split": (p, q, r)}
        return SemigroupFamily(case, {**data, "G": parabolic_matrix(data)}, SIEGEL)
    data = {"lam": 2.5, "theta_D": theta_d, "m_diag": m_diag - 1.0, "c": c,
            "c_res": np.zeros(r, dtype=complex), "b": complex(rng.standard_normal(), 1.5),
            "split": (p, q, r)}
    return SemigroupFamily(case, {**data, "G": hyperbolic_matrix(data)}, SIEGEL)


def _fields(f):
    names = ("A", "B", "C", "D") if isinstance(f, BallMap) else ("lam", "a", "b", "M", "c")
    return [np.asarray(getattr(f, name)) for name in names]


def _same_bits(f, g):
    assert type(f) is type(g)
    for x, y in zip(_fields(f), _fields(g)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


CASES = ("elliptic_split", "elliptic_u0", "parabolic", "hyperbolic")


# dimension 6 gives the Siegel families a w-block of two entries
@pytest.mark.parametrize("case,n", [(case, n) for case in CASES for n in (1, 2, 3, 4)]
                         + [("parabolic", 6), ("hyperbolic", 6)])
def test_at_many_items_are_at(case, n):
    sg = _family(case, n, np.random.default_rng([n, CASES.index(case)]))
    stack = sg.at_many(GRID)
    assert len(stack) == len(GRID) and stack.dim == sg.dim == n
    for i, t in enumerate(GRID.tolist()):
        _same_bits(stack[i], sg.at(t))


# ---------------------------------------------------------------------------
# the closed forms of the four cases, one time at a time, as written before
# the families were built from G


def _cocycle(eps, t):
    """(exp(t eps) - 1) / (exp(eps) - 1) at one time t, t at eps = 0."""
    out = np.full(len(eps), complex(t))
    big = np.abs(eps) >= 1e-13
    expm1 = lambda v: np.array([expm1c(complex(x)) for x in v], dtype=complex)
    out[big] = expm1(t * eps[big]) / expm1(eps[big])
    return out


def _closed_form_at(case, d, t):
    """The family of generator data d at one time t, by the closed forms."""
    if case == "elliptic_u0":
        return u0_normal_map(mat_exp(t * d["M"]), d["delta"])
    if case == "elliptic_split":
        m = d["M"]
        return split_normal_map(np.exp(1j * t * d["theta"]), mat_exp(t * m) if m.size else m)
    m_diag, theta = d["m_diag"], np.exp(1j * t * d["theta_D"])
    if case == "parabolic":
        a = d["a"]
        b_t = t * d["alpha"] + 1j * t * t * float(np.vdot(a, a).real)
        return siegel_normal_map(1.0, t * a, theta, np.diag(np.exp(t * m_diag)),
                                 _cocycle(np.conj(m_diag), t) * d["c"], np.zeros(len(m_diag)),
                                 b_t)
    lam = d["lam"]
    log_lam = math.log(lam)
    lam_t, sq_t = math.exp(t * log_lam), math.exp(0.5 * t * log_lam)
    a_path = (lam_t - sq_t * np.exp(t * np.conj(m_diag))) / \
        (lam - math.sqrt(lam) * np.exp(np.conj(m_diag))) * d["c"]
    b_t = (expm1c(complex(t * log_lam)) / expm1c(complex(log_lam))).real * d["b"]
    return siegel_normal_map(lam_t, np.zeros(d["split"][0]), theta, np.diag(np.exp(t * m_diag)),
                             a_path, _cocycle(0.5 * log_lam + m_diag, t) * d["c_res"], b_t, sq_t)


def _assert_matches_closed_forms(sg, ts, label=None):
    """Item i of at_many(ts) has the homogeneous matrix of the closed form
    at ts[i] within 1e-12 relative (Frobenius)."""
    stack = sg.at_many(ts)
    for i, t in enumerate(np.asarray(ts).tolist()):
        got = stack[i].to_proj().mat
        want = _closed_form_at(sg.case_kind, sg.parameters, t).to_proj().mat
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (label, t)


@pytest.mark.parametrize("case", ["elliptic_split", "elliptic_u0"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_elliptic_items_match_per_time_formula(case, n):
    _assert_matches_closed_forms(_family(case, n, np.random.default_rng([n, 7])), GRID[::8])


@pytest.mark.parametrize("case", ["parabolic", "hyperbolic"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_siegel_items_match_per_time_formula(case, n):
    _assert_matches_closed_forms(_family(case, n, np.random.default_rng([n, 9])), GRID[::8])


def test_at_many_matches_the_closed_forms_on_the_goldens():
    families = _golden_families()
    assert {sg.case_kind for _, sg in families} == set(CASES)
    for label, sg in families:
        _assert_matches_closed_forms(sg, GRID[::4], label)


def test_at_many_matches_the_closed_forms_on_the_benchmark_families():
    families = _benchmark_families()
    assert len(families) == 32
    for label, sg in families:
        _assert_matches_closed_forms(sg, GRID[::4], label)


@pytest.mark.parametrize("shape", [(401, 1, 1), (401, 3, 3), (401, 4, 4), (2, 3, 5, 5)])
def test_stacked_mat_exp_matches_single_calls(shape):
    rng = np.random.default_rng(shape[-1])
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = mat_exp(m)
    flat = m.reshape((-1,) + shape[-2:])
    for got, one in zip(out.reshape(flat.shape), flat):
        assert got.tobytes() == mat_exp(one).tobytes()


def _generator(kind, n, rng):
    """1-norm 8: t M over t in [0, 2] needs every Pade degree and s up to 2."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = np.triu(m) + 2 * np.diag(np.diag(m)) if kind == "triangular" else m + 4 * np.triu(m, 1)
    return m * (8.0 / np.abs(m).sum(axis=0).max())


@pytest.mark.parametrize("kind", ["triangular", "dense"])
@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_stacked_mat_exp_matches_single_calls_across_degrees(kind, n):
    """A family-shaped stack t M, t in [0, 2], holds the diagonal t = 0 and
    matrices of several Pade degrees and scalings; item i still has the
    bits of its own call, and t = 0 gives the identity."""
    m = _generator(kind, n, np.random.default_rng([n, len(kind)]))
    stack = np.linspace(0.0, 2.0, 41)[:, None, None] * m
    assert len(set(map(pade_choice, stack[1:]))) >= 5
    out = mat_exp(stack)
    for got, one in zip(out, stack):
        assert got.tobytes() == mat_exp(one).tobytes()
    assert np.array_equal(out[0], np.eye(n))


def test_stacked_mat_exp_of_no_matrices():
    assert mat_exp(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)
    assert mat_exp(np.zeros((2, 0, 1, 1), dtype=complex)).shape == (2, 0, 1, 1)


def _rows_one_by_one(sg, z0, ts):
    """Trajectory rows built one number at a time from the images."""
    images = sg.at_many(ts).images(np.asarray(z0, dtype=complex)).tolist()
    return [[t] + [x for z in img for x in (z.real, z.imag)] for t, img in zip(ts, images)]


def _same_rows(rows, ref):
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        assert all(type(x) is float for x in row)
        assert np.array(row).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("case", CASES)
def test_trajectory_rows_keep_the_bits(case):
    sg = _family(case, 3, np.random.default_rng([3, CASES.index(case), 5]))
    z0 = cli._default_start(sg)
    ts = GRID[::4].tolist()
    _same_rows(emit_trajectory(sg, z0, ts), _rows_one_by_one(sg, z0, ts))
    assert emit_trajectory(sg, z0, []) == []


class _SignedZeros:
    """A family stand-in whose images hold -0.0 in both parts."""
    domain = BALL
    dim = 3

    def at_many(self, ts):
        self.count = len(ts)
        return self

    def images(self, z0):
        row = [complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0)]
        return np.array([row] * self.count)


def test_trajectory_rows_keep_negative_zeros():
    ts = [-0.0, 0.0, 1.0]
    rows = emit_trajectory(_SignedZeros(), np.zeros(3), ts)
    _same_rows(rows, _rows_one_by_one(_SignedZeros(), np.zeros(3), ts))
    assert math.copysign(1.0, rows[0][0]) == -1.0 and math.copysign(1.0, rows[1][1]) == -1.0


def test_stacked_mat_exp_rejects_non_square():
    with pytest.raises(DimensionError):
        mat_exp(np.zeros((3, 2, 4)))


def _linear_margin(a):
    """The exact self-map margin of z -> a z in closed form, when the
    second singular value of a is at most 1: S = diag(a^H a, -1), the two
    largest eigenvalues of J S are 1 and ||a||^2, so mu = (1 + ||a||^2) / 2
    and lambda_min(mu J - S) = (1 - ||a||^2) / 2, over ||S||_F."""
    gram = a.conj().T @ a
    return (1.0 - np.linalg.norm(a, 2) ** 2) / (2.0 * math.sqrt(np.linalg.norm(gram) ** 2 + 1))


def _one_margin(a):
    """The constructor's margin of the single map z -> a z."""
    n = a.shape[0]
    return maps._self_map_margins(a[None], np.zeros((1, n)), np.zeros((1, n)))[0]


LEAVING = {"theta": np.array([0.3]), "u": 1, "M": np.diag([1.0, -0.5]).astype(complex)}


def _leaving_split():
    """exp(tM) with M = diag(1, -0.5) has norm e^t > 1 for t > 0: every map
    after t = 0 leaves the ball (a 1000-point sample of |z| <= 0.95 let the
    maps up to t of about 0.05 through)."""
    g = emb._split_matrix(LEAVING["theta"], LEAVING["M"])
    return SemigroupFamily("elliptic_split", {**LEAVING, "G": g}, BALL)


def _first_failure(ts):
    """Index and margin of the first time whose map is no self-map: the
    first t with ||exp(tM)||_2 > 1."""
    first = next(i for i, t in enumerate(ts) if np.linalg.norm(mat_exp(t * LEAVING["M"]), 2) > 1)
    margins = [_one_margin(_leaving_a(t)) for t in ts]
    assert all(m >= -1e-9 for m in margins[:first]) and margins[first] < -1e-9
    assert margins[first] == pytest.approx(_linear_margin(_leaving_a(ts[first])), rel=1e-12)
    assert min(margins[first:]) < margins[first]  # a worse time comes later
    return first, margins[first]


def _leaving_a(t):
    """The matrix of the leaving family at time t, one time at a time."""
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = np.exp(1j * t * LEAVING["theta"])[0]
    a[1:, 1:] = mat_exp(t * LEAVING["M"])
    return a


def test_blocked_margins_match_per_time_construction():
    m = _dissipative(np.random.default_rng(8), 3)
    sg = SemigroupFamily("elliptic_split", {"theta": np.zeros(0), "u": 0, "M": m,
                                            "G": emb._split_matrix(np.zeros(0), m)}, BALL)
    stack = sg.at_many(GRID)
    margins = maps._self_map_margins(stack.A, stack.B, stack.C)
    for i, t in enumerate(GRID.tolist()):
        a = stack[i].A
        BallMap(a, np.zeros(3), np.zeros(3))
        assert margins[i] == _one_margin(a)
        assert margins[i] == pytest.approx(_linear_margin(a), abs=1e-14)
        want = mat_exp(t * m)
        assert np.linalg.norm(a - want) <= 1e-14 * np.linalg.norm(want), t
    assert margins[0] == pytest.approx(0.0, abs=1e-15) and min(margins[1:]) > 0


#: the flow margin of the leaving generator in closed form: X = J G + G^H J
#: = diag(0, 2, -1, 0), the two largest eigenvalues of J X are 0 and 2, so
#: mu = 1 and lambda_min(mu J - X) = -1, over max(1, ||X||_F) = sqrt(5)
LEAVING_MARGIN = -1.0 / math.sqrt(5.0)
LEAVING_ERROR = f"the flow of the generator leaves the ball (margin {LEAVING_MARGIN:.3e})"


def test_leaving_generator_margin_is_its_closed_form():
    g = _leaving_split().parameters["G"]
    x = maps.flow_form(g)
    assert np.array_equal(x, np.diag([0.0, 2.0, -1.0, 0.0]).astype(complex))
    assert maps._flow_margin(g) == pytest.approx(LEAVING_MARGIN, rel=1e-14)
    assert LEAVING_ERROR == "the flow of the generator leaves the ball (margin -4.472e-01)"


def test_leaving_family_fails_at_its_generator():
    # the maps one at a time would first fail at ts[1]; the family is
    # refused at its generator, whatever the grid, also at t = 0 alone
    sg = _leaving_split()
    ts = np.linspace(0.0, 1.0, 201).tolist()
    index, _ = _first_failure(ts)
    assert index == 1
    for grid in (ts, [ts[index]], [0.0]):
        with pytest.raises(DomainError) as exc:
            sg.at_many(grid)
        assert str(exc.value) == LEAVING_ERROR
    for t in (ts[index], 0.0):
        with pytest.raises(DomainError) as one:
            sg.at(t)
        assert str(one.value) == LEAVING_ERROR


def test_leaving_family_fails_where_the_sample_passed():
    # the grid of times the fixed 1000-point sample accepted
    ts = np.linspace(0.0, 0.05, 11).tolist()
    index, _ = _first_failure(ts)
    assert index == 1
    with pytest.raises(DomainError) as exc:
        _leaving_split().at_many(ts)
    assert str(exc.value) == LEAVING_ERROR


def test_at_many_checks_once(monkeypatch):
    # one check of the generator per stack, none per map
    per_map, per_family = [], []
    check_maps, check_flow = maps._require_ball_self_maps, emb._require_ball_flow
    monkeypatch.setattr(maps, "_require_ball_self_maps",
                        lambda *args: per_map.append(len(args[0])) or check_maps(*args))
    monkeypatch.setattr(emb, "_require_ball_flow",
                        lambda g: per_family.append(g.shape) or check_flow(g))
    stack = _family("elliptic_u0", 3, np.random.default_rng(3)).at_many(GRID)
    assert len(stack) == len(GRID)
    assert per_map == [] and per_family == [(4, 4)]
    stack[17].eval_many(sample_ball_points(3, 10))
    assert per_map == [] and per_family == [(4, 4)]


SPLIT_SPEC = {
    "dimension": 3, "domain": "ball",
    "A": [[[0.955336489125606, 0.29552020666134], [0.0, 0.0], [0.0, 0.0]],
          [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
          [[0.0, 0.0], [0.0, 0.0], [0.3, 0.1]]],
    "B": [[0.0, 0.0]] * 3, "C": [[0.0, 0.0]] * 3, "D": [1.0, 0.0],
}


def test_pipeline_with_leaving_family_exits_3(monkeypatch):
    monkeypatch.setattr(cli, "build_semigroup", lambda cert: _leaving_split())
    grid = (0.0, 0.1, 0.25, 0.5, 1.0)
    report = run_pipeline(SPLIT_SPEC, t_grid=grid)
    stage = report["stages"]["semigroup"]
    assert stage == {"status": "error", "error": LEAVING_ERROR}
    assert report["exit_status"] == cli.EXIT_INPUT_ERROR


@pytest.mark.parametrize("case", CASES)
def test_trajectory_rows_are_per_time_images(case):
    sg = _family(case, 3, np.random.default_rng(11))
    z0 = np.array([0.3, 0.1j, -0.2]) if sg.domain == BALL else np.array([2j, 0.1, 0.2j])
    rows = emit_trajectory(sg, z0, GRID[::10])
    for row, t in zip(rows, GRID[::10].tolist()):
        img = sg.at(t)(z0)
        assert row == [t] + [x for z in img for x in (float(z.real), float(z.imag))]


def test_trajectory_checks_start_dimension():
    sg = _family("parabolic", 3, np.random.default_rng(5))
    with pytest.raises(DimensionError):
        emit_trajectory(sg, np.array([2j, 0.1]), [0.0, 1.0])


def test_stacks_index_like_single_maps():
    ball = _family("elliptic_split", 2, np.random.default_rng(2)).at_many([0.5, 1.0])
    siegel = _family("hyperbolic", 2, np.random.default_rng(2)).at_many([0.5, 1.0])
    assert isinstance(ball[-1], BallMap) and isinstance(siegel[1], SiegelMap)
    with pytest.raises(IndexError):
        ball[2]
    assert len(_family("parabolic", 2, np.random.default_rng(2)).at_many([])) == 0
