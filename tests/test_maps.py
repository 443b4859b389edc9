"""Tests for ball/Siegel map values, algebra, transport and classification."""

import copy
import pickle

import numpy as np
import pytest

from lfmsemi import maps, normal_forms
from lfmsemi.errors import DimensionError, DomainError, FormError, PoleError
from lfmsemi.maps import (
    BallMap,
    SiegelMap,
    ball_automorphism,
    boundary_dilation,
    cayley_to_ball,
    cayley_to_siegel,
    cayley_transform,
    classify,
    compose,
    conjugate,
    fixed_points,
    heisenberg_map,
    identity_ball_map,
    identity_siegel_map,
    inverse,
    pointwise_distance,
    sample_ball_points,
    unitary_ball_map,
    unitary_index,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def disk_map(a, b, c, d):
    """1-dimensional ball map (az + b) / (cz + d)."""
    return BallMap(A=[[a]], B=[b], C=[np.conj(c)], D=d)


HALF_MOEBIUS = dict(a=1.0, b=0.5, c=0.5, d=1.0)  # (z + 1/2) / (z/2 + 1)


class TestEval:
    def test_identity(self):
        f = identity_ball_map(3)
        z = np.array([0.1, -0.2j, 0.3 + 0.1j])
        assert np.allclose(f(z), z)

    def test_half_scaling(self):
        f = BallMap(np.eye(2) / 2, np.zeros(2), np.zeros(2), 1.0)
        assert np.allclose(f([0.8, 0.0]), [0.4, 0.0])

    def test_disk_moebius(self):
        f = disk_map(1.0, 0.5, 0.5, 1.0)
        assert f([0.0])[0] == pytest.approx(0.5)

    def test_outside_domain_rejected(self):
        f = identity_ball_map(2)
        with pytest.raises(DomainError):
            f([1.5, 0.0])

    def test_pole(self):
        p = maps.cayley_transform(1)
        with pytest.raises(PoleError):
            p([1.0])

    def test_denominator_invariant_rejected(self):
        with pytest.raises(DomainError) as err:
            BallMap([[0.1]], [0.0], [1.2], 1.0)
        assert "denominator" in str(err.value)

    def test_siegel_eval(self):
        g = SiegelMap(2.0, np.zeros(1), 1j, 0.5 * np.eye(1), np.zeros(1))
        out = g([2j, 0.1])
        assert np.allclose(out, [4j + 1j, 0.05])


class TestAlgebra:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 2)
        f = BallMap(0.5 * u, np.zeros(2), np.zeros(2), 1.0)
        g = compose(f, identity_ball_map(2))
        assert np.allclose(g.A, f.A) and np.allclose(g.C, f.C)

    def test_moebius_inverse(self):
        r = 0.3
        f = disk_map(1.0, r, r, 1.0)
        finv = inverse(f)
        expected = disk_map(1.0, -r, -r, 1.0)
        zs = sample_ball_points(1, 64)
        assert pointwise_distance(finv, expected, zs) < 1e-10
        assert pointwise_distance(compose(f, finv), identity_ball_map(1), zs) < 1e-9

    def test_compose_matches_pointwise(self):
        rng = np.random.default_rng(3)
        f = BallMap(0.5 * random_unitary(rng, 2), [0.1, 0.0], [0.2, 0.0], 1.0)
        g = BallMap(0.6 * random_unitary(rng, 2), [0.0, -0.1j], [0.0, 0.1], 1.0)
        h = compose(f, g)
        for z in sample_ball_points(2, 32):
            assert np.linalg.norm(h(z) - f(g(z))) < 1e-10

    def test_conjugate_by_unitary(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 2)
        f = BallMap(np.eye(2) / 2, np.zeros(2), np.zeros(2), 1.0)
        s = unitary_ball_map(u)
        g = conjugate(f, s)
        zs = sample_ball_points(2, 100)
        for z in zs[:20]:
            assert np.linalg.norm(g(z) - s(f(inverse(s)(z)))) < 1e-10
        # conjugating a multiple of the identity changes nothing
        assert pointwise_distance(g, f, zs) < 1e-10

    def test_associativity(self):
        rng = np.random.default_rng(7)
        fs = [
            BallMap(0.4 * random_unitary(rng, 2), 0.05 * random_complex(rng, 2),
                    0.1 * random_complex(rng, 2), 1.0)
            for _ in range(3)
        ]
        f, g, h = fs
        zs = sample_ball_points(2, 50)
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        assert pointwise_distance(lhs, rhs, zs) < 1e-9


class TestCayley:
    def test_identity_round_trip(self):
        g = cayley_to_siegel(disk_map(1.0, 0.5, 0.5, 1.0))
        f = cayley_to_ball(g)
        zs = sample_ball_points(1, 100)
        assert pointwise_distance(f, disk_map(1.0, 0.5, 0.5, 1.0), zs) < 1e-9

    def test_origin_image(self):
        sigma = cayley_transform(2)
        assert np.allclose(sigma([0.0, 0.0]), [1j, 0.0])

    def test_disk_hyperbolic_becomes_dilation(self):
        f = disk_map(**HALF_MOEBIUS)
        g = cayley_to_siegel(f)
        assert g.lam == pytest.approx(3.0, abs=1e-9)
        assert abs(g.b) < 1e-9
        # pointwise check through sigma at 100 points
        sigma = cayley_transform(1)
        for z in sample_ball_points(1, 100):
            lhs = g(sigma(z))
            rhs = sigma(f(z))
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_identity_maps(self):
        g = SiegelMap(1.0, np.zeros(1), 0.0, np.eye(1), np.zeros(1))
        f = cayley_to_ball(g)
        assert pointwise_distance(f, identity_ball_map(2), sample_ball_points(2, 50)) < 1e-12

    def test_elliptic_rejected(self):
        f = BallMap(np.eye(2) / 2, np.zeros(2), np.zeros(2), 1.0)
        with pytest.raises(FormError):
            cayley_to_siegel(f)

    def test_round_trip_b2(self):
        # parabolic-type Heisenberg automorphism of H^2
        g = heisenberg_map(np.array([0.3 + 0.1j]), 1j * 0.1 + 0.5)
        g = SiegelMap(g.lam, g.a, 1j * (0.3 ** 2 + 0.1 ** 2) + 0.5, g.M, g.c)
        f = cayley_to_ball(g)
        g2 = cayley_to_siegel(f)
        zs = maps.sample_siegel_points(2, 64)
        assert pointwise_distance(g2, g, zs) < 1e-8


class TestFixedPoints:
    def test_contraction(self):
        f = BallMap(np.eye(1) / 2, [0.0], [0.0], 1.0)
        interior, boundary = fixed_points(f)
        assert len(interior) == 1 and np.allclose(interior[0], 0.0)
        assert boundary == []

    def test_disk_hyperbolic(self):
        # oracle: z (z/2 + 1) = z + 1/2  <=>  z^2 = 1
        f = disk_map(**HALF_MOEBIUS)
        interior, boundary = fixed_points(f)
        assert interior == []
        got = sorted(p[0].real for p in boundary)
        assert got == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_unitary_rotation(self):
        f = unitary_ball_map(np.diag([np.exp(0.7j)]))
        interior, boundary = fixed_points(f)
        assert len(interior) == 1 and np.allclose(interior[0], 0.0)
        assert boundary == []

    def test_parabolic_boundary_point(self):
        f = cayley_to_ball(heisenberg_map(np.zeros(0), 1.0))  # z + 1 upstairs
        interior, boundary = fixed_points(f)
        assert interior == []
        assert len(boundary) == 1
        assert boundary[0][0] == pytest.approx(1.0, abs=1e-8)

    def test_fixed_slice_representatives(self):
        # (z1, z2) -> (z1, z2/2) fixes the slice {z2 = 0}
        f = BallMap(np.diag([1.0, 0.5]), np.zeros(2), np.zeros(2), 1.0)
        interior, _ = fixed_points(f)
        assert len(interior) >= 1
        for p in interior:
            assert abs(p[1]) < 1e-9

    def test_result_copies_and_pickles(self):
        found = fixed_points(disk_map(**HALF_MOEBIUS))
        for again in (copy.deepcopy(found), pickle.loads(pickle.dumps(found))):
            assert type(again) is type(found) and len(again) == 2 and again[0] == []
            assert np.array_equal(np.array(again[1]), np.array(found[1]))
            assert np.array_equal(again.proj.mat, found.proj.mat)
            assert np.array_equal(again.eigenvalues, found.eigenvalues)


class TestClassify:
    def test_elliptic_contraction(self):
        cls = classify(BallMap(np.eye(1) / 2, [0.0], [0.0], 1.0))
        assert cls.kind == maps.ELLIPTIC
        assert np.allclose(cls.interior_fixed_points[0], 0.0)

    def test_disk_hyperbolic_delta(self):
        cls = classify(disk_map(**HALF_MOEBIUS))
        assert cls.kind == maps.HYPERBOLIC
        assert cls.dw_point[0] == pytest.approx(1.0, abs=1e-9)
        # oracle: derivative at the Denjoy-Wolff point, phi'(1) = 1/3
        assert cls.delta == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_disk_parabolic_automorphism(self):
        f = cayley_to_ball(heisenberg_map(np.zeros(0), 1.0))
        cls = classify(f)
        assert cls.kind == maps.PARABOLIC
        assert cls.dw_point[0] == pytest.approx(1.0, abs=1e-8)
        assert cls.delta == pytest.approx(1.0, abs=1e-6)

    def test_identity_rejected(self):
        with pytest.raises(DomainError):
            classify(identity_ball_map(2))

    def test_radial_limit_oracle(self):
        # independent radial-limit estimate without extrapolation
        f = disk_map(**HALF_MOEBIUS)
        eps = 1e-7
        raw = (1 - abs(f([1 - eps])[0]) ** 2) / (1 - (1 - eps) ** 2)
        assert boundary_dilation(f, np.array([1.0])) == pytest.approx(raw, abs=1e-5)


def _siegel_dilation_cases(dim, count=8):
    """Cayley images of (z, w) -> (lam z + b, sqrt(lam) U w), b real, U
    unitary, lam in [e^0.5, e^2.5]: boundary fixed points e1 (infinity,
    delta = 1/lam) and the image of (-b / (lam - 1), 0) (delta = lam)."""
    rng = np.random.default_rng([29, dim])
    for _ in range(count):
        lam = float(np.exp(rng.uniform(0.5, 2.5)))
        b = float(rng.uniform(-3.0, 3.0))
        u = random_unitary(rng, dim - 1)
        f = cayley_to_ball(SiegelMap(lam, np.zeros(dim - 1), b, np.sqrt(lam) * u,
                                     np.zeros(dim - 1)))
        z0 = -b / (lam - 1.0)
        other = np.zeros(dim, dtype=complex)
        other[0] = (z0 - 1j) / (z0 + 1j)  # sigma^-1 of (z0, 0)
        yield f, lam, other


def _parabolic_normal_forms(dim, count=8):
    """Cayley images of (z + 2i<u,a> + 2i<w,c> + b, u + a, D v, A w) with
    D unimodular (no eigenvalue 1), |A| <= 0.8 and Im b - |a|^2 large
    enough for a self-map: the one boundary fixed point is e1, delta = 1."""
    rng = np.random.default_rng([31, dim])
    for i in range(count):
        k = dim - 1
        p = min(i % 3, k)
        q = min(1, k - p) if i % 2 else 0
        r = k - p - q
        a = 0.5 * random_complex(rng, p)
        d = np.exp(1j * rng.uniform(0.3, 2 * np.pi - 0.3, q))
        w_block = random_unitary(rng, r) @ np.diag(rng.uniform(0.0, 0.8, r)) \
            @ random_unitary(rng, r)
        c = 0.3 * random_complex(rng, r)
        im_b = np.vdot(a, a).real + np.vdot(c, c).real / 0.36 + rng.uniform(0.1, 1.0)
        s = normal_forms.siegel_normal_map(1.0, a, d, w_block, c, np.zeros(r),
                                           complex(rng.uniform(-1.0, 1.0), im_b), 1.0)
        yield cayley_to_ball(s)


class TestBoundaryDilation:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_siegel_dilations(self, dim):
        e1 = np.eye(dim)[0]
        for f, lam, other in _siegel_dilation_cases(dim):
            cls = classify(f)
            assert cls.kind == maps.HYPERBOLIC
            assert len(cls.boundary_fixed_points) == 2
            assert np.linalg.norm(cls.dw_point - e1) < 1e-9
            assert cls.delta == pytest.approx(1.0 / lam, rel=1e-12, abs=0.0)
            assert boundary_dilation(f, other) == pytest.approx(lam, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_heisenberg_translations(self, dim):
        rng = np.random.default_rng([37, dim])
        for _ in range(8):
            gamma = 0.5 * random_complex(rng, dim - 1)
            beta = complex(rng.uniform(-2.0, 2.0),
                           np.vdot(gamma, gamma).real + rng.choice([0.0, rng.uniform(0.1, 1.0)]))
            cls = classify(cayley_to_ball(heisenberg_map(gamma, beta)))
            assert cls.kind == maps.PARABOLIC
            assert cls.delta == pytest.approx(1.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_parabolic_normal_forms(self, dim):
        for f in _parabolic_normal_forms(dim):
            cls = classify(f)
            assert cls.kind == maps.PARABOLIC
            assert np.linalg.norm(cls.dw_point - np.eye(dim)[0]) < 1e-9
            assert cls.delta == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_disk_moebius_both_fixed_points(self):
        # phi(z) = (2z + 1) / (z + 2), phi'(z) = 3 / (z + 2)^2
        f = disk_map(**HALF_MOEBIUS)
        assert boundary_dilation(f, [1.0]) == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)
        assert boundary_dilation(f, [-1.0]) == pytest.approx(3.0, rel=1e-12, abs=0.0)

    def test_not_fixed_rejected(self):
        with pytest.raises(DomainError):
            boundary_dilation(BallMap(np.eye(2) / 2, np.zeros(2), np.zeros(2), 1.0), [1.0, 0.0])
        with pytest.raises(DomainError):
            boundary_dilation(disk_map(**HALF_MOEBIUS), [1j])

    def test_interior_point_rejected(self):
        with pytest.raises(DomainError):
            boundary_dilation(BallMap(np.eye(2) / 2, np.zeros(2), np.zeros(2), 1.0), [0.0, 0.0])


class TestUnitaryIndex:
    def test_contraction_zero(self):
        assert unitary_index(BallMap(np.eye(1) / 2, [0.0], [0.0], 1.0)) == 0

    def test_mixed_one(self):
        f = BallMap(np.diag([np.exp(0.3j), 0.5]), np.zeros(2), np.zeros(2), 1.0)
        assert unitary_index(f) == 1

    def test_unitary_full(self):
        rng = np.random.default_rng(11)
        u = random_unitary(rng, 3)
        assert unitary_index(unitary_ball_map(u)) == 3

    def test_nonelliptic_rejected(self):
        with pytest.raises(DomainError):
            unitary_index(disk_map(**HALF_MOEBIUS))

    def test_conjugated_map(self):
        # the fixed point moves off the origin; the index stays the
        # classification's, 1, whatever the point
        f = BallMap(np.diag([np.exp(0.7j), 0.5]), np.zeros(2), np.zeros(2), 1.0)
        assert unitary_index(conjugate(f, ball_automorphism([0.3, 0.2j]))) == 1


def test_differential_wrong_dimension_rejected():
    f = BallMap(np.diag([1.0, 0.5]), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(DimensionError):
        f.differential(np.zeros(3))


class TestInvariants:
    def test_classification_conjugation_invariant(self):
        rng = np.random.default_rng(13)
        f = disk_map(**HALF_MOEBIUS)
        base = classify(f)
        for _ in range(5):
            a = random_complex(rng, 1)
            a *= rng.uniform(0.0, 0.7) / np.linalg.norm(a)
            s = compose(ball_automorphism(a), unitary_ball_map(random_unitary(rng, 1)))
            cls = classify(conjugate(f, s))
            assert cls.kind == base.kind
            assert cls.delta == pytest.approx(base.delta, abs=1e-6)

    def test_elliptic_iteration_converges_to_fixed_point(self):
        rng = np.random.default_rng(17)
        u = random_unitary(rng, 2)
        f = BallMap(0.6 * u, np.zeros(2), np.zeros(2), 1.0)
        a = 0.4 * random_complex(rng, 2) / np.sqrt(2)
        g = conjugate(f, ball_automorphism(a))
        interior, _ = fixed_points(g)
        z = np.array([0.1, 0.2 - 0.1j])
        for _ in range(300):
            z = g(z)
        assert min(np.linalg.norm(z - p) for p in interior) < 1e-6

    def test_cayley_round_trip_random(self):
        # hyperbolic non-automorphism: w -> 3w + i upstairs
        f = cayley_to_ball(SiegelMap(3.0, np.zeros(0), 1j, np.eye(0), np.zeros(0)))
        cls = classify(f)
        assert cls.kind == maps.HYPERBOLIC
        g = cayley_to_siegel(f)
        back = cayley_to_ball(g)
        zs = sample_ball_points(1, 100)
        assert pointwise_distance(back, f, zs) < 1e-9
