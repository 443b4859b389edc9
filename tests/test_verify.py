"""Tests for the seeded verification harness."""

import numpy as np
import pytest

from lfmsemi import embedding as emb, verify
from lfmsemi.cli import TOL_PROFILES
from lfmsemi.embedding import build_semigroup, embed_hyperbolic, embed_parabolic
from lfmsemi.maps import BALL, SIEGEL, BallMap, SiegelMap, identity_ball_map

from lfmsemi.verify import (
    DEFAULT_TOLS,
    CheckReport,
    SamplerCfg,
    check_generator,
    check_identity_at_zero,
    check_self_map,
    check_semigroup_law,
    check_time_one,
    verify_family,
    _family_self_map,
)

from test_embedding import hyperbolic_nf, parabolic_nf, split_nf
from test_flow_generator import _benchmark_families, _golden_families


def scaling_family(factor=0.5):
    nf = split_nf([], [[factor]])
    return build_semigroup(emb.embed_elliptic_split(nf))


class TestSelfMap:
    def test_identity_margin(self):
        cfg = SamplerCfg(count=100, domain=BALL)
        rep = check_self_map(identity_ball_map(2), cfg)
        assert rep.passed
        assert rep.worst_margin == pytest.approx(1 - 0.95, abs=1e-12)

    def test_contraction(self):
        f = BallMap(np.eye(2) / 2, np.zeros(2), np.zeros(2), 1.0)
        rep = check_self_map(f, SamplerCfg(count=64, domain=BALL))
        assert rep.passed and rep.worst_margin > 0.5

    def test_scaled_up_fails_with_witness(self):
        # bypass the constructor check to plant a violation
        f = identity_ball_map(1)
        object.__setattr__(f, "A", np.array([[1.1]], dtype=complex))
        rep = check_self_map(f, SamplerCfg(count=64, domain=BALL))
        assert not rep.passed
        assert rep.worst_margin == pytest.approx(1.0 - 1.1 * 0.95, abs=1e-12)
        assert rep.worst_point is not None
        assert abs(rep.worst_point[0]) == pytest.approx(0.95, abs=1e-12)  # the outer shell


class TestSemigroupLaw:
    def test_elliptic_tight(self):
        sg = scaling_family()
        rep = check_semigroup_law(sg, [0.3, 0.7, 1.2], SamplerCfg(count=40), tol=1e-12)
        assert rep.passed

    def test_parabolic_family(self):
        sg = build_semigroup(embed_parabolic(
            parabolic_nf([0.2], [np.exp(0.9j)], [0.5], [0.4], 2.0j)))
        cfg = SamplerCfg(count=40, domain=SIEGEL)
        rep = check_semigroup_law(sg, [0.25, 0.5, 1.0], cfg)
        assert rep.passed

    def test_corrupted_path_fails(self):
        nf = parabolic_nf([], [], [0.5], [0.4], 2.0j)
        sg = build_semigroup(embed_parabolic(nf))

        class BadFamily:
            domain = SIEGEL

            def at_many(self, ts):
                good = sg.at_many(ts)
                # replace the coefficient path by the (wrong) linear one
                return SiegelMap(good.lam, np.outer(ts, nf.parameters["c"]),
                                 good.b, good.M, good.c)

        rep = check_semigroup_law(BadFamily(), [0.3, 0.6], SamplerCfg(count=30, domain=SIEGEL))
        assert not rep.passed


class TestTimeOne:
    def test_identity_family(self):
        sg = scaling_family(1.0 - 1e-14)
        rep = check_time_one(sg, sg.at(1.0), SamplerCfg(count=30))
        assert rep.passed

    def test_built_family_hits_target(self):
        cert = embed_parabolic(parabolic_nf([0.1], [], [0.5], [0.3], 1.5j))
        sg = build_semigroup(cert)
        rep = check_time_one(sg, cert.target, SamplerCfg(count=50, domain=SIEGEL))
        assert rep.passed and rep.worst_margin > -1e-9

    def test_wrong_branch_fails(self):
        # a half-turn shift is not a logarithm of the same map
        nf = split_nf([], [[0.5]])
        cert = emb.embed_elliptic_split(nf)
        sg = build_semigroup(cert)
        bad_g = sg.G + np.diag([1j * np.pi, 0.0])
        bad = emb.SemigroupFamily("elliptic_split", bad_g, BALL, sg.target)
        rep = check_time_one(bad, nf.normal_map, SamplerCfg(count=30))
        assert not rep.passed


class TestGenerator:
    def test_linear_family_residual_tiny(self):
        sg = scaling_family()
        rep = check_generator(sg, SamplerCfg(count=20))
        assert rep.passed and rep.worst_margin > -1e-7

    def test_u0_family(self):
        from lfmsemi.normal_forms import elliptic_u0

        f = BallMap([[0.5]], [0.0], [0.3 * (0.5 - 1.0)], 1.0)
        cert = emb.embed_elliptic_u0(elliptic_u0(f))
        sg = build_semigroup(cert)
        rep = check_generator(sg, SamplerCfg(count=30))
        assert rep.passed

    def test_h_refinement_quadratic(self):
        sg = build_semigroup(embed_hyperbolic(
            hyperbolic_nf(3.0, [], [0.3], [0.2], [], 0.5j)))
        cfg = SamplerCfg(count=20, domain=SIEGEL)
        r1 = check_generator(sg, cfg, h=2e-3)
        r2 = check_generator(sg, cfg, h=1e-3)
        assert r1.worst_margin / r2.worst_margin == pytest.approx(4.0, rel=0.25)


class TestFamilyBattery:
    def test_full_battery(self):
        cert = embed_hyperbolic(hyperbolic_nf(4.0, [np.exp(0.5j)], [0.4], [0.5], [], 1.0j))
        sg = build_semigroup(cert)
        reports = verify_family(sg)
        assert all(r.passed for r in reports), [str(r) for r in reports]
        names = [r.check_id for r in reports]
        assert names == ["identity_at_zero", "semigroup_law", "self_map",
                         "time_one", "generator_fd"]

    def test_determinism(self):
        cert = embed_parabolic(parabolic_nf([0.2], [np.exp(0.9j)], [0.5], [0.4], 2.0j))
        sg = build_semigroup(cert)
        cfg = SamplerCfg(seed=7, count=60, domain=sg.domain)
        r1 = verify_family(sg, cfg)
        r2 = verify_family(sg, cfg)
        for a, b in zip(r1, r2):
            assert a.worst_margin == b.worst_margin
            assert a.passed == b.passed

    def test_identity_at_zero(self):
        sg = scaling_family()
        rep = check_identity_at_zero(sg, SamplerCfg(count=20))
        assert rep.passed and rep.worst_margin > -1e-12


def standalone_battery(sg, cfg, tols):
    """The checks of verify_family run one by one, each on its own times."""
    tol = {**DEFAULT_TOLS, **tols}
    grid = (0.25, 0.5, 1.0, 1.75)
    reports = [check_identity_at_zero(sg, cfg, tol["identity"]),
               check_semigroup_law(sg, grid, cfg, tol["law"]),
               _family_self_map(sg, grid, cfg, tol["self_map"])]
    if sg.target is not None:
        reports.append(check_time_one(sg, sg.target, cfg, tol["time_one"]))
    reports.append(check_generator(sg, cfg, tol=tol["generator"]))
    return reports


def same_report(a, b):
    return (a.check_id == b.check_id and a.passed == b.passed
            and a.samples_used == b.samples_used
            and np.float64(a.worst_margin).tobytes() == np.float64(b.worst_margin).tobytes()
            and a.worst_point.tobytes() == b.worst_point.tobytes())


def recorded(calls, name, fn):
    """fn, appending name to calls at every call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


class TestOneBuild:
    def test_one_at_many_and_one_sample(self, monkeypatch):
        sg = build_semigroup(embed_hyperbolic(
            hyperbolic_nf(4.0, [np.exp(0.5j)], [0.4], [0.5], [], 1.0j)))
        calls = []
        monkeypatch.setattr(emb.SemigroupFamily, "at_many",
                            recorded(calls, "at_many", emb.SemigroupFamily.at_many))
        monkeypatch.setattr(SamplerCfg, "points", recorded(calls, "points", SamplerCfg.points))
        assert len(verify_family(sg)) == 5
        assert sorted(calls) == ["at_many", "points"]

    def test_battery_is_the_standalone_checks_on_the_corpus(self):
        families = _golden_families() + _benchmark_families(seeds=(1, 2))
        assert len(families) > 64
        for label, sg, _ in families:
            cfg = SamplerCfg(count=60, domain=sg.domain)
            for profile, tols in TOL_PROFILES.items():
                got = verify_family(sg, cfg, tols=tols)
                want = standalone_battery(sg, cfg, tols)
                assert [r.check_id for r in got] == [r.check_id for r in want]
                assert all(map(same_report, got, want)), (label, profile)

    def test_checks_run_inside_the_battery(self, monkeypatch):
        # a tracer finds every check under its module-level name
        names = ["check_identity_at_zero", "check_semigroup_law", "_family_self_map",
                 "check_time_one", "check_generator"]
        seen = []
        for name in names:
            monkeypatch.setattr(verify, name, recorded(seen, name, getattr(verify, name)))
        verify_family(scaling_family())
        assert seen == names
