"""One evaluation path per map, and the checks that run on sample arrays.

Every map type computes images only in ``eval_many``; ``__call__`` adds
the point checks and delegates. The verification checks evaluate whole
sample arrays, so they reject a sampler drawn from another domain than
the family's, and a family that leaves its domain fails ``self_map``
instead of raising from inside the semigroup law.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lfmsemi import cli
from lfmsemi.cli import parse_map_spec, run_pipeline
from lfmsemi.embedding import build_semigroup, embed_map, generator
from lfmsemi.errors import DomainError, PoleError
from lfmsemi.maps import (
    BALL,
    SIEGEL,
    BallMap,
    ProjMap,
    SiegelMap,
    ball_automorphism,
    cayley_to_ball,
    cayley_transform,
    compose,
    heisenberg_map,
    sample_ball_points,
    sample_siegel_points,
)
from lfmsemi.verify import (
    SamplerCfg,
    check_generator,
    check_identity_at_zero,
    check_self_map,
    check_semigroup_law,
    check_time_one,
    verify_family,
)

GOLDEN = Path(__file__).parent / "golden"


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_ball_map(rng, n):
    """automorphism o (contraction times unitary) o automorphism."""
    def centre():
        a = random_complex(rng, n)
        return ball_automorphism(0.7 * rng.random() * a / np.linalg.norm(a))

    u = np.linalg.qr(random_complex(rng, n, n))[0]
    inner = BallMap((0.3 + 0.6 * rng.random()) * u, np.zeros(n), np.zeros(n), 1.0)
    return compose(centre(), compose(inner, centre()))


def random_siegel_map(rng, n):
    k = n - 1
    return SiegelMap(0.5 + rng.random() + 0.3j * rng.standard_normal(), random_complex(rng, k),
                     complex(*rng.standard_normal(2)), random_complex(rng, k, k),
                     random_complex(rng, k))


def random_proj_map(rng, n):
    return ProjMap(random_complex(rng, n + 1, n + 1))


@pytest.mark.parametrize("make, sampler", [
    (random_ball_map, sample_ball_points),
    (random_siegel_map, sample_siegel_points),
    (random_proj_map, sample_ball_points),
])
def test_call_is_eval_many_of_one_row(make, sampler):
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5):
        zs = sampler(n, 40, seed=n)
        for _ in range(10):
            f = make(rng, n)
            for z in zs:
                assert np.array_equal(f(z), f.eval_many(z[None])[0])


def test_proj_eval_many_pole_on_one_row():
    sigma = cayley_transform(1)
    zs = np.array([[0.1], [-0.5j], [1.0], [0.3 + 0.2j]], dtype=complex)
    assert np.all(np.isfinite(sigma.eval_many(zs[[0, 1, 3]])))
    with pytest.raises(PoleError):
        sigma.eval_many(zs)


def golden_family(name):
    f = parse_map_spec(json.loads((GOLDEN / f"{name}.json").read_text()))
    return build_semigroup(embed_map(f))


@pytest.mark.parametrize("name, case_kind", [
    ("elliptic_split_ball_n4", "elliptic_split"),
    ("elliptic_u0_ball_n4", "elliptic_u0"),
    ("parabolic_ball_n4", "parabolic"),
    ("hyperbolic_ball_n4", "hyperbolic"),
])
def test_generator_rows_match_points(name, case_kind):
    sg = golden_family(name)
    assert sg.case_kind == case_kind
    gen = generator(sg)
    cfg = SamplerCfg(count=25, domain=sg.domain)
    zs = sg.at(0.5).eval_many(cfg.points(4))
    rows = gen(zs)
    assert rows.shape == zs.shape
    # a BLAS product of K rows may sum in another order than one of one row
    np.testing.assert_allclose(rows, np.stack([gen(z) for z in zs]), rtol=0,
                               atol=1e-14 * np.max(np.abs(rows)))


@pytest.mark.parametrize("family_domain, sampler_domain", [(SIEGEL, BALL), (BALL, SIEGEL)])
def test_sampler_domain_must_match_family(family_domain, sampler_domain):
    name = "parabolic_ball_n2" if family_domain == SIEGEL else "elliptic_u0_ball_n2"
    sg = golden_family(name)
    assert sg.domain == family_domain
    cfg = SamplerCfg(count=10, domain=sampler_domain)
    checks = [
        lambda: verify_family(sg, cfg),
        lambda: check_identity_at_zero(sg, cfg),
        lambda: check_semigroup_law(sg, (0.5, 1.0), cfg),
        lambda: check_time_one(sg, sg.target, cfg),
        lambda: check_generator(sg, cfg),
        lambda: check_self_map(sg.at(1.0), cfg),
    ]
    for check in checks:
        with pytest.raises(DomainError) as err:
            check()
        assert repr(sampler_domain) in str(err.value)
        assert repr(family_domain) in str(err.value)


HEISENBERG_SPEC = {
    "dimension": 2, "domain": "siegel", "lambda": [1.0, 0.0], "a": [[0.3, 0.0]],
    "b": [0.4, 0.09], "M": [[[1.0, 0.0]]], "c": [[0.3, 0.0]],
}


def leaving(sg):
    """The family whose generator G moves z by a translation rate with
    imaginary part -0.5 (Im G[0, -1]): at(t) leaves H^N for t > 0."""
    g = sg.G.copy()
    g[0, -1] = complex(g[0, -1].real, -0.5)
    return dataclasses.replace(sg, G=g)


def test_family_leaving_domain_fails_self_map():
    sg = build_semigroup(embed_map(cayley_to_ball(heisenberg_map([0.3], 0.4 + 0.09j))))
    assert sg.case_kind == "parabolic" and all(r.passed for r in verify_family(sg))
    reports = {r.check_id: r for r in verify_family(leaving(sg))}
    assert not reports["self_map"].passed
    assert reports["self_map"].worst_margin < -0.5
    assert reports["semigroup_law"].passed
    assert reports["generator_fd"].passed  # at_many and generator both read G


def test_family_leaving_domain_exits_inconclusive(monkeypatch):
    monkeypatch.setattr(cli, "build_semigroup", lambda cert: leaving(build_semigroup(cert)))
    report = run_pipeline(HEISENBERG_SPEC)
    verify = report["stages"]["verify"]
    assert verify["status"] == "ok" and not verify["all_passed"]
    checks = {c["check_id"]: c for c in verify["checks"]}
    assert not checks["self_map"]["passed"] and checks["semigroup_law"]["passed"]
    assert report["exit_status"] == cli.EXIT_INCONCLUSIVE
