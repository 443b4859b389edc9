"""Microbenchmarks of the kernels the pipeline stages use, at N = 1, 2, 4, 8.

Inputs come from the spec generator, so they are seeded like the
workloads: an off-centre elliptic u0 map of dimension N (for
``fixed_points``, ``BallMap`` construction, ``eval_many`` on 1000 points
and ``verify_family`` of its semigroup), and a normal N x N contraction
with min(N, 3) distinct eigenvalues (for ``log_candidates``).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import specs

SIZES = (1, 2, 4, 8)


def _median_time(fn, budget: float = 0.25, min_reps: int = 3, max_reps: int = 200) -> float:
    """Median seconds per call over repetitions filling ``budget``."""
    times = []
    spent = 0.0
    while len(times) < min_reps or (spent < budget and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return statistics.median(times)


def run_kernels(seed: int) -> dict:
    from lfmsemi.cli import parse_map_spec
    from lfmsemi.embedding import build_semigroup, embed_map, log_candidates
    from lfmsemi.maps import BallMap, fixed_points, sample_ball_points
    from lfmsemi.verify import SamplerCfg, verify_family

    out = {}
    for n in SIZES:
        rng = np.random.default_rng([seed, 7919, n])
        spec = json.loads(specs.dumps_spec(specs.elliptic_u0_spec(rng, n, 3)))
        f = parse_map_spec(spec)
        a = specs.normal_matrix(rng, specs.contraction_eigs(rng, n, 3))
        points = sample_ball_points(n, 1000)
        sg = build_semigroup(embed_map(f))
        cfg = SamplerCfg(count=60, domain=sg.domain)
        out[f"maps.fixed_points.n{n}_us"] = 1e6 * _median_time(lambda: fixed_points(f))
        out[f"embedding.log_candidates.n{n}_us"] = 1e6 * _median_time(lambda: log_candidates(a))
        out[f"maps.ballmap_init.n{n}_us"] = 1e6 * _median_time(
            lambda: BallMap(f.A, f.B, f.C, f.D))
        out[f"maps.eval_many.n{n}_us"] = 1e6 * _median_time(lambda: f.eval_many(points))
        out[f"verify.verify_family.n{n}_ms"] = 1e3 * _median_time(
            lambda: verify_family(sg, cfg), budget=0.5)
    return out
