"""Seeded numerical verification: every claim becomes a pass/fail report.

All checks draw their sample points from a :class:`SamplerCfg`, so a
fixed seed gives bit-identical reports regardless of execution order.
Margins follow one convention: a check passes iff
``worst_margin >= -tolerance``.  Domain-membership checks report the
actual geometric margin (positive inside); equality-style checks report
the negated worst deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, DomainError
from .maps import (
    BALL,
    SIEGEL,
    domain_margin,
    identity_ball_map,
    identity_siegel_map,
    sample_ball_points,
    sample_siegel_points,
)

DEFAULT_RADII = (0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 0.95)

#: default tolerances (law / self-map slack / time-one / generator)
TOL_LAW = 1e-8
TOL_SELF_MAP = 1e-9
TOL_TIME_ONE = 1e-8
TOL_GENERATOR = 1e-5
TOL_IDENTITY = 1e-10
DEFAULT_TOLS = {"identity": TOL_IDENTITY, "law": TOL_LAW, "self_map": TOL_SELF_MAP,
                "time_one": TOL_TIME_ONE, "generator": TOL_GENERATOR}


@dataclass(frozen=True)
class SamplerCfg:
    """Deterministic point stream for a domain."""

    seed: int = 20250808
    count: int = 200
    domain: str = BALL
    radius_schedule: tuple = DEFAULT_RADII

    def __post_init__(self):
        if self.count < 1:
            raise DimensionError("sampler count must be >= 1")
        if self.domain not in (BALL, SIEGEL):
            raise DomainError(f"unknown domain {self.domain!r}")

    def points(self, dim: int) -> np.ndarray:
        sampler = sample_ball_points if self.domain == BALL else sample_siegel_points
        return sampler(dim, self.count, self.seed, np.asarray(self.radius_schedule))


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    passed: bool
    worst_margin: float
    tolerance: float
    samples_used: int
    worst_point: Optional[np.ndarray] = field(default=None)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.check_id}: worst margin {self.worst_margin:.3e} " \
               f"(tol {self.tolerance:.1e}, {self.samples_used} samples)"


def _report(check_id, margins, points, tol) -> CheckReport:
    margins = np.asarray(margins, dtype=float)
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    return CheckReport(check_id, worst >= -tol, worst, tol, len(margins),
                       None if points is None else np.asarray(points)[idx])


def check_self_map(f, cfg: SamplerCfg, tol: float = TOL_SELF_MAP) -> CheckReport:
    """Worst domain margin of the image: 1 - |f(z)| on the ball,
    Im w1 - |w'|^2 on the half-plane."""
    dim = f.dim
    zs = cfg.points(dim)
    margins = [domain_margin(f(z), cfg.domain) for z in zs]
    return _report("self_map", margins, zs, tol)


def check_semigroup_law(sg, t_grid, cfg: SamplerCfg, tol: float = TOL_LAW) -> CheckReport:
    """Worst deviation of at(s+t) from at(s) o at(t) over the grid."""
    t_grid = [float(t) for t in t_grid]
    dim = sg.at(0.0).dim
    zs = cfg.points(dim)
    margins, points = [], []
    for s in t_grid:
        for t in t_grid:
            big = sg.at(s + t)
            first = sg.at(t)
            second = sg.at(s)
            for z in zs:
                dev = float(np.linalg.norm(big(z) - second(first(z))))
                margins.append(-dev)
                points.append(z)
    return _report("semigroup_law", margins, points, tol)


def check_time_one(sg, target_map, cfg: SamplerCfg, tol: float = TOL_TIME_ONE,
                   time: float = 1.0) -> CheckReport:
    """Worst deviation of at(time) from the target map."""
    dim = target_map.dim
    zs = cfg.points(dim)
    at_t = sg.at(time)
    margins = [-float(np.linalg.norm(at_t(z) - target_map(z))) for z in zs]
    return _report("time_one" if time == 1.0 else f"time_{time:g}", margins, zs, tol)


def check_identity_at_zero(sg, cfg: SamplerCfg, tol: float = TOL_IDENTITY) -> CheckReport:
    dim = sg.at(0.0).dim
    ident = identity_ball_map(dim) if cfg.domain == BALL else identity_siegel_map(dim)
    report = check_time_one(sg, ident, cfg, tol, time=0.0)
    return CheckReport("identity_at_zero", report.passed, report.worst_margin,
                       tol, report.samples_used, report.worst_point)


def check_generator(sg, cfg: SamplerCfg, h: float = 1e-4, tol: float = TOL_GENERATOR,
                    t_grid=(0.0, 0.5, 1.0, 2.0)) -> CheckReport:
    """Central finite-difference residual of the closed-form generator."""
    from .embedding import generator

    gen = generator(sg)
    dim = sg.at(0.0).dim
    zs = cfg.points(dim)
    margins, points = [], []
    for t in t_grid:
        t = max(float(t), h)  # keep the central stencil inside t >= 0
        plus = sg.at(t + h)
        minus = sg.at(t - h)
        at_t = sg.at(t)
        for z in zs:
            fd = (plus(z) - minus(z)) / (2.0 * h)
            margins.append(-float(np.linalg.norm(fd - gen(at_t(z)))))
            points.append(z)
    return _report("generator_fd", margins, points, tol)


def check_conjugacy(f, g, s, cfg: SamplerCfg, tol: float = TOL_LAW) -> CheckReport:
    """Worst deviation of s o f from g o s (s transports f onto g)."""
    from .maps import to_proj

    sp = to_proj(s)
    if cfg.domain != sp.domain:
        raise DomainError(
            f"sampler domain {cfg.domain!r} does not match the conjugation "
            f"source domain {sp.domain!r}"
        )
    zs = cfg.points(sp.dim)
    margins = []
    for z in zs:
        margins.append(-float(np.linalg.norm(sp(f(z)) - np.asarray(g(sp(z))))))
    return _report("conjugacy", margins, zs, tol)


def verify_family(sg, cfg: Optional[SamplerCfg] = None, t_grid=(0.25, 0.5, 1.0, 1.75),
                  seed: int = 20250808, count: int = 60, tols: Optional[dict] = None) -> list:
    """The full battery for a built semigroup family: identity at 0,
    semigroup law, per-t self-map, time-one match, generator residual.

    *tols* overrides tolerances of :data:`DEFAULT_TOLS` by key.
    """
    if cfg is None:
        cfg = SamplerCfg(seed=seed, count=count, domain=sg.domain)
    tol = {**DEFAULT_TOLS, **(tols or {})}
    reports = [
        check_identity_at_zero(sg, cfg, tol["identity"]),
        check_semigroup_law(sg, t_grid, cfg, tol["law"]),
        _family_self_map(sg, t_grid, cfg, tol["self_map"]),
    ]
    if sg.target is not None:
        reports.append(check_time_one(sg, sg.target, cfg, tol["time_one"]))
    reports.append(check_generator(sg, cfg, tol=tol["generator"]))
    return reports


def _family_self_map(sg, t_grid, cfg: SamplerCfg, tol: float = TOL_SELF_MAP) -> CheckReport:
    zs = cfg.points(sg.at(0.0).dim)
    margins, points = [], []
    for t in t_grid:
        at_t = sg.at(t)
        for z in zs:
            margins.append(domain_margin(at_t(z), cfg.domain))
            points.append(z)
    return _report("self_map", margins, points, tol)
