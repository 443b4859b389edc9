"""Seeded numerical verification: every claim becomes a pass/fail report.

All checks draw their sample points from a :class:`SamplerCfg`, so a
fixed seed gives bit-identical reports regardless of execution order.
Each check evaluates its whole (K, N) sample with ``eval_many`` and
builds its maps with one ``at_many`` over its distinct times.  No point
is tested for domain membership, so the sampler's domain must match the
family's or the map's (a mismatch raises :class:`DomainError`), and the
``self_map`` check of :func:`verify_family` covers the intermediate
points at(t)(z) of the semigroup law: a family that leaves its domain
fails that check.
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
    DEFAULT_RADII,
    SIEGEL,
    domain_margin,
    sample_ball_points,
    sample_siegel_points,
    to_proj,
)

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


def _report(check_id, margins, zs, tol) -> CheckReport:
    """Report on margins given as one row per map (or time) over the sample
    *zs*, in evaluation order; the worst point is the sample point of the
    worst margin."""
    margins = np.ravel(np.asarray(margins, dtype=float))
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    return CheckReport(check_id, worst >= -tol, worst, tol, margins.size, zs[idx % len(zs)])


def _points(cfg: SamplerCfg, dim: int, *sources) -> np.ndarray:
    """The (K, N) sample of *cfg*, which must be drawn from the domain of
    every (name, domain) source: checks evaluate whole sample arrays and do
    not test the domain of each point."""
    for what, domain in sources:
        if cfg.domain != domain:
            raise DomainError(
                f"sampler domain {cfg.domain!r} does not match the {what} domain {domain!r}"
            )
    return cfg.points(dim)


def _at_times(sg, times) -> dict:
    """The map at each distinct time, from one ``at_many`` over the times
    in order of first appearance; a family with only ``at(t)`` is built
    one time at a time."""
    ts = list(dict.fromkeys(times))
    at_many = getattr(sg, "at_many", None)
    return dict(zip(ts, at_many(ts) if at_many else map(sg.at, ts)))


def _deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distance between two (K, N) image arrays."""
    return np.linalg.norm(a - b, axis=1)


def check_self_map(f, cfg: SamplerCfg, tol: float = TOL_SELF_MAP) -> CheckReport:
    """Worst domain margin of the image: 1 - |f(z)| on the ball,
    Im w1 - |w'|^2 on the half-plane."""
    zs = _points(cfg, f.dim, ("map", to_proj(f).domain))
    return _report("self_map", domain_margin(f.eval_many(zs), cfg.domain), zs, tol)


def check_semigroup_law(sg, t_grid, cfg: SamplerCfg, tol: float = TOL_LAW) -> CheckReport:
    """Worst deviation of at(s+t) from at(s) o at(t) over the grid.

    The intermediate images at(t)(z) are not tested for domain membership
    here; :func:`verify_family` runs the self-map check on them."""
    t_grid = [float(t) for t in t_grid]
    pairs = [(s, t) for s in t_grid for t in t_grid]
    at = _at_times(sg, [u for s, t in pairs for u in (s + t, t, s)])
    zs = _points(cfg, at[t_grid[0]].dim, ("family", sg.domain))
    img = {u: m.eval_many(zs) for u, m in at.items()}
    margins = [-_deviation(img[s + t], at[s].eval_many(img[t])) for s, t in pairs]
    return _report("semigroup_law", margins, zs, tol)


def check_time_one(sg, target_map, cfg: SamplerCfg, tol: float = TOL_TIME_ONE) -> CheckReport:
    """Worst deviation of at(1) from the target map."""
    zs = _points(cfg, target_map.dim, ("family", sg.domain),
                 ("target", to_proj(target_map).domain))
    margins = -_deviation(sg.at(1.0).eval_many(zs), target_map.eval_many(zs))
    return _report("time_one", margins, zs, tol)


def check_identity_at_zero(sg, cfg: SamplerCfg, tol: float = TOL_IDENTITY) -> CheckReport:
    at_0 = sg.at(0.0)
    zs = _points(cfg, at_0.dim, ("family", sg.domain))
    return _report("identity_at_zero", -_deviation(at_0.eval_many(zs), zs), zs, tol)


def check_generator(sg, cfg: SamplerCfg, h: Optional[float] = None,
                    tol: float = TOL_GENERATOR, t_grid=(0.0, 0.5, 1.0, 2.0)) -> CheckReport:
    """Central finite-difference residual of the generator field against
    the family's maps.  The step *h* defaults to 1e-4, times (5 / rho)^(3/2)
    where rho = max |eig G| exceeds 5, so that the truncation error
    h^2 rho^3 / 6 stays at its size at rho = 5."""
    from .embedding import generator

    if h is None:
        rho = float(np.max(np.abs(np.linalg.eigvals(sg.parameters["G"]))))
        h = 1e-4 * (5.0 / max(rho, 5.0)) ** 1.5
    gen = generator(sg)
    times = [max(float(t), h) for t in t_grid]  # keep the central stencil inside t >= 0
    at = _at_times(sg, [u for t in times for u in (t + h, t - h, t)])
    zs = _points(cfg, at[times[0]].dim, ("family", sg.domain))
    margins = [
        -_deviation((at[t + h].eval_many(zs) - at[t - h].eval_many(zs)) / (2.0 * h),
                    gen(at[t].eval_many(zs)))
        for t in times
    ]
    return _report("generator_fd", margins, zs, tol)


def check_conjugacy(f, g, s, cfg: SamplerCfg, tol: float = TOL_LAW) -> CheckReport:
    """Worst deviation of s o f from g o s (s transports f onto g)."""
    sp = to_proj(s)
    zs = _points(cfg, sp.dim, ("conjugation source", sp.domain), ("map", to_proj(f).domain))
    margins = -_deviation(sp.eval_many(f.eval_many(zs)), g.eval_many(sp.eval_many(zs)))
    return _report("conjugacy", margins, zs, tol)


def verify_family(sg, cfg: Optional[SamplerCfg] = None, t_grid=(0.25, 0.5, 1.0, 1.75),
                  tols: Optional[dict] = None) -> list:
    """The full battery for a built semigroup family: identity at 0,
    semigroup law, per-t self-map, time-one match, generator residual.

    *cfg* defaults to 60 points of the family's domain with the default
    seed; *tols* overrides tolerances of :data:`DEFAULT_TOLS` by key.
    """
    if cfg is None:
        cfg = SamplerCfg(count=60, domain=sg.domain)
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
    """Worst domain margin of at(t)(z) over the grid: these are also the
    intermediate points of the semigroup law on the same grid."""
    t_grid = [float(t) for t in t_grid]
    at = _at_times(sg, t_grid)
    zs = _points(cfg, at[t_grid[0]].dim, ("family", sg.domain))
    margins = [domain_margin(at[t].eval_many(zs), cfg.domain) for t in t_grid]
    return _report("self_map", margins, zs, tol)
