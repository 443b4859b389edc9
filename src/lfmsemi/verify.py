"""Seeded numerical verification: every claim becomes a pass/fail report.

All checks draw their sample points from a :class:`SamplerCfg`, so a
fixed seed gives bit-identical reports regardless of execution order.
The battery :func:`verify_family` draws one (K, N) sample, builds the
family once with one ``at_many`` over the distinct times of all its
checks, evaluates that stack once with ``eval_many`` and hands each
check the evaluated sample, whose rows it reads by time.  A check run on
its own does the same over its own times; item i of a stack has the bits
of ``at(t_i)``, so its report has the bits of the battery's.  The family
keeps the part of its flow that reads G alone from its first build, so a
battery run after the CLI's trajectory repeats only the work of its own
grid.  No point
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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .embedding import _time_grid, generator
from .errors import DimensionError, DomainError
from .linalg import REAL_KINDS, _natural_dtype
from .maps import (
    BALL,
    DEFAULT_SAMPLE_SEED,
    SIEGEL,
    _is_whole,
    domain_margin,
    sample_ball_points,
    sample_siegel_points,
)

#: default tolerances (law / self-map slack / time-one / generator)
TOL_LAW = 1e-8
TOL_SELF_MAP = 1e-9
TOL_TIME_ONE = 1e-8
TOL_GENERATOR = 1e-5
TOL_IDENTITY = 1e-10
DEFAULT_TOLS = {"identity": TOL_IDENTITY, "law": TOL_LAW, "self_map": TOL_SELF_MAP,
                "time_one": TOL_TIME_ONE, "generator": TOL_GENERATOR}

#: the number of sample points of a :class:`SamplerCfg`, and so of the
#: battery of :func:`verify_family`
VERIFY_SAMPLE_COUNT = 60


@dataclass(frozen=True)
class SamplerCfg:
    """Deterministic point stream for a domain: the seeded sample of
    :func:`~lfmsemi.maps.sample_ball_points`, or its Cayley image."""

    seed: int = DEFAULT_SAMPLE_SEED
    count: int = VERIFY_SAMPLE_COUNT
    domain: str = BALL

    def __post_init__(self):
        if not _is_whole(self.count, 1):
            raise DimensionError(f"sampler count must be a positive integer, got {self.count!r}")
        if not _is_whole(self.seed, 0):
            raise DomainError(f"sampler seed must be a non-negative integer, got {self.seed!r}")
        if self.domain not in (BALL, SIEGEL):
            raise DomainError(f"unknown domain {self.domain!r}")

    def points(self, dim: int) -> np.ndarray:
        sampler = sample_ball_points if self.domain == BALL else sample_siegel_points
        return sampler(dim, self.count, self.seed)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    passed: bool
    worst_margin: float
    tolerance: float
    samples_used: int
    worst_point: np.ndarray

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


def _require_domain(cfg: SamplerCfg, *sources) -> None:
    """The sampler must draw from the domain of every (name, domain)
    source: checks evaluate whole sample arrays and do not test the domain
    of each point."""
    for what, domain in sources:
        if cfg.domain != domain:
            raise DomainError(
                f"sampler domain {cfg.domain!r} does not match the {what} domain {domain!r}"
            )


#: the grid of the semigroup law and per-t self-map checks of :func:`verify_family`
BATTERY_GRID = (0.25, 0.5, 1.0, 1.75)


@dataclass(frozen=True)
class _Sampled:
    """A family evaluated on one sample: its maps at distinct times, an
    ``at_many`` stack, and their images (T, K, N) of the (K, N) sample
    *zs*.  A check takes one in place of the family and reads its rows by
    time."""

    family: object
    zs: np.ndarray
    maps: object
    images: np.ndarray
    rows: dict  # time -> index into maps and images

    def images_at(self, times) -> np.ndarray:
        """The (len(times), K, N) images of the sample at *times*."""
        return self.images[[self.rows[t] for t in times]]

    def apply(self, times, points) -> np.ndarray:
        """The map at times[i] applied to its own (K, N) array points[i]."""
        return self.maps[[self.rows[t] for t in times]].eval_many(points)


def _sampled(sg, cfg: SamplerCfg, times, target=None) -> _Sampled:
    """*sg* itself if it is already sampled; else the family at the
    distinct *times* in order of first appearance, from one ``at_many``,
    evaluated on the sample of *cfg*, whose domain must be the family's and
    the target map's (checked before any map is built)."""
    if isinstance(sg, _Sampled):
        return sg
    sources = [("family", sg.domain)]
    if target is not None:
        sources.append(("target", target.domain))
    _require_domain(cfg, *sources)
    ts = list(dict.fromkeys(times))
    maps = sg.at_many(ts)
    zs = cfg.points(maps.dim)
    return _Sampled(sg, zs, maps, maps.eval_many(zs), {t: i for i, t in enumerate(ts)})


def _grid(t_grid) -> list:
    """The times of the grid *t_grid* (:func:`~lfmsemi.embedding._time_grid`),
    read before any map is built; an empty grid, or one that reader refuses,
    raises :class:`DomainError` naming the argument."""
    try:
        ts = _time_grid(t_grid)
    except DomainError as exc:
        raise DomainError(f"t_grid: {exc}") from None
    if not ts.size:
        raise DomainError("t_grid: the grid holds no time")
    return ts.tolist()


def _number(x, what: str, positive: bool) -> float:
    """x as a float, a finite real number >= 0, or > 0 if *positive*; else
    :class:`DomainError` naming *what*."""
    if np.ndim(x) == 0 and _natural_dtype(x).kind in REAL_KINDS:
        value = float(x)
        if math.isfinite(value) and (value > 0.0 if positive else value >= 0.0):
            return value
    raise DomainError(f"{what} must be a finite number {'>' if positive else '>='} 0, "
                      f"got {x!r}")


def _require_sampler(cfg) -> None:
    """*cfg* must be a :class:`SamplerCfg`; else :class:`DomainError`."""
    if not isinstance(cfg, SamplerCfg):
        raise DomainError(f"cfg must be a SamplerCfg, got {cfg!r}")


def _tol(tol, cfg) -> float:
    """The tolerance of a public check, read as :func:`_number` reads it,
    once *cfg* is a :class:`SamplerCfg`."""
    _require_sampler(cfg)
    return _number(tol, "tol", False)


def _deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distance between two (..., K, N) image arrays."""
    return np.linalg.norm(a - b, axis=-1)


def check_self_map(f, cfg: SamplerCfg, tol: float = TOL_SELF_MAP) -> CheckReport:
    """Worst domain margin of the image: 1 - |f(z)| on the ball,
    Im w1 - |w'|^2 on the half-plane."""
    tol = _tol(tol, cfg)
    _require_domain(cfg, ("map", f.domain))
    zs = cfg.points(f.dim)
    return _report("self_map", domain_margin(f.eval_many(zs), cfg.domain), zs, tol)


def _law_times(t_grid) -> tuple:
    """The pairs (s, t) of the grid, and the times the law reads: s+t, t, s
    for each pair."""
    t_grid = _grid(t_grid)
    pairs = [(s, t) for s in t_grid for t in t_grid]
    return pairs, [u for s, t in pairs for u in (s + t, t, s)]


def check_semigroup_law(sg, t_grid, cfg: SamplerCfg, tol: float = TOL_LAW) -> CheckReport:
    """Worst deviation of at(s+t) from at(s) o at(t) over the grid.

    The intermediate images at(t)(z) are not tested for domain membership
    here; :func:`verify_family` runs the self-map check on them."""
    tol = _tol(tol, cfg)
    pairs, times = _law_times(t_grid)
    ev = _sampled(sg, cfg, times)
    composed = ev.apply([s for s, _ in pairs], ev.images_at([t for _, t in pairs]))
    margins = -_deviation(ev.images_at([s + t for s, t in pairs]), composed)
    return _report("semigroup_law", margins, ev.zs, tol)


def check_time_one(sg, target_map, cfg: SamplerCfg, tol: float = TOL_TIME_ONE) -> CheckReport:
    """Worst deviation of at(1) from the target map."""
    tol = _tol(tol, cfg)
    if target_map is None:
        raise DomainError("target_map: a map is required, got None")
    ev = _sampled(sg, cfg, [1.0], target_map)
    margins = -_deviation(ev.images_at([1.0]), target_map.eval_many(ev.zs))
    return _report("time_one", margins, ev.zs, tol)


def check_identity_at_zero(sg, cfg: SamplerCfg, tol: float = TOL_IDENTITY) -> CheckReport:
    tol = _tol(tol, cfg)
    ev = _sampled(sg, cfg, [0.0])
    return _report("identity_at_zero", -_deviation(ev.images_at([0.0]), ev.zs), ev.zs, tol)


#: the centres of the generator's finite-difference stencil
_FD_GRID = (0.0, 0.5, 1.0, 2.0)


def _fd_times(sg, h: Optional[float], t_grid) -> tuple:
    """The step h (see :func:`check_generator`), the stencil centres, and
    the times the stencil reads: t+h, t-h, t for each centre.  The default
    step reads the spectral radius of G off the family's flow, so a G with
    an entry that is not finite is the family's :class:`DomainError`."""
    if h is None:
        h = 1e-4 * (5.0 / max(sg._flow.rho, 5.0)) ** 1.5
    centres = [max(float(t), h) for t in t_grid]  # keep the central stencil inside t >= 0
    return h, centres, [u for t in centres for u in (t + h, t - h, t)]


def check_generator(sg, cfg: SamplerCfg, h: Optional[float] = None,
                    tol: float = TOL_GENERATOR, t_grid=_FD_GRID) -> CheckReport:
    """Central finite-difference residual of the generator field against
    the family's maps.  The step *h* defaults to 1e-4, times (5 / rho)^(3/2)
    where rho = max |eig G| exceeds 5, so that the truncation error
    h^2 rho^3 / 6 stays at its size at rho = 5; a step that is not a finite
    number > 0 raises :class:`DomainError`."""
    tol = _tol(tol, cfg)
    family = sg.family if isinstance(sg, _Sampled) else sg
    h = None if h is None else _number(h, "h", True)
    h, centres, times = _fd_times(family, h, _grid(t_grid))
    ev = _sampled(sg, cfg, times)
    slope = (ev.images_at([t + h for t in centres])
             - ev.images_at([t - h for t in centres])) / (2.0 * h)
    margins = -_deviation(slope, generator(family)(ev.images_at(centres)))
    return _report("generator_fd", margins, ev.zs, tol)


def verify_family(sg, cfg: Optional[SamplerCfg] = None, t_grid=BATTERY_GRID,
                  tols: Optional[dict] = None) -> list:
    """The full battery for a built semigroup family: identity at 0,
    semigroup law, per-t self-map, time-one match, generator residual.

    *cfg* defaults to VERIFY_SAMPLE_COUNT points of the family's domain with
    the default seed; *tols* overrides tolerances of :data:`DEFAULT_TOLS` by
    key, each a finite number >= 0.  The grid and *tols* are read before any
    map is built; a bad one, or an empty grid, raises :class:`DomainError`.
    The family is built once, by one ``at_many`` over every check's
    times, and evaluated once on one sample; each check reads its rows.
    """
    t_grid = _grid(t_grid)
    tol = {**DEFAULT_TOLS, **_tolerances(tols)}
    if cfg is None:
        cfg = SamplerCfg(domain=sg.domain)
    _require_sampler(cfg)
    h, _, stencil = _fd_times(sg, None, _FD_GRID)
    times = [0.0, *_law_times(t_grid)[1], *t_grid, 1.0, *stencil]
    ev = _sampled(sg, cfg, times, sg.target)
    reports = [
        check_identity_at_zero(ev, cfg, tol["identity"]),
        check_semigroup_law(ev, t_grid, cfg, tol["law"]),
        _family_self_map(ev, t_grid, cfg, tol["self_map"]),
    ]
    if sg.target is not None:
        reports.append(check_time_one(ev, sg.target, cfg, tol["time_one"]))
    reports.append(check_generator(ev, cfg, h, tol["generator"]))
    return reports


def _tolerances(tols) -> dict:
    """The overrides *tols* of :data:`DEFAULT_TOLS` (None for none): each key
    one of its keys, each value a finite number >= 0."""
    if tols is None:
        return {}
    if not isinstance(tols, dict):
        raise DomainError(f"tols must be a dict, got {tols!r}")
    unknown = [key for key in tols if key not in DEFAULT_TOLS]
    if unknown:
        raise DomainError(f"tols: unknown key {unknown[0]!r}, expected one of "
                          f"{sorted(DEFAULT_TOLS)}")
    return {key: _number(value, f"tols[{key!r}]", False) for key, value in tols.items()}


def _family_self_map(sg, t_grid: list, cfg: SamplerCfg, tol: float) -> CheckReport:
    """Worst domain margin of at(t)(z) over the grid of
    :func:`verify_family`: these are also the intermediate points of the
    semigroup law on the same grid."""
    ev = _sampled(sg, cfg, t_grid)
    return _report("self_map", domain_margin(ev.images_at(t_grid), cfg.domain), ev.zs, tol)
