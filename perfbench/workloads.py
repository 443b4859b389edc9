"""The four workloads: one per CLI subcommand prefix, each a closed loop
with one client that calls ``lfmsemi.cli.run_pipeline`` on generated
spec documents and checks every report against its oracle.

Map ``i`` of a workload is generated from ``(seed, i)`` alone and follows a
fixed cycle of (case, dimension) recipes, so a run that covers whole
cycles always measures the same mix of cases and sizes; only the random
parameters change with the seed.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import specs

#: relative tolerance of the semigroup-law check on a trajectory
TRAJECTORY_TOL = 1e-8

#: the dense trajectory time grid of ``trajectory_dense``: 401 times
#: t = i / 200 in [0, 2], so t = 1 and every t + 1 for t in [0, 1] lie
#: on the grid exactly
DENSE_T_STEPS = 200
DENSE_T_GRID = tuple(i / DENSE_T_STEPS for i in range(2 * DENSE_T_STEPS + 1))


@dataclass(frozen=True)
class Recipe:
    label: str
    make: Callable  # rng -> (spec dict, Oracle)


@dataclass(frozen=True)
class Workload:
    name: str
    prefix: str
    dims: str
    cycle: tuple
    t_grid: Optional[tuple] = None
    #: recipes run once per run, outside the timed loop (see ``run_probe``)
    probe: tuple = ()

    def case(self, seed: int, index: int) -> specs.MapCase:
        """Map ``index`` of the stream for ``seed``; independent of order."""
        recipe = self.cycle[index % len(self.cycle)]
        return _make(recipe, np.random.default_rng([seed, index]))

    def probe_case(self, seed: int, index: int) -> specs.MapCase:
        """Probe map ``index`` for ``seed``, from a stream of its own."""
        return _make(self.probe[index], np.random.default_rng([seed, 2 ** 30, index]))


def _make(recipe: Recipe, rng: np.random.Generator) -> specs.MapCase:
    spec, oracle = recipe.make(rng)
    return specs.MapCase(recipe.label, specs.dumps_spec(spec), oracle)


def _embeddable(case: str, n: int, prefix: str, distinct: int, **kw) -> Recipe:
    builders = {
        specs.ELLIPTIC_SPLIT: lambda rng: specs.elliptic_split_spec(
            rng, n, kw.get("unitary", 1), distinct),
        specs.ELLIPTIC_U0: lambda rng: specs.elliptic_u0_spec(rng, n, distinct),
        specs.PARABOLIC: lambda rng: specs.parabolic_spec(rng, n, distinct, kw.get("pattern", 0)),
        specs.HYPERBOLIC: lambda rng: specs.hyperbolic_spec(rng, n, distinct, kw.get("pattern", 0)),
    }
    build = builders[case]
    oracle = specs.oracle_for(case, prefix)
    return Recipe(f"{case} n={n}", lambda rng: (build(rng), oracle))


def _branch(n: int, coupled: bool) -> Recipe:
    # a contraction block of 4 distinct eigenvalues at every dimension (the
    # unitary part takes the rest): 7^4 = 2401 branch combinations, all
    # built and verified by exponentiation, and a search that is complete
    # within the branch bound, so condition_fails stays the truthful verdict
    oracle = specs.oracle_for(specs.ELLIPTIC_SPLIT, "embed", embeddable=not coupled)
    label = f"elliptic_split n={n} {'condition_fails' if coupled else 'embeddable'}"
    contraction = 2 if coupled else 4
    return Recipe(label, lambda rng: (
        specs.elliptic_split_spec(rng, n, n - 4, contraction, coupled=coupled), oracle))


def _near_parabolic(n: int, k: int) -> Recipe:
    dilation = 1.0 + 10.0 ** -k
    oracle = specs.near_parabolic_oracle(dilation)
    return Recipe(f"near_parabolic n={n} k={k}", lambda rng: (
        specs.hyperbolic_spec(rng, n, 3, dilation=dilation, contraction_only=True), oracle))


def _report_mixed() -> tuple:
    out = []
    for n in (1, 2, 4, 8):
        for case in specs.CASES:
            out.append(_embeddable(case, n, "report", 3, unitary=1 + (n >= 4), pattern=n // 4))
    return tuple(out)


def _triage() -> tuple:
    return tuple(_embeddable(case, n, "normalize", 3, pattern=n)
                 for n in range(1, 9) for case in specs.CASES)


def _dead_band() -> tuple:
    return tuple(_near_parabolic(n, k) for n in range(1, 5) for k in (4, 5, 7))


def _trajectory_dense() -> tuple:
    return tuple(_embeddable(case, n, "semigroup", 2, pattern=n)
                 for n in (1, 2, 3, 4) for case in specs.CASES)


# why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    # the default user path; verify does most of the work, and the branch
    # search is kept small (at most 343 combinations)
    "report_mixed": Workload(
        "report_mixed", "report",
        "4 cases x dims 1, 2, 4, 8 (16 maps per cycle)",
        _report_mixed()),
    # log_candidates and mat_exp dominate; verify never runs
    "branch_search": Workload(
        "branch_search", "embed",
        "elliptic split, dims 5-8, contraction block of 4 distinct eigenvalues: "
        "dims 5, 6, 7, 8 embeddable + dim 8 condition_fails (5 per cycle)",
        tuple([_branch(n, False) for n in (5, 6, 7, 8)] + [_branch(8, True)])),
    # maps and normal_forms dominate; no embedding, no verify. The
    # near-parabolic slice fails in the classifier's dead band, so it is
    # probed once per run instead of timed
    "triage": Workload(
        "triage", "normalize",
        "4 cases x dims 1-8 (32 per cycle); probe: lambda = 1 + 10^-k, "
        "k in {4, 5, 7}, dims 1-4 (12)",
        _triage(), probe=_dead_band()),
    # SemigroupFamily.at dominates: many times and one point, the reverse
    # of verify's few times and many points
    "trajectory_dense": Workload(
        "trajectory_dense", "semigroup",
        "4 cases x dims 1-4 (16 per cycle), 401 trajectory times",
        _trajectory_dense(), DENSE_T_GRID),
}


# ---------------------------------------------------------------------------
# running maps


@dataclass
class Outcome:
    label: str
    latency: float
    report_text: Optional[str]
    mismatches: list
    error: Optional[str]  # a stage error or an exception
    dead_band: bool = False  # see specs.Oracle.dead_band

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.error is None

    @property
    def correct(self) -> bool:
        """The report agrees with its oracle, or the map lies in the
        documented near-parabolic dead band and failed with a stage error
        (a known defect: printed as failed, not a wrong answer). An
        exception raised out of ``run_pipeline`` is never correct."""
        return self.ok or (self.dead_band and self.error is not None
                           and self.mismatches != ["raised"])


def run_case(workload: Workload, case: specs.MapCase, keep_report: bool = True) -> Outcome:
    from lfmsemi.cli import run_pipeline

    spec = json.loads(case.spec_text)
    kwargs = {"stop_after": specs.PREFIXES[workload.prefix]}
    if workload.t_grid is not None:
        kwargs["t_grid"] = workload.t_grid
    start = time.perf_counter()
    try:
        report = run_pipeline(spec, **kwargs)
    except Exception as exc:  # the loop must go on; the map counts as failed
        latency = time.perf_counter() - start
        return Outcome(case.label, latency, None, ["raised"], f"{type(exc).__name__}: {exc}",
                       case.oracle.dead_band)
    latency = time.perf_counter() - start
    mismatches = specs.check_report(report, case.oracle)
    if workload.t_grid is not None and not mismatches:
        mismatches = _trajectory_mismatches(report, workload.t_grid)
    errors = [f"{name}: {entry.get('error')}" for name, entry in report["stages"].items()
              if entry.get("status") == "error"]
    if "error" in report:
        errors.insert(0, f"input: {report['error']}")
    text = json.dumps(report, sort_keys=True, indent=2) + "\n" if keep_report else None
    return Outcome(case.label, latency, text, mismatches, "; ".join(errors) or None,
                   case.oracle.dead_band)


def _trajectory_mismatches(report: dict, t_grid: tuple) -> list:
    """The trajectory has one row per time of the grid, every row lies in
    the domain, at(0) is the identity on the start point, and
    at(t + 1) = at(1) o at(t) wherever t and t + 1 are both on the grid.
    The family is built in normal-form coordinates, so at(1) is the
    normal-form map of the report, evaluated here with numpy; with the
    dense grid this checks at(1) and at(2) = at(1) o at(1) at the start
    point, and every row up to t = 1 against the row one unit later."""
    stage = report["stages"].get("semigroup", {})
    rows = stage.get("trajectory", [])
    if [row[0] for row in rows] != list(t_grid):
        return ["trajectory_times"]
    coords = np.array([row[1:] for row in rows], dtype=float)
    points = coords[:, 0::2] + 1j * coords[:, 1::2]
    start = specs.complex_array(stage["trajectory_start"])
    if np.max(np.abs(points[0] - start)) > 1e-9:
        return ["trajectory_identity_at_zero"]
    if np.min(specs.domain_margin(points, stage["trajectory_domain"])) < -1e-9:
        return ["trajectory_outside_domain"]
    position = {round(t, 9): i for i, t in enumerate(t_grid)}
    pairs = [(i, position[round(t + 1.0, 9)]) for i, t in enumerate(t_grid)
             if round(t + 1.0, 9) in position]
    if pairs:
        before, after = (list(index) for index in zip(*pairs))
        nf = report["stages"]["normal_form"]
        want = specs.normal_form_map(nf["form_kind"], nf["parameters"])(points[before])
        err = np.max(np.abs(points[after] - want), axis=1)
        if np.any(err > TRAJECTORY_TOL * (1.0 + np.max(np.abs(want), axis=1))):
            return ["trajectory_semigroup_law"]
    return []


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: timed work between two reference-speed samples, in seconds
SLICE_S = 0.2


@dataclass
class TimedRun:
    outcomes: list
    wall: float
    #: per outcome, the factor that rescales its latency to the reference
    #: speed (``speed.scale``); 1.0 leaves wall times as they are
    scales: list

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def metrics(self) -> dict:
        """Estimates over the whole run at the reference speed (see
        speed.py): ``maps_per_s`` is the number of successful maps over the
        summed rescaled latency of every map, and ``map_ms_p50`` the median
        rescaled latency of the successful maps. Every run covers whole
        cycles, so both are taken over the same mix of recipes at every
        seed. The plain wall-time figures, and the rescaled 90th
        percentile when there are at least 100 maps (so that ten lie
        beyond it), are returned too."""
        ok = [o.latency * s for o, s in zip(self.outcomes, self.scales) if o.ok]
        wall_ok = [o.latency for o in self.outcomes if o.ok]
        if not ok:
            raise RuntimeError("no map of the run succeeded")
        out = {
            "maps_per_s": len(ok) / sum(o.latency * s
                                        for o, s in zip(self.outcomes, self.scales)),
            "map_ms_p50": 1000.0 * statistics.median(ok),
            "wall_maps_per_s": len(ok) / sum(o.latency for o in self.outcomes),
            "wall_ms_p50": 1000.0 * statistics.median(wall_ok),
            "samples": len(ok),
            "failed_share": self.failed / self.attempted,
        }
        if len(ok) >= 100:
            out["map_ms_p90"] = 1000.0 * percentile(ok, 90.0)
        return out


def run_timed(workload: Workload, seed: int, seconds: float) -> TimedRun:
    """Closed loop with one client over whole cycles until ``seconds`` have
    elapsed. The reference kernel is sampled between slices of about
    ``SLICE_S`` of map time, and each map's latency is rescaled by the
    samples around its slice. Generation and oracle checks are outside the
    per-map latency; reports are not kept, so memory does not grow with
    the number of maps."""
    import speed

    outcomes, scales, pending = [], [], []
    cycle = len(workload.cycle)
    before = speed.sample()
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        first = len(outcomes)
        for index in range(first, first + cycle):
            outcome = run_case(workload, workload.case(seed, index), keep_report=False)
            outcomes.append(outcome)
            pending.append(outcome)
            if sum(o.latency for o in pending) >= SLICE_S or index == first + cycle - 1:
                after = speed.sample()
                scales.extend([speed.scale(before, after)] * len(pending))
                before, pending = after, []
    return TimedRun(outcomes, time.perf_counter() - start, scales)


def run_probe(workload: Workload, seed: int) -> list:
    """Outcomes of the workload's probe maps, each run once, untimed."""
    return [run_case(workload, workload.probe_case(seed, i)) for i in range(len(workload.probe))]


def warmup_case(workload: Workload, seed: int) -> specs.MapCase:
    """A cheap fixed-shape map (dim-2 hyperbolic) for the workload's prefix."""
    rng = np.random.default_rng([seed, 2 ** 31])
    spec = specs.hyperbolic_spec(rng, 2, 1)
    return specs.MapCase("warm-up hyperbolic n=2", specs.dumps_spec(spec),
                         specs.oracle_for(specs.HYPERBOLIC, workload.prefix))
