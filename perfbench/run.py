"""Pipeline benchmark for lfmsemi.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
(never from an installed copy), and the run fails with exit code 2 when
``src/`` is missing. BLAS and OpenMP threads are pinned to 1.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (the median of several fresh interpreters, each importing lfmsemi
and running one warm-up map, half of them before the timed loop and
half after it), a closed loop with one client over whole cycles of the
workload until ``--seconds`` have elapsed, after one untimed warm-up
cycle (see ``workloads.TimedRun.metrics``), and the process's peak RSS.
Times are rescaled to a reference speed (speed.py), so that the drift
of a shared machine's speed cancels. ``correct`` is false when any map
fails: it raises, a stage returns an error, or the report disagrees
with its oracle. A workload's probe maps (the near-parabolic dead band
of ``triage``) run once after the loop, untimed and outside
``attempted``; their failures are printed, and only an exception or a
wrong answer without an error makes ``correct`` false there
(``specs.Oracle.dead_band``).

``--trace 1`` measures the per-layer metrics on the workload's first
cycle of maps: one untraced warm-up pass, then untraced and traced passes
in turn until the untraced ones add up to a second; the machine reports
of the first traced pass must be byte-identical to the untraced ones.
Then the kernel microbenchmarks run. ``--seconds`` does not apply: the traced maps are
a fixed set, so that every count repeats exactly. Spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl.gz`` under the checkout.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
#: set-up probes per run, half before and half after the timed loop;
#: ``setup_s`` is the median of their rescaled times
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"maps_per_s": "1/s", "map_ms_p50": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}

#: per-layer metrics listed in BENCHMARK.json: every workload exercises
#: each of them, so none is zero by construction
PER_LAYER_UNITS = {
    "maps.point_eval_calls": "count",
    "maps.classify_calls": "count",
    "maps.fixed_points_calls": "count",
    "maps.conjugate_calls": "count",
    "linalg.schur_form_calls": "count",
    "maps.ballmap_init_calls": "count",
    "maps.eval_many_points": "count",
    "cli.report_bytes": "bytes",
    "maps.classify_ms": "ms",
    "maps.fixed_points_ms": "ms",
    "normal_forms.reduce_ms": "ms",
    "linalg.schur_form_ms": "ms",
    "cli.parse_ms": "ms",
    "maps.ballmap_init_ms": "ms",
}
KERNEL_UNITS = {f"{kernel}.n{n}_{unit}": unit
                for kernel, unit in (("maps.fixed_points", "us"),
                                     ("embedding.log_candidates", "us"),
                                     ("maps.ballmap_init", "us"),
                                     ("maps.eval_many", "us"),
                                     ("verify.verify_family", "ms"))
                for n in (1, 2, 4, 8)}
PER_LAYER_UNITS.update(KERNEL_UNITS)

#: per-layer metrics printed by name only, because each is zero by
#: construction on the workloads named in its comment
PRINTED_UNITS = {
    "verify.samples_used": "count",  # all but report_mixed
    "embedding.candidates_examined": "count",  # triage
    "embedding.candidates_built": "count",  # triage
    "linalg.mat_exp_calls": "count",  # triage
    "linalg.is_dissipative_calls": "count",  # triage
    "embedding.semigroup_at_calls": "count",  # branch_search, triage
    "verify.verify_ms": "ms",  # all but report_mixed, as are the five checks
    "verify.identity_ms": "ms",
    "verify.semigroup_law_ms": "ms",
    "verify.self_map_ms": "ms",
    "verify.time_one_ms": "ms",
    "verify.generator_fd_ms": "ms",
    "embedding.log_candidates_ms": "ms",  # triage
    "linalg.mat_exp_ms": "ms",  # triage
    "embedding.embed_ms": "ms",  # triage
    "normal_forms.conditions_ms": "ms",  # branch_search
    "embedding.semigroup_at_ms": "ms",  # branch_search, triage
    "embedding.generator_ms": "ms",  # all but report_mixed
    "trace.overhead_share": "ratio",  # never zero, but it reads as noise
}

#: spans whose share of the pipeline time says which layer dominates
DOMINANT = {
    "report_mixed": ("verify", ("verify.",)),
    "branch_search": ("embedding.log_candidates + linalg.mat_exp",
                      ("embedding.log_candidates", "linalg.mat_exp")),
    "triage": ("maps + normal_forms", ("maps.", "normal_forms.")),
    "trajectory_dense": ("SemigroupFamily.at", ("embedding.SemigroupFamily.at",)),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """Seconds of fresh interpreters, each importing lfmsemi and running
    one warm-up map: (wall time, wall time rescaled to the reference
    speed by samples taken right before and after the probe)."""
    import speed

    env = dict(os.environ, **THREAD_ENV)
    times = []
    for _ in range(repeats):
        before = speed.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - start
        times.append((wall, wall * speed.scale(before, speed.sample())))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    })


def describe_failures(outcomes) -> None:
    seen = Counter((o.label, o.error or f"disagrees with oracle on {o.mismatches}")
                   for o in outcomes if not o.ok)
    for (label, why), count in sorted(seen.items()):
        emit(f"  failed x{count}: {label}: {why}")


def run_untraced(workload, seed: int, seconds: float) -> str:
    import workloads

    half = SETUP_REPEATS // 2
    setup = measure_setup(workload.name, seed, half)
    warm = workloads.run_case(workload, workloads.warmup_case(workload, seed))
    cycle = len(workload.cycle)
    for index in range(cycle):  # a warm-up cycle from far along the stream, not timed
        workloads.run_case(workload, workload.case(seed, cycle * 2 ** 20 + index),
                           keep_report=False)
    run = workloads.run_timed(workload, seed, seconds)
    setup += measure_setup(workload.name, seed, SETUP_REPEATS - half)
    probe = workloads.run_probe(workload, seed)
    e2e = run.metrics()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"maps_per_s": e2e["maps_per_s"], "map_ms_p50": e2e["map_ms_p50"],
               "setup_s": statistics.median(scaled for _, scaled in setup),
               "peak_rss_mb": peak_rss_mb}
    emit(f"workload {workload.name} (subcommand {workload.prefix}, closed loop, 1 client), "
         f"seed {seed}")
    emit(f"  dims: {workload.dims}")
    emit(f"  {run.attempted} maps in {run.attempted // len(workload.cycle)} cycles, "
         f"{run.wall:.1f} s of loop time")
    for name, unit in END_TO_END_UNITS.items():
        emit(f"  {name} = {metrics[name]:.6g} {unit}")
    emit("  times are rescaled to the reference speed (speed.py); as wall time: "
         f"maps_per_s = {e2e['wall_maps_per_s']:.6g} 1/s, "
         f"map_ms_p50 = {e2e['wall_ms_p50']:.6g} ms, "
         f"setup_s = {statistics.median(wall for wall, _ in setup):.6g} s")
    if "map_ms_p90" in e2e:
        emit(f"  map_ms_p90 = {e2e['map_ms_p90']:.6g} ms ({e2e['samples']} samples)")
    emit(f"  failed_share = {e2e['failed_share']:.6g} ({run.failed} of {run.attempted})")
    emit("  setup runs (s, rescaled): " + ", ".join(f"{s:.4f}" for _, s in setup))
    describe_failures(run.outcomes)
    if probe:
        emit(f"  probe, untimed and not in attempted: {sum(o.ok for o in probe)} of "
             f"{len(probe)} maps succeeded")
        describe_failures(probe)
    correct = (warm.ok and all(o.ok for o in run.outcomes)
               and all(o.correct for o in probe))
    return result_line(correct, run.attempted, run.failed, metrics, END_TO_END_UNITS)


def layer_metrics(tracer, outcomes) -> tuple:
    """(metrics for the JSON, metrics printed by name only), every value
    per map."""
    n = len(outcomes)
    counts = tracer.counts

    def per_map(x):
        return x / n

    def ms(*names):
        return 1000.0 * tracer.outermost_time(names) / n

    reports = [json.loads(o.report_text) for o in outcomes if o.report_text]
    samples = sum(check["samples_used"] for r in reports
                  for check in r["stages"].get("verify", {}).get("checks", []))
    examined = sum(1 for r in reports for m in r["stages"].get("embed", {}).get("margins", [])
                   if "candidate" in m["name"])
    metrics = {
        "maps.point_eval_calls": per_map(counts["maps.BallMap.__call__"]
                                         + counts["maps.SiegelMap.__call__"]
                                         + counts["maps.ProjMap.__call__"]),
        "maps.classify_calls": per_map(counts["maps.classify"]),
        "maps.fixed_points_calls": per_map(counts["maps.fixed_points"]),
        "maps.conjugate_calls": per_map(counts["maps.conjugate"]),
        "linalg.schur_form_calls": per_map(counts["linalg.schur_form"]),
        "maps.ballmap_init_calls": per_map(counts["maps.BallMap.__post_init__"]),
        "maps.eval_many_points": per_map(counts["maps.BallMap.eval_many.points"]
                                         + counts["maps.SiegelMap.eval_many.points"]),
        "cli.report_bytes": per_map(sum(len(o.report_text.encode()) for o in outcomes
                                        if o.report_text)),
        "maps.classify_ms": ms("maps.classify"),
        "maps.fixed_points_ms": ms("maps.fixed_points"),
        "normal_forms.reduce_ms": ms("normal_forms.elliptic_split", "normal_forms.elliptic_u0",
                                     "normal_forms.parabolic_normal_form",
                                     "normal_forms.hyperbolic_normal_form"),
        "linalg.schur_form_ms": ms("linalg.schur_form"),
        "cli.parse_ms": ms("cli.parse_map_spec"),
        "maps.ballmap_init_ms": ms("maps.BallMap.__post_init__"),
    }
    checks = {"verify.identity_ms": "verify.check_identity_at_zero",
              "verify.semigroup_law_ms": "verify.check_semigroup_law",
              "verify.self_map_ms": "verify._family_self_map",
              "verify.time_one_ms": "verify.check_time_one",
              "verify.generator_fd_ms": "verify.check_generator"}
    printed = {
        "verify.samples_used": per_map(samples),
        "embedding.candidates_examined": per_map(examined),
        "embedding.candidates_built": per_map(counts["embedding.log_candidates.built"]),
        "linalg.mat_exp_calls": per_map(counts["linalg.mat_exp"]),
        "linalg.is_dissipative_calls": per_map(counts["linalg.is_dissipative"]),
        "embedding.semigroup_at_calls": per_map(counts["embedding.SemigroupFamily.at"]),
        "verify.verify_ms": ms("verify.verify_family"),
        "embedding.log_candidates_ms": ms("embedding.log_candidates"),
        "linalg.mat_exp_ms": ms("linalg.mat_exp"),
        "embedding.embed_ms": ms("embedding.embed_elliptic_split", "embedding.embed_elliptic_u0",
                                 "embedding.embed_parabolic", "embedding.embed_hyperbolic"),
        "normal_forms.conditions_ms": ms("normal_forms.parabolic_conditions",
                                         "normal_forms.hyperbolic_conditions",
                                         "normal_forms.siegel_conditions"),
        "embedding.semigroup_at_ms": ms("embedding.SemigroupFamily.at"),
        "embedding.generator_ms": ms("embedding.generator", "embedding.generator.eval"),
    }
    for metric, span in checks.items():
        printed[metric] = 1000.0 * tracer.child_time("verify.verify_family", span) / n
    return metrics, printed


def run_traced(workload, seed: int) -> str:
    import kernels
    import workloads
    from tracing import Tracer

    cases = [workload.case(seed, i) for i in range(len(workload.cycle))]
    for case in cases:  # warm-up pass, discarded
        workloads.run_case(workload, case)
    # alternate untraced and traced passes until the untraced ones add up
    # to a second (short cycles are noisy); the first traced pass gives
    # the spans and counts, the rest only the overhead
    untraced, traced, tracer = [], [], Tracer()
    wall_untraced = wall_traced = 0.0
    while not traced or wall_untraced < 1.0:
        outcomes = [workloads.run_case(workload, case) for case in cases]
        wall_untraced += sum(o.latency for o in outcomes)
        untraced = untraced or outcomes
        pass_tracer = tracer if not traced else Tracer()
        with pass_tracer.installed():
            for index, case in enumerate(cases):
                pass_tracer.map_index = index
                outcome = workloads.run_case(workload, case)
                wall_traced += outcome.latency
                if pass_tracer is tracer:
                    traced.append(outcome)
    gate = [u.label for u, t in zip(untraced, traced) if u.report_text != t.report_text]
    metrics, printed = layer_metrics(tracer, traced)
    printed["trace.overhead_share"] = wall_traced / wall_untraced - 1.0
    metrics.update(kernels.run_kernels(seed))

    total = tracer.outermost_time(["cli.run_pipeline"])
    label, prefixes = DOMINANT[workload.name]
    dominant = tracer.outermost_time([name for name in tracer.names
                                      if name.startswith(prefixes)])
    layer_share = {layer: tracer.outermost_time([name for name in tracer.names
                                                 if name.startswith(layer + ".")]) / total
                   for layer in ("maps", "normal_forms", "embedding", "linalg", "verify")}
    self_ms = sorted(tracer.self_time_by_name().items(), key=lambda kv: -kv[1])

    emit(f"workload {workload.name} traced, seed {seed}: {len(cases)} maps (one cycle)")
    emit(f"  dominant layer {label}: {100.0 * dominant / total:.1f}% of pipeline time")
    emit("  layer share (outermost spans): " + ", ".join(
        f"{layer} {100.0 * share:.1f}%" for layer, share in layer_share.items()))
    emit("  top self time per map: " + ", ".join(
        f"{name} {1000.0 * secs / len(cases):.3g} ms" for name, secs in self_ms[:6]))
    for name, unit in PER_LAYER_UNITS.items():
        emit(f"  {name} = {metrics[name]:.6g} {unit}")
    for name, unit in PRINTED_UNITS.items():
        emit(f"  {name} = {printed[name]:.6g} {unit} (printed only)")
    emit(f"  output gate: {len(cases) - len(gate)} of {len(cases)} machine reports "
         f"byte-identical traced vs untraced")
    describe_failures(traced)

    out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(out, {"workload": workload.name, "seed": seed, "maps": len(cases),
                       "counts": dict(tracer.counts), "per_layer": metrics,
                       "printed": printed, "layer_share": layer_share})
    emit(f"  spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")

    correct = not gate and all(o.ok for o in traced + untraced)
    return result_line(correct, len(traced), sum(1 for o in traced if not o.ok),
                       metrics, PER_LAYER_UNITS)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lfmsemi" / "__init__.py").is_file():
        sys.stderr.write(f"error: {SRC / 'lfmsemi'} not found; run from a checkout root\n")
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import lfmsemi
    import workloads

    if Path(lfmsemi.__file__).resolve().parent != SRC / "lfmsemi":
        sys.stderr.write(f"error: imported lfmsemi from {lfmsemi.__file__}, not {SRC}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        line = run_traced(workload, args.seed)
    else:
        line = run_untraced(workload, args.seed, args.seconds)
    emit(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
