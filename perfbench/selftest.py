"""Tests of the benchmark itself. The file name keeps them out of the
repository's own test run; run them with

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402

# pin BLAS threads before numpy loads, as run.py does
os.environ.update(bench.THREAD_ENV)

import specs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name):
    workload = workloads.WORKLOADS[name]
    count = 2 if name == "branch_search" else 4
    outcomes = [workloads.run_case(workload, workload.case(5, i)) for i in range(count)]
    assert all(o.ok for o in outcomes), [(o.label, o.error, o.mismatches) for o in outcomes]
    metrics = workloads.TimedRun(outcomes, 1.0, [1.0] * count).metrics()
    assert metrics["maps_per_s"] > 0 and metrics["map_ms_p50"] > 0
    assert metrics["failed_share"] == 0.0
    assert metrics["maps_per_s"] == metrics["wall_maps_per_s"]


def test_latencies_are_rescaled_to_the_reference_speed():
    import speed
    outcomes = [workloads.Outcome("x", latency, "", [], None) for latency in (0.1, 0.2, 0.3)]
    wall = workloads.TimedRun(outcomes, 1.0, [1.0] * 3).metrics()
    # samples at twice the reference time: the machine ran at half speed
    slow = speed.scale(2 * speed.REF_S, 2 * speed.REF_S)
    assert slow == 0.5
    rescaled = workloads.TimedRun(outcomes, 1.0, [slow] * 3).metrics()
    assert rescaled["map_ms_p50"] == pytest.approx(wall["map_ms_p50"] / 2)
    assert rescaled["maps_per_s"] == pytest.approx(2 * wall["maps_per_s"])
    assert rescaled["wall_ms_p50"] == wall["map_ms_p50"] == pytest.approx(200.0)


def test_wrong_oracle_is_counted_as_failed():
    workload = workloads.WORKLOADS["triage"]
    right = workload.case(3, 0)
    wrong = dataclasses.replace(
        right, oracle=dataclasses.replace(right.oracle, kind="hyperbolic"))
    outcomes = [workloads.run_case(workload, right), workloads.run_case(workload, wrong)]
    assert outcomes[0].ok
    assert not outcomes[1].correct and outcomes[1].mismatches == ["kind"]
    run = workloads.TimedRun(outcomes, 1.0, [1.0, 1.0])
    assert run.failed == 1
    assert run.metrics()["failed_share"] == 0.5


def _raise_on_elliptic(real):
    def run_pipeline(spec, **kwargs):
        if spec["domain"] == "ball":
            raise TypeError("injected fault")
        return real(spec, **kwargs)
    return run_pipeline


def test_a_map_that_raises_makes_the_run_incorrect(monkeypatch):
    import lfmsemi.cli
    workload = workloads.WORKLOADS["report_mixed"]
    monkeypatch.setattr(lfmsemi.cli, "run_pipeline", _raise_on_elliptic(lfmsemi.cli.run_pipeline))
    outcomes = [workloads.run_case(workload, workload.case(2, i)) for i in range(4)]
    assert [o.correct for o in outcomes] == [False, False, True, True]
    assert outcomes[0].error == "TypeError: injected fault"
    # the result line of a run (one cycle; the set-up probes are not patched)
    result = json.loads(bench.run_untraced(workload, 2, 0.0))
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (16, 8)
    # a raise is a fault even in the near-parabolic dead band
    triage = workloads.WORKLOADS["triage"]
    index = next(i for i, r in enumerate(triage.probe) if r.label == "near_parabolic n=1 k=7")
    monkeypatch.setattr(lfmsemi.cli, "run_pipeline", lambda spec, **kw: 1 / 0)
    assert not workloads.run_case(triage, triage.probe_case(2, index)).correct


def test_dead_band_stage_errors_are_failed_but_correct():
    triage = workloads.WORKLOADS["triage"]
    outcomes = workloads.run_probe(triage, 1)
    failed = [o for o in outcomes if not o.ok]
    assert failed, "the dead band of the classifier no longer shows"
    assert all(o.correct and o.error for o in failed)
    # outside the dead band a stage error is not tolerated
    other = workloads.run_case(triage, triage.case(1, 0))
    assert not dataclasses.replace(other, error="classify: injected", mismatches=["kind"]).correct


def run_pipeline_for(workload, case):
    from lfmsemi.cli import run_pipeline
    return run_pipeline(json.loads(case.spec_text), t_grid=workload.t_grid,
                        stop_after=specs.PREFIXES[workload.prefix])


def test_trajectory_rows_are_checked_against_the_normal_form():
    workload = workloads.WORKLOADS["trajectory_dense"]
    assert 1.0 in workload.t_grid and 2.0 in workload.t_grid
    for index in range(4):
        case = workload.case(6, index)
        report = run_pipeline_for(workload, case)
        assert workloads._trajectory_mismatches(report, workload.t_grid) == []
        rows = report["stages"]["semigroup"]["trajectory"]
        rows[150][1:] = rows[149][1:]  # a stale image at t = 0.75
        assert workloads._trajectory_mismatches(report, workload.t_grid) \
            == ["trajectory_semigroup_law"], case.label


def test_near_parabolic_slice_is_in_triage():
    workload = workloads.WORKLOADS["triage"]
    slice_ = {}
    for index, recipe in enumerate(workload.probe):
        case = workload.probe_case(1, index)
        dilation = json.loads(case.spec_text)["lambda"][0]
        slice_[recipe.label] = (dilation, case.oracle.kind)
    assert len(slice_) == 12
    assert not any(r.label.startswith("near_parabolic") for r in workload.cycle)
    for n in (1, 2, 3, 4):
        assert slice_[f"near_parabolic n={n} k=4"] == (1.0 + 1e-4, "hyperbolic")
        assert slice_[f"near_parabolic n={n} k=5"] == (1.0 + 1e-5, "hyperbolic")
        assert slice_[f"near_parabolic n={n} k=7"] == (1.0 + 1e-7, "parabolic")


def test_triage_run_prints_the_probe_but_times_no_failing_map(capsys):
    result = json.loads(bench.run_untraced(workloads.WORKLOADS["triage"], 1, 0.0))
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (32, 0)
    out = capsys.readouterr().out
    assert "probe, untimed and not in attempted:" in out and "of 12 maps succeeded" in out


def test_inputs_depend_only_on_seed_and_index():
    for workload in workloads.WORKLOADS.values():
        for index in range(len(workload.cycle)):
            assert workload.case(9, index) == workload.case(9, index)
        assert workload.case(9, 0).spec_text != workload.case(10, 0).spec_text


def test_tracing_keeps_reports_and_repeats_counts():
    workload = workloads.WORKLOADS["report_mixed"]
    cases = [workload.case(4, i) for i in range(2)]
    untraced = [workloads.run_case(workload, c) for c in cases]
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            outcomes = [workloads.run_case(workload, c) for c in cases]
        passes.append((tracer, outcomes))
    for tracer, outcomes in passes:
        assert [o.report_text for o in outcomes] == [o.report_text for o in untraced]
    assert passes[0][0].counts == passes[1][0].counts
    metrics, printed = bench.layer_metrics(*passes[0])
    assert metrics == bench.layer_metrics(*passes[1])[0] | {
        k: v for k, v in metrics.items() if k.endswith("_ms")}
    assert set(bench.PER_LAYER_UNITS) - set(metrics) == set(bench.KERNEL_UNITS)
    assert set(bench.PRINTED_UNITS) - set(printed) == {"trace.overhead_share"}
    assert all(value > 0 for value in metrics.values())
    assert printed["verify.samples_used"] > 0 and printed["verify.verify_ms"] > 0
    # the wrappers are gone once the pass is over
    import lfmsemi.maps
    assert not hasattr(lfmsemi.maps.classify, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [(0, -1, 0, 0, 0.0, 10.0), (1, 0, 0, 0, 1.0, 4.0), (2, 0, 0, 0, 5.0, 6.0)]
    tracer.names = ["x"]
    assert tracer.self_times() == [6.0, 3.0, 1.0]


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "triage",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
