"""Tests for the benchmark's tracer, statistics, checks and workloads."""

import dataclasses
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aoi_offload import chain, cli
from aoi_offload.core import ModelParams
from perfbench import compare, probe, run, stats, tracing, workloads

BENCH = Path(__file__).resolve().parents[1]

TINY = {
    "frontier": {"a_max": 20, "a_star_hi": 2, "lambda_count": 3},
    "oracle": {"points": 1, "vi_iters": 5},
    "sim_long": {"horizon": 50_000},
    "sim_short": {"horizon": 10_000},
}


def _loop(workload):
    return run.Loop(workload, lambda: 1.0)


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TRACED}


def test_spans_nest_and_patched_names_are_restored():
    before = _originals()
    with tracing.Tracer() as tracer:
        tracer.op_id = 7
        cli.frontier_points(0.5, [2], [1], [1.0], 10)
    assert _originals() == before
    spans = tracer.arrays()
    names = list(spans["names"])
    label = [names[i] for i in spans["name"]]
    parent = spans["parent"]
    nested = [i for i, n in enumerate(label)
              if n == "chain.build_chain"
              and label[parent[i]] == "chain.evaluate_exact"
              and label[parent[parent[i]]] == "cli.frontier_points"]
    assert nested
    assert set(spans["op"]) == {7}
    duration = spans["end"] - spans["start"] - spans["tracer_s"]
    own = tracing.self_times(duration, parent)
    i = parent[nested[0]]
    children = parent == i
    assert own[i] == pytest.approx(duration[i] - duration[children].sum())
    assert np.all(own >= 0)


def test_observer_time_is_not_charged_to_the_caller(monkeypatch):
    def slow(*args):
        time.sleep(0.05)

    monkeypatch.setitem(tracing.OBSERVERS, "chain.build_chain", slow)
    with tracing.Tracer() as tracer:
        chain.evaluate_exact(chain.mec_only_policy(), ModelParams(mu=0.5, a_max=10))
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["chain.build_chain.calls"] == 1
    assert tracer.arrays()["tracer_s"].max() >= 0.05
    assert metrics["chain.evaluate_exact.self_s"] < 0.025
    assert metrics["chain.evaluate_exact.busy_s"] < 0.05


def test_names_are_restored_when_the_traced_code_raises():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert _originals() == before


def test_tail_states_its_sample_count():
    value, percentile, count = stats.tail(list(range(30, 0, -1)))
    assert (value, count) == (20, 30)
    assert percentile == pytest.approx(200 / 3)
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [0.5 * b for b in base]
    assert stats.compare(base, faster, "lower", 0.1)["verdict"] == "improved"
    assert stats.compare(base, [1.5 * b for b in base], "lower", 0.1)["verdict"] == "regressed"
    assert stats.compare(base, list(base), "lower", 0.1)["verdict"] == "unchanged"
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 1.0, 1.0]
    assert stats.compare(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
    row = stats.compare(base, faster, "higher", 0.1)
    assert row["wins"] == 0 and row["verdict"] == "regressed"
    assert stats.compare(base[:9], faster[:9], "lower", 0.1)["verdict"] == "unchanged"


def test_compare_table_flags_more_failures():
    def record(value, failed):
        timed = ("setup_s", "wall_s", "ops_per_s", "op_p50_s")
        return {"failed": failed, "latencies_s": [value] * 6,
                "raw": {m: 2 * value for m in timed},
                "metrics": {m: {"value": value} for m in timed + ("peak_rss_mb",)}}
    runs = {"oracle": {"base": [record(1.0 + i / 100, 0) for i in range(4)],
                       "head": [record(0.5, i == 2) for i in range(4)]}}
    rows = compare.table(runs, compare.load_spec())
    assert {r.get("verdict") for r in rows} == {"more failures", None}
    assert rows[0]["raw"] == [pytest.approx(2.03), 1.0]
    assert "raw" not in rows[4]
    tail_row = rows[-1]
    assert tail_row["pooled"]["base"] == {"value": 1.02, "percentile": pytest.approx(100 * 14 / 24),
                                          "samples": 24}
    assert "pooled" in compare.render(rows)


@pytest.fixture
def sim_short(tmp_path):
    return workloads.build("sim_short", 3, tmp_path, **TINY["sim_short"])


def test_wrong_result_is_a_failed_operation(sim_short):
    op = sim_short.ops[4]  # age_threshold(4) at mu = 0.3, checked against the exact chain
    good = op.call()
    wrong = dataclasses.replace(good, delta_hat=good.delta_hat + 50 * good.stderr_delta)
    loop = _loop(sim_short)
    loop.run_op(op)
    op.call = lambda: wrong
    loop.run_op(op)
    assert loop.attempted == 2 and len(loop.failures) == 1
    assert "exact" in loop.failures[0]


def test_raising_operation_and_changed_repeat_fail(sim_short):
    op = sim_short.ops[0]
    loop = _loop(sim_short)
    loop.run_op(op)
    real = op.call

    def boom():
        raise ValueError("broken")

    op.call = boom
    loop.run_op(op)
    other = dataclasses.replace(real(), slots=1)
    op.call = lambda: other
    loop.run_op(op)
    assert len(loop.failures) == 2
    assert "raised" in loop.failures[0] and "first repeat" in loop.failures[1]


def test_recorded_value_mismatch_fails(sim_short):
    op = sim_short.ops[1]
    digest, failure = op.verify(op.call())
    assert failure is None
    op.recorded = dict(digest, slots=digest["slots"] + 1)
    assert "recorded" in op.check(op.call())


def test_probe_scales_to_reference_speed(sim_short):
    check = probe.Probe()
    factor = check()
    assert set(check.samples[0]) == set(probe.REFERENCE_S)
    assert factor == probe.factor(check.samples[0])
    twice_as_slow = {k: 2 * t for k, t in probe.REFERENCE_S.items()}
    assert probe.factor(twice_as_slow) == pytest.approx(0.5)
    loop = run.Loop(sim_short, lambda: 2.0)
    loop.run_pass()
    ops, passes = loop.scaled()
    assert ops == [2 * t for t in loop.latencies]
    assert passes == [pytest.approx(2 * loop.pass_times[0])]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_its_checks_traced(name, tmp_path):
    workload = workloads.build(name, 11, tmp_path, **TINY[name])
    loop = _loop(workload)
    with tracing.Tracer() as tracer:
        loop.run_pass(tracer)
    assert loop.failures == []
    metrics = tracing.layer_metrics(tracer, loop.attempted)
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.PER_LAYER)
    busy = {"frontier": "cli.main.busy_s", "oracle": "mdp.brute_force.busy_s",
            "sim_long": "sim.simulate.busy_s", "sim_short": "sim.simulate.busy_s"}[name]
    assert metrics[busy] > 0


def test_metric_tables_match_benchmark_json(sim_short):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    loop = _loop(sim_short)
    for _ in range(2):
        loop.run_pass()
    metrics, notes = run.end_to_end(loop, [0.5, 0.6, 0.7], [1.0, 2.0, 1.0])
    assert metrics["op_p50_s"][0] == statistics.median(loop.latencies)
    assert metrics["setup_s"][0] == 0.7 and notes["raw"]["setup_s"] == 0.6
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert notes["op_tail"]["samples"] == len(notes["latencies_s"]) == loop.attempted
    assert spec["command"][1:] == ["perfbench/run.py"] and spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.BUILDERS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
