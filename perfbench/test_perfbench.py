"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS, make_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_inputs_and_nothing_else(name):
    def without_seeds(config: dict) -> dict:
        config = json.loads(json.dumps(config))
        del config["seed"]
        config["design"].pop("seed", None)
        return config

    a = make_config(WORKLOADS[name], 1, run.CONFIGS)
    b = make_config(WORKLOADS[name], 2, run.CONFIGS)
    assert a["seed"] == 1 and b["seed"] == 2
    if a["design"]["kind"] == "gaussian-iid":
        assert a["design"]["seed"] != b["design"]["seed"]
    assert without_seeds(a) == without_seeds(b)
    assert a == make_config(WORKLOADS[name], 1, run.CONFIGS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_writes_the_untraced_bytes(name):
    bench = run.Run(WORKLOADS[name], seed=3, smoke=True)
    untraced = bench.iteration()
    traced = bench.iteration(traced=True)
    assert bench.problems == []
    for plain, with_spans in zip(untraced, traced):
        assert plain.outputs and with_spans.outputs == plain.outputs
        assert with_spans.exit_code == plain.exit_code


def test_self_times_are_non_negative_and_counters_repeat_under_two_workers():
    workload = WORKLOADS["counterexample-iid"]
    assert "--workers" in workload.commands[0] and "2" in workload.commands[0]
    bench = run.Run(workload, seed=5, smoke=True)
    bench.iteration()
    traces = []
    for _ in range(2):
        bench.iteration(traced=True)
        traces.append(bench.read_traces()[0])
    assert bench.problems == []
    for trace in traces:
        for name, span in trace["spans"].items():
            assert span["self_s"] >= 0.0, name
            assert span["errors"] == 0, name
    assert traces[0]["counters"] == traces[1]["counters"]
    counters = traces[0]["counters"]
    assert counters["harness.replicates_simulated"] == 2 * counters["harness.replicates_distinct"]


def test_span_stacks_are_per_thread():
    spans = tracer.Tracer()

    def leaf():
        time.sleep(0.001)

    def parent():
        for _ in range(5):
            spans.wrap("leaf", leaf)()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=spans.wrap("parent", parent)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    result = spans.to_dict()["spans"]
    assert result["parent"]["calls"] == 8 and result["leaf"]["calls"] == 40
    assert result["leaf"]["self_s"] == pytest.approx(result["leaf"]["total_s"])
    assert 0.0 <= result["parent"]["self_s"] < result["parent"]["total_s"]
    # Each parent's children ran on its own thread, so self + children = total.
    assert result["parent"]["self_s"] + result["leaf"]["total_s"] == pytest.approx(
        result["parent"]["total_s"]
    )


def test_span_counts_errors():
    spans = tracer.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        spans.wrap("boom", boom)()
    assert spans.to_dict()["spans"]["boom"]["errors"] == 1


def _invocation(code: int, outputs: dict, stderr: str = "") -> run.Invocation:
    return run.Invocation(1.0, 1.0, 1.0, code, stderr, outputs)


def test_failure_rules():
    report = {"report.json": json.dumps({"identity_ok": True}).encode()}
    ref = _invocation(1, report)
    assert run.failure(_invocation(1, report), ref) is None  # a refuted CLT is a verdict
    assert run.failure(_invocation(2, {}), None) == "exit code 2"
    assert "exit code 0" in run.failure(_invocation(0, report), ref)
    assert "traceback" in run.failure(_invocation(1, report, "Traceback (most recent call last)"), ref)
    assert "differ" in run.failure(_invocation(1, {**report, "x.csv": b"1"}), ref)
    broken = {"report.json": json.dumps({"identity_ok": False}).encode()}
    assert "identity_ok" in run.failure(_invocation(1, broken), None)


@pytest.mark.parametrize("trace", [False, True])
def test_result_names_every_metric_of_benchmark_json(trace):
    spec = _benchmark_json()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    result = run.run_benchmark(WORKLOADS["clt-replicates"], seed=7, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clt-replicates",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
