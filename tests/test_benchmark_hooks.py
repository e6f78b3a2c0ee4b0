"""The layer tracer in ``perfbench/`` patches evclt entry points by name and
binds their arguments by name; a rename of any of them must fail here rather
than in a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return dict(os.environ, PYTHONPATH=path)


def test_tracer_installs_on_every_traced_entry_point():
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _traced_counters(tmp_path, command: str, code: int = 0, **overrides) -> dict:
    """The tracer's counters for one CLI ``command`` on a small linear config;
    the command must exit with ``code``."""
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "seed": 5,
                "design": {"kind": "linear"},
                "model": {
                    "theta": 1.0,
                    "beta": 2.0,
                    "eps": {"family": "normal", "scale": 1.0},
                    "delta": {"family": "normal", "scale": 1.0},
                },
                **overrides,
            }
        ),
        encoding="utf-8",
    )
    trace = tmp_path / "trace.json"
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "tracer.py"),
            str(trace),
            command,
            "--config",
            str(config),
            "--out",
            str(tmp_path / "out"),
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == code, result.stderr
    return json.loads(trace.read_text(encoding="utf-8"))["counters"]


def test_traced_simulate_counts_kernel_rows_and_replicates(tmp_path):
    counters = _traced_counters(
        tmp_path, "simulate", grid=[100, 200], replicates=100, tests=["negligibility"]
    )
    assert counters["kernels.fit_batch.rows"] == 200
    assert counters["kernels.decompose_batch.rows"] == 200
    assert counters["harness.replicates_simulated"] == 200


def test_traced_counterexample_simulates_each_replicate_once(tmp_path):
    # beta-clt fails on the attenuated gaussian-iid slope, so the run exits 1;
    # the counterexample reads the replicates of the same simulation pass.
    counters = _traced_counters(
        tmp_path,
        "simulate",
        code=1,
        design={"kind": "gaussian-iid", "seed": 3},
        grid=[100, 200],
        replicates=100,
        tests=["beta-clt", "counterexample"],
    )
    assert counters["harness.replicates_simulated"] == 2 * 100
    assert counters["harness.replicates_distinct"] == 2 * 100


def test_traced_lindeberg_counts_one_call_for_the_whole_grid(tmp_path):
    counters = _traced_counters(
        tmp_path,
        "lindeberg",
        grid=[100, 200, 500],
        lindeberg={"r_grid": [0.1, 0.5], "method": "monte-carlo", "mc_budget": 2000},
    )
    assert counters["asymptotics.lindeberg_sum.calls"] == 1
    # the eps and delta streams, once for the whole grid
    assert counters["rng.uniforms.calls"] == 2
    assert counters["asymptotics.lindeberg_sum.draws"] == 2 * 2000
