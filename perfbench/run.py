#!/usr/bin/env python3
"""Layered end-to-end benchmark of the evclt CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's config is generated from the
shipped one under ``configs/`` and the seed (see ``workloads.py``) into
``.perfbench_work/``; every CLI command then runs in a fresh interpreter with
``PYTHONPATH=src``, as the ``evclt`` console script would.

``--trace 0`` repeats the workload for S seconds (at least MIN_ITERATIONS
times), each repetition followed by one set-up probe, with a calibration
between any two, and reports the medians of the wall, CPU and set-up
seconds scaled to the reference speed (see ``measure_end_to_end``) and the
median peak RSS. ``--trace 1`` alternates untraced and traced
repetitions (``tracer.py``) for S seconds and reports the per-layer metrics.

Every CLI invocation is checked against the first one of the run: a failure
is exit code 2, a traceback, another exit code, other output bytes (every
file but ``manifest.json``, whose timestamp changes) or ``identity_ok``
false. Exit code 1 is a verdict (a refuted CLT), not a failure. Counters of
the traced repetitions must repeat exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine. Raw samples go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from workloads import WORKLOADS, Workload, make_config, write_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench_work"

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
CALIBRATION_STREAMS = 1000
# Median calibration() time on the reference VM (2 vCPUs, Intel Xeon,
# Python 3.11.7, numpy 2.4.6); end-to-end times are reported at this speed.
CALIBRATION_REF_S = 0.14
INVOCATION_TIMEOUT_S = 150.0
COMPARED_OUTPUTS_SKIP = {"manifest.json"}

CLI_ENTRY = "import sys; from evclt.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import sys; import evclt.cli; from evclt.config import load_config; "
    "load_config(sys.argv[1])"
)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stderr: str
    outputs: dict[str, bytes] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("EVCLT_SEED", None)  # it would override the workload's seed
    return env


def invoke(argv: list[str], out_dir: Path | None, env: dict[str, str]) -> Invocation:
    """Run ``argv`` to completion; wall, CPU and peak RSS come from wait4."""
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    log = WORK / "child.log"
    with open(os.devnull, "wb") as devnull, open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=devnull, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    outputs = {}
    if out_dir is not None and out_dir.is_dir():
        outputs = {
            p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name not in COMPARED_OUTPUTS_SKIP
        }
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # kB on Linux
        exit_code=proc.returncode,
        stderr=stderr,
        outputs=outputs,
    )


def failure(inv: Invocation, ref: Invocation | None) -> str | None:
    """Why ``inv`` counts as failed against the reference run, or None."""
    if inv.exit_code not in (0, 1):
        return f"exit code {inv.exit_code}"
    if "Traceback (most recent call last)" in inv.stderr:
        return "traceback on stderr"
    if "report.json" in inv.outputs:
        try:
            identity_ok = json.loads(inv.outputs["report.json"]).get("identity_ok")
        except ValueError:
            return "report.json is not JSON"
        if identity_ok is not True:
            return "identity_ok is false"
    if ref is not None:
        if inv.exit_code != ref.exit_code:
            return f"exit code {inv.exit_code}, first run gave {ref.exit_code}"
        if inv.outputs != ref.outputs:
            changed = sorted(
                k for k in inv.outputs.keys() | ref.outputs.keys()
                if inv.outputs.get(k) != ref.outputs.get(k)
            )
            return f"output bytes differ from the first run: {changed}"
    return None


class Run:
    """One benchmark invocation: the workload's commands and their checks."""

    def __init__(self, workload: Workload, seed: int, smoke: bool = False) -> None:
        self.workload = workload
        self.env = child_env()
        self.attempted = 0
        self.problems: list[str] = []
        self.refs: list[Invocation] | None = None
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        config = make_config(workload, seed, CONFIGS, smoke=smoke)
        self.config_path = write_config(config, WORK / f"{workload.name}.json")

    @property
    def failed(self) -> int:
        return len(self.problems)

    def out_dir(self, index: int) -> Path:
        return WORK / "out" / str(index)

    def cli_argv(self, command: tuple[str, ...], index: int) -> list[str]:
        return [
            sys.executable, "-c", CLI_ENTRY, *command,
            "--config", str(self.config_path), "--out", str(self.out_dir(index)),
        ]

    def traced_argv(self, command: tuple[str, ...], index: int) -> list[str]:
        trace = WORK / f"trace-{index}.json"
        return [
            sys.executable, str(BENCH_DIR / "tracer.py"), str(trace), *command,
            "--config", str(self.config_path), "--out", str(self.out_dir(index)),
        ]

    def check(self, inv: Invocation, ref: Invocation | None, label: str) -> None:
        self.attempted += 1
        why = failure(inv, ref)
        if why is not None:
            self.problems.append(f"{label}: {why}")
            print(f"FAILED {label}: {why}\n{inv.stderr[-2000:]}", file=sys.stderr)

    def iteration(self, traced: bool = False) -> list[Invocation]:
        """Run every command of the workload once; the first untraced
        iteration becomes the reference the others are checked against."""
        invs = []
        for index, command in enumerate(self.workload.commands):
            argv = (self.traced_argv if traced else self.cli_argv)(command, index)
            inv = invoke(argv, self.out_dir(index), self.env)
            ref = self.refs[index] if self.refs is not None else None
            self.check(inv, ref, f"{'traced ' if traced else ''}{' '.join(command)}")
            invs.append(inv)
        if self.refs is None:
            self.refs = invs
        return invs

    def worker_check(self) -> None:
        """Untimed: the report at --workers 1 must equal the first run's."""
        command = self.workload.worker_check
        if command is None:
            return
        index = len(self.workload.commands)
        inv = invoke(self.cli_argv(command, index), self.out_dir(index), self.env)
        self.check(inv, self.refs[0], " ".join(command))

    def setup_probe(self) -> float:
        inv = invoke(
            [sys.executable, "-c", SETUP_PROBE, str(self.config_path)], None, self.env
        )
        self.check(inv, None, "set-up probe")
        return inv.wall_s

    def read_traces(self) -> list[dict] | None:
        """The traces of the last traced iteration, or None if one is missing
        (its invocation has failed and been counted)."""
        paths = [WORK / f"trace-{index}.json" for index in range(len(self.workload.commands))]
        if not all(p.is_file() for p in paths):
            return None
        traces = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
        for p in paths:
            p.unlink()
        return traces


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def calibration() -> float:
    """Seconds for a fixed piece of numpy and Python work that uses no evclt
    code: keyed Philox streams, ndtri and an interpreted loop, the mix the
    workloads spend their time in."""
    start = time.perf_counter()
    total = 0.0
    for key in range(CALIBRATION_STREAMS):
        raw = np.random.Philox(np.random.SeedSequence([key, 7])).random_raw(2000)
        total += float(ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53).sum())
        for i in range(500):
            total += i
    return time.perf_counter() - start


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Repeat (workload, calibration, set-up probe, calibration) for
    ``seconds``. Each timing is scaled to the reference speed by the mean of
    the two calibrations around it: other tenants of a shared machine slow
    the workload and the calibration alike, so the scaled times hold still
    while the raw ones drift by a quarter from minute to minute."""
    raw = {k: [] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    scaled = {k: [] for k in ("wall_s", "cpu_s", "setup_s")}
    cal = [calibration()]
    deadline = time.perf_counter() + seconds
    while len(raw["wall_s"]) < MIN_ITERATIONS or time.perf_counter() < deadline:
        invs = run.iteration()
        cal.append(calibration())
        setup = run.setup_probe()
        cal.append(calibration())
        to_ref_w = CALIBRATION_REF_S / ((cal[-3] + cal[-2]) / 2)
        to_ref_s = CALIBRATION_REF_S / ((cal[-2] + cal[-1]) / 2)
        wall, cpu = sum(i.wall_s for i in invs), sum(i.cpu_s for i in invs)
        for key, value in (("wall_s", wall), ("cpu_s", cpu), ("setup_s", setup)):
            raw[key].append(value)
        raw["peak_rss_mb"].append(max(i.maxrss_mb for i in invs))
        scaled["wall_s"].append(wall * to_ref_w)
        scaled["cpu_s"].append(cpu * to_ref_w)
        scaled["setup_s"].append(setup * to_ref_s)
    raw["calibration_s"] = cal
    run.worker_check()
    metrics = {
        "wall_s": (median(scaled["wall_s"]), "s"),
        "setup_s": (median(scaled["setup_s"]), "s"),
        "cpu_s": (median(scaled["cpu_s"]), "s"),
        "peak_rss_mb": (median(raw["peak_rss_mb"]), "MB"),
        "success_rate": (1.0 - run.failed / run.attempted, "ratio"),
    }
    return metrics, {"raw": raw, "scaled": scaled}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the spans and counters of a workload's commands."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    import_s = 0.0
    for trace in traces:
        import_s += trace["import_s"]
        for name, span in trace["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            for key, value in span.items():
                into[key] += value
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters, "import_s": import_s}


# Spans whose error counts are reported; every span the tracer installs.
SPANS = (
    "cli.main",
    "config.load_config",
    "harness.run_experiment",
    "harness.grid_point",
    "harness.counterexample_run",
    "harness.stats",
    "rng.uniforms",
    "model.sample",
    "kernels.fit_batch",
    "kernels.decompose_batch",
    "design.generate",
    "design.summarize",
    "asymptotics.diagnostics_report",
    "asymptotics.lindeberg_sum",
    "cli.write",
)

# Counters that must repeat exactly across traced repetitions.
COUNTERS = (
    "rng.uniforms.calls",
    "rng.uniforms.draws",
    "model.sample.draws",
    "kernels.fit_batch.rows",
    "kernels.fit_batch.bytes_in",
    "kernels.decompose_batch.rows",
    "kernels.decompose_batch.bytes_in",
    "harness.replicates_simulated",
    "harness.replicates_distinct",
    "harness.skipped",
    "asymptotics.lindeberg_sum.calls",
    "asymptotics.lindeberg_sum.draws",
    "cli.bytes_written",
)

COUNTER_UNITS = {"bytes_in": "computed_B", "bytes_written": "B"}

# Exact per-layer values: counters and the metrics derived only from them.
EXACT = (
    *COUNTERS,
    *(f"{name}.errors" for name in SPANS),
    "harness.grid_point.count",
    "harness.useful_ratio",
)


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition."""
    spans, counters = trace["spans"], trace["counters"]

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def per(numerator: float, denominator: float, scale: float) -> float:
        return numerator / denominator * scale if denominator else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in COUNTERS:
        unit = COUNTER_UNITS.get(name.rsplit(".", 1)[-1], "count")
        out[name] = (counters.get(name, 0), unit)
    for name in SPANS:
        out[f"{name}.errors"] = (spans.get(name, {}).get("errors", 0), "count")
    for name in (
        "rng.uniforms",
        "model.sample",
        "kernels.fit_batch",
        "kernels.decompose_batch",
        "harness.run_experiment",
        "harness.grid_point",
        "harness.stats",
        "design.generate",
        "design.summarize",
        "asymptotics.diagnostics_report",
        "asymptotics.lindeberg_sum",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["rng.us_per_stream"] = (
        per(self_s("rng.uniforms"), counters.get("rng.uniforms.calls", 0), 1e6), "us"
    )
    out["model.sample.ns_per_draw"] = (
        per(self_s("model.sample"), counters.get("model.sample.draws", 0), 1e9), "ns"
    )
    out["harness.grid_point.count"] = (spans.get("harness.grid_point", {}).get("calls", 0), "count")
    out["harness.useful_ratio"] = (
        per(counters.get("harness.replicates_distinct", 0),
            counters.get("harness.replicates_simulated", 0), 1.0),
        "ratio",
    )
    out["harness.counterexample_run.s"] = (
        spans.get("harness.counterexample_run", {}).get("total_s", 0.0), "s"
    )
    out["config.load_config_s"] = (
        spans.get("config.load_config", {}).get("total_s", 0.0), "s"
    )
    out["cli.import_s"] = (trace["import_s"], "s")
    out["cli.write_s"] = (self_s("cli.write"), "s")
    out["trace.unattributed_s"] = (self_s("cli.main"), "s")
    return out


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_ITERATIONS or time.perf_counter() < deadline:
        untraced.append(sum(i.wall_s for i in run.iteration()))
        traced.append(sum(i.wall_s for i in run.iteration(traced=True)))
        traces = run.read_traces()
        if traces is not None:
            layers.append(layer_metrics(merge_traces(traces)))
    run.worker_check()
    if not layers:
        raise SystemExit(f"no traced repetition completed: {run.problems}")
    first = {name: layers[0][name][0] for name in EXACT}
    for index, sample in enumerate(layers[1:], start=2):
        changed = sorted(n for n in EXACT if sample[n][0] != first[n])
        if changed:
            run.problems.append(f"traced repetition {index}: counters changed: {changed}")
    metrics = {
        name: (
            first[name] if name in EXACT else median([s[name][0] for s in layers]),
            unit,
        )
        for name, (_, unit) in layers[0].items()
    }
    # Fastest repetitions, as for wall_s.
    metrics["trace.overhead_s"] = (min(traced) - min(untraced), "s")
    raw = {"untraced_wall_s": untraced, "traced_wall_s": traced, "layers": layers}
    return metrics, raw


def machine_record() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    def cache_bytes(name: str) -> int | None:
        try:
            return os.sysconf(name) or None
        except (ValueError, OSError):
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2_bytes": cache_bytes("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache_bytes("SC_LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_imports": numba_imports,
    }


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  smoke: bool = False) -> dict:
    run = Run(workload, seed, smoke=smoke)
    measure = measure_layers if trace else measure_end_to_end
    metrics, raw = measure(run, seconds)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "seed": seed, "trace": trace, "problems": run.problems,
              "raw": raw, "result": result}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "evclt" / "cli.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"error: not an evclt checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
