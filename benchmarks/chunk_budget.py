#!/usr/bin/env python3
"""Sweep of the replicate chunk budget ``harness.CHUNK_BYTES`` on the three
simulate workloads, written to ``benchmarks/BENCH_chunk-budget.json``.

    python3 benchmarks/chunk_budget.py [--rounds 5] [--seed 1] [--out PATH]

Each measurement is a fresh interpreter that imports ``evclt.cli`` (so it
starts as the CLI does), sets ``CHUNK_BYTES`` and runs ``run_experiment``
on the workload's config from ``perfbench/workloads.py`` with the workload's
``--workers``. It reports the process CPU seconds of every grid point
(``harness._simulate_grid_point``, all threads), the process's peak
``ru_maxrss`` and the sha256 of ``report.json``. The budgets run in
alternating order in each round, so that drift of a shared machine falls on
all of them alike; the file records per budget the median CPU seconds of
each grid point and of their sum, the median peak RSS, and the digests seen.
Every budget must give the same digest: reports do not depend on chunking.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, make_config, write_config  # noqa: E402

BUDGETS_KIB = (128, 256, 512, 1024, 2048)
SIMULATE_WORKLOADS = ("clt-replicates", "latents-heavy-tail", "counterexample-iid")

# Runs in the child interpreter: argv is the config path, the budget in
# bytes and the worker count.
CHILD = """
import hashlib, json, resource, sys, time
import evclt.cli
from evclt import harness
from evclt.config import load_config

config_path, budget, workers = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
harness.CHUNK_BYTES = budget
simulate = harness._simulate_grid_point
grid_cpu_s = []

def timed(**kwargs):
    start = time.process_time()
    stats = simulate(**kwargs)
    grid_cpu_s.append(time.process_time() - start)
    return stats

harness._simulate_grid_point = timed
report, _ = harness.run_experiment(load_config(config_path).experiment, workers=workers)
print(json.dumps({
    "grid_cpu_s": grid_cpu_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "digest": hashlib.sha256(harness.report_json_bytes(report)).hexdigest(),
}))
"""


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def workers_of(workload) -> int:
    (command,) = workload.commands
    return int(command[command.index("--workers") + 1])


def measure(config_path: Path, budget: int, workers: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(config_path), str(budget), str(workers)],
        check=True,
        capture_output=True,
        env=env,
        text=True,
    ).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--out", type=Path, default=ROOT / "benchmarks" / "BENCH_chunk-budget.json"
    )
    args = parser.parse_args()

    workloads = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SIMULATE_WORKLOADS:
            workload = WORKLOADS[name]
            config = make_config(workload, args.seed, ROOT / "configs")
            config_path = write_config(config, Path(tmp) / f"{name}.json")
            runs: dict[int, list[dict]] = {kib: [] for kib in BUDGETS_KIB}
            for r in range(args.rounds):
                for kib in BUDGETS_KIB if r % 2 == 0 else reversed(BUDGETS_KIB):
                    runs[kib].append(measure(config_path, kib << 10, workers_of(workload)))
            budgets = []
            for kib, measured in runs.items():
                per_point = list(zip(*(run["grid_cpu_s"] for run in measured)))
                row = {
                    "budget_kib": kib,
                    "grid_point_cpu_s": [round(statistics.median(p), 4) for p in per_point],
                    "cpu_s": round(statistics.median(sum(run["grid_cpu_s"]) for run in measured), 4),
                    "peak_rss_mb": round(statistics.median(run["peak_rss_mb"] for run in measured), 2),
                    "digests": sorted({run["digest"] for run in measured}),
                }
                budgets.append(row)
                print(name, json.dumps(row), flush=True)
            digests = {d for row in budgets for d in row["digests"]}
            if len(digests) != 1:
                raise SystemExit(f"{name}: report digests differ across budgets: {sorted(digests)}")
            workloads[name] = {
                "grid": config["grid"],
                "replicates": config["replicates"],
                "workers": workers_of(workload),
                "digest": digests.pop(),
                "budgets": budgets,
            }

    record = {
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_record(),
        "rounds": args.rounds,
        "seed": args.seed,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
