#!/usr/bin/env python3
"""Alternating before/after pairs of the perfbench workloads, written to a
committed ``BENCH_<slug>.json``.

    python3 benchmarks/pairs.py --base REV [--head REV] --slug SLUG \\
        [--workload NAME ...] [--pairs K]

Run from anywhere inside the repository. Each side is exported into a fresh
temporary directory (under ``TMPDIR``): ``git archive REV`` for a revision,
and the tracked plus untracked (not ignored) files of the working tree when
``--head`` is omitted, so both run from their exported files alone and no
worktree is registered in ``.git``. Pair i runs ``perfbench/run.py --trace 0
--seed i`` on both sides, base first in even pairs and head first in odd
ones, so that drift of a shared machine falls on both sides alike. Every run
lasts the ``run_seconds`` of ``BENCHMARK.json``.

For every end-to-end metric of ``BENCHMARK.json`` the file records the
per-pair values, each side's median and quartiles, the number of pairs the
head wins, and the gap between the medians against the base's
interquartile range (the gap is signed so that positive means better). One
``--trace 1`` run per side and workload records the per-layer metrics of
both.

A revision is recorded by its commit id. A working-tree head is recorded by
its base commit and ``tree_digest``: the sha256 over the path and bytes of
every exported file except Markdown documents and
``benchmarks/BENCH_*.json``, which do not change what is measured. Print it
for the current working tree (a checkout of the commit that holds the
record, say) with

    python3 benchmarks/pairs.py --digest
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def _git(*args: str, binary: bool = False):
    out = subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout
    return out if binary else out.decode().strip()


def working_tree_files() -> list[str]:
    """Tracked plus untracked (not ignored) files of the working tree."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", binary=True)
    return [name for name in listed.decode().split("\0") if name and (ROOT / name).is_file()]


def tree_digest(root: Path, names: list[str]) -> str:
    """sha256 over the path and bytes of the files ``names`` under ``root``,
    except Markdown documents and ``benchmarks/BENCH_*.json``."""
    digest = hashlib.sha256()
    for name in sorted(names):
        if name.endswith(".md") or (
            name.startswith("benchmarks/BENCH_") and name.endswith(".json")
        ):
            continue
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256((root / name).read_bytes()).digest())
    return digest.hexdigest()


def export(rev: str | None, dest: Path) -> str:
    """Write the files of ``rev`` (the working tree when None) under
    ``dest``; returns an identifier of what was exported."""
    dest.mkdir(parents=True)
    if rev is not None:
        archive = _git("archive", "--format=tar", rev, binary=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
        return _git("rev-parse", rev)
    names = working_tree_files()
    for name in names:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)
    return f"working tree on {_git('rev-parse', 'HEAD')}, tree_digest {tree_digest(dest, names)}"


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """(machine record, result) of one perfbench run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"perfbench failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr}"
        )
    return json.loads(lines[-2].removeprefix("machine: ")), json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize_pairs(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' spread, the head's wins, and the median gap
    against the base's interquartile range."""
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        spread = {side: _spread(values[side]) for side in SIDES}
        gap = sign * (spread["base"]["median"] - spread["head"]["median"])
        iqr = spread["base"]["q3"] - spread["base"]["q1"]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **spread,
            "head_wins": sum(sign * (b - h) > 0 for b, h in zip(values["base"], values["head"])),
            "pairs": len(pairs),
            "median_gap": gap,
            "relative_gap": gap / spread["base"]["median"] if spread["base"]["median"] else None,
            "base_iqr": iqr,
            "gap_exceeds_base_iqr": gap > iqr,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision measured as the parent")
    parser.add_argument("--head", help="revision measured as the change (default: working tree)")
    parser.add_argument("--slug", help="names the output BENCH_<slug>.json")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--digest", action="store_true",
                        help="print the working tree's tree_digest and exit")
    args = parser.parse_args()
    if args.digest:
        print(tree_digest(ROOT, working_tree_files()))
        return 0
    if args.base is None or args.slug is None:
        parser.error("--base and --slug are required")

    workdir = Path(tempfile.mkdtemp(prefix="evclt-pairs-"))
    try:
        checkouts = {side: workdir / side for side in SIDES}
        revisions = {side: export(rev, checkouts[side])
                     for side, rev in zip(SIDES, (args.base, args.head))}
        config = json.loads((checkouts["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = config["run_seconds"]
        workloads = args.workload or [w["name"] for w in config["workloads"]]
        machine = None
        results: dict[str, dict] = {}
        for workload in workloads:
            pairs = []
            for index in range(args.pairs):
                seed = index + 1
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    machine, pair[side] = run_perfbench(
                        checkouts[side], workload, seed, seconds, trace=0
                    )
                pairs.append(pair)
                print(f"{workload} pair {index + 1}/{args.pairs}: " + ", ".join(
                    f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.3f}"
                    for side in SIDES), file=sys.stderr)
            layers = {side: run_perfbench(checkouts[side], workload, 1, seconds, trace=1)[1]
                      ["metrics"] for side in SIDES}
            results[workload] = {
                "summary": summarize_pairs(pairs, config["end_to_end"]),
                "pairs": pairs,
                "trace": {
                    name: {side: layers[side].get(name, {}).get("value") for side in SIDES}
                    for name in sorted(set(layers["base"]) | set(layers["head"]))
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "slug": args.slug,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "base": revisions["base"],
        "head": revisions["head"],
        "machine": machine,
        "seconds_per_run": seconds,
        "workloads": results,
    }
    out = ROOT / "benchmarks" / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, result in results.items():
        wall = result["summary"]["wall_s"]
        print(f"{workload}: wall_s median {wall['base']['median']:.3f} -> "
              f"{wall['head']['median']:.3f}, head wins {wall['head_wins']}/{wall['pairs']}, "
              f"gap exceeds base IQR: {wall['gap_exceeds_base_iqr']}")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
