"""Command-line frontend.

Subcommands::

    evclt diagnose  --config cfg.yaml --out DIR
    evclt simulate  --config cfg.yaml --out DIR [--workers N] [--emit-samples]
    evclt lindeberg --config cfg.yaml --out DIR

Exit codes: 0 all requested tests pass, 1 a test failed, 2 usage or config
error, or a file that cannot be read or written (an ``--out`` that is an
existing file, say). Every setting, the seed included, comes from the
config file alone, so re-running a command with the same config overwrites
byte-identical outputs; the only timestamp lives in manifest.json.

Each command writes manifest.json and one JSON report into ``--out``. Each
CSV table is a column projection of records that the JSON report already
holds, except design.csv and the ``--emit-samples`` tables, which hold the
design values and the standardized samples. ``_write_csv`` writes every
table: floats as their ``repr``, None as an empty cell.

The process runs only the threads ``--workers`` asks for: it sets
OPENBLAS_NUM_THREADS=1 unless the variable is already set.

Once numpy, scipy and evclt are loaded, the cyclic garbage collector
tracks about 42 000 objects that live until exit. It would run some 90
collections while they load and walk all of them again at interpreter exit,
and find next to no garbage. So the collector is paused over the imports
below, and what is alive after them is frozen (``gc.freeze``) into its
permanent generation, which no later collection walks. Objects a command
creates are collected as before; a collector disabled before the import
stays disabled.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import gc
import os
import sys
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

# evclt calls no BLAS routine; its only parallelism is the replicate worker
# pool. numpy and scipy would each start an idle OpenBLAS thread pool at
# import, so ask for one thread before the imports below load them. A value
# the user set still wins, and ``import evclt`` alone changes nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The imported modules live until exit: collect nothing while they load, and
# keep every later collection, exit's included, from walking them (see the
# module docstring). ``import evclt`` alone leaves the collector untouched.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from . import __version__  # noqa: E402
    from .asymptotics import diagnostics_report, lindeberg_sum  # noqa: E402
    from .config import AppConfig, config_hash, load_config  # noqa: E402
    from .design import DesignSequence  # noqa: E402
    from .errors import EvcltError  # noqa: E402
    from .harness import (  # noqa: E402
        counterexample_run,  # noqa: F401  (perfbench/tracer.py patches cli.counterexample_run)
        report_json_bytes,
        run_experiment,
    )
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()


def _write_json(path: Path, payload: dict) -> None:
    path.write_bytes(report_json_bytes(payload))


def _write_csv(path: Path, columns: Sequence[str], records: Iterable[Mapping]) -> None:
    """One row per record: ``record[c]`` for each column, floats as their repr
    and None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in records:
            writer.writerow(
                [
                    "" if v is None else repr(float(v)) if isinstance(v, float) else v
                    for v in (record[c] for c in columns)
                ]
            )


def _write_manifest(args, config: AppConfig) -> Path:
    """Make the output directory, write manifest.json into it and return it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "manifest.json",
        {
            "command": args.command,
            "config_path": str(args.config),
            "config_sha256": config_hash(config),
            "tool_version": __version__,
            "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "out_dir": str(out),
        },
    )
    return out


def _path_records(paths: Mapping[str, dict]):
    """One record per (condition, grid point) of the condition paths."""
    for name, path in paths.items():
        for n, value in zip(path["n_grid"], path["values"]):
            yield {**path, "condition": name, "n": n, "value": value}


def _hierarchy_records(h: dict):
    """One record per grid point of the hierarchy ratios."""
    for n, a, b, c in zip(
        h["n_grid"], h["n_over_root_s"], h["root_s_over_maxdev_sq"], h["maxdev_sq_over_s"]
    ):
        yield {
            "n": n,
            "n_over_root_s": a,
            "root_s_over_maxdev_sq": b,
            "maxdev_sq_over_s": c,
            "flagged": h["flagged"],
        }


def export_design_csv(design: DesignSequence, n: int, path: Path) -> None:
    """Write the design's first n values as (index, x) rows for audit."""
    x = design.generate(n).tolist()
    _write_csv(path, ("index", "x"), ({"index": i, "x": v} for i, v in enumerate(x, start=1)))


_COUNTEREXAMPLE_COLUMNS = (
    "n",
    "mean_beta_hat",
    "var_beta_hat",
    "attenuation_target",
    "ks_distance_z_beta",
    "normality_refuted",
    "pass",
)


def _write_counterexample_csv(out: Path, entries: list[dict]) -> None:
    _write_csv(out / "counterexample.csv", _COUNTEREXAMPLE_COLUMNS, entries)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_diagnose(args, config: AppConfig) -> int:
    experiment = config.experiment
    report = diagnostics_report(experiment.design, experiment.model, experiment.n_grid)
    out = _write_manifest(args, config)
    _write_json(out / "diagnostics.json", report)
    _write_csv(
        out / "conditions.csv",
        ("condition", "n", "value", "target", "verdict"),
        _path_records(report["conditions"]),
    )
    _write_csv(
        out / "hierarchy.csv",
        ("n", "n_over_root_s", "root_s_over_maxdev_sq", "maxdev_sq_over_s", "flagged"),
        _hierarchy_records(report["hierarchy"]),
    )
    petrov = {name: report["petrov"][name] for name in ("petrov-i", "petrov-ii", "petrov-iii")}
    _write_csv(out / "petrov.csv", ("condition", "n", "value", "verdict"), _path_records(petrov))
    export_design_csv(experiment.design, experiment.n_grid[-1], out / "design.csv")

    print(f"{'condition':<20} {'verdict':<18} final value")
    for name, path in {**report["conditions"], **petrov}.items():
        print(f"{name:<20} {path['verdict']:<18} {path['values'][-1]:.6g}")
    return 0


def _cmd_simulate(args, config: AppConfig) -> int:
    experiment = config.experiment
    report, samples = run_experiment(
        experiment, workers=args.workers, collect_samples=args.emit_samples
    )
    out = _write_manifest(args, config)
    _write_json(out / "report.json", report)

    grid = report["grid"]
    _write_csv(
        out / "normality.csv",
        ("n", "statistic", "ks_distance", "ks_threshold", "mean", "variance", "pass"),
        (res for entry in grid for res in entry["normality"].values()),
    )
    if "coverage" in experiment.tests:
        _write_csv(
            out / "coverage.csv",
            ("n", "statistic", "nominal", "empirical", "stderr", "pass"),
            (
                {**res, "statistic": res["half_width_basis"]}
                for entry in grid
                for res in entry["coverage"].values()
            ),
        )
    if "negligibility" in experiment.tests:
        _write_csv(
            out / "negligibility.csv",
            ("n", "median_delta_sq", "median_delta_eps", "median_sxx_gap"),
            ({"n": entry["n"], **entry["negligibility"]} for entry in grid),
        )
    if "counterexample" in report:
        _write_counterexample_csv(out, report["counterexample"])
    if samples is not None:
        samples_dir = out / "samples"
        samples_dir.mkdir(exist_ok=True)
        for stat, by_n in samples.items():
            for n, values in by_n.items():
                _write_csv(samples_dir / f"{stat}_n{n}.csv", ("z",), ({"z": z} for z in values))

    for test, ok in report["tests"].items():
        print(f"{test}: {'pass' if ok else 'FAIL'}")
    print(f"overall: {'pass' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def _cmd_lindeberg(args, config: AppConfig) -> int:
    experiment = config.experiment
    reports = lindeberg_sum(
        experiment.design, experiment.n_grid, experiment.model, config.lindeberg, experiment.seed
    )
    out = _write_manifest(args, config)
    _write_json(out / "lindeberg.json", {"reports": reports})
    _write_csv(
        out / "lindeberg.csv", ("n", "r", "sum_value", "method", "stderr", "unreached"), reports
    )
    for r in reports:
        extra = f" stderr={r['stderr']:.3g}" if r["stderr"] is not None else ""
        if r["unreached"]:
            extra += ", no draw reached"
        print(f"n={r['n']} r={r['r']}: sum={r['sum_value']:.6g} ({r['method']}{extra})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "diagnose": _cmd_diagnose,
    "simulate": _cmd_simulate,
    "lindeberg": _cmd_lindeberg,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evclt",
        description="Errors-in-variables LS estimator diagnostics and Monte Carlo verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("diagnose", "evaluate asymptotic conditions along the n grid"),
        ("simulate", "run the Monte Carlo tests, the counterexample among them"),
        ("lindeberg", "evaluate the truncated-second-moment sums"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the YAML config file")
        cmd.add_argument("--out", default="evclt-out", help="output directory")
        if name == "simulate":
            cmd.add_argument("--workers", type=int, default=1, help="replicate worker threads")
            cmd.add_argument(
                "--emit-samples",
                action="store_true",
                help="write per-grid-point standardized samples as CSV",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, load_config(args.config))
    except (EvcltError, OSError) as exc:  # OSError: an unusable --out, say
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
