"""The benchmark's workloads: evclt configs derived from the shipped ones.

Each workload names a shipped config under ``configs/``, the overrides that
size it, and the CLI commands that run on it. The workload seed becomes the
config's master seed (and the design seed, for random designs); nothing else
depends on it, so two seeds give inputs of the same size and shape.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_config: str
    overrides: dict
    # Each command is an evclt subcommand plus its flags; --config and --out
    # are added by the runner.
    commands: tuple[tuple[str, ...], ...]
    # Smaller overrides for the benchmark's own tests.
    smoke: dict = field(default_factory=dict)
    # A command whose report.json must equal the first command's (A8: reports
    # do not depend on the worker count); run once per benchmark invocation.
    worker_check: tuple[str, ...] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clt-replicates",
            why=(
                "many replicates of medium rows: the per-replicate fixed cost "
                "(keyed stream setup, ndtri, the Python row loop) dominates; "
                "plain single-threaded baseline"
            ),
            base_config="theta-clt-alternating.yaml",
            overrides={
                "grid": [500, 2000],
                "replicates": 5000,
                "tests": ["beta-clt", "theta-clt", "coverage"],
                "variance_source": "true",
            },
            commands=(("simulate", "--workers", "1"),),
            smoke={"grid": [200, 400], "replicates": 200},
        ),
        Workload(
            name="latents-heavy-tail",
            why=(
                "the only workload that keeps latents and reads the plug-in "
                "variance, on long rows: decompose_batch, the residual pass, "
                "stdtrit and chunk memory"
            ),
            base_config="diagnose-linear.yaml",
            overrides={
                "grid": [1000, 10000, 50000],
                "replicates": 64,
                "tests": ["negligibility"],
                "variance_source": "plug-in",
                "model": {
                    "eps": {"family": "student-t", "scale": 1.0, "df": 6},
                    "delta": {"family": "normal", "scale": 1.0},
                },
            },
            commands=(("simulate", "--workers", "1"),),
            smoke={"grid": [200, 2000], "replicates": 16},
        ),
        Workload(
            name="counterexample-iid",
            why=(
                "the only path that simulates every (n, replicate) twice "
                "(run_experiment, then counterexample_run) and the only one "
                "that runs the worker pool"
            ),
            base_config="counterexample-gaussian.yaml",
            overrides={"replicates": 2000},
            commands=(("simulate", "--workers", "2"),),
            smoke={"grid": [200, 400], "replicates": 200},
            worker_check=("simulate", "--workers", "1"),
        ),
        Workload(
            name="diagnose-lindeberg",
            why=(
                "set-up dominated: two interpreters, asymptotics, and the "
                "scipy.stats/scipy.integrate student-t moments in Petrov"
            ),
            base_config="diagnose-linear.yaml",
            overrides={
                "model": {"delta": {"family": "student-t", "scale": 1.0, "df": 6}},
                "lindeberg": {"method": "monte-carlo", "mc_budget": 100000},
            },
            commands=(("diagnose",), ("lindeberg",)),
            smoke={"grid": [50, 100, 200, 500, 1000], "lindeberg": {"mc_budget": 2000}},
        ),
    )
}


def _merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def make_config(workload: Workload, seed: int, configs_dir: Path, smoke: bool = False) -> dict:
    """The workload's config for ``seed``, as a plain mapping."""
    base = yaml.safe_load((configs_dir / workload.base_config).read_text(encoding="utf-8"))
    config = _merge(base, workload.overrides)
    if smoke:
        config = _merge(config, workload.smoke)
    config["seed"] = int(seed)
    if config["design"]["kind"] == "gaussian-iid":
        config["design"]["seed"] = int(seed)
    return config


def write_config(config: dict, path: Path) -> Path:
    """Write ``config`` as JSON, which the YAML loader reads unchanged."""
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path
