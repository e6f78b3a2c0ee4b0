"""Config-file schema and loading.

One YAML (or JSON) file drives every CLI command:

.. code-block:: yaml

    seed: 42                       # master seed; EVCLT_SEED overrides it
    design:
      kind: linear                 # linear | power | alternating | geometric
                                   # | bounded | gaussian-iid | constant
      params: {slope: 1.0}
      seed: 0                      # consumed only by gaussian-iid
    model:
      theta: 1.0
      beta: 2.0
      eps:   {family: normal, scale: 1.0}      # + df for student-t
      delta: {family: normal, scale: 1.0}
      alpha: 1.0
    grid: [50, 100, 200, 500, 1000, 2000, 5000, 10000]
    replicates: 5000
    variance_source: "true"        # "true" | "plug-in"; a bare true reads as "true"
    tests: [beta-clt]              # beta-clt | theta-clt | coverage
                                   # | negligibility | counterexample
    lindeberg:
      r_grid: [0.1, 0.5, 1.0]
      method: quadrature           # quadrature | monte-carlo
      mc_budget: 1000000

A file is valid for every command or for none: it is checked whole at
load, ``lindeberg`` and the Monte Carlo settings alike, so ``diagnose``
refuses ``replicates: -5`` as ``simulate`` does, and each command's first
step, the design summaries, refuses a grid whose dispersion overflows
float64. Unknown keys anywhere are rejected so typos cannot silently change
a run.
Counts (``seed``, ``replicates``, ``grid``, ``design.seed``,
``lindeberg.mc_budget``) must be whole numbers, the other numbers (model,
design parameters, ``lindeberg.r_grid``) finite ints or floats; nothing is
truncated or coerced, so a quoted number or a boolean is refused, save a
bare ``true`` as ``variance_source``, read as ``"true"``. The type that
stores a value checks it, once; a refusal names its section
(``model.eps: ...``). The verdict thresholds (KS budget, coverage, skip and
identity gates, trend rule) are fixed, not configured; ``report.json``
records the harness ones under ``config.defaults``. ``evclt diagnose``
always reports every condition, the scaling hierarchy and the Petrov
paths, so it has no section.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import yaml

from .asymptotics import check_lindeberg
from .design import DesignSequence
from .errors import ConfigError
from .harness import ExperimentConfig
from .model import ErrorDistribution, EVModelSpec

DEFAULT_N_GRID = (50, 100, 200, 500, 1000, 2000, 5000, 10000)


@dataclass(frozen=True)
class LindebergSection:
    r_grid: tuple[float, ...] = (0.1, 0.5, 1.0)
    method: str = "quadrature"
    mc_budget: int = 1_000_000

    def __post_init__(self) -> None:
        r_grid, mc_budget = check_lindeberg(self.r_grid, self.method, self.mc_budget)
        object.__setattr__(self, "r_grid", r_grid)
        object.__setattr__(self, "mc_budget", mc_budget)


@dataclass(frozen=True)
class AppConfig:
    """The run's ``ExperimentConfig``, which every command reads, and the
    ``lindeberg`` section."""

    experiment: ExperimentConfig
    lindeberg: LindebergSection

    def with_seed(self, seed: int) -> "AppConfig":
        return replace(self, experiment=replace(self.experiment, seed=int(seed)))

    def canonical(self) -> dict:
        """The fields under their config-file names; ``config_hash`` hashes it."""
        out = {**asdict(self.experiment), "lindeberg": asdict(self.lindeberg)}
        out["model"] = self.experiment.model.to_dict()
        out["grid"] = out.pop("n_grid")
        return out


def config_hash(config: AppConfig) -> str:
    payload = json.dumps(config.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], where: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(where: str, build, **fields):
    """``build(**fields)``, a model type that checks the values it stores; a
    ``ConfigError`` it raises is prefixed with the section path ``where``."""
    try:
        return build(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_design(node) -> DesignSequence:
    node = _require_mapping(node, "design")
    _check_keys(node, {"kind", "params", "seed"}, "design")
    if "kind" not in node:
        raise ConfigError("design.kind is required")
    return DesignSequence(
        kind=node["kind"],
        params=_require_mapping(node.get("params", {}), "design.params"),
        seed=node.get("seed", 0),
    )


def _parse_error_dist(node, where: str) -> ErrorDistribution:
    node = _require_mapping(node, where)
    _check_keys(node, {"family", "scale", "df"}, where)
    if "family" not in node or "scale" not in node:
        raise ConfigError(f"{where} needs family and scale")
    return _section(
        where, ErrorDistribution, family=node["family"], scale=node["scale"], df=node.get("df")
    )


def _parse_model(node) -> EVModelSpec:
    node = _require_mapping(node, "model")
    _check_keys(node, {"theta", "beta", "eps", "delta", "alpha"}, "model")
    for key in ("theta", "beta", "eps", "delta"):
        if key not in node:
            raise ConfigError(f"model.{key} is required")
    return _section(
        "model",
        EVModelSpec,
        theta=node["theta"],
        beta=node["beta"],
        eps_dist=_parse_error_dist(node["eps"], "model.eps"),
        delta_dist=_parse_error_dist(node["delta"], "model.delta"),
        alpha=node.get("alpha", 1.0),
    )


def _parse_lindeberg(node) -> LindebergSection:
    node = _require_mapping(node, "lindeberg")
    _check_keys(node, {"r_grid", "method", "mc_budget"}, "lindeberg")
    return LindebergSection(**node)


_TOP_KEYS = {
    "seed",
    "design",
    "model",
    "grid",
    "replicates",
    "variance_source",
    "tests",
    "lindeberg",
}


def parse_config(data: dict) -> AppConfig:
    data = _require_mapping(data, "config")
    _check_keys(data, _TOP_KEYS, "config")
    for key in ("design", "model"):
        if key not in data:
            raise ConfigError(f"config.{key} is required")
    variance_source = data.get("variance_source", "true")
    return AppConfig(
        experiment=ExperimentConfig(
            seed=data.get("seed", 0),
            design=_parse_design(data["design"]),
            model=_parse_model(data["model"]),
            n_grid=data.get("grid", DEFAULT_N_GRID),
            replicates=data.get("replicates", 1000),
            # an unquoted YAML `true` is read as the string
            variance_source="true" if variance_source is True else variance_source,
            tests=data.get("tests", ("beta-clt",)),
        ),
        lindeberg=_parse_lindeberg(data.get("lindeberg", {})),
    )


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if data is None:
        raise ConfigError(f"config file {path} is empty")
    return parse_config(data)
