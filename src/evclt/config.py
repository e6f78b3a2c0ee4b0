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
    variance_source: "true"        # "true" | "plug-in" (quote the former!)
    tests: [beta-clt]              # beta-clt | theta-clt | coverage
                                   # | negligibility | counterexample
    lindeberg:
      r_grid: [0.1, 0.5, 1.0]
      method: quadrature           # quadrature | monte-carlo
      mc_budget: 1000000

Unknown keys anywhere are rejected so typos cannot silently change a run.
Counts (``seed``, ``replicates``, ``grid``, ``design.seed``,
``lindeberg.mc_budget``) must be whole numbers, the other numbers (model,
design parameters, ``lindeberg.r_grid``) ints or floats; nothing is
truncated or coerced, so a quoted number or a boolean is refused. The
verdict thresholds (KS budget, coverage, skip and identity gates, trend
rule) are fixed, not configured; ``report.json`` records the harness ones
under ``config.defaults``. ``evclt diagnose`` always reports every
condition, the scaling hierarchy and the Petrov paths, so it has no section.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from .asymptotics import check_lindeberg
from .design import DesignSequence, check_grid, real_number, whole_number
from .errors import ConfigError
from .estimator import check_variance_source
from .harness import ExperimentConfig, check_tests
from .model import ErrorDistribution, EVModelSpec

DEFAULT_N_GRID = (50, 100, 200, 500, 1000, 2000, 5000, 10000)
DEFAULT_LINDEBERG_R_GRID = (0.1, 0.5, 1.0)


@dataclass(frozen=True)
class LindebergSection:
    r_grid: tuple[float, ...] = DEFAULT_LINDEBERG_R_GRID
    method: str = "quadrature"
    mc_budget: int = 1_000_000


@dataclass(frozen=True)
class AppConfig:
    seed: int
    design: DesignSequence
    model: EVModelSpec
    n_grid: tuple[int, ...]
    replicates: int
    variance_source: str
    tests: tuple[str, ...]
    lindeberg: LindebergSection = field(default_factory=LindebergSection)

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            design=self.design,
            model=self.model,
            n_grid=self.n_grid,
            replicates=self.replicates,
            seed=self.seed,
            variance_source=self.variance_source,
            tests=self.tests,
        )

    def with_seed(self, seed: int) -> "AppConfig":
        return replace(self, seed=int(seed))

    def canonical(self) -> dict:
        """The fields under their config-file names; ``config_hash`` hashes it."""
        out = asdict(self)
        out["model"] = self.model.to_dict()
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


def _parse_design(node) -> DesignSequence:
    node = _require_mapping(node, "design")
    _check_keys(node, {"kind", "params", "seed"}, "design")
    if "kind" not in node:
        raise ConfigError("design.kind is required")
    return DesignSequence(
        kind=str(node["kind"]),
        params=_require_mapping(node.get("params", {}), "design.params"),
        seed=node.get("seed", 0),
    )


def _parse_error_dist(node, where: str) -> ErrorDistribution:
    node = _require_mapping(node, where)
    _check_keys(node, {"family", "scale", "df"}, where)
    if "family" not in node or "scale" not in node:
        raise ConfigError(f"{where} needs family and scale")
    df = node.get("df")
    return ErrorDistribution(
        family=str(node["family"]),
        scale=real_number(node["scale"], f"{where}.scale"),
        df=real_number(df, f"{where}.df") if df is not None else None,
    )


def _parse_model(node) -> EVModelSpec:
    node = _require_mapping(node, "model")
    _check_keys(node, {"theta", "beta", "eps", "delta", "alpha"}, "model")
    for key in ("theta", "beta", "eps", "delta"):
        if key not in node:
            raise ConfigError(f"model.{key} is required")
    return EVModelSpec(
        theta=real_number(node["theta"], "model.theta"),
        beta=real_number(node["beta"], "model.beta"),
        eps_dist=_parse_error_dist(node["eps"], "model.eps"),
        delta_dist=_parse_error_dist(node["delta"], "model.delta"),
        alpha=real_number(node.get("alpha", 1.0), "model.alpha"),
    )


def _parse_variance_source(value) -> str:
    if value is True:  # unquoted YAML `true`
        return "true"
    return check_variance_source(value)


def _parse_lindeberg(node) -> LindebergSection:
    node = _require_mapping(node, "lindeberg")
    _check_keys(node, {"r_grid", "method", "mc_budget"}, "lindeberg")
    method = str(node.get("method", "quadrature"))
    r_grid, mc_budget = check_lindeberg(
        node.get("r_grid", DEFAULT_LINDEBERG_R_GRID), method, node.get("mc_budget", 1_000_000)
    )
    return LindebergSection(r_grid=r_grid, method=method, mc_budget=mc_budget)


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

    def parse(key: str, parser, default=None):
        """``parser`` applied to section ``key``; a value of the wrong type is
        a config error that names the section."""
        try:
            return parser(data.get(key, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config.{key} has a value of the wrong type: {exc}") from exc

    return AppConfig(
        seed=parse("seed", lambda v: whole_number(v, "config.seed"), 0),
        design=parse("design", _parse_design),
        model=parse("model", _parse_model),
        n_grid=parse("grid", check_grid, DEFAULT_N_GRID),
        replicates=parse("replicates", lambda v: whole_number(v, "config.replicates"), 1000),
        variance_source=parse("variance_source", _parse_variance_source, "true"),
        tests=parse("tests", check_tests, ("beta-clt",)),
        lindeberg=parse("lindeberg", _parse_lindeberg, {}),
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
