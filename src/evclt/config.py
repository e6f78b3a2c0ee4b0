"""Config-file schema and loading.

One YAML (or JSON) file drives every CLI command:

.. code-block:: yaml

    seed: 42                       # master seed
    design:
      kind: linear                 # linear | power | alternating | geometric
                                   # | bounded | gaussian-iid | constant
      params: {slope: 1.0}
      seed: 0                      # consumed only by gaussian-iid
    model:
      theta: 1.0
      beta: 2.0
      eps:   {family: normal, scale: 1.0, df: null}   # df: student-t only
      delta: {family: normal, scale: 1.0, df: null}
      alpha: 1.0
    grid: [50, 100, 200, 500, 1000, 2000, 5000, 10000]
    replicates: 5000
    variance_source: "true"        # "true" | "plug-in"; a bare true reads as "true"
    tests: [beta-clt]              # at least one of beta-clt | theta-clt | coverage
                                   # | negligibility | counterexample
    lindeberg:
      r_grid: [0.1, 0.5, 1.0]
      method: quadrature           # quadrature | monte-carlo
      mc_budget: 1000000

Each section is a dataclass, and its keys, required keys and defaults are
that type's fields: ``ExperimentConfig`` (the top level but ``lindeberg``),
``DesignSequence``, ``EVModelSpec``, ``ErrorDistribution`` and
``LindebergSection``, which lives in ``evclt.asymptotics`` beside
``lindeberg_sum``, its one reader, and is re-exported here. Every setting,
the seed included, comes from the file alone: no environment variable or
flag overrides one. The file names three fields differently: ``grid`` is
``n_grid``, ``eps`` and ``delta`` are ``eps_dist`` and ``delta_dist``. A
field without a default is a required key (``model.eps.family is
required``), a missing key takes the field's default, and an unknown key
anywhere is refused so that a typo cannot silently change a run.

A file is valid for every command or for none: it is checked whole at
load, ``lindeberg`` and the Monte Carlo settings alike, so ``diagnose``
refuses ``replicates: -5`` as ``simulate`` does, and each command's first
step, the design summaries, refuses a grid whose dispersion overflows
float64. Counts (``seed``, ``replicates``, ``grid``, ``design.seed``,
``lindeberg.mc_budget``) must be whole numbers, the other numbers (model,
design parameters, ``lindeberg.r_grid``) finite ints or floats, and
``grid``, ``tests`` and ``r_grid`` lists. Nothing is truncated or coerced:
a quoted number, a boolean, or a string or mapping in place of a list is
refused, save a bare ``true`` as ``variance_source``, read as ``"true"``.
The type that stores a value checks it, once; a refusal names its section
(``model.eps: ...``). The verdict thresholds (KS budget, coverage, skip and
identity gates, trend rule) are fixed, not configured; ``report.json``
records the harness ones under ``config.defaults``. ``evclt diagnose``
always reports every condition, the scaling hierarchy and the Petrov
paths, so it has no section.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, Field, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import yaml

from .asymptotics import LindebergSection
from .errors import ConfigError
from .harness import DEFAULT_N_GRID, ExperimentConfig  # noqa: F401  (re-exported)
from .model import ErrorDistribution, EVModelSpec


@dataclass(frozen=True)
class AppConfig:
    """The run's ``ExperimentConfig``, which every command reads, and the
    ``lindeberg`` section."""

    experiment: ExperimentConfig
    lindeberg: LindebergSection

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

# The config-file key of each field that is stored under another name.
_FILE_KEYS = {"n_grid": "grid", "eps_dist": "eps", "delta_dist": "delta"}
# The types whose refusals do not name their section; _build prefixes it.
_UNPATHED = (EVModelSpec, ErrorDistribution)


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _fields(cls) -> dict[str, Field]:
    """The fields of the dataclass ``cls`` by their config-file keys."""
    return {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}


def _build(cls, node, where: str):
    """``cls`` from the mapping ``node`` at the config path ``where``.

    The keys are the fields of ``cls``; a field without a default is a
    required key, a missing key takes the field's default, and a field whose
    type is a dataclass is built from its own mapping. ``cls`` checks the
    values it stores.
    """
    node = _require_mapping(node, where)
    keys = _fields(cls)
    unknown = set(node) - set(keys)
    if unknown:
        # sorted by type first: keys of two types (1 and "x") do not compare
        unknown = sorted(unknown, key=lambda key: (type(key).__name__, key))
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    for key, f in keys.items():
        if key not in node and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}.{key} is required")
    types = get_type_hints(cls)
    values = {
        f.name: (
            _build(types[f.name], node[key], f"{where}.{key}".removeprefix("config."))
            if is_dataclass(types[f.name])
            else node[key]
        )
        for key, f in keys.items()
        if key in node
    }
    try:
        return cls(**values)
    except ConfigError as exc:
        if cls not in _UNPATHED:
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(data: dict) -> AppConfig:
    data = dict(_require_mapping(data, "config"))
    lindeberg = data.pop("lindeberg", {})
    if data.get("variance_source") is True:  # an unquoted YAML `true`
        data["variance_source"] = "true"
    return AppConfig(
        experiment=_build(ExperimentConfig, data, "config"),
        lindeberg=_build(LindebergSection, lindeberg, "lindeberg"),
    )


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if data is None:
        raise ConfigError(f"config file {path} is empty")
    return parse_config(data)
