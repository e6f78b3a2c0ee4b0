import textwrap
from pathlib import Path

import pytest
import yaml

from evclt import config as config_module
from evclt.cli import main
from evclt.config import DEFAULT_N_GRID, config_hash, load_config, parse_config
from evclt.errors import ConfigError
from evclt.harness import DEFAULTS

from test_harness import _count_grid_points

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = {
    "design": {"kind": "linear"},
    "model": {
        "theta": 1.0,
        "beta": 2.0,
        "eps": {"family": "normal", "scale": 1.0},
        "delta": {"family": "normal", "scale": 1.0},
    },
}


def _write(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_minimal_config_gets_defaults(tmp_path):
    config = load_config(_write(tmp_path, MINIMAL))
    assert config.experiment.n_grid == DEFAULT_N_GRID
    assert config.experiment.tests == ("beta-clt",)
    assert config.experiment.variance_source == "true"
    assert config.experiment.seed == 0
    assert config.experiment.replicates == 1000
    assert config.lindeberg.r_grid == (0.1, 0.5, 1.0)
    # the fixed thresholds are recorded next to every report's verdicts
    assert config.experiment.to_dict()["defaults"] == DEFAULTS.to_dict()


def test_full_config_round_trip(tmp_path):
    data = dict(
        MINIMAL,
        seed=42,
        grid=[100, 200, 400],
        replicates=500,
        variance_source="plug-in",
        tests=["beta-clt", "coverage"],
        lindeberg={"r_grid": [0.5], "method": "monte-carlo", "mc_budget": 10_000},
    )
    config = load_config(_write(tmp_path, data))
    assert config.experiment.seed == 42
    assert config.experiment.n_grid == (100, 200, 400)
    assert config.experiment.variance_source == "plug-in"
    assert config.experiment.tests == ("beta-clt", "coverage")
    assert config.lindeberg.r_grid == (0.5,)
    assert config.lindeberg.method == "monte-carlo"
    assert config.lindeberg.mc_budget == 10_000
    assert config.experiment.replicates == 500


def test_yaml_bare_true_variance_source(tmp_path):
    config = load_config(_write(tmp_path, dict(MINIMAL, variance_source=True)))
    assert config.experiment.variance_source == "true"


def test_config_hash_is_stable_and_seed_sensitive(tmp_path):
    config = load_config(_write(tmp_path, MINIMAL))
    assert config_hash(config) == config_hash(config)
    assert config_hash(config.with_seed(1)) != config_hash(config.with_seed(2))


# The canonical form is what manifest.json's config_sha256 is computed from;
# these are the hashes of the shipped configs, which must not drift.
SHIPPED_CONFIG_HASHES = {
    "counterexample-gaussian.yaml": "be59a245641a4789e18c934781224ef115b39be7125a2393e59b83477388ff67",
    "diagnose-linear.yaml": "4669662d518bb982b55c9c031227f78c30b702a1eb2776844d0b04e64ea5b88b",
    "theta-clt-alternating.yaml": "7566209e85a790cf008c77b4529bdb7ae5deb37259e41ebc4bfa0e15682e31b2",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_HASHES))
def test_shipped_config_hashes_are_pinned(name):
    config = load_config(CONFIGS / name)
    assert config_hash(config) == SHIPPED_CONFIG_HASHES[name]


def test_student_t_df_passthrough(tmp_path):
    data = dict(MINIMAL)
    data["model"] = dict(data["model"], eps={"family": "student-t", "scale": 1.0, "df": 6})
    config = load_config(_write(tmp_path, data))
    assert config.experiment.model.eps_dist.df == 6.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(grdi=[1, 2]),
        lambda d: d["model"].update(gamma=1.0),
        lambda d: d.update(tests=["z-test"]),
        lambda d: d.update(variance_source="estimated"),
        lambda d: d.update(grid=[100, 50]),
        lambda d: d.update(lindeberg={"r_grid": [0.0]}),
        lambda d: d.update(diagnose={"conditions": ["c99"]}),
        lambda d: d.pop("model"),
    ],
)
def test_invalid_configs_rejected(tmp_path, mutate):
    data = {"design": dict(MINIMAL["design"]), "model": dict(MINIMAL["model"])}
    mutate(data)
    with pytest.raises(ConfigError):
        parse_config(data)


@pytest.mark.parametrize(
    "section, mutate",
    [
        ("grid", lambda d: d.update(grid=["abc"])),
        ("grid", lambda d: d.update(grid=5)),
        ("grid", lambda d: d.update(grid=[100.5, 200])),
        ("grid", lambda d: d.update(grid=[float("inf")])),
        ("tests", lambda d: d.update(tests=5)),
        ("replicates", lambda d: d.update(replicates="many")),
        ("replicates", lambda d: d.update(replicates=[1])),
        ("replicates", lambda d: d.update(replicates=float("inf"))),
        ("replicates", lambda d: d.update(replicates=150.7)),
        ("replicates", lambda d: d.update(replicates=True)),
        ("seed", lambda d: d.update(seed=1.5)),
        ("design", lambda d: d["design"].update(seed=0.5)),
        ("model", lambda d: d["model"].update(theta="x")),
        ("design", lambda d: d["design"].update(params={"slope": "abc"})),
        ("lindeberg", lambda d: d.update(lindeberg={"mc_budget": "lots"})),
        ("lindeberg", lambda d: d.update(lindeberg={"mc_budget": 1500.9})),
        ("diagnose", lambda d: d.update(diagnose={"hierarchy": "no"})),
        ("diagnose", lambda d: d.update(diagnose={"petrov": 1})),
        ("model", lambda d: d["model"].update(theta=True)),
        ("model", lambda d: d["model"].update(beta="2.5")),
        ("model", lambda d: d["model"].update(eps={"family": "normal", "scale": "1"})),
        ("model", lambda d: d["model"].update(eps={"family": "student-t", "scale": 1.0, "df": "6"})),
        ("model", lambda d: d["model"].update(alpha="1")),
        ("design", lambda d: d["design"].update(params={"slope": "2"})),
        ("lindeberg", lambda d: d.update(lindeberg={"r_grid": ["0.5"]})),
        ("lindeberg", lambda d: d.update(lindeberg={"r_grid": [float("inf")]})),
        ("grid", lambda d: d.update(grid=["50", 100])),
        ("replicates", lambda d: d.update(replicates="150")),
        ("seed", lambda d: d.update(seed="7")),
    ],
    ids=[
        "grid-string",
        "grid-scalar",
        "grid-fraction",
        "grid-inf",
        "tests-scalar",
        "replicates-string",
        "replicates-list",
        "replicates-inf",
        "replicates-fraction",
        "replicates-bool",
        "seed-fraction",
        "design-seed-fraction",
        "model-theta",
        "design-param",
        "lindeberg-budget",
        "lindeberg-budget-fraction",
        "diagnose-hierarchy-string",
        "diagnose-petrov-int",
        "model-theta-bool",
        "model-beta-string",
        "model-eps-scale-string",
        "model-eps-df-string",
        "model-alpha-string",
        "design-param-string",
        "lindeberg-r-string",
        "lindeberg-r-inf",
        "grid-quoted-entry",
        "replicates-quoted",
        "seed-quoted",
    ],
)
def test_wrong_value_types_are_config_errors_naming_the_section(tmp_path, section, mutate):
    data = {"design": dict(MINIMAL["design"]), "model": dict(MINIMAL["model"])}
    mutate(data)
    with pytest.raises(ConfigError, match=section):
        parse_config(data)
    path = _write(tmp_path, data)
    assert main(["diagnose", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


# The former ``defaults:`` section: every key it accepted, and an empty one.
FORMER_DEFAULTS = [
    {},
    {"trend_tail_k": 0},
    {"trend_to_zero_threshold": 1.0},
    {"trend_to_infinity_threshold": 1.0},
    {"trend_plateau_rel_change": 1.0},
    {"ks_critical_coefficient": -1.0},
    {"ks_absolute_slack": 1.0},
    {"coverage_nominal": 1.5},
    {"coverage_slack": 1.0},
    {"counterexample_mean_tol": 1.0},
    {"counterexample_ks_min": 0.0},
    {"max_skip_fraction": 7.0},
    {"min_distributional_replicates": 2},
    {"identity_gap_max": 1.0},
]


def test_any_defaults_key_fails_before_simulation(tmp_path, monkeypatch):
    # The verdict thresholds are fixed: a ``defaults:`` section is an unknown
    # key, refused before any grid point is simulated or any file written.
    calls = _count_grid_points(monkeypatch)
    for i, defaults in enumerate(FORMER_DEFAULTS):
        data = dict(MINIMAL, grid=[200, 400], replicates=200, defaults=defaults)
        with pytest.raises(ConfigError, match="unknown keys in config: \\['defaults'\\]"):
            parse_config(data)
        path = _write(tmp_path, data, name=f"config{i}.yaml")
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
    assert calls == []


# The former ``diagnose:`` section: every key it accepted, and an empty one.
FORMER_DIAGNOSE = [
    {},
    {"conditions": ["c6"]},
    {"hierarchy": False},
    {"petrov": False},
]


def test_any_diagnose_key_fails_before_output(tmp_path):
    # ``evclt diagnose`` always writes the one full report: a ``diagnose:``
    # section is an unknown key, refused before any file is written.
    for i, section in enumerate(FORMER_DIAGNOSE):
        data = dict(MINIMAL, grid=[50, 100, 200], diagnose=section)
        with pytest.raises(ConfigError, match="unknown keys in config: \\['diagnose'\\]"):
            parse_config(data)
        path = _write(tmp_path, data, name=f"config{i}.yaml")
        out = tmp_path / f"out{i}"
        assert main(["diagnose", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(empty)
    bad = tmp_path / "bad.yaml"
    bad.write_text("design: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_docstring_schema_is_complete_and_loads():
    # README calls this block the complete schema; it must parse and use
    # every top-level key the loader accepts, and no other.
    doc = config_module.__doc__
    block = doc[doc.index(".. code-block:: yaml") :].split("\n\n")[1]
    data = yaml.safe_load(textwrap.dedent(block))
    config = parse_config(data)
    assert config.experiment.seed == 42
    assert set(data) == config_module._TOP_KEYS
