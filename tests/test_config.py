import textwrap
from pathlib import Path

import pytest
import yaml

from evclt import config as config_module
from evclt.cli import main
from evclt.config import DEFAULT_N_GRID, config_hash, load_config, parse_config
from evclt.errors import ConfigError

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
    assert config.n_grid == DEFAULT_N_GRID
    assert config.tests == ("beta-clt",)
    assert config.variance_source == "true"
    assert config.trend_rule.tail_k == 5
    assert config.harness.ks_critical_coefficient == 1.36
    assert config.lindeberg.r_grid == (0.1, 0.5, 1.0)


def test_full_config_round_trip(tmp_path):
    data = dict(
        MINIMAL,
        seed=42,
        grid=[100, 200, 400],
        replicates=500,
        variance_source="plug-in",
        tests=["beta-clt", "coverage"],
        defaults={"trend_tail_k": 3, "ks_absolute_slack": 0.02},
        diagnose={"conditions": ["c6"], "hierarchy": False, "petrov": False},
        lindeberg={"r_grid": [0.5], "method": "monte-carlo", "mc_budget": 10_000},
    )
    config = load_config(_write(tmp_path, data))
    assert config.seed == 42
    assert config.n_grid == (100, 200, 400)
    assert config.variance_source == "plug-in"
    assert config.trend_rule.tail_k == 3
    assert config.harness.ks_absolute_slack == 0.02
    assert config.diagnose.conditions == ("c6",)
    assert config.lindeberg.method == "monte-carlo"
    experiment = config.experiment()
    assert experiment.replicates == 500


def test_yaml_bare_true_variance_source(tmp_path):
    config = load_config(_write(tmp_path, dict(MINIMAL, variance_source=True)))
    assert config.variance_source == "true"


def test_config_hash_is_stable_and_seed_sensitive(tmp_path):
    config = load_config(_write(tmp_path, MINIMAL))
    assert config_hash(config) == config_hash(config)
    assert config_hash(config.with_seed(1)) != config_hash(config.with_seed(2))


# The canonical form is what manifest.json's config_sha256 is computed from;
# these are the hashes of the shipped configs, which must not drift.
SHIPPED_CONFIG_HASHES = {
    "counterexample-gaussian.yaml": "16f0bb59c8fda31b39f1c7d34b7890c487454276333fca9853dab666b01fbe16",
    "diagnose-linear.yaml": "18d7691ddffdbb6c4ff8ea8910aa8d8a829f13440d66e8ee3cb30753822f28fb",
    "theta-clt-alternating.yaml": "5fdfb520d64e89ca46161f1a5d52afdbf1483915109b7768e9a0823ee6720227",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_HASHES))
def test_shipped_config_hashes_are_pinned(name):
    config = load_config(CONFIGS / name)
    assert config_hash(config) == SHIPPED_CONFIG_HASHES[name]


def test_student_t_df_passthrough(tmp_path):
    data = dict(MINIMAL)
    data["model"] = dict(data["model"], eps={"family": "student-t", "scale": 1.0, "df": 6})
    config = load_config(_write(tmp_path, data))
    assert config.model.eps_dist.df == 6.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(grdi=[1, 2]),
        lambda d: d["model"].update(gamma=1.0),
        lambda d: d.update(defaults={"ks_slack": 0.01}),
        lambda d: d.update(defaults={"chunk_size": 64}),
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
        ("model", lambda d: d["model"].update(theta="x")),
        ("design", lambda d: d["design"].update(params={"slope": "abc"})),
        ("defaults", lambda d: d.update(defaults={"ks_absolute_slack": "wide"})),
        ("lindeberg", lambda d: d.update(lindeberg={"mc_budget": "lots"})),
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
        "model-theta",
        "design-param",
        "defaults-slack",
        "lindeberg-budget",
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
    # README calls this block the complete schema; it must parse and list
    # every ``defaults`` key the loader accepts, and no other.
    doc = config_module.__doc__
    block = doc[doc.index(".. code-block:: yaml") :].split("\n\n")[1]
    data = yaml.safe_load(textwrap.dedent(block))
    config = parse_config(data)
    assert config.seed == 42
    assert set(data["defaults"]) == set(config_module._TREND_KEYS) | set(
        config_module._HARNESS_KEYS
    )
