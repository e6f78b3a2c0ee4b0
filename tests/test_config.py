import textwrap
from pathlib import Path

import pytest
import yaml

from evclt import config as config_module
from evclt.cli import main
from evclt.config import DEFAULT_N_GRID, DiagnoseSection, config_hash, load_config, parse_config
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
    assert config.n_grid == DEFAULT_N_GRID
    assert config.tests == ("beta-clt",)
    assert config.variance_source == "true"
    assert config.seed == 0
    assert config.replicates == 1000
    assert config.diagnose == DiagnoseSection()
    assert config.lindeberg.r_grid == (0.1, 0.5, 1.0)
    # the fixed thresholds are recorded next to every report's verdicts
    assert config.experiment().to_dict()["defaults"] == DEFAULTS.to_dict()


def test_full_config_round_trip(tmp_path):
    data = dict(
        MINIMAL,
        seed=42,
        grid=[100, 200, 400],
        replicates=500,
        variance_source="plug-in",
        tests=["beta-clt", "coverage"],
        diagnose={"conditions": ["c6"], "hierarchy": False, "petrov": False},
        lindeberg={"r_grid": [0.5], "method": "monte-carlo", "mc_budget": 10_000},
    )
    config = load_config(_write(tmp_path, data))
    assert config.seed == 42
    assert config.n_grid == (100, 200, 400)
    assert config.variance_source == "plug-in"
    assert config.tests == ("beta-clt", "coverage")
    assert config.diagnose == DiagnoseSection(conditions=("c6",), hierarchy=False, petrov=False)
    assert config.lindeberg.r_grid == (0.5,)
    assert config.lindeberg.method == "monte-carlo"
    assert config.lindeberg.mc_budget == 10_000
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
    "counterexample-gaussian.yaml": "7e608db35e467feee8caa531978812787e578bb1c026be139be4aa3d7816fd97",
    "diagnose-linear.yaml": "4fce5053c63e2a1deeb413a47077051eb7e2decb4c2d00f2e999db21e71c7353",
    "theta-clt-alternating.yaml": "2d9c0c611af114d2eeb8879b6cc1b6f5b93a794257d016da2f42f06a6e693fe5",
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
    assert config.seed == 42
    assert set(data) == config_module._TOP_KEYS
