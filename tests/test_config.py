import copy
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from evclt import config as config_module
from evclt.cli import main
from evclt.config import (
    DEFAULT_N_GRID,
    AppConfig,
    LindebergSection,
    config_hash,
    load_config,
    parse_config,
)
from evclt.design import DesignSequence
from evclt.errors import ConfigError
from evclt.harness import DEFAULTS, ExperimentConfig
from evclt.model import ErrorDistribution, EVModelSpec

from test_harness import _config, _count_grid_points

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
    assert config_hash(parse_config(dict(MINIMAL, seed=1))) != config_hash(
        parse_config(dict(MINIMAL, seed=2))
    )


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
        lambda d: d.update(tests=[]),
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


def test_a_scalar_where_a_list_belongs_is_a_config_error(linear_design, standard_spec):
    with pytest.raises(ConfigError, match="grid must be a list, got 5"):
        _config(linear_design, standard_spec, n_grid=5)
    with pytest.raises(ConfigError, match="tests must be a list, got 5"):
        _config(linear_design, standard_spec, tests=5)
    with pytest.raises(ConfigError, match="lindeberg.r_grid must be a list, got 5"):
        LindebergSection(r_grid=5)


@pytest.mark.parametrize(
    "section, mutate, message",
    [
        (
            "model",
            lambda d: d["model"].update(eps={"family": "normal", "scale": "1"}),
            "model.eps: error-distribution scale must be a number, got '1'",
        ),
        (
            "model",
            lambda d: d["model"].update(delta={"family": "cauchy", "scale": 1.0}),
            "model.delta: unknown error family 'cauchy'",
        ),
        (
            "model",
            lambda d: d["model"].update(eps={"family": "normal", "scale": 10**400}),
            "model.eps: error-distribution scale must be finite, got 1000",
        ),
        ("model", lambda d: d["model"].update(theta="x"), "model: theta must be a number"),
        ("model", lambda d: d["model"].update(alpha=-1.0), "model: alpha must be > 0"),
        ("design", lambda d: d["design"].update(seed=0.5), "design.seed must be a whole number"),
        ("design", lambda d: d["design"].update(kind="spiral"), "unknown design kind 'spiral'"),
        ("lindeberg", lambda d: d.update(lindeberg={"method": "x"}), "unknown lindeberg.method"),
        ("lindeberg", lambda d: d.update(lindeberg={"mc_budget": 10}), "lindeberg.mc_budget must"),
        ("seed", lambda d: d.update(seed=1.5), "config.seed must be a whole number, got 1.5"),
        ("replicates", lambda d: d.update(replicates=1.5), "config.replicates must be a whole"),
    ],
    ids=[
        "eps-scale-string",
        "delta-family",
        "eps-scale-huge-int",
        "theta-string",
        "alpha-negative",
        "design-seed",
        "design-kind",
        "lindeberg-method",
        "lindeberg-budget",
        "seed",
        "replicates",
    ],
)
def test_a_refusal_names_its_section_once(section, mutate, message):
    # The type that stores a value checks it. Design and lindeberg messages
    # carry their path; the parser prefixes the model's, at one level only.
    data = {"design": dict(MINIMAL["design"]), "model": dict(MINIMAL["model"])}
    mutate(data)
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert str(info.value).startswith(message)
    assert str(info.value).count(section) == 1


FULL = {
    "seed": 3,
    "design": {"kind": "linear", "params": {"slope": 1.5}, "seed": 0},
    "model": {
        "theta": 1.0,
        "beta": 2.0,
        "eps": {"family": "student-t", "scale": 1.0, "df": 6},
        "delta": {"family": "laplace", "scale": 0.5},
        "alpha": 1.0,
    },
    "grid": [50, 100],
    "replicates": 200,
    "variance_source": "plug-in",
    "tests": ["beta-clt", "coverage"],
    "lindeberg": {"r_grid": [0.5], "method": "monte-carlo", "mc_budget": 2000},
}
KEY_PATHS = [
    "seed",
    "design",
    "design.kind",
    "design.params",
    "design.params.slope",
    "design.seed",
    "model",
    "model.theta",
    "model.beta",
    "model.alpha",
    "model.eps",
    "model.eps.family",
    "model.eps.scale",
    "model.eps.df",
    "model.delta",
    "model.delta.scale",
    "model.delta.df",
    "grid",
    "replicates",
    "variance_source",
    "tests",
    "lindeberg",
    "lindeberg.r_grid",
    "lindeberg.method",
    "lindeberg.mc_budget",
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(path=st.sampled_from(KEY_PATHS), value=JSON_VALUES)
def test_any_value_at_any_key_loads_or_is_a_config_error(path, value):
    # Each constructor refuses what it cannot store as a ConfigError, so no
    # other exception reaches a caller of parse_config.
    data = copy.deepcopy(FULL)
    *parents, key = path.split(".")
    node = data
    for name in parents:
        node = node[name]
    node[key] = value
    try:
        assert isinstance(parse_config(data), AppConfig)
    except ConfigError:
        pass


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


def test_unknown_keys_of_two_types_are_refused_with_exit_2(tmp_path, capsys):
    # 1 and "x" do not compare, so the message sorts them by type first
    path = tmp_path / "config.yaml"
    path.write_text(
        yaml.safe_dump(MINIMAL).replace("design:\n", "design:\n  1: 2\n  x: 3\n", 1),
        encoding="utf-8",
    )
    assert main(["diagnose", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: unknown keys in design: [1, 'x']" in capsys.readouterr().err
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
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes(b"seed: 1\n# \xff\n")
    with pytest.raises(ConfigError, match="cannot read .*latin1.yaml"):
        load_config(latin1)


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(yaml.safe_dump(MINIMAL).encode("utf-8") + b"# \xff\n")
    assert main(["diagnose", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Each section of a config file and the type it builds.
SECTIONS = [
    ((), ExperimentConfig),
    (("design",), DesignSequence),
    (("model",), EVModelSpec),
    (("model", "eps"), ErrorDistribution),
    (("model", "delta"), ErrorDistribution),
    (("lindeberg",), LindebergSection),
]


def test_docstring_schema_is_complete_and_loads():
    # README calls this block the complete schema; it must parse and use, in
    # every section, each key the loader accepts, and no other.
    doc = config_module.__doc__
    block = doc[doc.index(".. code-block:: yaml") :].split("\n\n")[1]
    data = yaml.safe_load(textwrap.dedent(block))
    config = parse_config(data)
    assert config.experiment.seed == 42
    for path, cls in SECTIONS:
        node = data
        for key in path:
            node = node[key]
        accepted = set(config_module._fields(cls)) | ({"lindeberg"} if not path else set())
        assert set(node) == accepted, path


def test_a_library_experiment_config_has_the_file_defaults():
    parsed = parse_config(MINIMAL)
    experiment = ExperimentConfig(design=parsed.experiment.design, model=parsed.experiment.model)
    assert experiment == parsed.experiment
    assert AppConfig(experiment, LindebergSection()) == parsed


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("design"), "config.design is required"),
        (lambda d: d.pop("model"), "config.model is required"),
        (lambda d: d["design"].pop("kind"), "design.kind is required"),
        (lambda d: d["model"].pop("theta"), "model.theta is required"),
        (lambda d: d["model"].pop("delta"), "model.delta is required"),
        (lambda d: d["model"]["eps"].pop("family"), "model.eps.family is required"),
        (lambda d: d["model"]["delta"].pop("scale"), "model.delta.scale is required"),
        (lambda d: d.update(n_grid=[50, 100]), "unknown keys in config: ['n_grid']"),
        (lambda d: d["model"].update(eps_dist={}), "unknown keys in model: ['eps_dist']"),
        (lambda d: d["design"].update({1: 2, "x": 3}), "unknown keys in design: [1, 'x']"),
        (lambda d: d["design"].update(params=[1]), "design.params must be a mapping, got list"),
        (lambda d: d["model"].update(eps=None), "model.eps must be a mapping, got NoneType"),
        (lambda d: d.update(lindeberg=[]), "lindeberg must be a mapping, got list"),
    ],
)
def test_the_keys_of_a_section_are_the_fields_of_its_type(mutate, message):
    data = copy.deepcopy(MINIMAL)
    mutate(data)
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(tests="beta-clt"), "tests must be a list, got 'beta-clt'"),
        (lambda d: d.update(tests={"beta-clt": 1}), "tests must be a list, got {'beta-clt': 1}"),
        (lambda d: d.update(grid="50"), "grid must be a list, got '50'"),
        (lambda d: d.update(grid={50: 1, 100: 2}), "grid must be a list, got {50: 1, 100: 2}"),
        (lambda d: d.update(lindeberg={"r_grid": {0.5: 1}}), "lindeberg.r_grid must be a list"),
        (lambda d: d.update(lindeberg={"r_grid": "0.5"}), "lindeberg.r_grid must be a list"),
    ],
    ids=["tests-string", "tests-mapping", "grid-string", "grid-mapping", "r-mapping", "r-string"],
)
def test_a_string_or_mapping_is_not_a_list(mutate, message):
    data = copy.deepcopy(MINIMAL)
    mutate(data)
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert str(info.value).startswith(message)


def test_library_callers_may_pass_tuples_and_ranges(linear_design, standard_spec):
    config = _config(linear_design, standard_spec, n_grid=range(50, 250, 50), tests=("coverage",))
    assert config.n_grid == (50, 100, 150, 200) and config.tests == ("coverage",)
    assert LindebergSection(r_grid=(0.5, 1)).r_grid == (0.5, 1.0)
    assert LindebergSection(r_grid=range(1, 3)).r_grid == (1.0, 2.0)
