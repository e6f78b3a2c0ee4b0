import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from evclt import asymptotics, cli, harness
from evclt.asymptotics import LindebergSection, lindeberg_sum
from evclt.cli import main
from evclt.config import load_config
from evclt.rng import STREAM_MC_DELTA, STREAM_MC_EPS


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def _base_config(**overrides):
    data = {
        "seed": 9,
        "design": {"kind": "linear"},
        "model": {
            "theta": 1.0,
            "beta": 2.0,
            "eps": {"family": "normal", "scale": 1.0},
            "delta": {"family": "normal", "scale": 1.0},
        },
        "grid": [50, 100, 200, 500, 1000],
        "replicates": 200,
        "tests": ["beta-clt"],
    }
    data.update(overrides)
    return data


# --- diagnose ---------------------------------------------------------------------


_DIAGNOSE_FILES = (
    "manifest.json",
    "diagnostics.json",
    "conditions.csv",
    "hierarchy.csv",
    "petrov.csv",
    "design.csv",
)


def test_diagnose_linear_design(tmp_path, capsys):
    config = _write_config(tmp_path, _base_config())
    out = tmp_path / "out"
    code = main(["diagnose", "--config", str(config), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("satisfied-trend") >= 3
    report = json.loads((out / "diagnostics.json").read_text())
    assert sorted(report["conditions"]) == sorted(asymptotics.CONDITION_IDS)
    assert sorted(p.name for p in out.iterdir()) == sorted(_DIAGNOSE_FILES)


@pytest.mark.parametrize(
    "name", ["counterexample-gaussian", "diagnose-linear", "theta-clt-alternating"]
)
def test_diagnose_writes_every_table_on_each_shipped_config(tmp_path, capsys, name):
    config = _CONFIGS / f"{name}.yaml"
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(_DIAGNOSE_FILES)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[1:]] == [
        *asymptotics.CONDITION_IDS, "petrov-i", "petrov-ii", "petrov-iii"
    ]


@pytest.mark.parametrize("command", ["diagnose", "lindeberg"])
def test_workers_flag_only_on_commands_that_read_it(tmp_path, command):
    config = _write_config(tmp_path, _base_config())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--workers", "2"])
    assert exc.value.code == 2


def test_diagnose_counterexample_design_verdict(tmp_path):
    config = _write_config(
        tmp_path,
        _base_config(
            design={"kind": "gaussian-iid", "seed": 3},
            grid=[50, 100, 200, 500, 1000, 2000],
        ),
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["conditions"]["liu-chen-beta"]["verdict"] == "violated-trend"


def test_missing_config_exits_2_without_partial_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["diagnose", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diagnose", "simulate", "lindeberg"])
@pytest.mark.parametrize("out_name", ["taken", "taken/out"], ids=["a-file", "under-a-file"])
def test_an_unusable_out_is_a_usage_error(tmp_path, capsys, command, out_name):
    # Exit code 1 means a test failed; an --out that cannot be a directory is
    # reported like any usage error, without a traceback.
    config = _write_config(tmp_path, _base_config(grid=[50, 100]))
    (tmp_path / "taken").write_text("not a directory", encoding="utf-8")
    out = tmp_path / out_name
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "not a directory"


# --- simulate ----------------------------------------------------------------------


def _overflowing_geometric_config(tmp_path):
    # x = 2^i stays finite through n = 1023, but S_n overflows from about n = 512.
    return _write_config(
        tmp_path,
        _base_config(
            design={"kind": "geometric", "params": {"base": 2.0}}, grid=[100, 200, 400, 600]
        ),
    )


def test_diagnose_dispersion_overflow_is_a_config_error(tmp_path, capsys):
    config = _overflowing_geometric_config(tmp_path)
    assert main(["diagnose", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "overflows" in capsys.readouterr().err


def test_simulate_dispersion_overflow_fails_before_any_simulation(tmp_path, monkeypatch, capsys):
    calls = []
    simulate = harness._simulate_grid_point

    def counted(**kwargs):
        calls.append(kwargs["n"])
        return simulate(**kwargs)

    monkeypatch.setattr(harness, "_simulate_grid_point", counted)
    config = _overflowing_geometric_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "overflows" in capsys.readouterr().err
    assert calls == []


def test_simulate_small_passing_run(tmp_path):
    # the intercept statistic on the alternating design is essentially exactly
    # normal for normal errors, so this run passes with a wide margin
    config = _write_config(
        tmp_path,
        _base_config(
            design={"kind": "alternating"},
            grid=[1000],
            replicates=1000,
            tests=["theta-clt", "coverage"],
        ),
    )
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out", str(out), "--emit-samples"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert (out / "normality.csv").is_file()
    assert (out / "coverage.csv").is_file()
    assert (out / "samples" / "z_theta_n1000.csv").is_file()


def test_simulate_degenerate_run_fails_with_exit_1(tmp_path):
    config = _write_config(
        tmp_path,
        _base_config(
            model={
                "theta": 2.0,
                "beta": 3.0,
                "eps": {"family": "normal", "scale": 0.0},
                "delta": {"family": "normal", "scale": 0.0},
            },
            grid=[50],
            replicates=150,
        ),
    )
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1


def test_coverage_runs_on_the_replicates_left_after_skips(tmp_path):
    # At n = 2 a +/-1 delta makes both xi equal in half the replicates, so
    # fewer than R = 100 are used: the skip gate fails the run, and coverage
    # still reports on what is left.
    config = _write_config(
        tmp_path,
        _base_config(
            seed=1,
            design={"kind": "linear", "params": {"slope": 2.0}},
            model={
                "theta": 1.0,
                "beta": 2.0,
                "eps": {"family": "normal", "scale": 1.0},
                "delta": {"family": "scaled-rademacher", "scale": 1.0},
            },
            grid=[2, 3],
            replicates=100,
            tests=["beta-clt", "coverage"],
        ),
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["skip_ok"] is False
    assert report["grid"][0]["replicates_used"] < 100
    assert [entry["coverage"]["z_beta"]["n"] for entry in report["grid"]] == [2, 3]
    assert (out / "coverage.csv").is_file()


def test_simulate_refuses_small_r(tmp_path):
    config = _write_config(tmp_path, _base_config(replicates=10))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


def _count_grid_points(monkeypatch) -> list[int]:
    calls: list[int] = []
    simulate = harness._simulate_grid_point

    def counted(**kwargs):
        calls.append(kwargs["n"])
        return simulate(**kwargs)

    monkeypatch.setattr(harness, "_simulate_grid_point", counted)
    return calls


def test_simulate_refuses_replicate_indices_past_one_key_word(tmp_path, monkeypatch, capsys):
    calls = _count_grid_points(monkeypatch)
    config = _write_config(tmp_path, _base_config(replicates=2**32 + 1))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "2^32" in capsys.readouterr().err
    assert calls == []


# Each config refused by ``simulate``, and the words of its refusal.
_REFUSED_BY_SIMULATE = {
    "negative-replicates": ({"replicates": -5}, "at least 2 replicates"),
    "replicates-past-one-key-word": ({"replicates": 2**32 + 1}, "2^32"),
    "few-replicates-for-beta-clt": ({"replicates": 50}, "need R >= 100"),
    "counterexample-on-linear": ({"tests": ["counterexample"]}, "gaussian-iid"),
    "empty-tests": ({"tests": []}, "tests must name at least one of"),
    "single-point-negligibility": (
        {"grid": [200], "tests": ["negligibility"]},
        "at least 2 grid points",
    ),
    # V = Var(eps) + beta^2 Var(delta) overflows float64; beta**2 alone raises
    "huge-beta": (
        {"model": {**_base_config()["model"], "beta": 1.0e300}},
        "model: Var(eps - beta delta) at beta = 1e+300 overflows float64",
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSED_BY_SIMULATE))
@pytest.mark.parametrize("command", ["diagnose", "lindeberg", "simulate"])
def test_a_config_simulate_refuses_is_refused_by_every_command(
    tmp_path, monkeypatch, capsys, command, name
):
    calls = _count_grid_points(monkeypatch)
    overrides, cause = _REFUSED_BY_SIMULATE[name]
    config = _write_config(tmp_path, _base_config(**overrides))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err
    assert calls == []
    assert not out.exists()


def test_quadrature_refusal_names_the_config_key(tmp_path, capsys):
    # student-t eps with normal delta has no closed-form law for nu
    model = _base_config()["model"]
    model["eps"] = {"family": "student-t", "scale": 1.0, "df": 6}
    config = _write_config(tmp_path, _base_config(model=model))
    out = tmp_path / "out"
    assert main(["lindeberg", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no closed-form law for eps(student-t) - beta*delta(normal)")
    assert "use lindeberg.method: monte-carlo" in err and "method='" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["diagnose", "lindeberg", "simulate"])
def test_overflowing_design_is_refused_without_a_numpy_warning(tmp_path, capsys, command):
    # 2^i overflows float64 from i = 1024: the refusal is all that is printed.
    design = {"kind": "geometric", "params": {"base": 2.0}}
    config = _write_config(tmp_path, _base_config(design=design, grid=[100, 1100]))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "lindeberg", "diagnose"])
def test_error_scale_whose_variance_overflows_is_a_config_error(
    tmp_path, monkeypatch, capsys, command
):
    # A finite scale of 1e200 squares past the float64 maximum.
    calls = _count_grid_points(monkeypatch)
    model = _base_config()["model"]
    model["eps"]["scale"] = 1.0e200
    config = _write_config(tmp_path, _base_config(model=model))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "overflows float64" in err and "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_diagnose_at_a_huge_delta_scale(tmp_path, capsys):
    # The Petrov cutoffs S_n^(1/4) sit 1e-149 delta scales out; the truncated
    # moments there are finite and positive.
    data = yaml.safe_load((_CONFIGS / "diagnose-linear.yaml").read_text(encoding="utf-8"))
    data["model"]["delta"]["scale"] = 1.0e150
    config = _write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(config), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    petrov = json.loads((out / "diagnostics.json").read_text())["petrov"]
    for name in ("petrov-ii", "petrov-iii"):
        assert all(0.0 < v < math.inf for v in petrov[name]["values"]), name


def test_simulate_worker_invariance(tmp_path):
    config = _write_config(
        tmp_path, _base_config(design={"kind": "alternating"}, grid=[200], replicates=200)
    )
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["simulate", "--config", str(config), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out8), "--workers", "8"]) == 0
    assert (out1 / "report.json").read_bytes() == (out8 / "report.json").read_bytes()


def test_the_seed_comes_from_the_config_file_alone(tmp_path, monkeypatch):
    # no environment variable changes a setting: with EVCLT_SEED set, every
    # output byte stays the same
    config = _write_config(
        tmp_path,
        _base_config(
            design={"kind": "alternating"},
            grid=[100, 200],
            replicates=150,
            lindeberg={"r_grid": [0.1, 0.5], "method": "monte-carlo", "mc_budget": 2000},
        ),
    )
    outputs = {}
    for env in (None, "7"):
        if env is not None:
            monkeypatch.setenv("EVCLT_SEED", env)
        for command in ("simulate", "lindeberg"):
            out = tmp_path / f"{command}-{env}"
            assert main([command, "--config", str(config), "--out", str(out)]) in (0, 1)
            outputs[command, env] = {
                f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"
            }
    for command in ("simulate", "lindeberg"):
        assert outputs[command, "7"] == outputs[command, None]
    assert json.loads(outputs["simulate", "7"]["report.json"])["config"]["seed"] == 9


def test_manifest_hash_matches_recomputation(tmp_path):
    from evclt.config import config_hash, load_config

    config_path = _write_config(
        tmp_path, _base_config(design={"kind": "alternating"}, grid=[100], replicates=150)
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) in (0, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(load_config(config_path))
    assert manifest["tool_version"]
    assert manifest["command"] == "simulate"


def test_rerun_is_idempotent_except_manifest(tmp_path):
    config = _write_config(
        tmp_path, _base_config(design={"kind": "alternating"}, grid=[100], replicates=150)
    )
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--emit-samples"])
    snapshot = {
        p.name: p.read_bytes() for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"
    }
    main(["simulate", "--config", str(config), "--out", str(out), "--emit-samples"])
    for p in out.rglob("*"):
        if p.is_file() and p.name != "manifest.json":
            assert p.read_bytes() == snapshot[p.name], p.name


def test_export_design_csv(tmp_path, linear_design):
    out = tmp_path / "design.csv"
    cli.export_design_csv(linear_design, 4, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,x"
    assert lines[1] == "1,1.0"
    assert len(lines) == 5


# --- lindeberg ----------------------------------------------------------------------


def test_lindeberg_command(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        _base_config(
            grid=[100, 500],
            lindeberg={"r_grid": [0.5], "method": "quadrature"},
        ),
    )
    out = tmp_path / "out"
    assert main(["lindeberg", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "lindeberg.json").read_text())
    values = [r["sum_value"] for r in report["reports"]]
    assert values[0] > values[1]  # decreasing along the n-grid
    assert (out / "lindeberg.csv").is_file()


def test_lindeberg_bounded_zero_case(tmp_path):
    config = _write_config(
        tmp_path,
        _base_config(
            model={
                "theta": 0.0,
                "beta": 1.0,
                "eps": {"family": "uniform-centered", "scale": 1.0},
                "delta": {"family": "uniform-centered", "scale": 1.0},
            },
            grid=[100],
            lindeberg={"r_grid": [5.0]},
        ),
    )
    out = tmp_path / "out"
    assert main(["lindeberg", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "lindeberg.json").read_text())
    assert report["reports"][0]["sum_value"] == 0.0


def test_lindeberg_flags_the_monte_carlo_pairs_no_draw_reaches(tmp_path, capsys):
    # diagnose-linear by Monte Carlo: at (n = 100, r = 1.0) no draw of 1e5
    # reaches the smallest threshold, so the estimate reads 0 +/- 0 where
    # quadrature gives 2.2e-8; the flag tells it from an exact zero
    data = yaml.safe_load((_CONFIGS / "diagnose-linear.yaml").read_text(encoding="utf-8"))
    data["lindeberg"].update(method="monte-carlo", mc_budget=100_000)
    out = tmp_path / "out"
    config = _write_config(tmp_path, data)
    assert main(["lindeberg", "--config", str(config), "--out", str(out)]) == 0
    reports = json.loads((out / "lindeberg.json").read_text())["reports"]
    unreached = [(r["n"], r["r"]) for r in reports if r["unreached"]]
    assert (100, 1.0) in unreached and len(unreached) < len(reports)
    for r in reports:
        if r["unreached"]:
            assert (r["sum_value"], r["stderr"]) == (0.0, 0.0)
        else:
            assert r["sum_value"] > 0.0
    with open(out / "lindeberg.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["unreached"] for row in rows] == [str(r["unreached"]) for r in reports]
    lines = capsys.readouterr().out.splitlines()
    assert "n=100 r=1.0: sum=0 (monte-carlo stderr=0, no draw reached)" in lines
    assert sum(line.endswith(", no draw reached)") for line in lines) == len(unreached)

    # a bounded |nu| that no threshold can reach: the sum is exactly zero,
    # and no draw is made, so nothing is flagged
    data["model"]["eps"] = data["model"]["delta"] = {"family": "uniform-centered", "scale": 1.0}
    data.update(grid=[1000], lindeberg={"r_grid": [0.5], "method": "monte-carlo"})
    out = tmp_path / "bounded"
    config = _write_config(tmp_path, data)
    assert main(["lindeberg", "--config", str(config), "--out", str(out)]) == 0
    [report] = json.loads((out / "lindeberg.json").read_text())["reports"]
    assert (report["sum_value"], report["stderr"], report["unreached"]) == (0.0, 0.0, False)


def test_lindeberg_rejects_nonpositive_r(tmp_path):
    config = _write_config(tmp_path, _base_config(lindeberg={"r_grid": [-0.5]}))
    assert main(["lindeberg", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


def test_lindeberg_monte_carlo_draws_once_per_run(tmp_path, monkeypatch):
    calls = []
    real_uniforms = asymptotics.uniforms

    def counting_uniforms(key, size):
        calls.append(key)
        return real_uniforms(key, size)

    monkeypatch.setattr(asymptotics, "uniforms", counting_uniforms)
    for method in ("monte-carlo", "quadrature"):
        calls.clear()
        config_path = _write_config(
            tmp_path,
            _base_config(
                grid=[100, 200, 500],
                lindeberg={"r_grid": [0.1, 0.5, 1.0], "method": method, "mc_budget": 20_000},
            ),
        )
        out = tmp_path / method
        assert main(["lindeberg", "--config", str(config_path), "--out", str(out)]) == 0
        if method == "monte-carlo":
            # the eps and delta streams, once for the whole grid
            assert calls == [(9, STREAM_MC_EPS), (9, STREAM_MC_DELTA)]
        else:
            assert calls == []

        # each (n, r) report of the grid call is the report of a call on n and r alone
        config = load_config(config_path)
        experiment, section = config.experiment, config.lindeberg
        reports = [
            lindeberg_sum(
                experiment.design,
                [n],
                experiment.model,
                LindebergSection([r], section.method, section.mc_budget),
                experiment.seed,
            )[0]
            for n in experiment.n_grid
            for r in section.r_grid
        ]
        expected = tmp_path / f"expected-{method}.json"
        cli._write_json(expected, {"reports": reports})
        assert (out / "lindeberg.json").read_bytes() == expected.read_bytes()


def test_student_t_diagnose_and_lindeberg_leave_scipy_stats_and_integrate_unloaded(tmp_path):
    # beta = 0 makes nu = eps, so quadrature runs on the student-t eps law;
    # Petrov runs on the student-t delta law
    t_law = {"family": "student-t", "scale": 1.0, "df": 6}
    config = _write_config(
        tmp_path,
        _base_config(
            model={"theta": 1.0, "beta": 0.0, "eps": t_law, "delta": t_law},
            lindeberg={"r_grid": [0.1, 0.5], "method": "quadrature"},
        ),
    )
    code = (
        "import sys; from evclt.cli import main; "
        "codes = [main([c, '--config', sys.argv[1], '--out', sys.argv[2] + '/' + c]) "
        "for c in ('diagnose', 'lindeberg')]; "
        "print(codes, [m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "out" / "diagnose" / "petrov.csv").is_file()


# --- threads ---------------------------------------------------------------------


def _fresh_python(code, **env):
    """stdout of ``code`` run by a fresh interpreter with ``PYTHONPATH=src``,
    OPENBLAS_NUM_THREADS unset unless given in ``env``."""
    src = Path(__file__).resolve().parents[1] / "src"
    child_env = dict(os.environ, PYTHONPATH=str(src))
    child_env.pop("OPENBLAS_NUM_THREADS", None)
    child_env.update(env)
    result = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc")
def test_cli_import_starts_no_blas_threads():
    code = (
        "import os; import evclt.cli; "
        "threads = open('/proc/self/status').read().split('Threads:')[1].split()[0]; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads)"
    )
    assert _fresh_python(code) == "1 1"


def test_cli_keeps_a_user_set_blas_thread_count():
    code = "import os; import evclt.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_package_import_loads_no_numpy_and_sets_no_threads():
    code = (
        "import os, sys; import evclt; "
        "before = ('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')); "
        "from evclt import fit, DesignSequence; "
        "print(before, callable(fit), DesignSequence('linear').kind)"
    )
    assert _fresh_python(code) == "(False, None) True linear"


def test_cli_import_freezes_its_objects_and_keeps_the_collector_on():
    code = "import gc; import evclt.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)"
    assert _fresh_python(code) == "True True"


def test_package_import_leaves_the_collector_alone():
    code = (
        "import gc; import evclt; from evclt import fit; "
        "print(gc.isenabled(), gc.get_freeze_count())"
    )
    assert _fresh_python(code) == "True 0"


def test_cli_import_keeps_a_disabled_collector_disabled():
    code = (
        "import gc; gc.disable(); import evclt.cli; "
        "print(gc.isenabled(), gc.get_freeze_count() > 0)"
    )
    assert _fresh_python(code) == "False True"


# --- counterexample --------------------------------------------------------------------


def test_counterexample_needs_gaussian_design(tmp_path, monkeypatch, capsys):
    config = _write_config(tmp_path, _base_config(grid=[200], tests=["counterexample"]))
    simulated = _count_grid_points(monkeypatch)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert simulated == [] and not out.exists()
    assert "gaussian-iid" in capsys.readouterr().err


def test_counterexample_is_no_longer_a_command(tmp_path, capsys):
    config = _write_config(tmp_path, _base_config(**_GAUSSIAN_DESIGN))
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--config", str(config), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "invalid choice: 'counterexample'" in capsys.readouterr().err


# --- pinned output bytes -----------------------------------------------------------

_T_LAW = {"family": "student-t", "scale": 1.0, "df": 6}
_NORMAL_LAW = {"family": "normal", "scale": 1.0}
_SMALL_SIMULATION = {"design": {"kind": "alternating"}, "grid": [100, 200], "replicates": 150}
_GAUSSIAN_DESIGN = {"design": {"kind": "gaussian-iid", "seed": 5}, "grid": [200, 400]}

# (command and flags, config) for one small run of each output table.
_PINNED_RUNS = {
    "diagnose-normal": (["diagnose"], _base_config()),
    "diagnose-student-t-delta": (
        ["diagnose"],
        _base_config(model={"theta": 1.0, "beta": 2.0, "eps": _NORMAL_LAW, "delta": _T_LAW}),
    ),
    "lindeberg-quadrature": (
        ["lindeberg"],
        _base_config(grid=[100, 500], lindeberg={"r_grid": [0.1, 0.5]}),
    ),
    "lindeberg-monte-carlo": (
        ["lindeberg"],
        _base_config(
            model={"theta": 1.0, "beta": 2.0, "eps": _T_LAW, "delta": _NORMAL_LAW},
            grid=[100, 500],
            lindeberg={"r_grid": [0.1, 0.5], "method": "monte-carlo", "mc_budget": 20_000},
        ),
    ),
    "simulate-samples": (
        ["simulate", "--emit-samples"],
        _base_config(**_SMALL_SIMULATION, tests=["beta-clt", "theta-clt"]),
    ),
    "simulate-coverage": (
        ["simulate"],
        _base_config(
            design={"kind": "alternating"},
            grid=[1000],
            replicates=1000,
            tests=["theta-clt", "coverage"],
        ),
    ),
    "simulate-negligibility-plug-in": (
        ["simulate", "--workers", "2"],
        _base_config(
            **_SMALL_SIMULATION, variance_source="plug-in", tests=["beta-clt", "negligibility"]
        ),
    ),
    "simulate-counterexample": (
        ["simulate"],
        _base_config(**_GAUSSIAN_DESIGN, tests=["beta-clt", "counterexample"]),
    ),
}

# sha256 of every output file but manifest.json, and of stdout, plus the exit
# code, for each run above; a change that moves any output byte changes these.
_PINNED_OUTPUTS = {
    "diagnose-normal": {
        "conditions.csv": "b675a848105a35773336d4a2727519970edb0f1b300565ec3771bc449859d7a6",
        "design.csv": "79f088b130ce67e6d9064a69ad4c8b6d328fffd847c14516a613e4167d5f4e57",
        "diagnostics.json": "a67560db5c1b694dd98f37b5ab4da20277a94398049aab5836e3f90f68e6a7aa",
        "hierarchy.csv": "b3b35912a866583d5be8037a91289ce38840f15a6515bb4154a2837ccc999e1f",
        "petrov.csv": "7843408265dfa7ddc97d2c9fe3eb8ef70857d92538bcd684edf83b0e646c9e23",
        "exit": 0,
        "stdout": "2f08b5a790e6d09417522edc038ad58fe58f5ceda6ae3b04028cce83614dcb81",
    },
    "diagnose-student-t-delta": {
        "conditions.csv": "b675a848105a35773336d4a2727519970edb0f1b300565ec3771bc449859d7a6",
        "design.csv": "79f088b130ce67e6d9064a69ad4c8b6d328fffd847c14516a613e4167d5f4e57",
        "diagnostics.json": "2a6feb288543189412b4fae2c08b0cff8926785d94b3e9f7a22278b1b52dda8e",
        "hierarchy.csv": "b3b35912a866583d5be8037a91289ce38840f15a6515bb4154a2837ccc999e1f",
        "petrov.csv": "c55eef588c76a71652dc22beecb1b278172a06dbf04994bd25e5e5a8701bc572",
        "exit": 0,
        "stdout": "aef61df8d0033749f6e8cc9b0d105f49570adb5a9b83a826eebaf871ab272962",
    },
    "lindeberg-monte-carlo": {
        "lindeberg.csv": "cc47762191fd45467bda257b5df5b5a04f5cd7c8c97e97af461aff3e89922934",
        "lindeberg.json": "4402961dfdcddc4169d04e1a7a530ff543928b2c9dfbb58740d0bf5c87fcb514",
        "exit": 0,
        "stdout": "c6d62366504e3f41869a09b8a7e1f5bd2e908ebc55074cddabdd555e82c2465c",
    },
    "lindeberg-quadrature": {
        "lindeberg.csv": "fbfc059c259fd0e012e098fba120091cf76c1e3c32ecfb8d434e285716d20b96",
        "lindeberg.json": "a88d7b3a450b1456a1645827499f209a69689de3c12cde37b9053edc290d7f6e",
        "exit": 0,
        "stdout": "92a86321cd6955ddb0a0e0c22e2acbcc191e25cf8449bc8cd2ddcc65696d6252",
    },
    "simulate-counterexample": {
        "counterexample.csv": "2776d1b6e7aaaeda275ad9c4df3ded190cab4a3c45e2cebc4e36a58abeca767a",
        "normality.csv": "78c6051ce2378c90a5a77c9870694c946bab43c528734e9460d1c12ede46d158",
        "report.json": "5089975a91c1eb2ce149601ab44c661e49cb845b693fa73060ce0594fe64d200",
        "exit": 1,
        "stdout": "50abe2b6642c4f0883cf959be7496b5314d64542981082db3123138d6fe344e8",
    },
    "simulate-coverage": {
        "coverage.csv": "318d5431a61f4bddc016d0e2a1bd0f352beae609f7d6d06c4bb279972f3edc1a",
        "normality.csv": "29a82c30973cc7dd24ca8df784bd229baab81d40d5ad99d141f2e65e0c63b434",
        "report.json": "7b5dce9b1aee3de336e7638ab94de6b6533d67e2f90821438014d78c0e47888a",
        "exit": 0,
        "stdout": "d11dc69506eaa014af33ad32281a577529938942ecc26dc3d7a1a0ac42623515",
    },
    "simulate-negligibility-plug-in": {
        "negligibility.csv": "d0583a8c2d43ed72d1be8a7af16df6c2759c8c0239358f3e4ce4bd5cffbf20ed",
        "normality.csv": "8ba61b2ce35b12d997e0d6691c6321d3206dade7bc9f4c7f09c43024c5979a2a",
        "report.json": "c760e8e4d8d1b7fd90d4c02e149a8bfcd4fe5a8811e50ea18285df316f95885f",
        "exit": 1,
        "stdout": "0bcbaf3bb48c3e93e94048e722cf247394ad9de732064a0dfbbed12941fad0e8",
    },
    "simulate-samples": {
        "normality.csv": "58d6582d90cf1e42f9aca46b87b7f2180a652e844d8b8d8e9cd38bb307534a3e",
        "report.json": "72bb22dd261ad1c0bf7aebffd3aa87c33ea2aaada79dba382efbf47c17e6b063",
        "samples/z_beta_n100.csv": "7652e0786f05da3517811e9866450a68521ce499da6ef8fe5ba264959f12b846",
        "samples/z_beta_n200.csv": "401db535d3f02fff26224b0b5a587d3382b94fea456110513efdd4c226f885ac",
        "samples/z_theta_n100.csv": "64d074c51c0e3b85ebadb5208a517aebc7f0a8440e1cfafa2811fbbf9a6461f8",
        "samples/z_theta_n200.csv": "11ed3c9c0d713cdff5417596b984841c5ed7148ef7e40aaa545eb0fbf361dc0d",
        "exit": 1,
        "stdout": "41c5b1cdf586abfcdd3ad7f041c9e84e7361cf81defa3f49bdc621bad8b3d3dc",
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_output_bytes_are_pinned(tmp_path, capsys, name):
    (command, *flags), data = _PINNED_RUNS[name]
    config = _write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out), *flags])
    outputs = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    outputs["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    outputs["exit"] = code
    assert outputs == _PINNED_OUTPUTS[name]
