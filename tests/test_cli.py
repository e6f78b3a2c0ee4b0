import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from evclt import asymptotics, cli, harness
from evclt.asymptotics import lindeberg_sum
from evclt.cli import main
from evclt.config import load_config


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("EVCLT_SEED", raising=False)


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


def test_diagnose_linear_design(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        _base_config(
            diagnose={"conditions": ["c6", "c7", "liu-chen-beta"], "hierarchy": True, "petrov": True}
        ),
    )
    out = tmp_path / "out"
    code = main(["diagnose", "--config", str(config), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("satisfied-trend") >= 3
    report = json.loads((out / "diagnostics.json").read_text())
    assert set(report["conditions"]) == {"c6", "c7", "liu-chen-beta"}
    for name in ("manifest.json", "conditions.csv", "hierarchy.csv", "petrov.csv", "design.csv"):
        assert (out / name).is_file()


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
            diagnose={"conditions": ["liu-chen-beta"], "hierarchy": False, "petrov": False},
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


def test_simulate_refuses_small_r(tmp_path):
    config = _write_config(tmp_path, _base_config(replicates=10))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


def test_simulate_worker_invariance(tmp_path):
    config = _write_config(
        tmp_path, _base_config(design={"kind": "alternating"}, grid=[200], replicates=200)
    )
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["simulate", "--config", str(config), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out8), "--workers", "8"]) == 0
    assert (out1 / "report.json").read_bytes() == (out8 / "report.json").read_bytes()


def test_seed_env_override_changes_outputs(tmp_path, monkeypatch):
    config = _write_config(
        tmp_path, _base_config(design={"kind": "alternating"}, grid=[100], replicates=150)
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config), "--out", str(out_a)])
    monkeypatch.setenv("EVCLT_SEED", "12345")
    main(["simulate", "--config", str(config), "--out", str(out_b)])
    report_a = json.loads((out_a / "report.json").read_text())
    report_b = json.loads((out_b / "report.json").read_text())
    assert report_a["config"]["seed"] == 9
    assert report_b["config"]["seed"] == 12345
    assert (out_a / "report.json").read_bytes() != (out_b / "report.json").read_bytes()


def test_bad_seed_env_is_config_error(tmp_path, monkeypatch):
    config = _write_config(tmp_path, _base_config())
    monkeypatch.setenv("EVCLT_SEED", "not-a-number")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


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


def test_lindeberg_rejects_nonpositive_r(tmp_path):
    config = _write_config(tmp_path, _base_config(lindeberg={"r_grid": [-0.5]}))
    assert main(["lindeberg", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


def test_lindeberg_monte_carlo_draws_once_per_grid_point(tmp_path, monkeypatch):
    calls = []
    real_uniforms = asymptotics.uniforms

    def counting_uniforms(*args, **kwargs):
        calls.append(args)
        return real_uniforms(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "uniforms", counting_uniforms)
    config_path = _write_config(
        tmp_path,
        _base_config(
            grid=[100, 200, 500],
            lindeberg={"r_grid": [0.1, 0.5, 1.0], "method": "monte-carlo", "mc_budget": 20_000},
        ),
    )
    out = tmp_path / "out"
    asymptotics._monte_carlo_nu_abs.cache_clear()
    assert main(["lindeberg", "--config", str(config_path), "--out", str(out)]) == 0
    assert len(calls) == 6  # eps and delta streams, once per grid point

    # the shared draw gives the same reports as a fresh draw for every call
    config = load_config(config_path)
    section = config.lindeberg
    reports = []
    for n in config.n_grid:
        for r in section.r_grid:
            asymptotics._monte_carlo_nu_abs.cache_clear()
            reports.append(
                lindeberg_sum(
                    config.design,
                    n,
                    config.model,
                    r,
                    method=section.method,
                    mc_budget=section.mc_budget,
                    seed=config.seed,
                ).to_dict()
            )
    expected = tmp_path / "expected.json"
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
            diagnose={"petrov": True},
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


# --- counterexample --------------------------------------------------------------------


def test_counterexample_command(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        _base_config(
            design={"kind": "gaussian-iid", "seed": 5},
            grid=[1000],
            replicates=200,
        ),
    )
    out = tmp_path / "out"
    code = main(["counterexample", "--config", str(config), "--out", str(out)])
    assert code == 0
    entries = json.loads((out / "counterexample.json").read_text())["entries"]
    assert entries[0]["pass"] is True
    assert "pass" in capsys.readouterr().out


def test_counterexample_command_is_the_simulate_path(tmp_path):
    config = _write_config(
        tmp_path,
        _base_config(
            design={"kind": "gaussian-iid", "seed": 5},
            grid=[200, 400],
            replicates=200,
            tests=["counterexample"],
        ),
    )
    ce, sim = tmp_path / "ce", tmp_path / "sim"
    ce_code = main(["counterexample", "--config", str(config), "--out", str(ce)])
    sim_code = main(["simulate", "--config", str(config), "--out", str(sim)])
    assert ce_code == sim_code
    assert (ce / "counterexample.csv").read_bytes() == (sim / "counterexample.csv").read_bytes()
    entries = json.loads((ce / "counterexample.json").read_text())["entries"]
    assert entries == json.loads((sim / "report.json").read_text())["counterexample"]


def test_counterexample_needs_gaussian_design(tmp_path):
    config = _write_config(tmp_path, _base_config(grid=[200]))
    assert main(["counterexample", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
