"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Every run below is seeded with SEED = 42; determinism makes
re-runs byte-identical.
"""

import math

import numpy as np
import pytest

from evclt.asymptotics import (
    VERDICT_SATISFIED,
    VERDICT_VIOLATED,
    condition_path,
    lindeberg_sum,
    petrov_conditions,
)
from evclt.design import DesignSequence, DesignSummary, summarize, summary_path
from evclt.estimator import decompose, fit, identity_gaps
from evclt.harness import (
    DEFAULTS,
    ExperimentConfig,
    counterexample_run,
    report_json_bytes,
    run_experiment,
)
from evclt.model import ErrorDistribution, EVModelSpec, draw_sample

SEED = 42

KS_LIMIT_5000 = 1.36 / math.sqrt(5000.0) + 0.01  # about 0.0292


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")


def _normal_spec(theta=1.0, beta=2.0):
    return EVModelSpec(
        theta=theta,
        beta=beta,
        eps_dist=ErrorDistribution("normal", 1.0),
        delta_dist=ErrorDistribution("normal", 1.0),
    )


# -- A1: slope CLT on the linear design -----------------------------------------
#
# The slope limit needs c6 (n / sqrt(S_n) -> 0). At finite n the identity's
# remainder -beta * sum d(delta)^2 shifts the mean of z_beta by
# -beta * sigma1^2 * (n-1) / sqrt(S_n * V): -0.069 at n = 2000, -0.022 at
# n = 20000 on the linear design. The pinned tolerances (KS slack 0.01,
# |mean| <= 0.05) only leave room for that shift at n = 20000, so the CLT is
# read there; at n = 2000 the test checks that the measured mean sits on the
# predicted shift, within 3 Monte Carlo standard errors.

A1_SHIFT_N = 2000
A1_CLT_N = 20000


def _predicted_z_beta_shift(design: DesignSequence, spec: EVModelSpec, n: int) -> float:
    """Mean of z_beta from the remainder -beta * sum d(delta)^2 at size n."""
    s_n = summarize(design.generate(n)).s_n
    return -spec.beta * spec.delta_dist.variance() * (n - 1) / math.sqrt(s_n * spec.nu_variance())


def test_a1_beta_clt_linear_design():
    design = DesignSequence("linear", {"slope": 1.0})
    spec = _normal_spec()
    shift_small = _predicted_z_beta_shift(design, spec, A1_SHIFT_N)
    shift_large = _predicted_z_beta_shift(design, spec, A1_CLT_N)

    # The shift alone moves the KS distance by about phi(0) * |shift|; the CLT
    # size must keep that inside the harness's pre-asymptotic KS budget.
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    slack = DEFAULTS.ks_absolute_slack
    assert phi0 * abs(shift_large) <= slack, (
        f"n={A1_CLT_N}: predicted shift {shift_large:.4f} costs "
        f"{phi0 * abs(shift_large):.4f} of KS distance, over the slack {slack}"
    )

    config = ExperimentConfig(
        design=design,
        model=spec,
        n_grid=(A1_SHIFT_N, A1_CLT_N),
        replicates=5000,
        seed=SEED,
        variance_source="true",
        tests=("beta-clt",),
    )
    # Each worker holds data blocks of about CHUNK_BYTES (512 KiB) and a
    # scratch of one slice whatever n is, and reports are worker-invariant
    # (A8), so two workers only save time.
    report, _ = run_experiment(config, workers=2)
    small, large = (entry["normality"]["z_beta"] for entry in report["grid"])

    mc_se = math.sqrt(small["variance"] / config.replicates)
    shift_ok = abs(small["mean"] - shift_small) <= 3.0 * mc_se
    _line(
        f"A1 (beta-CLT finite-n shift, linear, n={A1_SHIFT_N}, R=5000)",
        shift_ok,
        f"mean={small['mean']:.4f}, predicted shift={shift_small:.4f} "
        f"(|diff|={abs(small['mean'] - shift_small):.4f} <= 3 MC se={3.0 * mc_se:.4f}: "
        f"{shift_ok}; KS cost of shift {phi0 * abs(shift_small):.4f} vs slack {slack})",
    )

    ks_ok = large["ks_distance"] < KS_LIMIT_5000
    mean_ok = abs(large["mean"]) <= 0.05
    var_ok = 0.9 <= large["variance"] <= 1.1
    _line(
        f"A1 (beta-CLT, linear, n={A1_CLT_N}, R=5000)",
        ks_ok and mean_ok and var_ok,
        f"ks={large['ks_distance']:.4f} (<{KS_LIMIT_5000:.4f}: {ks_ok}), "
        f"mean={large['mean']:.4f} (|.|<=0.05: {mean_ok}; predicted shift {shift_large:.4f}), "
        f"var={large['variance']:.4f} (in [0.9,1.1]: {var_ok})",
    )

    assert shift_ok, (
        f"n={A1_SHIFT_N}: mean of z_beta {small['mean']:.4f} is not within "
        f"3 MC se ({3.0 * mc_se:.4f}) of the predicted shift {shift_small:.4f}"
    )
    assert ks_ok, f"ks_distance {large['ks_distance']:.4f} >= {KS_LIMIT_5000:.4f}"
    assert mean_ok, f"mean of z_beta {large['mean']:.4f} outside +/-0.05"
    assert var_ok, f"variance of z_beta {large['variance']:.4f} outside [0.9, 1.1]"


# -- A2: intercept CLT on the alternating design -----------------------------------


def test_a2_theta_clt_alternating_design():
    config = ExperimentConfig(
        design=DesignSequence("alternating", {"scale": 1.0}),
        model=_normal_spec(),
        n_grid=(2000,),
        replicates=5000,
        seed=SEED,
        variance_source="true",
        tests=("theta-clt", "coverage"),
    )
    report, _ = run_experiment(config, workers=4)
    res = report["grid"][0]["normality"]["z_theta"]
    cov = report["grid"][0]["coverage"]["z_theta"]
    ks_ok = res["ks_distance"] < KS_LIMIT_5000
    cov_ok = 0.93 <= cov["empirical"] <= 0.97
    ok = ks_ok and cov_ok
    _line(
        "A2 (theta-CLT, alternating, n=2000, R=5000)",
        ok,
        f"ks={res['ks_distance']:.4f} (<{KS_LIMIT_5000:.4f}: {ks_ok}), "
        f"coverage={cov['empirical']:.4f} (in [0.93,0.97]: {cov_ok})",
    )
    assert ks_ok and cov_ok


# -- A3: both decomposition identities on 1000 random samples ------------------------


def test_a3_decomposition_identities_everywhere():
    designs = [
        DesignSequence("linear", {"slope": 1.0}, SEED),
        DesignSequence("power", {"exponent": 2.0}, SEED),
        DesignSequence("alternating", {"scale": 1.0}, SEED),
        DesignSequence("geometric", {"base": 2.0}, SEED),
        DesignSequence("bounded", {"scale": 1.0}, SEED),
        DesignSequence("gaussian-iid", {"sd": 1.0}, SEED),
    ]
    families = [
        ("normal", 1.0, None),
        ("uniform-centered", 1.5, None),
        ("laplace", 0.7, None),
        ("student-t", 1.0, 6.0),
        ("scaled-rademacher", 1.2, None),
    ]
    betas = [0.0, 0.5, 2.0, -1.5]
    thetas = [0.0, 1.0]
    sizes = [20, 50, 120]

    exceptions = 0
    worst = 0.0
    for i in range(1000):
        design = designs[i % len(designs)]
        eps_fam = families[i % len(families)]
        delta_fam = families[(i // 5) % len(families)]
        spec = EVModelSpec(
            theta=thetas[i % len(thetas)],
            beta=betas[i % len(betas)],
            eps_dist=ErrorDistribution(eps_fam[0], eps_fam[1], df=eps_fam[2]),
            delta_dist=ErrorDistribution(delta_fam[0], delta_fam[1], df=delta_fam[2]),
        )
        n = sizes[i % len(sizes)]
        if design.kind == "geometric":
            n = min(n, 40)  # keep 2^i within float range
        sample = draw_sample(spec, design, n, seed=SEED, replicate=i, retain_latents=True)
        gaps = identity_gaps(fit(sample), decompose(sample, spec), spec)
        worst = max(worst, *gaps)
        if max(gaps) > 1e-10:
            exceptions += 1
    ok = exceptions == 0
    _line(
        "A3 (decomposition identities, 1000 samples)",
        ok,
        f"exceptions={exceptions}, worst relative gap={worst:.3e} (tolerance 1e-10)",
    )
    assert ok, f"{exceptions} samples violated the identities (worst gap {worst:.3e})"


# -- A4: attenuation counterexample ----------------------------------------------------


def test_a4_gaussian_design_counterexample():
    design = DesignSequence("gaussian-iid", {"sd": 1.0}, seed=SEED)
    entries = counterexample_run(design, _normal_spec(), [1000, 4000], 2000, seed=SEED)
    details = []
    ok = True
    for entry in entries:
        mean_ok = abs(entry["mean_beta_hat"] - 1.0) <= 0.05
        ks_ok = entry["ks_distance_z_beta"] > 0.1
        ok = ok and mean_ok and ks_ok
        details.append(
            f"n={entry['n']}: mean={entry['mean_beta_hat']:.4f} "
            f"(target 1.0, ok: {mean_ok}), ks={entry['ks_distance_z_beta']:.3f} "
            f"(>0.1: {ks_ok})"
        )
    _line("A4 (attenuation counterexample, R=2000)", ok, "; ".join(details))
    assert ok


# -- A5: negligible-term medians shrink along the grid ----------------------------------


def test_a5_negligibility_medians_decrease():
    config = ExperimentConfig(
        design=DesignSequence("linear", {"slope": 1.0}),
        model=_normal_spec(),
        n_grid=(500, 2000, 8000),
        replicates=1000,
        seed=SEED,
        tests=("negligibility",),
    )
    report, _ = run_experiment(config, workers=4)
    medians = {
        key: [entry["negligibility"][key] for entry in report["grid"]]
        for key in ("median_delta_sq", "median_delta_eps", "median_sxx_gap")
    }
    ok = all(
        all(a > b for a, b in zip(path, path[1:])) for path in medians.values()
    )
    _line(
        "A5 (negligibility medians, linear, R=1000)",
        ok,
        "; ".join(f"{k}: " + " > ".join(f"{v:.3e}" for v in vs) for k, vs in medians.items()),
    )
    assert ok
    assert report["tests"]["negligibility"] is True
    assert report["identity_ok"] is True  # identities spot-checked on every replicate


# -- A6: the consistency condition does not imply the CLT condition ----------------------


def test_a6_petrov_necessity():
    spec = _normal_spec()
    grids = {
        "linear": [50, 100, 200, 500, 1000, 2000, 5000, 10000],
        "power": [50, 100, 200, 500, 1000, 2000, 5000, 10000],
        "alternating": [50, 100, 200, 500, 1000, 2000, 5000, 10000],
        "bounded": [50, 100, 200, 500, 1000, 2000, 5000, 10000],
        "gaussian-iid": [50, 100, 200, 500, 1000, 2000, 5000, 10000],
        "geometric": [20, 40, 80, 160, 320],
    }
    agreements = []
    ok = True
    for kind, grid in grids.items():
        design = DesignSequence(kind, seed=SEED)
        report = petrov_conditions(summary_path(design, grid), spec)
        agree = report.paths["petrov-iii"].verdict == report.corollary.verdict
        ok = ok and agree
        agreements.append(f"{kind}: {report.paths['petrov-iii'].verdict} ({'=' if agree else '!='} c6)")

    # synthetic dispersion path S_n = n log^2 n: consistent but no slope CLT
    summaries = [
        DesignSummary(
            n=n,
            mean=0.0,
            s_n=n * math.log(n) ** 2,
            max_dev=abs(math.log(n)),
            s_star=max(float(n), n * math.log(n) ** 2),
        )
        for n in grids["linear"]
    ]
    liu_chen = condition_path("liu-chen-beta", summaries)
    c6 = condition_path("c6", summaries)
    petrov = petrov_conditions(summaries, spec)
    synthetic_ok = (
        liu_chen.verdict == VERDICT_SATISFIED
        and c6.verdict == VERDICT_VIOLATED
        and petrov.paths["petrov-iii"].verdict == VERDICT_VIOLATED
    )
    ok = ok and synthetic_ok
    _line(
        "A6 (Petrov checker necessity)",
        ok,
        "; ".join(agreements)
        + f"; synthetic n*log^2(n): liu-chen={liu_chen.verdict}, c6={c6.verdict}, "
        f"petrov-iii={petrov.paths['petrov-iii'].verdict}",
    )
    assert ok


# -- A7: Lindeberg sums ---------------------------------------------------------------


def test_a7_lindeberg_sums():
    design = DesignSequence("linear", {"slope": 1.0})
    spec = _normal_spec()
    grid = (100, 1000, 10000)
    quads = lindeberg_sum(design, grid, spec, [0.5], method="quadrature")
    mcs = lindeberg_sum(
        design, grid, spec, [0.5], method="monte-carlo", mc_budget=1_000_000, seed=SEED
    )
    values = [quad.sum_value for quad in quads]
    agree = all(
        abs(quad.sum_value - mc.sum_value) <= 4 * max(mc.stderr, 1e-10)
        for quad, mc in zip(quads, mcs)
    )
    decreasing = all(a > b for a, b in zip(values, values[1:]))

    bounded_spec = EVModelSpec(
        theta=0.0,
        beta=2.0,
        eps_dist=ErrorDistribution("uniform-centered", 1.0),
        delta_dist=ErrorDistribution("uniform-centered", 0.5),
    )
    [zero] = lindeberg_sum(design, [100], bounded_spec, [1.0])
    zero_ok = zero.sum_value == 0.0

    ok = decreasing and agree and zero_ok
    _line(
        "A7 (Lindeberg sums, r=0.5)",
        ok,
        f"values={['%.3e' % v for v in values]} (strictly decreasing: {decreasing}), "
        f"quadrature/MC agree within 4 se: {agree}, bounded-law zero case exact: {zero_ok}",
    )
    assert ok


# -- A8: worker-count determinism --------------------------------------------------------


def test_a8_reports_are_worker_invariant():
    config = ExperimentConfig(
        design=DesignSequence("gaussian-iid", {"sd": 1.0}, seed=SEED),
        model=_normal_spec(),
        n_grid=(1000, 4000),
        replicates=2000,
        seed=SEED,
        tests=("counterexample",),
    )
    serial, _ = run_experiment(config, workers=1)
    threaded, _ = run_experiment(config, workers=8)
    ok = report_json_bytes(serial) == report_json_bytes(threaded)
    _line(
        "A8 (determinism across worker counts)",
        ok,
        f"byte-identical reports for workers 1 and 8: {ok}",
    )
    assert ok


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
