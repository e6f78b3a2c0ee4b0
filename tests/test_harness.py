import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri

from evclt import harness, kernels, rng
from evclt.design import DesignSequence, prefix_summaries, summarize
from evclt.errors import ConfigError, ZeroVarianceError
from evclt.estimator import fit
from evclt.harness import (
    DEFAULTS,
    ExperimentConfig,
    counterexample_run,
    coverage,
    ks_statistic,
    report_json_bytes,
    run_experiment,
)
from evclt.model import ErrorDistribution, EVModelSpec, draw_sample


def _brute_force_ks(z):
    z = np.asarray(z, dtype=float)
    count = len(z)
    worst = 0.0
    for t in z:
        cdf = ndtr(t)
        worst = max(worst, abs(np.sum(z <= t) / count - cdf), abs(np.sum(z < t) / count - cdf))
    return worst


# --- KS statistic -----------------------------------------------------------------


def test_ks_perfect_quantile_grid():
    for count in (10, 1000):
        z = ndtri((np.arange(1, count + 1) - 0.5) / count)
        assert ks_statistic(z) == pytest.approx(0.5 / count, rel=1e-12)


def test_ks_point_mass_at_zero():
    assert ks_statistic(np.zeros(50)) == pytest.approx(0.5, abs=1e-15)


def test_ks_preconditions():
    with pytest.raises(ConfigError):
        ks_statistic([0.0])
    with pytest.raises(ConfigError):
        ks_statistic([0.0, float("nan")])


@given(
    st.lists(
        st.floats(min_value=-6.0, max_value=6.0, allow_nan=False), min_size=2, max_size=200
    )
)
@settings(max_examples=60, deadline=None)
def test_ks_matches_brute_force_scan(values):
    z = np.array(values)
    assert ks_statistic(z) == pytest.approx(_brute_force_ks(z), abs=1e-12)


# --- coverage ------------------------------------------------------------------------


def test_coverage_quantile_grid():
    count = 1000
    z = ndtri((np.arange(1, count + 1) - 0.5) / count)
    record = coverage(count, "z_beta", z)
    assert abs(record["empirical"] - 0.95) <= 1.0 / count
    assert record["pass"]
    assert (record["n"], record["nominal"], record["half_width_basis"]) == (count, 0.95, "z_beta")


def test_coverage_degenerate_cases():
    assert coverage(200, "z_beta", np.zeros(200))["empirical"] == 1.0
    assert coverage(200, "z_beta", np.full(200, 10.0))["empirical"] == 0.0
    assert not coverage(200, "z_theta", np.full(200, 10.0))["pass"]


def test_coverage_preconditions():
    # The floor of 100 is on R (ExperimentConfig), not on the replicates used.
    assert coverage(99, "z_beta", np.zeros(99))["empirical"] == 1.0
    with pytest.raises(ConfigError):
        coverage(100, "z_beta", np.zeros(0))


# --- experiment config ----------------------------------------------------------------


def _config(design, spec, **kwargs):
    base = dict(
        design=design,
        model=spec,
        n_grid=(100, 200),
        replicates=200,
        seed=7,
        variance_source="true",
        tests=("beta-clt",),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def _count_grid_points(monkeypatch) -> list[int]:
    """Record the n of every grid-point simulation from here on."""
    calls: list[int] = []
    simulate = harness._simulate_grid_point

    def counted(*args, **kwargs):
        calls.append(kwargs["n"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(harness, "_simulate_grid_point", counted)
    return calls


def test_config_refuses_small_r_for_distributional_tests(linear_design, standard_spec):
    with pytest.raises(ConfigError):
        _config(linear_design, standard_spec, replicates=10)
    # negligibility alone is a median trend, not a distributional test
    cfg = _config(linear_design, standard_spec, replicates=10, tests=("negligibility",))
    assert cfg.replicates == 10


def test_config_refuses_replicate_indices_past_one_key_word(
    monkeypatch, linear_design, standard_spec
):
    calls = _count_grid_points(monkeypatch)
    with pytest.raises(ConfigError, match="2\\^32"):
        _config(linear_design, standard_spec, replicates=2**32 + 1)
    assert calls == []
    assert _config(linear_design, standard_spec, replicates=2**32).replicates == 2**32


def test_config_validation_errors(linear_design, standard_spec):
    with pytest.raises(ConfigError):
        _config(linear_design, standard_spec, tests=("z-test",))
    with pytest.raises(ConfigError):
        _config(linear_design, standard_spec, n_grid=(200, 100))
    with pytest.raises(ConfigError):
        _config(linear_design, standard_spec, variance_source="estimated")
    with pytest.raises(ConfigError):
        _config(linear_design, standard_spec, tests=("counterexample",))
    for bad in ({"replicates": 150.5}, {"replicates": "150"}, {"replicates": True},
                {"seed": 7.5}, {"seed": "7"}, {"seed": None}):
        with pytest.raises(ConfigError, match="whole number"):
            _config(linear_design, standard_spec, **bad)
    # an integral float is the same count: stored as an int, it records the same bytes
    config = _config(linear_design, standard_spec, seed=7.0, replicates=200.0)
    assert type(config.seed) is int and config.seed == 7
    assert type(config.replicates) is int and config.replicates == 200
    as_ints = _config(linear_design, standard_spec, seed=7, replicates=200)
    assert report_json_bytes(config.to_dict()) == report_json_bytes(as_ints.to_dict())


def test_single_point_negligibility_fails_before_any_simulation(
    monkeypatch, linear_design, standard_spec
):
    calls = _count_grid_points(monkeypatch)
    single = dict(n_grid=(200,), replicates=100, tests=("negligibility",))
    with pytest.raises(ConfigError, match="at least 2 grid points"):
        _config(linear_design, standard_spec, **single)
    with pytest.raises(ConfigError, match="at least 2 grid points"):
        run_experiment(_config(linear_design, standard_spec, **single))
    assert calls == []


def test_geometric_overflow_fails_before_any_simulation(monkeypatch, standard_spec):
    calls = _count_grid_points(monkeypatch)
    design = DesignSequence("geometric", {"base": 2.0})
    with pytest.raises(ConfigError, match="overflow"):
        run_experiment(_config(design, standard_spec, n_grid=(100, 1100)))
    with pytest.raises(ConfigError, match="overflow"):
        run_experiment(_config(design, standard_spec, n_grid=(100, 1024)))
    # S_n of 2^1, ..., 2^n, about 4^(n + 1) / 3, first overflows float64 at n = 512.
    with pytest.raises(ConfigError, match="overflows"):
        run_experiment(_config(design, standard_spec, n_grid=(100, 512)))
    assert calls == []
    assert prefix_summaries(design, (100, 511))[1][-1].n == 511


# --- run_experiment --------------------------------------------------------------------


def test_noiseless_run_documented_degenerate_behavior(linear_design, noiseless_spec):
    config = _config(linear_design, noiseless_spec, replicates=150, n_grid=(50,))
    report, _ = run_experiment(config)
    normality = report["grid"][0]["normality"]["z_beta"]
    assert normality["ks_distance"] == pytest.approx(0.5, abs=1e-12)
    assert normality["pass"] is False
    assert report["pass"] is False


def test_run_is_deterministic_and_worker_invariant(linear_design, standard_spec):
    config = _config(
        linear_design,
        standard_spec,
        replicates=300,
        n_grid=(100, 300),
        tests=("beta-clt", "coverage", "negligibility"),
    )
    first, _ = run_experiment(config, workers=1)
    second, _ = run_experiment(config, workers=1)
    assert report_json_bytes(first) == report_json_bytes(second)
    parallel, _ = run_experiment(config, workers=4)
    assert report_json_bytes(first) == report_json_bytes(parallel)


@pytest.mark.parametrize(
    "eps, delta",
    [
        (ErrorDistribution("normal", 1.0), ErrorDistribution("normal", 1.0)),
        (ErrorDistribution("laplace", 0.7), ErrorDistribution("student-t", 1.0, df=6.0)),
    ],
)
@pytest.mark.parametrize("tests", [("beta-clt", "theta-clt"), ("coverage", "negligibility")])
def test_report_does_not_depend_on_chunking(monkeypatch, eps, delta, tests):
    spec = EVModelSpec(theta=1.0, beta=2.0, eps_dist=eps, delta_dist=delta)
    replicates = 100
    config = _config(
        DesignSequence("alternating"),
        spec,
        replicates=replicates,
        n_grid=(60, 120),
        tests=tests,
    )
    reports = set()
    # One row per chunk; 7 rows at n = 120 (14 at n = 60), which split R
    # unevenly; and every replicate in one chunk at both sizes.
    for budget in (1, 8 * 120 * 7, 8 * 120 * replicates):
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        for workers in (1, 2):
            report, _ = run_experiment(config, workers=workers)
            if "negligibility" in tests:
                assert report["identity_ok"] is True
            del report["config"]
            reports.add(report_json_bytes(report))
    assert len(reports) == 1


@pytest.mark.parametrize(
    "n_grid, replicates",
    [((1000, 60_000), 64), ((1000, 300_000), 2)],
)
def test_chunk_rows_follow_from_n(monkeypatch, standard_spec, n_grid, replicates):
    # A block of one chunk stays within CHUNK_BYTES, down to the one-row
    # floor once a single row is larger than the budget (n > CHUNK_BYTES / 8).
    blocks: dict[str, list[tuple[int, int]]] = {"fit_batch": [], "decompose_batch": []}

    def record(name):
        kernel = getattr(kernels, name)

        def wrapped(*args, **kwargs):
            xi = args[0] if name == "fit_batch" else args[1]
            blocks[name].append((xi.shape[1], xi.shape[0]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, wrapped)

    record("fit_batch")
    record("decompose_batch")
    config = _config(
        DesignSequence("alternating"),
        standard_spec,
        replicates=replicates,
        n_grid=n_grid,
        tests=("negligibility",),
    )
    run_experiment(config, workers=2)
    for name, seen in blocks.items():
        for n in n_grid:
            rows = [r for size, r in seen if size == n]
            assert sum(rows) == replicates, (name, n)
            assert max(rows) <= max(1, harness.CHUNK_BYTES // (8 * n)), (name, n)
    assert max(1, harness.CHUNK_BYTES // (8 * n_grid[-1])) < replicates


def test_parallel_chunks_fill_disjoint_slices(monkeypatch, linear_design, standard_spec):
    # Chunks write straight into shared per-replicate arrays. With more
    # threads than cores, one row per chunk and a short switch interval the
    # writes interleave densely; a lost or misplaced write changes a value.
    monkeypatch.setattr(harness, "CHUNK_BYTES", 1)
    n = 50
    x = linear_design.generate(n)
    summary = summarize(x)

    def simulate(workers):
        return harness._simulate_grid_point(
            spec=standard_spec,
            x=x,
            summary=summary,
            n=n,
            replicates=300,
            seed=3,
            need_latents=True,
            need_rvar=True,
            workers=workers,
        )

    serial = simulate(1)
    result = {}
    thread = threading.Thread(target=lambda: result.update(stats=simulate(8)), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    parallel = result["stats"]
    for name in ("valid", "beta_hat", "theta_hat", "rvar", "ratios"):
        np.testing.assert_array_equal(getattr(parallel, name), getattr(serial, name))
    assert parallel.identity_gap == serial.identity_gap


@pytest.mark.parametrize("n, replicates", [(300, 440), (20000, 8)])
@pytest.mark.parametrize(
    "eps_dist",
    [
        ErrorDistribution("normal", 1.0),
        ErrorDistribution("laplace", 1.0),
        ErrorDistribution("student-t", 1.0, df=6),
    ],
    ids=lambda dist: dist.family,
)
def test_grid_point_values_are_those_of_fit_on_draw_sample(linear_design, eps_dist, n, replicates):
    # The grid point draws from keys hashed once for all its replicates
    # (rng.replicate_keys), in chunks under 2 workers; draw_sample keys each
    # stream by the tuple (seed, n, replicate, stream). Both must give the
    # same draws, and fit the same bits. At n = 300 the replicates span 3
    # chunks; n = 20000 is longer than a slice (kernels.SLICE) and its 8
    # replicates span 3 chunks too.
    spec = EVModelSpec(1.0, 2.0, eps_dist, ErrorDistribution("normal", 1.0))
    x = linear_design.generate(n)
    stats = harness._simulate_grid_point(
        spec=spec,
        x=x,
        summary=summarize(x),
        n=n,
        replicates=replicates,
        seed=11,
        need_latents=False,
        need_rvar=True,
        workers=2,
    )
    fits = [fit(draw_sample(spec, linear_design, n, 11, r)) for r in range(replicates)]
    np.testing.assert_array_equal(stats.beta_hat, [f.beta_hat for f in fits])
    np.testing.assert_array_equal(stats.theta_hat, [f.theta_hat for f in fits])
    np.testing.assert_array_equal(stats.rvar, [f.residual_var for f in fits])


def test_a_failing_worker_stops_the_pool_within_one_chunk(
    monkeypatch, linear_design, standard_spec
):
    # One-row chunks under 2 workers, and the 3rd fit_batch call raises. The
    # other worker stops before its next chunk, so the error reaches the
    # caller after at most one more call per worker, not after that
    # worker's whole share of the 300 chunks. A Ctrl-C in the waiting thread
    # stops the workers the same way.
    monkeypatch.setattr(harness, "CHUNK_BYTES", 1)
    workers, calls, lock = 2, [], threading.Lock()
    # each worker's first call waits for the other's, so that both are
    # running when one fails
    all_started, started = threading.Barrier(workers, timeout=60), set()
    real_fit_batch = harness.kernels.fit_batch

    def failing_fit_batch(*args, **kwargs):
        with lock:
            first = threading.get_ident() not in started
            started.add(threading.get_ident())
        if first:
            all_started.wait()
        with lock:
            calls.append(None)
            call = len(calls)
        if call == 3:
            raise RuntimeError("chunk failed")
        return real_fit_batch(*args, **kwargs)

    monkeypatch.setattr(harness.kernels, "fit_batch", failing_fit_batch)
    n = 50
    x = linear_design.generate(n)
    with pytest.raises(RuntimeError, match="chunk failed"):
        harness._simulate_grid_point(
            spec=standard_spec,
            x=x,
            summary=summarize(x),
            n=n,
            replicates=300,
            seed=3,
            need_latents=False,
            need_rvar=False,
            workers=workers,
        )
    assert 3 <= len(calls) <= 2 + workers


@pytest.mark.parametrize("chunk_bytes", [1, pytest.param(None, id="default")])
@pytest.mark.parametrize("workers", [1, 2])
def test_replicate_keys_are_hashed_once_per_stream_not_per_chunk(
    monkeypatch, linear_design, standard_spec, chunk_bytes, workers
):
    if chunk_bytes is not None:
        monkeypatch.setattr(harness, "CHUNK_BYTES", chunk_bytes)
    hashed = []
    philox_keys = rng._philox_keys

    def counted(entropy):
        hashed.append(len(entropy))
        return philox_keys(entropy)

    monkeypatch.setattr(rng, "_philox_keys", counted)
    n, replicates = 50, 300
    x = linear_design.generate(n)
    harness._simulate_grid_point(
        spec=standard_spec,
        x=x,
        summary=summarize(x),
        n=n,
        replicates=replicates,
        seed=3,
        need_latents=True,
        need_rvar=False,
        workers=workers,
    )
    # One hash of all replicates for each of the eps and delta streams,
    # whatever the number of chunks (300 of them at one row per chunk).
    assert hashed == [replicates, replicates]


# sha256 of report_json_bytes for small runs, taken before the chunk pipeline
# reused per-worker blocks and transformed them in place (the student-t df 6
# row since that law's closed-form quantile, the student-t df 5 row since its
# variance became the exact fraction); a change that moves any output bit
# changes these. Every error family appears, two with scale 0,
# under both variance sources, with and without the negligibility latents.
_PINNED_REPORTS = [
    (
        ErrorDistribution("normal", 1.0),
        ErrorDistribution("uniform-centered", 1.5),
        "true",
        ("beta-clt", "theta-clt"),
        "fc95996d50609759d51df060439f4efe9652327cb477900243dd64122f844eb9",
    ),
    (
        ErrorDistribution("laplace", 0.8),
        ErrorDistribution("student-t", 1.0, df=6.0),
        "plug-in",
        ("beta-clt", "coverage", "negligibility"),
        "ea80455bfd1458aecaf7ceb307e68c1fd6b9ed62ae01ce4202ccb1eb43278ab4",
    ),
    (
        ErrorDistribution("student-t", 1.2, df=5.0),
        ErrorDistribution("scaled-rademacher", 0.5),
        "true",
        ("negligibility",),
        "5ea778e06f0784dc8a63ec7f1879e9aac12cfd69f9a341d78fc68e8fd9250ca5",
    ),
    (
        ErrorDistribution("normal", 0.0),
        ErrorDistribution("laplace", 1.0),
        "plug-in",
        ("beta-clt",),
        "5499217c85135616a427945e5c7efa480fce8989279a5cbaf303eb6ec9590597",
    ),
    (
        ErrorDistribution("scaled-rademacher", 1.0),
        ErrorDistribution("uniform-centered", 0.0),
        "plug-in",
        ("theta-clt", "negligibility"),
        "e9cb994858515c76194036f4ccbc30105ce4c9cbdb2a08e93a637398894a541c",
    ),
]


@pytest.mark.filterwarnings("ignore:theta-clt requested")
@pytest.mark.parametrize("eps, delta, variance_source, tests, digest", _PINNED_REPORTS)
@pytest.mark.parametrize(
    "chunk_bytes", [pytest.param(harness.CHUNK_BYTES, id="default"), 8 * 120 * 7]
)
@pytest.mark.parametrize("workers", [1, 2])
def test_report_bytes_are_pinned(
    monkeypatch, eps, delta, variance_source, tests, digest, chunk_bytes, workers
):
    # The default budget puts all 100 replicates in one chunk; the small one
    # gives 7 rows at n = 120 and 14 at n = 60, split over both workers.
    monkeypatch.setattr(harness, "CHUNK_BYTES", chunk_bytes)
    spec = EVModelSpec(theta=1.0, beta=2.0, eps_dist=eps, delta_dist=delta)
    config = _config(
        DesignSequence("linear"),
        spec,
        n_grid=(60, 120),
        replicates=100,
        seed=11,
        variance_source=variance_source,
        tests=tests,
    )
    report, _ = run_experiment(config, workers=workers)
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == digest


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("need_latents, blocks", [(False, 2), (True, 4)])
def test_grid_point_working_memory_is_a_few_chunk_blocks(need_latents, blocks, workers):
    # At n = CHUNK_BYTES // 40 a chunk holds 5 rows, so one (rows, n) data
    # block is just under CHUNK_BYTES, and one row is under a slice; at
    # n = CHUNK_BYTES // 10, above kernels.SLICE, a chunk is one row. Each
    # worker reuses 2 data blocks (xi, eta), or 4 when the latents are kept,
    # a product scratch of one slice (one row where a row is longer), and
    # the student-t sampler's temporaries (under 5 slices, see
    # test_model.py). theta + beta x and d(x) are formed in the scratch and
    # in eta's first row, so the grid point holds no n-long row of its own,
    # and only the per-replicate arrays come on top. A spare row or block
    # per worker, as a design row held per grid point or a full (rows, n)
    # product scratch would take, breaks the bound.
    spec = EVModelSpec(
        theta=1.0,
        beta=2.0,
        eps_dist=ErrorDistribution("student-t", 1.0, df=6.0),
        delta_dist=ErrorDistribution("normal", 1.0),
    )
    replicates = 20
    slice_bytes = 8 * kernels.SLICE
    per_replicate = 8 * replicates * 16
    for n, rows in ((harness.CHUNK_BYTES // 40, 5), (harness.CHUNK_BYTES // 10, 1)):
        x = DesignSequence("linear").generate(n)
        summary = summarize(x)
        assert harness.CHUNK_BYTES // (8 * n) == rows
        assert (n > kernels.SLICE) == (rows == 1)
        tracemalloc.start()
        try:
            harness._simulate_grid_point(
                spec=spec,
                x=x,
                summary=summary,
                n=n,
                replicates=replicates,
                seed=1,
                need_latents=need_latents,
                need_rvar=True,
                workers=workers,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_worker = blocks * 8 * rows * n + max(slice_bytes, 8 * n) + 5 * slice_bytes
        assert peak < workers * per_worker + per_replicate, n


def test_beta_clt_passes_at_moderate_scale(standard_spec):
    # alternating design keeps the slope bias small even at n=500
    config = ExperimentConfig(
        design=DesignSequence("alternating"),
        model=standard_spec,
        n_grid=(500,),
        replicates=400,
        seed=11,
        tests=("beta-clt",),
    )
    report, _ = run_experiment(config)
    assert report["tests"]["beta-clt"] is True


def test_theta_clt_warns_when_intercept_condition_fails(linear_design, standard_spec):
    config = _config(linear_design, standard_spec, tests=("theta-clt",), n_grid=(100, 200))
    with pytest.warns(UserWarning, match="c17"):
        report, _ = run_experiment(config)
    assert report["warnings"]


def test_negligibility_medians_decrease(linear_design, standard_spec):
    config = _config(
        linear_design,
        standard_spec,
        replicates=200,
        n_grid=(200, 800),
        tests=("negligibility",),
    )
    report, _ = run_experiment(config)
    first, second = report["grid"]
    for key in ("median_delta_sq", "median_delta_eps", "median_sxx_gap"):
        assert first["negligibility"][key] > second["negligibility"][key]
    assert report["tests"]["negligibility"] is True
    assert report["identity_ok"] is True


def test_skip_policy_counts_and_fails_run():
    # constant design at n=2 with rademacher measurement error: the observed
    # regressor column is constant whenever the two signs agree, so about
    # half the replicates are singular and must be skipped and counted
    spec = EVModelSpec(
        theta=0.0,
        beta=1.0,
        eps_dist=ErrorDistribution("normal", 1.0),
        delta_dist=ErrorDistribution("scaled-rademacher", 1.0),
    )
    config = ExperimentConfig(
        design=DesignSequence("constant", {"value": 0.0}),
        model=spec,
        n_grid=(2,),
        replicates=400,
        seed=3,
        tests=("beta-clt",),
    )
    report, _ = run_experiment(config)
    entry = report["grid"][0]
    assert entry["skipped"] > 0
    assert entry["skipped"] + entry["replicates_used"] == 400
    assert report["skip_ok"] is False
    assert report["pass"] is False


def test_negative_seed_is_usable(linear_design, standard_spec):
    config = _config(linear_design, standard_spec, seed=-7, n_grid=(100,), replicates=150)
    report, _ = run_experiment(config)
    assert report["config"]["seed"] == -7


def test_plug_in_variance_source(linear_design, standard_spec, noiseless_spec):
    config = _config(linear_design, standard_spec, variance_source="plug-in", n_grid=(200,))
    report, _ = run_experiment(config)
    assert math.isfinite(report["grid"][0]["normality"]["z_beta"]["ks_distance"])
    bad = _config(linear_design, noiseless_spec, variance_source="plug-in", n_grid=(50,))
    with pytest.raises(ZeroVarianceError):
        run_experiment(bad)


def test_collect_samples_shapes(linear_design, standard_spec):
    config = _config(linear_design, standard_spec, n_grid=(100,), replicates=150)
    report, samples = run_experiment(config, collect_samples=True)
    assert samples is not None
    assert samples["z_beta"][100].shape == (150,)
    assert report["grid"][0]["replicates_used"] == 150


# --- counterexample ----------------------------------------------------------------------


def test_counterexample_requires_gaussian_design(linear_design, standard_spec):
    with pytest.raises(ConfigError):
        counterexample_run(linear_design, standard_spec, [200], 200, seed=1)


def test_counterexample_attenuation_and_refutation(standard_spec):
    design = DesignSequence("gaussian-iid", {"sd": 1.0}, seed=5)
    entries = counterexample_run(design, standard_spec, [1000], 300, seed=9)
    entry = entries[0]
    # V_x = 1, sigma1^2 = 1, beta = 2: the slope collapses to about 1
    assert entry["attenuation_target"] == pytest.approx(1.0)
    assert abs(entry["mean_beta_hat"] - 1.0) < 0.05
    assert entry["ks_distance_z_beta"] > 0.5
    assert entry["pass"] is True


def test_counterexample_without_measurement_error():
    spec = EVModelSpec(
        theta=1.0,
        beta=2.0,
        eps_dist=ErrorDistribution("normal", 1.0),
        delta_dist=ErrorDistribution("normal", 0.0),
    )
    design = DesignSequence("gaussian-iid", {"sd": 1.0}, seed=5)
    entry = counterexample_run(design, spec, [500], 300, seed=9)[0]
    assert entry["attenuation_target"] == pytest.approx(2.0)  # no attenuation
    assert abs(entry["mean_beta_hat"] - 2.0) < 0.05
    assert entry["normality_refuted"] is False  # the clean CLT is back


def test_counterexample_spread_grows_with_n(standard_spec):
    design = DesignSequence("gaussian-iid", {"sd": 1.0}, seed=5)
    entries = counterexample_run(design, standard_spec, [200, 800], 200, seed=9)
    # the standardized statistic drifts: its KS distance stays saturated
    assert all(e["ks_distance_z_beta"] > 0.5 for e in entries)
    small, large = entries
    assert large["ks_distance_z_beta"] >= small["ks_distance_z_beta"] - 0.05


def test_run_experiment_with_counterexample_test(standard_spec):
    config = ExperimentConfig(
        design=DesignSequence("gaussian-iid", {"sd": 1.0}, seed=5),
        model=standard_spec,
        n_grid=(300,),
        replicates=300,
        seed=17,
        tests=("counterexample",),
    )
    report, _ = run_experiment(config)
    assert report["counterexample"][0]["pass"] is True
    assert report["tests"]["counterexample"] is True
    assert report["pass"] is True


def test_counterexample_reads_the_replicates_of_the_same_run(monkeypatch, standard_spec):
    design = DesignSequence("gaussian-iid", {"sd": 1.0}, seed=5)
    config = ExperimentConfig(
        design=design,
        model=standard_spec,
        n_grid=(200, 400),
        replicates=200,
        seed=9,
        tests=("beta-clt", "counterexample"),
    )
    calls = _count_grid_points(monkeypatch)
    report, _ = run_experiment(config)
    assert calls == [200, 400]  # one simulation pass per grid point
    assert report["counterexample"] == counterexample_run(
        design, standard_spec, (200, 400), 200, seed=9
    )
    # the counterexample always standardizes with the true V
    plug_in, _ = run_experiment(dataclasses.replace(config, variance_source="plug-in"))
    assert plug_in["grid"] != report["grid"]
    assert plug_in["counterexample"] == report["counterexample"]


@pytest.mark.parametrize("variance_source, per_point", [("true", 2), ("plug-in", 3)])
def test_one_ks_per_statistic_and_variance_source(
    monkeypatch, standard_spec, variance_source, per_point
):
    # The report reads z_beta and z_theta under the run's variance source and
    # the counterexample reads z_beta under the true V: under the true V that
    # is one record, so each grid point makes 2 KS calls, and 3 under plug-in.
    calls: list[list[int]] = []
    simulate, ks = harness._simulate_grid_point, harness.ks_statistic

    def simulate_counted(*args, **kwargs):
        calls.append([])
        return simulate(*args, **kwargs)

    def ks_counted(samples):
        calls[-1].append(len(samples))
        return ks(samples)

    monkeypatch.setattr(harness, "_simulate_grid_point", simulate_counted)
    monkeypatch.setattr(harness, "ks_statistic", ks_counted)
    config = ExperimentConfig(
        design=DesignSequence("gaussian-iid", {"sd": 1.0}, seed=5),
        model=standard_spec,
        n_grid=(200, 400),
        replicates=200,
        seed=9,
        variance_source=variance_source,
        tests=("beta-clt", "counterexample"),
    )
    report, _ = run_experiment(config)
    assert [len(c) for c in calls] == [per_point, per_point]
    same_record = [
        entry["ks_distance_z_beta"] == point["normality"]["z_beta"]["ks_distance"]
        for entry, point in zip(report["counterexample"], report["grid"])
    ]
    assert same_record == [variance_source == "true"] * 2


def test_defaults_roundtrip():
    assert DEFAULTS.to_dict()["ks_critical_coefficient"] == 1.36
    assert DEFAULTS.to_dict()["coverage_nominal"] == 0.95
