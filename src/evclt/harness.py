"""Monte Carlo harness: replicate the model at each grid point, standardize
the estimators, and test the empirical law against the standard normal.

Determinism contract: every random draw is keyed by (seed, n, replicate,
stream), and each stream's keys are hashed once per grid point; a replicate
chunk holds ``max(1, CHUNK_BYTES // (8 * n))`` rows, a count that follows
from n alone, draws from its slice of those keys, and writes its results at
its own replicate indices, so a run's report is a pure function of its
configuration regardless of worker count. Beside the design row x, a grid
point holds only each worker's workspace: its (rows, n) data blocks and a
product scratch of one slice (``kernels.SLICE``), or of one row where a row
is longer. theta + beta x and the centered d(x) are formed per chunk in
rows of those buffers that are idle at that moment.

Every verdict takes one path. At each grid point the replicates are
standardized once per variance source the report reads (the run's own, and
the true V for the counterexample), each (statistic, source) pair it reads
is KS-tested once into one record, and the pass flags come from one table
(``_VERDICTS``) over the report's entries. The KS pass threshold is the
classical 5% critical value 1.36 / sqrt(R) plus a fixed absolute slack
that budgets for pre-asymptotic (finite-n) deviation separately from
Monte Carlo noise.
"""

from __future__ import annotations

import json
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from collections.abc import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from . import kernels
from .asymptotics import VERDICT_SATISFIED, condition_path
from .design import DesignSequence, DesignSummary, check_grid, entries, prefix_summaries
from .design import whole_number
from .design import summarize  # noqa: F401  (perfbench/tracer.py patches harness.summarize)
from .errors import ConfigError, DegenerateDesignError
from .estimator import (
    Decomposition,
    check_variance_source,
    negligible_ratios,
    singular_threshold,
    slope_identity_gaps,
    standardized_errors,
    standardizing_variance,
)
from .model import EVModelSpec
from .rng import MAX_REPLICATES, STREAM_DELTA, STREAM_EPS, replicate_keys, uniforms

# Bytes of one float64 (rows, n) data block of a replicate chunk. A worker
# holds 2 data blocks (4 with the latents) and slice-sized buffers only
# (kernels.SLICE): the kernels' product scratch (one row where n > SLICE)
# and the closed-form student-t temporaries, so no block of headroom ties
# the budget to the slice. Above n = CHUNK_BYTES / 16 a chunk is one row,
# and a grid point holds no n-long row beside x and these buffers.
# With keys hashed once per grid point, peak RSS falls with the
# budget, and CPU time is level from 512 KiB to 2 MiB; 256 KiB cost 3 to
# 10% more on two of the three simulate workloads
# (benchmarks/BENCH_chunk-budget.json).
CHUNK_BYTES = 1 << 19

_STATISTICS = ("z_beta", "z_theta")


def _coverage_verdict(grid: list[dict], counterexample: list[dict], tests: Sequence[str]) -> bool:
    """Coverage of the statistics whose CLT is requested, of both if neither is."""
    names = [s for s, t in zip(_STATISTICS, ("beta-clt", "theta-clt")) if t in tests]
    return all(e["coverage"][s]["pass"] for e in grid for s in names or _STATISTICS)


# Each test kind's pass flag, from the report's grid entries, its
# counterexample entries and the requested kinds; the keys are the kinds.
_VERDICTS = {
    "beta-clt": lambda grid, ce, tests: all(e["normality"]["z_beta"]["pass"] for e in grid),
    "theta-clt": lambda grid, ce, tests: all(e["normality"]["z_theta"]["pass"] for e in grid),
    "coverage": _coverage_verdict,
    # every negligibility median falls strictly from one grid point to the next
    "negligibility": lambda grid, ce, tests: all(
        a["negligibility"][k] > b["negligibility"][k]
        for a, b in zip(grid, grid[1:])
        for k in a["negligibility"]
    ),
    "counterexample": lambda grid, ce, tests: all(e["pass"] for e in ce),
}
TEST_KINDS = tuple(_VERDICTS)
DISTRIBUTIONAL_TESTS = frozenset({"beta-clt", "theta-clt", "coverage", "counterexample"})


@dataclass(frozen=True)
class HarnessDefaults:
    """Every pass/fail threshold of the harness, in one place. They are fixed
    (read from ``DEFAULTS``, never configured), so that a verdict means the
    same thing in every run; each report records them under
    ``config.defaults``."""

    ks_critical_coefficient: float = 1.36
    ks_absolute_slack: float = 0.01
    coverage_nominal: float = 0.95
    coverage_slack: float = 0.02
    counterexample_mean_tol: float = 0.05
    counterexample_ks_min: float = 0.1
    max_skip_fraction: float = 0.01
    min_distributional_replicates: int = 100
    identity_gap_max: float = 1e-10


DEFAULTS = HarnessDefaults()

DEFAULT_N_GRID = (50, 100, 200, 500, 1000, 2000, 5000, 10000)


@dataclass(frozen=True)
class ExperimentConfig:
    design: DesignSequence
    model: EVModelSpec
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replicates: int = 1000
    seed: int = 0
    variance_source: str = "true"
    tests: tuple[str, ...] = ("beta-clt",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", check_grid(self.n_grid))
        tests = tuple(str(t) for t in entries(self.tests, "tests"))
        if not tests:
            raise ConfigError(f"tests must name at least one of {TEST_KINDS}")
        for i, t in enumerate(tests):
            if t not in TEST_KINDS:
                raise ConfigError(f"unknown test kind {t!r}; expected one of {TEST_KINDS}")
            if t in tests[:i]:
                raise ConfigError(f"tests lists {t!r} twice")
        object.__setattr__(self, "tests", tests)
        check_variance_source(self.variance_source)
        object.__setattr__(self, "replicates", whole_number(self.replicates, "config.replicates"))
        object.__setattr__(self, "seed", whole_number(self.seed, "config.seed"))
        if self.replicates < 2:
            raise ConfigError("need at least 2 replicates")
        if self.replicates > MAX_REPLICATES:
            raise ConfigError(
                f"replicates must not exceed 2^32 (one key word per replicate), "
                f"got {self.replicates}"
            )
        needs_r = DISTRIBUTIONAL_TESTS.intersection(tests)
        if needs_r and self.replicates < DEFAULTS.min_distributional_replicates:
            raise ConfigError(
                f"distributional tests {sorted(needs_r)} need R >= "
                f"{DEFAULTS.min_distributional_replicates}, got {self.replicates}"
            )
        if "counterexample" in tests and self.design.kind != "gaussian-iid":
            raise ConfigError("the counterexample test needs a gaussian-iid design")
        if "negligibility" in tests and len(self.n_grid) < 2:
            raise ConfigError("the negligibility trend needs at least 2 grid points")
        # Sums of n values of eta must stay finite. The check is the model's,
        # as compiling this module, the package's largest, sets the import's
        # heap high-water (see ``special.py``): here it cost 0.05 MB of RSS.
        self.model.check_sums(self.design, self.n_grid[-1])

    def to_dict(self) -> dict:
        return {**asdict(self), "model": self.model.to_dict(), "defaults": asdict(DEFAULTS)}


# ---------------------------------------------------------------------------
# elementary statistics
# ---------------------------------------------------------------------------


def ks_statistic(samples: Sequence[float] | np.ndarray) -> float:
    """Exact sup-distance of the empirical CDF from the standard normal CDF,
    via the sorted-sample formula."""
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise ConfigError("ks_statistic needs at least 2 samples")
    if not np.all(np.isfinite(z)):
        raise ConfigError("ks_statistic needs finite samples")
    z = np.sort(z)
    count = z.size
    cdf = ndtr(z)
    i = np.arange(1, count + 1, dtype=np.float64)
    return float(max(np.max(i / count - cdf), np.max(cdf - (i - 1) / count)))


def _ks_record(n: int, statistic: str, z: np.ndarray, threshold: float) -> dict:
    """The KS record of one standardized statistic at one grid point, which
    the normality entries and the counterexample read."""
    ks = ks_statistic(z)
    return {
        "n": n,
        "statistic": statistic,
        "ks_distance": ks,
        "ks_threshold": threshold,
        "mean": float(np.mean(z)),
        "variance": float(np.var(z, ddof=1)),
        "pass": ks < threshold,
    }


def coverage(n: int, statistic: str, z: np.ndarray) -> dict:
    """The coverage record of one standardized statistic at one grid point:
    the share of ``z`` inside the symmetric normal interval of level
    ``DEFAULTS.coverage_nominal``, which passes within
    ``DEFAULTS.coverage_slack`` of that level. The floor on R is
    ``ExperimentConfig``'s; replicates skipped below it are the skip gate's
    to flag."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ConfigError("coverage needs at least one sample")
    nominal = DEFAULTS.coverage_nominal
    half_width = float(ndtri((1.0 + nominal) / 2.0))
    empirical = float(np.mean(np.abs(z) <= half_width))
    return {
        "n": n,
        "nominal": nominal,
        "empirical": empirical,
        "stderr": math.sqrt(empirical * (1.0 - empirical) / z.size),
        "half_width_basis": statistic,
        "pass": abs(empirical - nominal) <= DEFAULTS.coverage_slack,
    }


# ---------------------------------------------------------------------------
# replicate simulation
# ---------------------------------------------------------------------------


@dataclass
class _GridPointStats:
    n: int
    s_n: float
    valid: np.ndarray  # boolean mask over replicates
    beta_hat: np.ndarray
    theta_hat: np.ndarray
    rvar: np.ndarray | None  # mean squared residuals, kept for plug-in V only
    ratios: np.ndarray | None  # (R, 3) negligibility ratios (third one signed)
    identity_gap: float | None


def _simulate_grid_point(
    spec: EVModelSpec,
    x: np.ndarray,
    summary: DesignSummary,
    n: int,
    replicates: int,
    seed: int,
    need_latents: bool,
    need_rvar: bool,
    workers: int,
) -> _GridPointStats:
    beta_hat = np.empty(replicates)
    theta_hat = np.empty(replicates)
    sxx = np.empty(replicates)
    xi_mean = np.empty(replicates)
    rvar = np.empty(replicates) if need_rvar else None
    sums = np.empty((5, replicates)) if need_latents else None

    x_mean = np.mean(x)  # d(x) = x - x_mean, formed per chunk for decompose_batch
    # Each stream's keys are hashed once per grid point; chunks take slices.
    eps_keys = replicate_keys(seed, n, replicates, STREAM_EPS)
    delta_keys = replicate_keys(seed, n, replicates, STREAM_DELTA)
    rows = min(max(1, CHUNK_BYTES // (8 * n)), replicates)
    starts = range(0, replicates, rows)
    workers = min(workers, len(starts))
    # Set when a worker fails or the wait on the pool ends: each worker checks
    # it before its next chunk, so that leaving the pool, which joins every
    # worker, waits for at most one more chunk per worker (a Ctrl-C, say).
    stop = threading.Event()

    def work(first: int) -> None:
        # A worker takes every workers-th chunk and reuses one workspace for
        # all of them: the data blocks xi and eta, plus the latent eps and
        # delta when they are kept (else delta becomes xi and eps eta in
        # place), and the kernels' product scratch of one slice (one row
        # where n > SLICE). Each chunk owns the disjoint slice [lo, hi) of
        # every output array.
        workspace = np.empty((4 if need_latents else 2, rows, n))
        xi_buf, eta_buf = workspace[:2]
        delta_buf, eps_buf = workspace[2:] if need_latents else (xi_buf, eta_buf)
        scratch = kernels.slice_scratch(n, rows)
        try:
            for lo in starts[first::workers]:
                if stop.is_set():
                    return
                hi = min(lo + rows, replicates)
                k = hi - lo
                e = uniforms(eps_keys[lo:hi], n, out=eps_buf[:k])
                d = uniforms(delta_keys[lo:hi], n, out=delta_buf[:k])
                spec.eps_dist.sample(e, out=e)
                spec.delta_dist.sample(d, out=d)
                xi = np.add(d, x, out=xi_buf[:k])
                # theta + beta x in the scratch's first row, idle until the fit
                eta_base = np.multiply(x, spec.beta, out=scratch[0])
                eta_base += spec.theta
                eta = np.add(e, eta_base, out=eta_buf[:k])
                beta_hat[lo:hi], theta_hat[lo:hi], sxx[lo:hi], xi_mean[lo:hi] = kernels.fit_batch(
                    xi, eta, scratch=scratch
                )
                if need_rvar:
                    rvar[lo:hi] = kernels.residual_variance(
                        xi, eta, beta_hat[lo:hi], scratch=scratch
                    )
                if need_latents:
                    # d(x) in eta's first row, which the residual pass left idle
                    x_dev = np.subtract(x, x_mean, out=eta_buf[0])
                    sums[:, lo:hi] = kernels.decompose_batch(x_dev, xi, e, d, scratch=scratch)
        except BaseException:
            stop.set()  # the other workers stop too
            raise

    if workers <= 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                list(pool.map(work, range(workers)))
            finally:
                stop.set()

    valid = sxx >= singular_threshold(n, xi_mean)

    ratios = None
    identity_gap = None
    if need_latents:
        decomp = Decomposition.from_sums(spec.beta, *sums, sxx)
        ratios = np.column_stack(negligible_ratios(decomp, summary))
        with np.errstate(invalid="ignore", divide="ignore"):
            gaps = np.maximum(
                *slope_identity_gaps(
                    beta_hat, spec.beta, decomp.slope_error_direct(), decomp.slope_error_split()
                )
            )
        identity_gap = float(np.max(gaps[valid])) if np.any(valid) else 0.0

    return _GridPointStats(
        n=n,
        s_n=summary.s_n,
        valid=valid,
        beta_hat=beta_hat,
        theta_hat=theta_hat,
        rvar=rvar,
        ratios=ratios,
        identity_gap=identity_gap,
    )


def _standardized(
    stats: _GridPointStats, spec: EVModelSpec, variance_source: str
) -> dict[str, np.ndarray]:
    """z_beta and z_theta over the valid replicates, by name."""
    valid = stats.valid
    rvar = None if stats.rvar is None else stats.rvar[valid]
    z = standardized_errors(
        stats.beta_hat[valid] - spec.beta,
        stats.theta_hat[valid] - spec.theta,
        stats.s_n,
        stats.n,
        standardizing_variance(spec, variance_source, rvar),
    )
    return dict(zip(_STATISTICS, z))


def _counterexample_entry(
    stats: _GridPointStats, design: DesignSequence, spec: EVModelSpec, record: dict
) -> dict:
    """Random-regressor attenuation check at one grid point: the slope
    estimate drifts to the analytic limit beta * V_x / (V_x + sigma1^2) and
    its standardized version fails normality. ``record`` is the KS record of
    z_beta under the true V, whatever the run's variance source."""
    v_x = design.params["sd"] ** 2
    sigma1_sq = spec.delta_dist.variance()
    target = spec.beta * v_x / (v_x + sigma1_sq) if (v_x + sigma1_sq) > 0 else spec.beta
    beta_valid = stats.beta_hat[stats.valid]
    mean_beta = float(np.mean(beta_valid))
    ks = record["ks_distance"]
    refuted = ks >= DEFAULTS.counterexample_ks_min
    mean_ok = abs(mean_beta - target) <= DEFAULTS.counterexample_mean_tol
    return {
        "n": stats.n,
        "mean_beta_hat": mean_beta,
        "var_beta_hat": float(np.var(beta_valid, ddof=1)),
        "attenuation_target": target,
        "ks_distance_z_beta": ks,
        "normality_refuted": refuted,
        "pass": bool(refuted and mean_ok),
    }


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    collect_samples: bool = False,
) -> tuple[dict, dict | None]:
    """Run the configured tests; returns (report, samples).

    ``samples`` maps statistic name -> {n: standardized values} when
    ``collect_samples`` is set, else None. The report is a JSON-ready dict
    and is byte-identical for any worker count.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    report_warnings: list[str] = []
    need_latents = "negligibility" in config.tests
    source = config.variance_source
    # The (statistic, variance source) pairs the report reads: the run's
    # own two and, for the counterexample, z_beta under the true V.
    pairs = [("z_beta", "true")] if "counterexample" in config.tests else []
    pairs = list(dict.fromkeys(pairs + [(name, source) for name in _STATISTICS]))
    sources = list(dict.fromkeys(src for _, src in pairs))

    # Every grid point's design summary comes first, so that a design whose
    # dispersion overflows, or is zero where ratios divide by it, fails
    # before any replicate is simulated.
    x_full, summaries = prefix_summaries(config.design, config.n_grid)
    degenerate = [s.n for s in summaries if s.s_n <= 0.0]
    if need_latents and degenerate:
        raise DegenerateDesignError(
            f"negligibility ratios need S_n > 0 (constant design at n={degenerate[0]})"
        )

    if "theta-clt" in config.tests:
        c17 = condition_path("c17", summaries)["verdict"]
        if c17 != VERDICT_SATISFIED:
            msg = (
                "theta-clt requested but the design's intercept condition "
                f"(c17) is {c17}; refutation runs are legitimate"
            )
            warnings.warn(msg, stacklevel=2)
            report_warnings.append(msg)

    grid_entries: list[dict] = []
    counterexample_entries: list[dict] = []
    samples: dict[str, dict[int, np.ndarray]] = {name: {} for name in _STATISTICS}
    skip_ok = True
    identity_ok = True

    for n, summary in zip(config.n_grid, summaries):
        stats = _simulate_grid_point(
            spec=config.model,
            x=x_full[:n],
            summary=summary,
            n=n,
            replicates=config.replicates,
            seed=config.seed,
            need_latents=need_latents,
            need_rvar=source == "plug-in",
            workers=workers,
        )
        used = int(np.count_nonzero(stats.valid))
        skipped = config.replicates - used
        skip_fraction = skipped / config.replicates
        if skip_fraction > DEFAULTS.max_skip_fraction:
            skip_ok = False
        if used < 2:
            raise ConfigError(
                f"fewer than 2 non-singular replicates at n={n}; design/model degenerate"
            )
        ks_threshold = (
            DEFAULTS.ks_critical_coefficient / math.sqrt(used) + DEFAULTS.ks_absolute_slack
        )
        # Each variance source is standardized once, each pair KS-tested once.
        z = {src: _standardized(stats, config.model, src) for src in sources}
        records = {
            (name, src): _ks_record(n, name, z[src][name], ks_threshold) for name, src in pairs
        }
        if "counterexample" in config.tests:
            counterexample_entries.append(
                _counterexample_entry(stats, config.design, config.model, records["z_beta", "true"])
            )
        if collect_samples:
            for name in _STATISTICS:
                samples[name][n] = z[source][name]

        entry: dict = {
            "n": n,
            "summary": asdict(summary),
            "replicates": config.replicates,
            "replicates_used": used,
            "skipped": skipped,
            "skip_fraction": skip_fraction,
            "normality": {name: records[name, source] for name in _STATISTICS},
        }
        if "coverage" in config.tests:
            entry["coverage"] = {
                name: coverage(n, name, z[source][name]) for name in _STATISTICS
            }
        if need_latents:
            valid_ratios = stats.ratios[stats.valid]
            entry["negligibility"] = {
                "median_delta_sq": float(np.median(valid_ratios[:, 0])),
                "median_delta_eps": float(np.median(valid_ratios[:, 1])),
                "median_sxx_gap": float(np.median(np.abs(valid_ratios[:, 2]))),
            }
            entry["identity_max_gap"] = stats.identity_gap
            if stats.identity_gap > DEFAULTS.identity_gap_max:
                identity_ok = False
        grid_entries.append(entry)

    tests_pass = {
        kind: verdict(grid_entries, counterexample_entries, config.tests)
        for kind, verdict in _VERDICTS.items()
        if kind in config.tests
    }
    overall = all(tests_pass.values()) and skip_ok and identity_ok

    report = {
        "tool_version": _version(),
        "config": config.to_dict(),
        "grid": grid_entries,
        "tests": tests_pass,
        "skip_ok": skip_ok,
        "identity_ok": identity_ok,
        "warnings": report_warnings,
        "pass": overall,
    }
    if "counterexample" in config.tests:
        report["counterexample"] = counterexample_entries
    return report, (samples if collect_samples else None)


def counterexample_run(
    design: DesignSequence,
    spec: EVModelSpec,
    n_grid: Sequence[int],
    replicates: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """The counterexample entries of ``run_experiment`` limited to the
    counterexample test; see ``_counterexample_entry``.

    The design realization is fixed by the design seed; replicates vary only
    the error draws, matching the fixed-constants reading of the model.
    """
    config = ExperimentConfig(
        design=design,
        model=spec,
        n_grid=n_grid,
        replicates=replicates,
        seed=seed,
        tests=("counterexample",),
    )
    report, _ = run_experiment(config, workers=workers)
    return report["counterexample"]


def report_json_bytes(report: dict) -> bytes:
    """Canonical JSON encoding; identical runs give identical bytes."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _version() -> str:
    from . import __version__

    return __version__
