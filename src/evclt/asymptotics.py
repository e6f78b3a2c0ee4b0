"""Numerical evaluation of the asymptotic conditions along a grid of n.

Limits are untestable at finite n, so each condition is reduced to a scalar
computed from design summaries and classified by a transparent trend rule
over the tail of the grid (see :func:`classify_trend`). Condition identifiers
are stable strings used in file outputs:

=================  ========================================  ===========
id                 quantity                                  target
=================  ========================================  ===========
liu-chen-beta      S_n / n                                   to-infinity
c6                 n / sqrt(S_n)                             to-zero
c7                 max_i |x_i - x_bar| / sqrt(S_n)           to-zero
theta-consistency  |n x_bar| / S_n*                          to-zero
c17                S_n / (n x_bar^2)                         to-infinity
petrov-i..iii      truncated-moment sums below               to-zero
=================  ========================================  ===========

Each diagnostic is one function over the whole grid; the summary-defined
ones take ``summary_path(design, n_grid)``. Each returns the JSON-ready
record that ``evclt diagnose`` writes to diagnostics.json (a condition path
is ``{name, n_grid, values, target, verdict}``) or, for the Lindeberg sums,
the list of records that ``evclt lindeberg`` writes to lindeberg.json.

The Lindeberg evaluator works on the normalized triangular array
X_{n,i} = (x_i - x_bar) nu_i / sqrt(S_n Var(nu)), whose second moments sum
to one, and reports sum_i E[X_{n,i}^2 ; |X_{n,i}| > r] at every (n, r)
either by per-i truncated-moment quadrature (closed forms where the law
allows) or by Monte Carlo with a standard error. It reads the levels r, the
method and the Monte Carlo budget from ``LindebergSection``, the config
file's ``lindeberg`` section, which holds their defaults and checks them
(``evclt.config`` re-exports it). Only the coefficients
depend on n; the law of nu does not, so one |nu| draw per run serves every
(n, r) (common random numbers: each estimate keeps its sample size and
standard error, and the n-path is smoother). The draw is sorted once, with
running sums of nu^2 and nu^4 from its largest value down, so that each
(n, r) costs a binary search per coefficient rather than a pass over the
draws (see :func:`_monte_carlo_sum`).

The Petrov checker instantiates the weak-law equivalence with a_n =
sqrt(S_n) applied to the squared measurement errors; its condition (iii)
collapses to (n / sqrt(S_n)) E[delta^2 ; delta^2 < sqrt(S_n)], which is why
its verdict must track c6 on every nondegenerate design.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .design import DesignSequence, DesignSummary, entries, prefix_summaries, real_number
from .design import summary_path, whole_number
from .errors import ConfigError, DegenerateDesignError, QuadratureUnsupportedError
from .model import ErrorDistribution, EVModelSpec
from .rng import STREAM_MC_DELTA, STREAM_MC_EPS, uniforms

LINDEBERG_METHODS = ("quadrature", "monte-carlo")

VERDICT_SATISFIED = "satisfied-trend"
VERDICT_VIOLATED = "violated-trend"
VERDICT_INCONCLUSIVE = "inconclusive"


# The trend rule of :func:`classify_trend`; fixed, so that a verdict means
# the same thing in every run.
TREND_TAIL_K = 5
TREND_TO_ZERO_THRESHOLD = 0.2
TREND_TO_INFINITY_THRESHOLD = 50.0
TREND_PLATEAU_REL_CHANGE = 0.25


@dataclass(frozen=True)
class LindebergSection:
    """The ``lindeberg`` config section, which ``lindeberg_sum`` reads: at
    least one truncation level r, each finite and > 0, a method of
    LINDEBERG_METHODS, and a whole-number Monte Carlo budget >= 1000."""

    r_grid: tuple[float, ...] = (0.1, 0.5, 1.0)
    method: str = "quadrature"
    mc_budget: int = 1_000_000

    def __post_init__(self) -> None:
        r_grid = entries(self.r_grid, "lindeberg.r_grid")
        r_grid = tuple(real_number(r, "each lindeberg.r_grid entry") for r in r_grid)
        if not r_grid or not all(r > 0.0 for r in r_grid):
            raise ConfigError("each lindeberg.r_grid truncation level r must be > 0")
        for i, r in enumerate(r_grid):
            if r in r_grid[:i]:
                raise ConfigError(f"lindeberg.r_grid lists {r!r} twice")
        if self.method not in LINDEBERG_METHODS:
            raise ConfigError(
                f"unknown lindeberg.method {self.method!r}; expected one of {LINDEBERG_METHODS}"
            )
        mc_budget = whole_number(self.mc_budget, "lindeberg.mc_budget")
        if mc_budget < 1000:
            raise ConfigError("lindeberg.mc_budget must be >= 1000")
        object.__setattr__(self, "r_grid", r_grid)
        object.__setattr__(self, "mc_budget", mc_budget)


# ---------------------------------------------------------------------------
# trend classification
# ---------------------------------------------------------------------------


def _toward(tail: Sequence[float], target: str) -> bool:
    if target == "to-zero":
        return all(a > b or (a == b == 0.0) for a, b in zip(tail, tail[1:]))
    return all(a < b or (a == b == math.inf) for a, b in zip(tail, tail[1:]))


def _away(tail: Sequence[float], target: str) -> bool:
    if target == "to-zero":
        return all(a < b for a, b in zip(tail, tail[1:]))
    return all(a > b for a, b in zip(tail, tail[1:]))


def _plateaued(tail: Sequence[float]) -> bool:
    if all(math.isinf(v) for v in tail):
        return True
    if any(math.isinf(v) for v in tail):
        return False
    span = max(tail) - min(tail)
    scale = max(abs(float(np.median(tail))), 1e-300)
    return span / scale <= TREND_PLATEAU_REL_CHANGE


def classify_trend(values: Sequence[float], target: str) -> str:
    """Finite-n proxy for a limit statement.

    satisfied-trend: the last ``TREND_TAIL_K`` values move strictly toward
    the target (exact-zero or infinite plateaus count as arrived) and the
    final value clears the threshold. violated-trend: the final value fails
    the threshold while the tail either moves away or has stalled (relative
    span at most ``TREND_PLATEAU_REL_CHANGE``). Anything else is
    inconclusive.
    """
    if target not in ("to-zero", "to-infinity"):
        raise ConfigError(f"unknown trend target {target!r}")
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigError("cannot classify an empty value path")
    tail = vals[-min(TREND_TAIL_K, len(vals)):]
    final = tail[-1]
    if target == "to-zero":
        passes = final < TREND_TO_ZERO_THRESHOLD
    else:
        passes = final > TREND_TO_INFINITY_THRESHOLD
    if passes and _toward(tail, target):
        return VERDICT_SATISFIED
    if not passes and (_away(tail, target) or _plateaued(tail)):
        return VERDICT_VIOLATED
    return VERDICT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# design-only conditions
# ---------------------------------------------------------------------------

# id: (target, the scalar at one grid point from its summary), in report order
_CONDITIONS = {
    "liu-chen-beta": ("to-infinity", lambda s: s.s_n / s.n),
    "c6": ("to-zero", lambda s: math.inf if s.s_n <= 0.0 else s.n / math.sqrt(s.s_n)),
    "c7": ("to-zero", lambda s: math.inf if s.s_n <= 0.0 else s.max_dev / math.sqrt(s.s_n)),
    "theta-consistency": ("to-zero", lambda s: abs(s.n * s.mean) / s.s_star),
    "c17": ("to-infinity", lambda s: math.inf if s.mean == 0.0 else s.s_n / (s.n * s.mean**2)),
}
CONDITION_IDS = tuple(_CONDITIONS)


def condition_value(name: str, summary: DesignSummary) -> float:
    """The condition's scalar at one grid point, from summary statistics only."""
    if name not in _CONDITIONS:
        raise ConfigError(f"unknown condition id {name!r}; expected one of {CONDITION_IDS}")
    return _CONDITIONS[name][1](summary)


def condition_path(name: str, summaries: Sequence[DesignSummary]) -> dict:
    """The condition's values along the summaries' n grid, with their verdict."""
    values = [condition_value(name, s) for s in summaries]
    return _classified_path(name, summaries, values, _CONDITIONS[name][0])


def _classified_path(
    name: str, summaries: Sequence[DesignSummary], values: list[float], target: str
) -> dict:
    """``values`` along the summaries' n grid, with their trend verdict, as
    the record ``{name, n_grid, values, target, verdict}``."""
    return {
        "name": name,
        "n_grid": [s.n for s in summaries],
        "values": values,
        "target": target,  # "to-zero" | "to-infinity"
        "verdict": classify_trend(values, target),
    }


def scaling_hierarchy(summaries: Sequence[DesignSummary]) -> dict:
    """Per-n ratios of the dispersion hierarchy, whose joint decay orders
    n << sqrt(S_n) << max-dev^2 << S_n; flagged when the slope-CLT
    conditions do not hold in trend for this design (ratios still computed)."""
    if any(s.s_n <= 0.0 or s.max_dev <= 0.0 for s in summaries):
        raise DegenerateDesignError("hierarchy ratios need S_n > 0 at every grid point")
    return {
        "n_grid": [s.n for s in summaries],
        "n_over_root_s": [s.n / math.sqrt(s.s_n) for s in summaries],
        "root_s_over_maxdev_sq": [math.sqrt(s.s_n) / s.max_dev**2 for s in summaries],
        "maxdev_sq_over_s": [s.max_dev**2 / s.s_n for s in summaries],
        "flagged": any(
            condition_path(name, summaries)["verdict"] != VERDICT_SATISFIED
            for name in ("c6", "c7")
        ),
    }


# ---------------------------------------------------------------------------
# Lindeberg sum of the normalized array
# ---------------------------------------------------------------------------


def _nu_quadrature_law(spec: EVModelSpec) -> tuple[ErrorDistribution, float]:
    """(dist, coeff) with nu = eps - beta delta distributed as +/- coeff * X,
    X ~ dist: the normal law of variance V when both laws are normal, else
    the one law that is not a point mass at zero.

    Raises QuadratureUnsupportedError otherwise (Monte Carlo handles those).
    """
    eps, delta, beta = spec.eps_dist, spec.delta_dist, spec.beta
    if eps.family == "normal" and delta.family == "normal":
        return ErrorDistribution("normal", math.sqrt(spec.nu_variance())), 1.0
    if beta == 0.0 or delta.scale == 0.0:
        return eps, 1.0
    if eps.scale == 0.0:
        return delta, abs(beta)
    raise QuadratureUnsupportedError(
        f"no closed-form law for eps({eps.family}) - beta*delta({delta.family}); "
        "use lindeberg.method: monte-carlo"
    )


class _SortedDraw(NamedTuple):
    """The Monte Carlo |nu| draw of a Lindeberg run, sorted once.

    ``tail2[m - 1]`` and ``tail4[m - 1]`` are the sums of (|nu| / sigma)^2 and
    (|nu| / sigma)^4 over the m largest draws, with sigma = sqrt(Var(nu)):
    scaled so, they stay finite wherever the per-draw terms of the sum do.
    ``square_variance`` is the sample variance of (|nu| / sigma)^2 over the
    whole draw, from a two-pass sum.
    """

    nu: np.ndarray  # |nu| ascending, NaN last
    tail2: np.ndarray
    tail4: np.ndarray
    sigma: float
    square_variance: float


def _sorted_draw(nu_abs: np.ndarray, sigma: float, scratch: np.ndarray) -> _SortedDraw:
    """Sorts ``nu_abs`` in place and turns ``scratch`` (of the same size)
    into ``tail2``; ``tail4`` is the one array of the draw's size made here."""
    nu_abs.sort()
    tail2 = np.divide(nu_abs[::-1], sigma, out=scratch)
    np.square(tail2, out=tail2)
    tail4 = np.subtract(tail2, tail2.mean())
    np.square(tail4, out=tail4)
    square_variance = float(tail4.sum()) / (tail4.size - 1)
    np.square(tail2, out=tail4)
    np.cumsum(tail2, out=tail2)
    np.cumsum(tail4, out=tail4)
    return _SortedDraw(nu_abs, tail2, tail4, sigma, square_variance)


def _monte_carlo_sum(coeff: np.ndarray, r: float, draw: _SortedDraw) -> tuple[float, float]:
    """(sum, standard error) of the Lindeberg sum at level r from the sorted
    |nu| draw; ``coeff`` must be in descending order.

    Per draw, the estimate averages p_j = nu_j^2 W(nu_j), where W(nu) is the
    total c_i^2 of the indices whose threshold r / c_i lies strictly below nu.
    Summed over the draws instead, that is sum_i c_i^2 times the nu^2 mass
    strictly above r / c_i, and the sum of p_j^2 is sum_i (W_i^2 - W_{i-1}^2)
    times the nu^4 mass above the i-th smallest threshold, W_i being the
    weight of the i smallest. One binary search per index finds each mass.
    Where no threshold lies between two draws, every p_j is W (nu_j / sigma)^2
    for one weight W, and the variance is W^2 times the draw's two-pass
    ``square_variance``: the difference of sums would cancel there, and
    leave about 1e-10 where every draw is the same.
    """
    m = draw.nu.size
    thresholds = r / coeff  # ascending, as coeff descends
    above = m - np.searchsorted(draw.nu, thresholds, side="right")
    below = m - int(above[0])  # draws that no threshold lies below
    if below and draw.nu[below - 1] == math.inf:
        # such a draw has weight 0, and its term is inf * 0 = NaN
        return math.nan, math.nan
    weight = coeff * draw.sigma  # c_i^2 sigma^2, which scales with the tails
    weight *= weight
    cumulative = np.cumsum(weight)
    step = cumulative.copy()  # W_i + W_{i-1}, so that W_i^2 - W_{i-1}^2 = c_i^2 step_i
    step[1:] += cumulative[:-1]
    step *= weight
    reached = above > 0  # where nothing is above, index -1 is masked out
    sum_p = float(np.dot(weight, np.where(reached, draw.tail2[above - 1], 0.0)))
    sum_p_sq = float(np.dot(step, np.where(reached, draw.tail4[above - 1], 0.0)))
    full = int(np.count_nonzero(above == m))  # the thresholds below every draw
    if full == np.count_nonzero(reached):
        whole = float(cumulative[full - 1]) if full else 0.0
        variance = whole * whole * draw.square_variance
    else:
        variance = (sum_p_sq - sum_p * sum_p / m) / (m - 1)
    if variance < 0.0:  # rounding, where every p_j is (nearly) the same
        variance = 0.0
    return sum_p / m, math.sqrt(variance / m)


def lindeberg_sum(
    design: DesignSequence,
    n_grid: Sequence[int],
    spec: EVModelSpec,
    section: LindebergSection,
    seed: int,
) -> list[dict]:
    """sum_i E[X_{n,i}^2 ; |X_{n,i}| > r] for the normalized slope array, one
    record ``{n, r, sum_value, method, stderr, unreached}`` per (n, r),
    n-major; ``stderr`` is None under quadrature. Each n reads a prefix of
    one generated design. The Monte Carlo |nu| draw, keyed by seed alone, is
    made and sorted at most once per call, by the first (n, r) that needs
    it, and every (n, r) reuses it; so is the quadrature law of nu.
    ``section`` holds the levels r, the method and the Monte Carlo budget.

    ``unreached`` is true only for a Monte Carlo estimate that no draw
    reaches (r / max coeff at or past the largest |nu| drawn), which reads
    0 +/- 0 without a search of the draw: it says the draw is too small to
    resolve the sum, not that the sum is zero, as the bound shortcut's
    0 +/- 0 does."""
    method = section.method
    variance = spec.nu_variance()
    if variance <= 0.0:
        raise ConfigError("Lindeberg array needs Var(eps - beta delta) > 0")
    x_full, summaries = prefix_summaries(design, n_grid)
    bound = spec.nu_bound()
    draw = law = None
    reports = []
    for summary in summaries:
        n = summary.n
        if summary.s_n <= 0.0:
            raise DegenerateDesignError("Lindeberg array needs S_n > 0")
        # X_{n,i} = coeff_i * nu_i. The two roots divide one at a time: their
        # product can overflow where S_n and V are each finite. The squared
        # coefficients sum to 1, so the largest is positive.
        coeff = np.abs(x_full[:n] - summary.mean) / math.sqrt(summary.s_n)
        coeff /= math.sqrt(variance)
        coeff = coeff[coeff > 0.0]
        max_coeff = float(np.max(coeff))
        if method == "monte-carlo":
            coeff = np.sort(coeff)[::-1]  # so the thresholds r / coeff ascend
        for r in section.r_grid:
            unreached = False
            if math.isfinite(bound) and max_coeff * bound <= r:
                # the indicator can never fire: the sum is exactly zero
                value, stderr = 0.0, 0.0 if method == "monte-carlo" else None
            elif method == "quadrature":
                if law is None:
                    law = _nu_quadrature_law(spec)
                dist, mult = law
                with np.errstate(over="ignore"):  # a threshold past float64 is inf: tail 0
                    thresholds = r / coeff / mult
                tails = mult * mult * dist.tail_second_moment(thresholds)
                value, stderr = float(np.sum(coeff * coeff * tails)), None
            else:
                if draw is None:
                    # |eps - beta delta|, formed in the eps uniforms' buffer;
                    # the delta buffer then holds the nu^2 tail sums
                    nu_abs = uniforms((seed, STREAM_MC_EPS), section.mc_budget)
                    spec.eps_dist.sample(nu_abs, out=nu_abs)
                    scratch = uniforms((seed, STREAM_MC_DELTA), section.mc_budget)
                    spec.delta_dist.sample(scratch, out=scratch)
                    scratch *= spec.beta
                    np.subtract(nu_abs, scratch, out=nu_abs)
                    np.abs(nu_abs, out=nu_abs)
                    draw = _sorted_draw(nu_abs, math.sqrt(variance), scratch)
                    nu_max = float(draw.nu[-1])  # NaN if any draw is NaN
                # r / max_coeff is the smallest threshold (IEEE division is
                # monotone), and a draw counts only strictly above it: at or
                # past the largest draw, _monte_carlo_sum gives exactly 0 +/- 0
                if math.isfinite(nu_max) and r / max_coeff >= nu_max:
                    value, stderr, unreached = 0.0, 0.0, True
                else:
                    value, stderr = _monte_carlo_sum(coeff, r, draw)
            reports.append({"n": n, "r": r, "sum_value": min(max(value, 0.0), 1.0),
                            "method": method, "stderr": stderr, "unreached": unreached})
    return reports


# ---------------------------------------------------------------------------
# Petrov weak-law conditions for the squared measurement errors
# ---------------------------------------------------------------------------


def petrov_conditions(summaries: Sequence[DesignSummary], spec: EVModelSpec) -> dict:
    """The paths of Petrov's conditions (i)-(iii) for the delta law, and c6
    as ``corollary-c6``, which (iii) must track."""
    s_n = np.array([s.s_n for s in summaries])
    if np.any(s_n <= 0.0):
        raise DegenerateDesignError("Petrov normalization a_n = sqrt(S_n) needs S_n > 0")
    n = np.array([s.n for s in summaries], dtype=np.float64)
    a_n = np.sqrt(s_n)
    cutoff = np.sqrt(a_n)  # |delta| < a_n^(1/2) iff delta^2 < a_n
    delta = spec.delta_dist
    m2 = delta.truncated_abs_moment(2.0, cutoff)
    m4 = delta.truncated_abs_moment(4.0, cutoff)
    values = {
        "petrov-i": n * delta.tail_prob(cutoff),
        "petrov-ii": n / s_n * (m4 - m2 * m2),
        "petrov-iii": n / a_n * m2,
    }
    paths = {
        name: _classified_path(name, summaries, v.tolist(), "to-zero")
        for name, v in values.items()
    }
    return {**paths, "corollary-c6": condition_path("c6", summaries)}


# ---------------------------------------------------------------------------
# aggregated diagnostics
# ---------------------------------------------------------------------------


def diagnostics_report(design: DesignSequence, spec: EVModelSpec, n_grid: Sequence[int]) -> dict:
    """Every condition path of CONDITION_IDS, the scaling hierarchy and the
    Petrov paths of the delta law, as one JSON-ready mapping. The hierarchy
    and Petrov need S_n > 0 at every grid point: a constant design raises
    DegenerateDesignError (``condition_path`` still evaluates it)."""
    summaries = summary_path(design, n_grid)
    return {
        "design": asdict(design),
        "n_grid": [int(n) for n in n_grid],
        "conditions": {name: condition_path(name, summaries) for name in CONDITION_IDS},
        "hierarchy": scaling_hierarchy(summaries),
        "petrov": petrov_conditions(summaries, spec),
    }
