import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evclt import asymptotics
from evclt.asymptotics import (
    CONDITION_IDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_SATISFIED,
    VERDICT_VIOLATED,
    classify_trend,
    condition_path,
    condition_value,
    diagnostics_report,
    lindeberg_sum,
    petrov_conditions,
    scaling_hierarchy,
)
from evclt.design import DesignSequence, DesignSummary, summarize, summary_path
from evclt.errors import ConfigError, DegenerateDesignError, QuadratureUnsupportedError
from evclt.model import ErrorDistribution, EVModelSpec
from evclt.rng import STREAM_MC_DELTA, STREAM_MC_EPS

GRID = [50, 100, 200, 500, 1000, 2000, 5000, 10000]
GEOMETRIC_GRID = [20, 40, 80, 160, 320]


def _spec(eps=("normal", 1.0), delta=("normal", 1.0), beta=2.0, theta=1.0):
    def dist(fam, scale):
        if fam == "student-t":
            return ErrorDistribution(fam, scale, df=6.0)
        return ErrorDistribution(fam, scale)

    return EVModelSpec(theta, beta, dist(*eps), dist(*delta))


# --- trend classification ------------------------------------------------------


def test_classify_trend_satisfied_and_inconclusive():
    assert classify_trend([1.0, 0.5, 0.3, 0.2, 0.1, 0.05], "to-zero") == VERDICT_SATISFIED
    # moving toward zero but final value above the threshold: not yet decidable
    assert classify_trend([3.0, 2.0, 1.5, 1.0, 0.8], "to-zero") == VERDICT_INCONCLUSIVE
    assert classify_trend([1.0, 10.0, 20.0, 60.0, 120.0], "to-infinity") == VERDICT_SATISFIED


def test_classify_trend_violations():
    # drifting away from zero
    assert classify_trend([1.0, 1.5, 2.0, 3.0, 4.0], "to-zero") == VERDICT_VIOLATED
    # stalled below the to-infinity threshold
    assert classify_trend([1.0, 1.02, 0.98, 1.01, 1.0], "to-infinity") == VERDICT_VIOLATED
    # stalled at a positive constant with a to-zero target
    assert classify_trend([0.9, 0.87, 0.866, 0.866, 0.866], "to-zero") == VERDICT_VIOLATED


def test_classify_trend_exact_plateaus():
    assert classify_trend([0.5, 0.1, 0.0, 0.0, 0.0], "to-zero") == VERDICT_SATISFIED
    inf = math.inf
    assert classify_trend([10.0, inf, inf, inf, inf], "to-infinity") == VERDICT_SATISFIED
    assert classify_trend([inf, inf, inf, inf, inf], "to-zero") == VERDICT_VIOLATED


def test_classify_trend_rejects_bad_input():
    with pytest.raises(ConfigError):
        classify_trend([], "to-zero")
    with pytest.raises(ConfigError):
        classify_trend([1.0], "sideways")


# --- design-only condition paths -------------------------------------------------


def test_c6_linear_closed_form_value():
    summary = summarize(np.arange(1.0, 101.0))
    assert condition_value("c6", summary) == pytest.approx(100.0 / math.sqrt(83325.0), rel=1e-12)


def test_condition_values_hand_summary():
    s = DesignSummary(n=10, mean=2.0, s_n=40.0, max_dev=3.0, s_star=40.0)
    assert condition_value("liu-chen-beta", s) == pytest.approx(4.0)
    assert condition_value("c6", s) == pytest.approx(10.0 / math.sqrt(40.0))
    assert condition_value("c7", s) == pytest.approx(3.0 / math.sqrt(40.0))
    assert condition_value("theta-consistency", s) == pytest.approx(20.0 / 40.0)
    assert condition_value("c17", s) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        condition_value("c99", s)


def test_linear_design_condition_verdicts(linear_design):
    verdicts = {
        name: condition_path(name, summary_path(linear_design, GRID)).verdict
        for name in CONDITION_IDS
    }
    assert verdicts["liu-chen-beta"] == VERDICT_SATISFIED
    assert verdicts["c6"] == VERDICT_SATISFIED
    assert verdicts["c7"] == VERDICT_SATISFIED
    assert verdicts["theta-consistency"] == VERDICT_SATISFIED
    # S_n / (n xbar^2) stalls at 1/3 for x_i = i: the intercept CLT condition fails
    assert verdicts["c17"] == VERDICT_VIOLATED


def test_gaussian_design_fails_consistency_condition():
    design = DesignSequence("gaussian-iid", {"sd": 1.0}, seed=0)
    path = condition_path("liu-chen-beta", summary_path(design, GRID))
    # dispersion per observation stabilizes near Var = 1 instead of diverging
    assert all(0.5 < v < 2.0 for v in path.values[-4:])
    assert path.verdict == VERDICT_VIOLATED


def test_geometric_design_fails_max_deviation_condition():
    design = DesignSequence("geometric", {"base": 2.0})
    c7 = condition_path("c7", summary_path(design, GEOMETRIC_GRID))
    # one point dominates: the ratio approaches a positive constant
    assert c7.values[-1] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-2)
    assert c7.verdict == VERDICT_VIOLATED
    assert condition_path("c6", summary_path(design, GEOMETRIC_GRID)).verdict == VERDICT_SATISFIED


def test_geometric_dispersion_overflow_raises_instead_of_a_zero_c7():
    # 2^600 is finite but S_n is inf from about n = 512; c7 = max-dev / sqrt(S_n)
    # would read 0.0 there.
    design = DesignSequence("geometric", {"base": 2.0})
    with pytest.raises(ConfigError, match="overflows"):
        condition_path("c7", summary_path(design, (100, 200, 400, 600)))


def test_bounded_design_fails_everything():
    design = DesignSequence("bounded", {"scale": 1.0})
    assert condition_path("liu-chen-beta", summary_path(design, GRID)).verdict == VERDICT_VIOLATED
    assert condition_path("c6", summary_path(design, GRID)).verdict == VERDICT_VIOLATED


def test_alternating_design_satisfies_intercept_conditions():
    summaries = summary_path(DesignSequence("alternating", {"scale": 1.0}), GRID)
    assert condition_path("c17", summaries).verdict == VERDICT_SATISFIED
    assert condition_path("theta-consistency", summaries).verdict == VERDICT_SATISFIED


def test_c17_with_zero_mean_reports_infinity():
    summaries = [
        DesignSummary(n=n, mean=0.0, s_n=float(n**2), max_dev=10.0, s_star=float(n**2))
        for n in (10, 20, 40, 80, 160)
    ]
    path = condition_path("c17", summaries)
    assert all(math.isinf(v) for v in path.values)
    assert path.verdict == VERDICT_SATISFIED


def test_constant_design_condition_paths():
    summaries = summary_path(DesignSequence("constant", {"value": 3.0}), [10, 20, 40, 80, 160])
    assert condition_path("c6", summaries).verdict == VERDICT_VIOLATED


def test_condition_path_recomputation_is_bit_stable(linear_design):
    a = condition_path("c6", summary_path(linear_design, GRID))
    b = condition_path("c6", summary_path(linear_design, GRID))
    assert a == b


# --- scaling hierarchy -------------------------------------------------------------


def test_hierarchy_power_design_all_ratios_shrink():
    report = scaling_hierarchy(summary_path(DesignSequence("power", {"exponent": 2.0}), GRID))
    for ratios in (report.n_over_root_s, report.root_s_over_maxdev_sq, report.maxdev_sq_over_s):
        assert all(a > b for a, b in zip(ratios[-4:], ratios[-3:]))
        assert ratios[-1] < 0.05
    assert report.flagged is False


def test_hierarchy_linear_third_ratio_closed_form(linear_design):
    report = scaling_hierarchy(summary_path(linear_design, GRID))
    n = GRID[-1]
    # max-dev^2 / S_n = 3 (n - 1) / (n (n + 1)) for x_i = i
    oracle = 3.0 * (n - 1) / (n * (n + 1.0))
    assert report.maxdev_sq_over_s[-1] == pytest.approx(oracle, rel=1e-12)


def test_hierarchy_flagged_for_counterexample_design():
    report = scaling_hierarchy(summary_path(DesignSequence("gaussian-iid", seed=1), GRID))
    assert report.flagged is True


def test_hierarchy_constant_design_errors():
    with pytest.raises(DegenerateDesignError):
        scaling_hierarchy(summary_path(DesignSequence("constant"), [10, 20, 40]))


# --- Lindeberg sums -----------------------------------------------------------------


def test_lindeberg_bounded_law_exact_zero(linear_design):
    spec = _spec(eps=("uniform-centered", 1.0), delta=("uniform-centered", 0.5), beta=2.0)
    # |nu| <= 1 + 2 * 0.5 = 2; max coeff at n=100 is small, so r=1 never fires
    [report] = lindeberg_sum(linear_design, [100], spec, [1.0])
    assert report.sum_value == 0.0
    [mc] = lindeberg_sum(linear_design, [100], spec, [1.0], method="monte-carlo", mc_budget=1000)
    assert mc.sum_value == 0.0 and mc.stderr == 0.0
    assert not mc.unreached and not report.unreached  # an exact zero, not an unresolved one


def test_lindeberg_r_to_zero_recovers_normalization(linear_design, standard_spec):
    [report] = lindeberg_sum(linear_design, [200], standard_spec, [1e-9])
    assert report.sum_value == pytest.approx(1.0, abs=1e-9)


def test_lindeberg_monotone_in_r(linear_design, standard_spec):
    reports = lindeberg_sum(linear_design, [100], standard_spec, [0.05, 0.1, 0.5, 1.0])
    assert [report.r for report in reports] == [0.05, 0.1, 0.5, 1.0]
    values = [report.sum_value for report in reports]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_lindeberg_decreases_along_n(linear_design, standard_spec):
    r100, r1000 = lindeberg_sum(linear_design, [100, 1000], standard_spec, [0.5])
    assert (r100.n, r1000.n) == (100, 1000)
    assert r100.sum_value > r1000.sum_value > 0.0


def test_lindeberg_quadrature_matches_monte_carlo(linear_design, standard_spec):
    [quad] = lindeberg_sum(linear_design, [100], standard_spec, [0.5])
    [mc] = lindeberg_sum(
        linear_design, [100], standard_spec, [0.5], method="monte-carlo", mc_budget=200_000, seed=3
    )
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(quad.sum_value - mc.sum_value) <= 4 * mc.stderr


def test_lindeberg_single_component_quadrature(linear_design):
    # beta = 0 makes nu = eps; the laplace law has a closed-form tail
    spec = EVModelSpec(
        0.0, 0.0, ErrorDistribution("laplace", 1.0), ErrorDistribution("uniform-centered", 1.0)
    )
    [quad] = lindeberg_sum(linear_design, [100], spec, [0.3])
    [mc] = lindeberg_sum(linear_design, [100], spec, [0.3], method="monte-carlo", mc_budget=200_000)
    assert abs(quad.sum_value - mc.sum_value) <= 4 * max(mc.stderr, 1e-10)


def test_lindeberg_single_law_student_t_quadrature(linear_design):
    # beta = 0 makes nu = eps; each index's student-t tail is a closed-form
    # incomplete beta function
    spec = EVModelSpec(
        0.0, 0.0, ErrorDistribution("student-t", 1.0, df=6.0), ErrorDistribution("normal", 1.0)
    )
    [quad] = lindeberg_sum(linear_design, [2000], spec, [0.05])
    [mc] = lindeberg_sum(
        linear_design, [2000], spec, [0.05], method="monte-carlo", mc_budget=200_000
    )
    assert 0.1 < quad.sum_value < 0.9
    assert abs(quad.sum_value - mc.sum_value) <= 4 * mc.stderr


@pytest.mark.parametrize(
    "eps",
    [
        ErrorDistribution("student-t", 1.0, df=6.0),
        ErrorDistribution("laplace", 1.0),
        ErrorDistribution("uniform-centered", 1.0),
        ErrorDistribution("scaled-rademacher", 1.0),
    ],
    ids=lambda d: d.family,
)
def test_single_law_quadrature_is_the_sum_of_scalar_tails(linear_design, eps):
    # beta = 0 makes nu = eps: the sum over indices of the scalar tail moments
    n, r = 2000, 0.01
    spec = EVModelSpec(0.0, 0.0, eps, ErrorDistribution("normal", 1.0))
    x = linear_design.generate(n)
    summary = summarize(x)
    coeff = np.abs(x - summary.mean) / math.sqrt(summary.s_n * spec.nu_variance())
    expected = math.fsum(
        c * c * eps.tail_second_moment(r / c) for c in coeff.tolist() if c > 0.0
    )
    assert 0.1 < expected < 1.0
    got = lindeberg_sum(linear_design, [n], spec, [r])[0].sum_value
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_lindeberg_unsupported_quadrature_law(linear_design):
    spec = _spec(eps=("laplace", 1.0), delta=("uniform-centered", 1.0), beta=2.0)
    with pytest.raises(QuadratureUnsupportedError):
        lindeberg_sum(linear_design, [100], spec, [0.5])
    # the Monte Carlo path covers the same law
    [mc] = lindeberg_sum(linear_design, [100], spec, [0.5], method="monte-carlo", mc_budget=50_000)
    assert 0.0 <= mc.sum_value <= 1.0


def test_lindeberg_quadrature_is_needed_only_where_the_sum_is_not_zero(linear_design):
    # |nu| <= 2 for this law with no closed form: at n = 1000 the largest
    # coefficient times 2 stays below r = 0.5, at n = 10 it does not
    spec = _spec(eps=("uniform-centered", 1.0), delta=("scaled-rademacher", 1.0), beta=1.0)
    reports = lindeberg_sum(linear_design, [1000], spec, [0.5, 1.0])
    assert [r.sum_value for r in reports] == [0.0, 0.0]
    with pytest.raises(QuadratureUnsupportedError):
        lindeberg_sum(linear_design, [10, 1000], spec, [0.5])


def test_lindeberg_monte_carlo_draws_only_where_the_sum_is_not_zero(
    monkeypatch, linear_design
):
    # the same bounded law: every r at n = 1000 is out of reach, so the one
    # draw of the eps and delta streams is made for n = 10; on n = 1000
    # alone nothing is drawn
    calls = []
    real_uniforms = asymptotics.uniforms

    def counting_uniforms(key, size):
        calls.append(key)
        return real_uniforms(key, size)

    monkeypatch.setattr(asymptotics, "uniforms", counting_uniforms)
    spec = _spec(eps=("uniform-centered", 1.0), delta=("scaled-rademacher", 1.0), beta=1.0)
    reports = lindeberg_sum(
        linear_design, [10, 1000], spec, [0.5, 1.0], method="monte-carlo", mc_budget=1000
    )
    assert calls == [(0, STREAM_MC_EPS), (0, STREAM_MC_DELTA)]
    assert [r.sum_value for r in reports[2:]] == [0.0, 0.0]
    assert reports[0].sum_value > 0.0
    calls.clear()
    lindeberg_sum(linear_design, [1000], spec, [0.5, 1.0], method="monte-carlo", mc_budget=1000)
    assert calls == []


def _recording_monte_carlo_sum(monkeypatch):
    """Wrap ``_monte_carlo_sum``; each call appends (r, coeff, draw)."""
    calls = []
    real = asymptotics._monte_carlo_sum

    def recording(coeff, r, draw):
        calls.append((r, coeff, draw))
        return real(coeff, r, draw)

    monkeypatch.setattr(asymptotics, "_monte_carlo_sum", recording)
    return calls


def test_lindeberg_monte_carlo_skips_the_pairs_no_draw_reaches(
    monkeypatch, linear_design, standard_spec
):
    # unbounded normal nu: the largest coefficient shrinks like n^-1/2, so
    # the large r at large n lie past the largest of the draws
    grid, r_grid = [50, 1000, 10000], [0.01, 0.5, 1.0]
    calls = _recording_monte_carlo_sum(monkeypatch)
    reports = lindeberg_sum(
        linear_design, grid, standard_spec, r_grid, method="monte-carlo", mc_budget=2000
    )
    [draw] = {id(d): d for _, _, d in calls}.values()
    nu_max = float(np.max(draw.nu))
    # r = 0.01 is reached at every n, which records each n's coefficients
    coeff_of = {coeff.size: coeff for _, coeff, _ in calls}
    called = [(coeff.size, r) for r, coeff, _ in calls]
    skipped = [rep for rep in reports if (rep.n, rep.r) not in called]
    assert [(rep.n, rep.r) for rep in skipped] == [
        (50, 1.0), (1000, 0.5), (1000, 1.0), (10000, 0.5), (10000, 1.0)
    ]
    assert len(called) + len(skipped) == len(reports)
    for rep in reports:
        coeff = coeff_of[rep.n]
        reached = rep.r / float(np.max(coeff)) < nu_max
        assert ((rep.n, rep.r) in called) == reached
        assert rep.unreached == (not reached)
        if reached:
            assert rep.sum_value > 0.0
        else:
            assert asymptotics._monte_carlo_sum(coeff, rep.r, draw) == (0.0, 0.0)
            assert (rep.sum_value, rep.stderr) == (0.0, 0.0)


def test_lindeberg_monte_carlo_skip_boundary(monkeypatch, linear_design, standard_spec):
    # r / max coeff == max |nu| exactly: a draw counts only strictly above
    # its threshold, so the pair skips; one float lower, the largest draw
    # counts and the sum is computed
    n = 1000
    calls = _recording_monte_carlo_sum(monkeypatch)
    lindeberg_sum(linear_design, [n], standard_spec, [0.01], method="monte-carlo", mc_budget=2000)
    [(_, coeff, draw)] = calls
    max_coeff, nu_max = float(np.max(coeff)), float(np.max(draw.nu))
    r = nu_max * max_coeff
    while r / max_coeff < nu_max:
        r = math.nextafter(r, math.inf)
    while r / max_coeff > nu_max:
        r = math.nextafter(r, 0.0)
    assert r / max_coeff == nu_max
    below = math.nextafter(r, 0.0)
    while below / max_coeff >= nu_max:
        below = math.nextafter(below, 0.0)
    calls.clear()
    at, under = lindeberg_sum(
        linear_design, [n], standard_spec, [r, below], method="monte-carlo", mc_budget=2000
    )
    assert [call[0] for call in calls] == [below]
    assert (at.sum_value, at.stderr) == (0.0, 0.0)
    assert asymptotics._monte_carlo_sum(coeff, r, draw) == (0.0, 0.0)
    assert under.sum_value > 0.0 and under.stderr > 0.0
    assert at.unreached and not under.unreached


def test_lindeberg_sum_is_invariant_to_the_error_scale(linear_design):
    # X_{n,i} = d(x_i) nu_i / sqrt(S_n V) does not depend on the scale of nu.
    # At scale 1e152, S_n V = 8.3e4 * 1e304 overflows, while sqrt(S_n) and
    # sqrt(V) do not; the sums must equal those at scale 1. So must the
    # Monte Carlo standard errors: 1e5 draws of nu^2 ~ 1e304 would overflow
    # an unscaled running sum.
    grid, r_grid = [100, 500], [0.05, 0.15]
    for method in ("quadrature", "monte-carlo"):
        unit, huge = (
            lindeberg_sum(
                linear_design, grid, _spec(eps=("normal", scale), delta=("normal", 0.0)), r_grid,
                method=method, mc_budget=100_000,
            )
            for scale in (1.0, 1e152)
        )
        for a, b in zip(unit, huge):
            assert (a.n, a.r) == (b.n, b.r)
            assert a.sum_value > 0.0
            assert b.sum_value == pytest.approx(a.sum_value, rel=1e-12, abs=0.0)
            if method == "monte-carlo":
                assert a.stderr > 0.0 and math.isfinite(b.stderr)
                assert b.stderr == pytest.approx(a.stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad_uniform", [1.0, math.nan], ids=["inf", "nan"])
def test_lindeberg_monte_carlo_never_skips_on_a_non_finite_draw(
    monkeypatch, linear_design, standard_spec, bad_uniform
):
    # ndtri(1) = inf and ndtri(nan) = nan make max |nu| non-finite; every
    # pair then goes through _monte_carlo_sum, even at an r whose smallest
    # threshold r / max coeff overflows to inf
    real_uniforms = asymptotics.uniforms

    def spoiled_uniforms(key, size):
        u = real_uniforms(key, size)
        if key[-1] == STREAM_MC_EPS:
            u[0] = bad_uniform
        return u

    monkeypatch.setattr(asymptotics, "uniforms", spoiled_uniforms)
    calls = _recording_monte_carlo_sum(monkeypatch)
    with np.errstate(invalid="ignore", over="ignore"):
        reports = lindeberg_sum(
            linear_design, [10000], standard_spec, [0.5, 1.7e308], method="monte-carlo",
            mc_budget=2000,
        )
    assert [call[0] for call in calls] == [0.5, 1.7e308]
    _, coeff, draw = calls[0]
    assert 1.7e308 / float(np.max(coeff)) == math.inf
    assert not math.isfinite(float(np.max(draw.nu)))
    assert len(reports) == 2


def _per_draw_reference(coeff, r, nu_abs):
    """(sum, standard error, per-draw terms) averaged draw by draw: the
    formula that ``_monte_carlo_sum`` rearranges, kept as its reference."""
    thresholds = r / coeff
    order = np.argsort(thresholds)
    weight_prefix = np.concatenate([[0.0], np.cumsum((coeff * coeff)[order])])
    active_weight = weight_prefix[np.searchsorted(thresholds[order], nu_abs, side="left")]
    per_draw = nu_abs * nu_abs * active_weight
    return (
        float(np.mean(per_draw)),
        float(np.std(per_draw, ddof=1) / math.sqrt(nu_abs.size)),
        per_draw,
    )


def _sorted_sum(coeff, r, nu_abs, sigma=1.0):
    """``_monte_carlo_sum`` on copies of the coefficients and the draw."""
    nu_abs = np.array(nu_abs, dtype=np.float64)
    draw = asymptotics._sorted_draw(nu_abs, sigma, np.empty_like(nu_abs))
    return asymptotics._monte_carlo_sum(np.sort(coeff)[::-1], r, draw)


@given(
    coeff=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=40),
    nu=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=200),
    r=st.floats(1e-3, 10.0),
    sigma=st.floats(0.25, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_sorted_monte_carlo_sum_matches_the_per_draw_formula(coeff, nu, r, sigma):
    coeff, nu = np.array(coeff), np.array(nu)
    ref_sum, ref_stderr, per_draw = _per_draw_reference(coeff, r, nu)
    got_sum, got_stderr = _sorted_sum(coeff, r, nu, sigma)
    assert got_sum == pytest.approx(ref_sum, rel=1e-12, abs=0.0)
    # The variance is the mean of p_j^2 less the squared mean, so its
    # rounding is relative to the mean of p_j^2; it cancels where every p_j
    # is about the same.
    variance_gap = abs(got_stderr**2 - ref_stderr**2) * nu.size
    assert variance_gap <= 1e-12 * float(np.mean(per_draw**2))


def test_sorted_monte_carlo_sum_at_draws_equal_to_thresholds():
    # thresholds r / coeff = 2 and 4, both drawn: a draw counts only strictly
    # above a threshold. Every product is exact: p = (0, 0, 9/4, 16/4, 25 (1/4 + 1/16)).
    coeff, nu = np.array([0.25, 0.5]), np.array([4.0, 1.0, 5.0, 2.0, 3.0])
    got = _sorted_sum(coeff, 1.0, nu)
    ref_sum, ref_stderr, _ = _per_draw_reference(coeff, 1.0, nu)
    assert got[0] == ref_sum == 14.0625 / 5
    assert got[1] == pytest.approx(ref_stderr, rel=1e-12, abs=0.0)
    # one float past the threshold, the draw counts
    above = nu.copy()
    above[3] = math.nextafter(2.0, math.inf)
    assert _sorted_sum(coeff, 1.0, above)[0] > got[0]
    # from the largest draw on, no draw counts: exactly 0 +/- 0
    for r in (5.0 * 0.5, 10.0):
        assert _sorted_sum(coeff, r, nu) == (0.0, 0.0) == _per_draw_reference(coeff, r, nu)[:2]


def test_sorted_monte_carlo_sum_where_no_threshold_splits_the_draws():
    # Thresholds 0.2, 0.4 and 9 lie below every draw or above every draw, so
    # each p_j is the weight of the first two times nu_j^2: the variance
    # comes from the two-pass over the draw's squares, not from a difference
    # of sums, and it is exactly 0 where every draw is equal.
    coeff = np.array([0.5, 0.25, 0.1 / 9.0])
    nu = np.array([1.0, 3.0, 2.0, 5.0, 1.5, 4.0])
    got = _sorted_sum(coeff, 0.1, nu, sigma=1.5)
    ref_sum, ref_stderr, _ = _per_draw_reference(coeff, 0.1, nu)
    assert got[0] == pytest.approx(ref_sum, rel=1e-14, abs=0.0)
    assert got[1] == pytest.approx(ref_stderr, rel=1e-14, abs=0.0)
    assert _sorted_sum(coeff, 0.1, np.full(6, 3.0), sigma=1.5)[1] == 0.0


def test_lindeberg_monte_carlo_stderr_of_equal_draws_is_exactly_zero(linear_design):
    # beta = 0 makes |nu| = |eps|, the one atom of a scaled-rademacher law, at
    # every draw. Every per-draw term is the same, so the standard error is
    # exactly 0; the difference of sums left 3.8e-10.
    spec = _spec(eps=("scaled-rademacher", 1.0), beta=0.0)
    (rep,) = lindeberg_sum(
        linear_design, [100], spec, [0.01], method="monte-carlo", mc_budget=5000
    )
    assert rep.sum_value > 0.99 and not rep.unreached
    assert rep.stderr == 0.0


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("coeff", [[0.1, 0.3, 0.2], [2.0, 0.1, 0.3]], ids=["small", "mixed"])
@pytest.mark.parametrize("r", [0.5, 1.7e308])
def test_sorted_monte_carlo_sum_keeps_the_non_finite_results(bad, coeff, r):
    # At r = 1.7e308 the thresholds of coefficients below 1 overflow to inf:
    # with only those, an infinite draw has weight 0 and its term is
    # inf * 0 = NaN; with a finite threshold too, it is inf.
    coeff, nu = np.array(coeff), np.array([0.5, 2.0, bad, 7.0, 1.0])
    with np.errstate(invalid="ignore", over="ignore"):
        ref = _per_draw_reference(coeff, r, nu)[:2]
        got = _sorted_sum(coeff, r, nu)
    assert not math.isfinite(ref[1])
    np.testing.assert_equal(got, ref)


def test_lindeberg_monte_carlo_matches_the_per_draw_formula(monkeypatch, linear_design):
    # the keyed draw of a student-t delta law, at every (n, r) that reaches it
    spec = _spec(delta=("student-t", 1.0))
    calls = _recording_monte_carlo_sum(monkeypatch)
    reports = lindeberg_sum(
        linear_design, [50, 500, 5000], spec, [0.1, 0.5, 1.0], method="monte-carlo",
        mc_budget=20_000,
    )
    assert len(calls) >= 6
    computed = {(coeff.size, r): (coeff, draw) for r, coeff, draw in calls}
    for rep in reports:
        if (rep.n, rep.r) not in computed:
            continue
        coeff, draw = computed[rep.n, rep.r]
        ref_sum, ref_stderr, _ = _per_draw_reference(coeff, rep.r, draw.nu)
        assert rep.sum_value == pytest.approx(ref_sum, rel=1e-12, abs=0.0)
        assert rep.stderr == pytest.approx(ref_stderr, rel=1e-12, abs=0.0)


def test_lindeberg_preconditions(linear_design, standard_spec, noiseless_spec):
    with pytest.raises(ConfigError):
        lindeberg_sum(linear_design, [100], standard_spec, [0.0])
    with pytest.raises(ConfigError):
        lindeberg_sum(linear_design, [100], standard_spec, [0.5], method="bootstrap")
    with pytest.raises(ConfigError):
        lindeberg_sum(linear_design, [100], noiseless_spec, [0.5])
    with pytest.raises(DegenerateDesignError):
        lindeberg_sum(DesignSequence("constant"), [100], standard_spec, [0.5])
    with pytest.raises(ConfigError, match="n grid"):
        lindeberg_sum(linear_design, [200, 100], standard_spec, [0.5])


@pytest.mark.parametrize("mc_budget", [0, 1, 999, 1500.5, "2000", True])
def test_lindeberg_mc_budget_is_a_whole_number_of_at_least_1000(
    linear_design, standard_spec, mc_budget
):
    # the rule of the config's lindeberg section: too few draws gave a nan sum
    # (0 draws) or a nan standard error (1 draw)
    for method in ("quadrature", "monte-carlo"):
        with pytest.raises(ConfigError, match="mc_budget"):
            lindeberg_sum(
                linear_design, [100], standard_spec, [0.5], method=method, mc_budget=mc_budget
            )


def test_lindeberg_mc_budget_accepts_an_integral_float(linear_design, standard_spec):
    [mc] = lindeberg_sum(
        linear_design, [100], standard_spec, [0.5], method="monte-carlo", mc_budget=1000.0
    )
    assert math.isfinite(mc.sum_value) and math.isfinite(mc.stderr) and mc.stderr > 0.0


# --- Petrov conditions ----------------------------------------------------------------


def test_petrov_iii_tracks_c6_values(linear_design, standard_spec):
    report = petrov_conditions(summary_path(linear_design, GRID), standard_spec)
    c6 = report.corollary
    iii = report.paths["petrov-iii"]
    # truncation at sqrt(sqrt(S_n)) is far beyond the normal scale here, so
    # the truncated second moment is essentially sigma1^2 = 1
    for got, ref in zip(iii.values[-3:], c6.values[-3:]):
        assert got == pytest.approx(ref, rel=1e-6)
    assert iii.verdict == c6.verdict == VERDICT_SATISFIED


def test_petrov_student_t_moments_at_large_n(linear_design):
    # At n = 1e6 the truncation point S_n^(1/4) ~ 1.7e4 lies far in the
    # tail, so the truncated moments of delta are its full moments.
    df = 30.0
    spec = EVModelSpec(
        1.0, 2.0, ErrorDistribution("normal", 1.0), ErrorDistribution("student-t", 1.0, df=df)
    )
    grid = [1000, 10_000, 100_000, 1_000_000]
    report = petrov_conditions(summary_path(linear_design, grid), spec)
    n = grid[-1]
    second = df / (df - 2)
    fourth = 3 * df**2 / ((df - 2) * (df - 4))
    iii, ii = report.paths["petrov-iii"], report.paths["petrov-ii"]
    assert iii.values[-1] / report.corollary.values[-1] == pytest.approx(second, rel=1e-12)
    s_n = n * (n * n - 1) / 12
    assert ii.values[-1] * s_n / n == pytest.approx(fourth - second**2, rel=1e-9)
    assert iii.verdict == report.corollary.verdict == VERDICT_SATISFIED


def test_petrov_bounded_delta_first_condition_zero(linear_design):
    spec = _spec(delta=("uniform-centered", 1.0))
    report = petrov_conditions(summary_path(linear_design, GRID), spec)
    assert all(v == 0.0 for v in report.paths["petrov-i"].values)


@pytest.mark.parametrize(
    "kind,grid",
    [
        ("linear", GRID),
        ("power", GRID),
        ("alternating", GRID),
        ("bounded", GRID),
        ("gaussian-iid", GRID),
        ("geometric", GEOMETRIC_GRID),
    ],
)
def test_petrov_iii_verdict_agrees_with_c6(kind, grid, standard_spec):
    design = DesignSequence(kind, seed=0)
    report = petrov_conditions(summary_path(design, grid), standard_spec)
    assert report.paths["petrov-iii"].verdict == report.corollary.verdict, kind


def test_petrov_synthetic_path_shows_necessity(standard_spec):
    # S_n = n log^2 n keeps S_n / n -> inf (consistency) while n / sqrt(S_n)
    # = sqrt(n) / log n diverges, so the slope CLT condition fails
    summaries = [
        DesignSummary(
            n=n,
            mean=0.0,
            s_n=n * math.log(n) ** 2,
            max_dev=math.sqrt(math.log(n) ** 2),
            s_star=max(float(n), n * math.log(n) ** 2),
        )
        for n in GRID
    ]
    liu_chen = condition_path("liu-chen-beta", summaries)
    c6 = condition_path("c6", summaries)
    petrov = petrov_conditions(summaries, standard_spec)
    assert liu_chen.verdict == VERDICT_SATISFIED
    assert c6.verdict == VERDICT_VIOLATED
    assert petrov.paths["petrov-iii"].verdict == VERDICT_VIOLATED


def test_petrov_constant_design_rejected(standard_spec):
    with pytest.raises(DegenerateDesignError):
        petrov_conditions(summary_path(DesignSequence("constant"), [10, 20, 40]), standard_spec)


# --- aggregated diagnostics --------------------------------------------------------


def test_diagnostics_report_structure(linear_design, standard_spec):
    report = diagnostics_report(linear_design, standard_spec, GRID)
    assert list(report) == ["design", "n_grid", "conditions", "hierarchy", "petrov"]
    assert list(report["conditions"]) == list(CONDITION_IDS)
    assert report["conditions"]["c6"]["verdict"] == VERDICT_SATISFIED
    summaries = summary_path(linear_design, GRID)
    assert report["hierarchy"] == scaling_hierarchy(summaries).to_dict()
    assert report["petrov"] == petrov_conditions(summaries, standard_spec).to_dict()
    assert list(report["petrov"]) == ["petrov-i", "petrov-ii", "petrov-iii", "corollary-c6"]
    assert report["petrov"]["petrov-iii"]["target"] == "to-zero"


def test_diagnostics_report_validation(standard_spec):
    # The hierarchy and Petrov need S_n > 0; the condition paths alone still
    # evaluate a constant design.
    constant = DesignSequence("constant")
    with pytest.raises(DegenerateDesignError, match="hierarchy ratios need S_n > 0"):
        diagnostics_report(constant, standard_spec, [10, 20, 40])
    assert condition_path("c6", summary_path(constant, [10, 20, 40])).values[-1] == math.inf
