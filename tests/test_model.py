import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtri, stdtrit

from evclt import tquantile
from evclt.design import DesignSequence
from evclt.errors import ConfigError
from evclt.model import (
    EVEN_T_DF_MAX,
    ErrorDistribution,
    EVModelSpec,
    draw_sample,
)
from evclt.rng import STREAM_EPS, uniforms
from evclt.special import gamma_ratio, scaled_gamma_ratio


# --- sampling ----------------------------------------------------------------


def test_noiseless_sample_is_exact_line(noiseless_spec, linear_design):
    sample = draw_sample(noiseless_spec, linear_design, 4, seed=1)
    assert sample.eta.tolist() == [5.0, 8.0, 11.0, 14.0]
    assert sample.xi.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_observable_regression_identity(standard_spec, linear_design):
    sample = draw_sample(standard_spec, linear_design, 200, seed=5, retain_latents=True)
    nu = sample.latent_eps - standard_spec.beta * sample.latent_delta
    gap = sample.eta - standard_spec.theta - standard_spec.beta * sample.xi - nu
    assert np.max(np.abs(gap)) <= 1e-12
    # latent structural equations hold exactly
    x = linear_design.generate(200)
    assert np.array_equal(sample.xi, x + sample.latent_delta)
    assert np.array_equal(sample.eta, standard_spec.theta + standard_spec.beta * x + sample.latent_eps)


def test_draw_determinism_and_replicate_separation(standard_spec, linear_design):
    a = draw_sample(standard_spec, linear_design, 50, seed=9, replicate=3, retain_latents=True)
    b = draw_sample(standard_spec, linear_design, 50, seed=9, replicate=3, retain_latents=True)
    assert np.array_equal(a.xi, b.xi) and np.array_equal(a.eta, b.eta)
    c = draw_sample(standard_spec, linear_design, 50, seed=9, replicate=4)
    assert not np.array_equal(a.xi, c.xi)


def test_draw_rejects_tiny_n(standard_spec, linear_design):
    with pytest.raises(ConfigError):
        draw_sample(standard_spec, linear_design, 1, seed=0)


@pytest.mark.parametrize(
    "dist,ref",
    [
        (ErrorDistribution("normal", 1.3), stats.norm(scale=1.3)),
        (ErrorDistribution("uniform-centered", 2.0), stats.uniform(loc=-2.0, scale=4.0)),
        (ErrorDistribution("laplace", 0.7), stats.laplace(scale=0.7)),
        (ErrorDistribution("student-t", 1.1, df=6.0), stats.t(df=6.0, scale=1.1)),
    ],
    ids=lambda v: getattr(v, "family", "ref"),
)
def test_inverse_cdf_sampling_matches_reference_law(dist, ref):
    u = uniforms((2024, STREAM_EPS), 20000)
    draws = dist.sample(u)
    ks = stats.kstest(draws, ref.cdf).statistic
    assert ks < 0.015


def test_rademacher_sampling_hits_both_atoms():
    dist = ErrorDistribution("scaled-rademacher", 2.5)
    draws = dist.sample(uniforms((7, STREAM_EPS), 10000))
    values = set(np.unique(draws).tolist())
    assert values == {-2.5, 2.5}
    assert abs(np.mean(draws)) < 4 * 2.5 / math.sqrt(10000)


_SAMPLED_LAWS = [
    ErrorDistribution("normal", 1.3),
    ErrorDistribution("uniform-centered", 2.0),
    ErrorDistribution("laplace", 0.7),
    ErrorDistribution("student-t", 1.1, df=6.0),
    pytest.param(ErrorDistribution("student-t", 1.1, df=5.0), id="student-t-1.1-df5"),
    ErrorDistribution("scaled-rademacher", 2.5),
    ErrorDistribution("laplace", 0.0),
]


@pytest.mark.parametrize("dist", _SAMPLED_LAWS, ids=lambda d: f"{d.family}-{d.scale}")
def test_sampling_into_out_is_bit_identical(dist):
    # The reference is each family's allocating expression; the closed-form
    # student-t quantile (even df) has none, and its values are checked
    # against mpmath below. The block of keyed uniforms is extended by the
    # midpoint 0.5 and its two neighbours, where laplace and
    # scaled-rademacher change sign.
    u = np.concatenate(
        [uniforms((5, STREAM_EPS), 4000), [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]]
    )
    s = dist.scale
    q = u - 0.5
    reference = {
        "normal": lambda: s * ndtri(u),
        "uniform-centered": lambda: s * (2.0 * u - 1.0),
        "laplace": lambda: -s * np.sign(q) * np.log1p(-2.0 * np.abs(q)) if s else np.zeros_like(u),
        "student-t": lambda: s * stdtrit(dist.df, u),
        "scaled-rademacher": lambda: np.where(u < 0.5, -s, s),
    }[dist.family]
    draws = dist.sample(u)
    if not (dist.family == "student-t" and dist.df % 2 == 0 and dist.df <= EVEN_T_DF_MAX):
        assert draws.tobytes() == reference().tobytes()
    out = np.full_like(u, np.nan)
    assert dist.sample(u, out=out) is out
    assert out.tobytes() == draws.tobytes()
    in_place = u.copy()
    assert dist.sample(in_place, out=in_place) is in_place
    assert in_place.tobytes() == draws.tobytes()


def _negated_where(dist, u):
    """laplace and scaled-rademacher draws signed by a ``where=`` mask, as
    ``sample`` formed them before it signed them with ``copysign``."""
    s = dist.scale
    out = np.empty_like(u)
    if dist.family == "laplace":
        nonnegative = u >= 0.5
        np.subtract(u, 0.5, out=out)
        np.abs(out, out=out)
        out *= -2.0
        np.log1p(out, out=out)
        out *= s
        np.negative(out, out=out, where=nonnegative)
    else:
        out.fill(s)
        np.negative(out, out=out, where=u < 0.5)
    return out


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDistribution("laplace", 0.7),
        # small enough that s log1p(-2|q|) underflows to -0.0 next to u = 1/2
        ErrorDistribution("laplace", 5e-324),
        ErrorDistribution("scaled-rademacher", 2.5),
    ],
    ids=lambda d: f"{d.family}-{d.scale}",
)
def test_copysign_signs_match_the_masked_negation(dist):
    # keyed uniforms, the midpoint and its neighbours, and both ends of the
    # grid: 2^-54 and 1 - 2^-53
    u = np.concatenate(
        [
            uniforms((5, STREAM_EPS), 4000),
            [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 2.0**-54, 1.0 - 2.0**-53],
        ]
    )
    expected = _negated_where(dist, u).tobytes()
    assert dist.sample(u).tobytes() == expected
    in_place = u.copy()
    assert dist.sample(in_place, out=in_place).tobytes() == expected
    # u = 1/2 gives +0 (laplace) or +s (scaled-rademacher), not a negative
    assert not np.signbit(dist.sample(np.array([0.5]))[0])


# --- closed-form student-t quantile (even df) ----------------------------------

# Every even df that takes the closed form is at most EVEN_T_DF_MAX; these
# cover its low end, the middle and the cutoff itself.
_CLOSED_FORM_DF = sorted({6.0, 8.0, 10.0, 20.0, float(EVEN_T_DF_MAX)})

# The ends of the uniforms' grid, both sides of the switch between the
# central and the tail form at p = 1/4, and the band |u - 1/2| < 1.44e-8
# where stdtrit(6, u) returns 0.0.
_EDGE_UNIFORMS = [
    2.0**-54,
    1 - 2**-53 - 2**-54,
    0.25,
    np.nextafter(0.25, 0.0),
    np.nextafter(0.25, 1.0),
    0.75,
    np.nextafter(0.75, 0.0),
    np.nextafter(0.75, 1.0),
    0.5 - 2**-54,
    0.5 + 2**-53,
    0.5 - 1e-9,
    0.5 + 1e-9,
    0.5 - 1.4e-8,
    0.5 + 1.4e-8,
]


def _ulp_errors(mpmath, df, u, t):
    """|t - t*| / ulp(t*), with t* the exact t(df) quantile of u, to first
    order from one 50-digit CDF (incomplete beta) evaluation at each t."""
    errors = []
    with mpmath.workdps(50):
        nu = mpmath.mpf(df)
        density_scale = mpmath.gamma((nu + 1) / 2) / (
            mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2)
        )
        for ui, ti in zip(u.tolist(), t.tolist()):
            tm = mpmath.mpf(ti)
            lower = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + tm * tm), regularized=True) / 2
            residual = lower - mpmath.mpf(ui) if ti < 0 else (1 - mpmath.mpf(ui)) - lower
            exact = tm - residual / (density_scale * (1 + tm * tm / nu) ** (-(nu + 1) / 2))
            errors.append(float(abs(tm - exact)) / math.ulp(float(exact)))
    return np.array(errors)


def _table_uniforms():
    """Uniforms at the edges of the tail's start table: a node and the
    midpoint of its interval, the table's lower end 2^-56 and the float just
    below it, and subnormal uniforms below the table."""
    s0 = math.log(tquantile._TABLE_P_MIN)
    h = (math.log(0.25) - s0) / tquantile._TABLE_INTERVALS
    return [
        math.exp(s0 + 200 * h),
        math.exp(s0 + 200.5 * h),
        tquantile._TABLE_P_MIN,
        np.nextafter(tquantile._TABLE_P_MIN, 0.0),
        1e-315,
        1e-320,
        5e-324,
    ]


# Every even df that takes the closed form, each with its own table.
@pytest.mark.parametrize("df", [float(df) for df in range(6, EVEN_T_DF_MAX + 1, 2)])
def test_closed_form_t_quantile_is_within_8_ulp(df):
    mpmath = pytest.importorskip("mpmath")
    u = np.concatenate([uniforms((7, STREAM_EPS), 400), _EDGE_UNIFORMS, _table_uniforms()])
    draws = ErrorDistribution("student-t", 1.0, df=df).sample(u)
    errors = _ulp_errors(mpmath, df, u, draws)
    assert errors.max() <= 8.0, u[np.argmax(errors)]
    # stdtrit's zero band around u = 1/2 is gone.
    assert np.all(draws != 0.0)


@pytest.mark.parametrize("df", _CLOSED_FORM_DF)
def test_closed_form_t_is_odd_and_monotone(df):
    dist = ErrorDistribution("student-t", 1.1, df=df)
    u = np.sort(np.concatenate([uniforms((8, STREAM_EPS), 20000), _EDGE_UNIFORMS[:3]]))
    draws = dist.sample(u)
    # Values a few ulp from exact need not be ordered between neighbouring
    # floats, so the sorted grid above holds no such pairs but the ends.
    assert np.all(np.diff(draws) >= 0.0)
    # 1 - u is exact for u >= 1/2, so both give the same p = min(u, 1 - u).
    upper = u[u >= 0.5]
    assert np.array_equal(dist.sample(1.0 - upper), -dist.sample(upper))
    assert dist.sample(np.array([0.5]))[0] == 0.0


def test_closed_form_t_ends_of_the_unit_interval():
    # The uniforms can round to 1.0 (raw output 2^53 - 1); the closed form
    # gives stdtrit's infinities there, without a warning.
    dist = ErrorDistribution("student-t", 1.0, df=6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = dist.sample(np.array([0.0, 1.0]))
    assert draws.tolist() == [-np.inf, np.inf]


def test_closed_form_t_nan_leaves_the_other_draws_alone():
    # A NaN uniform gives NaN; the ends and the forms below the table still
    # take their own paths next to it.
    dist = ErrorDistribution("student-t", 1.0, df=6.0)
    u = np.array([0.0, 1e-320, 1e-20, 0.1, 0.5, 1.0])
    expected = dist.sample(u)
    draws = dist.sample(np.append(u, np.nan))
    assert np.isnan(draws[-1])
    assert draws[:-1].tobytes() == expected.tobytes()


def test_closed_form_t_writes_a_non_contiguous_out():
    dist = ErrorDistribution("student-t", 1.0, df=8.0)
    u = uniforms((9, STREAM_EPS), 3000).reshape(1000, 3)
    out = np.full((3, 1000), np.nan).T
    assert dist.sample(u, out=out) is out
    assert out.tobytes() == dist.sample(u).tobytes()


def test_closed_form_t_memory_is_a_few_slices():
    # A 2 MiB block sampled in place; without slices the temporaries of the
    # closed form grow with the block, tens of MB for this one. About four
    # slice-sized temporaries are alive at once; a harness worker holds them
    # next to its data blocks (tests/test_harness.py bounds the sum).
    u = uniforms((10, STREAM_EPS), 262144)
    dist = ErrorDistribution("student-t", 1.0, df=6.0)
    tracemalloc.start()
    try:
        dist.sample(u, out=u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * tquantile._T_SLICE * 8


def test_closed_form_t_table_is_built_on_the_first_draw_of_a_df():
    # In a fresh interpreter: importing the CLI builds no table, and a df's
    # table is built once, however often that df is sampled.
    src = Path(__file__).resolve().parents[1] / "src"
    code = """
import numpy as np
import evclt.cli
from evclt.model import ErrorDistribution
from evclt.tquantile import EvenStudentT

assert EvenStudentT._cache == {}
built = []
start_table = EvenStudentT._start_table
EvenStudentT._start_table = lambda self: built.append(self.m) or start_table(self)
u = np.linspace(0.01, 0.99, 99)
for df in (6.0, 6.0, 8.0, 8.0):
    ErrorDistribution("student-t", 1.0, df=df).sample(u)
print(built)
"""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[3, 4]"


def test_closed_form_t_bits_are_pinned():
    # sha256 of the draws of every even df up to EVEN_T_DF_MAX, taken when
    # the tail form first started from the table; the same expressions must
    # give the same bits.
    digest = hashlib.sha256()
    for df in range(6, EVEN_T_DF_MAX + 1, 2):
        u = np.concatenate([uniforms((df, STREAM_EPS), 40000), _EDGE_UNIFORMS])
        digest.update(ErrorDistribution("student-t", 1.0, df=float(df)).sample(u).tobytes())
    assert digest.hexdigest() == "daa606f327c33cb3620e8089fa08221235575bd5a4f861c5f8e1f90eecf55413"


@pytest.mark.parametrize("df", [5.0, 7.5, float(EVEN_T_DF_MAX + 2)])
def test_other_student_t_df_keep_stdtrit_bits(df):
    dist = ErrorDistribution("student-t", 1.1, df=df)
    u = np.concatenate([uniforms((11, STREAM_EPS), 4000), _EDGE_UNIFORMS])
    reference = 1.1 * stdtrit(df, u)
    assert dist.sample(u).tobytes() == reference.tobytes()
    assert dist.sample(u, out=u).tobytes() == reference.tobytes()


# --- moments -----------------------------------------------------------------


def test_normal_second_moment_is_variance():
    assert ErrorDistribution("normal", 2.0).abs_moment(2) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("s", [1.0, 1.3, 0.7, 2.5])
def test_normal_even_moments_are_exact(s):
    # 2^(k/2) Gamma((k+1)/2) / Gamma(1/2) is the exact product 1 or 3 at k = 2, 4
    dist = ErrorDistribution("normal", s)
    assert dist.variance() == s * s
    assert dist.abs_moment(4.0) == 3 * s**4


def test_uniform_second_moment_closed_form():
    # integral of x^2 / (2a) over [-a, a] = a^2 / 3
    a = 1.7
    assert ErrorDistribution("uniform-centered", a).abs_moment(2) == pytest.approx(
        a * a / 3.0, rel=1e-14
    )


def test_normal_third_absolute_moment_with_quadrature_oracle():
    got = ErrorDistribution("normal", 1.0).abs_moment(3)
    assert got == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-13)
    quad, _ = integrate.quad(lambda x: 2 * x**3 * stats.norm.pdf(x), 0, np.inf, epsabs=1e-12)
    assert got == pytest.approx(quad, rel=1e-9)


@pytest.mark.parametrize(
    "dist,order,expected",
    [
        (ErrorDistribution("laplace", 0.5), 2, 2 * 0.25),
        (ErrorDistribution("student-t", 2.0, df=5.0), 2, 4.0 * 5.0 / 3.0),
        (ErrorDistribution("scaled-rademacher", 3.0), 4, 81.0),
    ],
)
def test_family_moments(dist, order, expected):
    assert dist.abs_moment(order) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "df", [4.5, 5.0, 6.0, 7.0, 9.25, 12.5, 31.0, 100.0, 999.0, 12345.0, 123456.5, 1e6]
)
def test_student_t_even_moments_are_the_exact_fractions(df):
    # E T^2 = nu / (nu - 2) and E T^4 = 3 nu^2 / ((nu - 2)(nu - 4)), to within
    # one ulp at every df; a difference of log-gammas was off by 6.6e-10 of
    # the variance at df 1e6.
    dist = ErrorDistribution("student-t", 1.0, df=df)
    nu = Fraction(df)
    exact = {2.0: nu / (nu - 2), 4.0: 3 * nu * nu / ((nu - 2) * (nu - 4))}
    for order, value in exact.items():
        if order < df:
            got = dist.abs_moment(order)
            assert abs(Fraction(got) - value) <= Fraction(math.ulp(float(value))), (order, got)
    if df == 6.0:
        assert dist.variance() == 1.5


def test_moment_quadrature_cross_check_all_families():
    cases = [
        (ErrorDistribution("laplace", 0.8), stats.laplace(scale=0.8), 3.0),
        (ErrorDistribution("uniform-centered", 1.2), stats.uniform(loc=-1.2, scale=2.4), 2.5),
        (ErrorDistribution("student-t", 1.0, df=7.0), stats.t(df=7.0), 3.0),
    ]
    for dist, ref, order in cases:
        quad, _ = integrate.quad(
            lambda x: 2 * x**order * ref.pdf(x), 0, ref.support()[1], epsabs=1e-11
        )
        assert dist.abs_moment(order) == pytest.approx(quad, rel=1e-9)


def test_nonexistent_student_t_moment_rejected():
    dist = ErrorDistribution("student-t", 1.0, df=4.5)
    with pytest.raises(ConfigError):
        dist.abs_moment(4.5)
    with pytest.raises(ConfigError):
        # the closed form needs order < df
        dist.truncated_abs_moment(4.5, 1.0)
    with pytest.raises(ConfigError):
        # alpha=3 needs order-5 moments, df=4.5 cannot provide them
        EVModelSpec(0.0, 1.0, ErrorDistribution("normal", 1.0), dist, alpha=3.0)


def test_distribution_validation():
    with pytest.raises(ConfigError):
        ErrorDistribution("normal", -1.0)
    with pytest.raises(ConfigError):
        ErrorDistribution("student-t", 1.0)  # df missing
    with pytest.raises(ConfigError):
        ErrorDistribution("student-t", 1.0, df=4.0)
    with pytest.raises(ConfigError):
        ErrorDistribution("normal", 1.0, df=5.0)
    with pytest.raises(ConfigError):
        ErrorDistribution("cauchy", 1.0)
    # numbers are read as numbers: a string or a bool is refused, not converted
    with pytest.raises(ConfigError, match="must be a number"):
        ErrorDistribution("normal", "1")
    with pytest.raises(ConfigError, match="must be a number"):
        ErrorDistribution("normal", True)
    with pytest.raises(ConfigError, match="must be a number"):
        ErrorDistribution("student-t", 1.0, df="6")
    law = ErrorDistribution("normal", 1.0)
    for name in ("theta", "beta", "alpha"):
        for bad in ("1", True):
            fields = dict(theta=1.0, beta=2.0, eps_dist=law, delta_dist=law, alpha=1.0)
            fields[name] = bad
            with pytest.raises(ConfigError, match=f"{name} must be a number"):
                EVModelSpec(**fields)
    spec = EVModelSpec(1, 2, ErrorDistribution("student-t", 1, df=6), law, alpha=1)
    assert (spec.theta, spec.beta, spec.alpha, spec.eps_dist.scale, spec.eps_dist.df) == (
        1.0, 2.0, 1.0, 1.0, 6.0
    )
    assert all(type(v) is float for v in (spec.theta, spec.beta, spec.eps_dist.df))


# --- composite error variance --------------------------------------------------


def test_nu_variance_no_delta_contribution():
    spec = EVModelSpec(0.0, 0.0, ErrorDistribution("normal", 1.5), ErrorDistribution("normal", 1.0))
    assert spec.nu_variance() == pytest.approx(2.25, rel=1e-14)


def test_nu_variance_independence_formula_with_mc_oracle(standard_spec):
    assert standard_spec.nu_variance() == pytest.approx(5.0, rel=1e-14)
    n = 1_000_000
    eps = standard_spec.eps_dist.sample(uniforms((11, 1), n))
    delta = standard_spec.delta_dist.sample(uniforms((11, 2), n))
    nu = eps - standard_spec.beta * delta
    est = np.var(nu)
    se = np.std(nu * nu, ddof=1) / math.sqrt(n)
    assert abs(est - 5.0) <= 3 * se


def test_nu_variance_pure_measurement_error():
    spec = EVModelSpec(0.0, 1.0, ErrorDistribution("normal", 0.0), ErrorDistribution("normal", 2.0))
    assert spec.nu_variance() == pytest.approx(4.0, rel=1e-14)


# --- empirical stream invariants ----------------------------------------------


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDistribution("normal", 1.0),
        ErrorDistribution("uniform-centered", 2.0),
        ErrorDistribution("laplace", 0.5),
        ErrorDistribution("student-t", 1.0, df=6.0),
        ErrorDistribution("scaled-rademacher", 1.5),
    ],
    ids=lambda d: d.family,
)
def test_stream_mean_within_tolerance(dist):
    n = 100_000
    draws = dist.sample(uniforms((31, 4), n))
    assert abs(np.mean(draws)) <= 4 * dist.scale / math.sqrt(n)


def test_nu_empirical_variance_within_five_se(standard_spec):
    n = 100_000
    sample = draw_sample(standard_spec, DesignSequence("linear"), n, seed=17, retain_latents=True)
    nu = sample.latent_eps - standard_spec.beta * sample.latent_delta
    se = np.std(nu * nu, ddof=1) / math.sqrt(n)
    assert abs(np.var(nu) - standard_spec.nu_variance()) <= 5 * se


def test_replicate_streams_uncorrelated(standard_spec, linear_design):
    n = 100_000
    a = draw_sample(standard_spec, linear_design, n, seed=3, replicate=0, retain_latents=True)
    b = draw_sample(standard_spec, linear_design, n, seed=3, replicate=1, retain_latents=True)
    for u, v in ((a.latent_eps, b.latent_eps), (a.latent_delta, b.latent_delta)):
        rho = np.corrcoef(u, v)[0, 1]
        assert abs(rho) < 5 / math.sqrt(n)


# --- truncated-moment helpers ---------------------------------------------------


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDistribution("normal", 1.3),
        ErrorDistribution("uniform-centered", 2.0),
        ErrorDistribution("laplace", 0.7),
        ErrorDistribution("student-t", 1.1, df=6.0),
    ],
    ids=lambda d: d.family,
)
@pytest.mark.parametrize("cutoff", [0.2, 1.0, 3.0, 10.0])
def test_truncation_splits_the_variance(dist, cutoff):
    total = dist.truncated_abs_moment(2.0, cutoff) + dist.tail_second_moment(cutoff)
    assert total == pytest.approx(dist.variance(), rel=1e-9)


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDistribution("normal", 1.3),
        ErrorDistribution("uniform-centered", 2.0),
        ErrorDistribution("laplace", 0.7),
        ErrorDistribution("student-t", 1.1, df=6.0),
        ErrorDistribution("scaled-rademacher", 2.0),
        ErrorDistribution("normal", 0.0),
        ErrorDistribution("laplace", 0.0),
    ],
    ids=lambda d: f"{d.family}-{d.scale}",
)
def test_moments_on_an_array_of_cutoffs_equal_the_scalar_calls(dist):
    # cutoffs <= 0, the atom or edge at c == scale, a far tail, and a sweep
    # wide enough to catch a vector loop that rounds unlike the scalar one
    cutoffs = np.concatenate(
        [
            [-1e4, -3.0, -0.0, 0.0, 2.0, 2.0 + 1e-12, 1e4, 1e200, np.inf],
            np.geomspace(1e-3, 50.0, 200),
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        calls = [("tail_prob", dist.tail_prob), ("tail_second_moment", dist.tail_second_moment)]
        for order in (2.0, 3.0, 4.0):
            calls.append(
                (f"truncated k={order}", lambda c, k=order: dist.truncated_abs_moment(k, c))
            )
        for label, method in calls:
            vector = method(cutoffs)
            assert isinstance(vector, np.ndarray) and vector.shape == cutoffs.shape, label
            for c, got in zip(cutoffs, vector):
                scalar = method(float(c))
                assert type(scalar) is float, label
                assert got == scalar, (label, c)


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDistribution("normal", 1.3),
        ErrorDistribution("uniform-centered", 2.0),
        ErrorDistribution("laplace", 0.7),
        ErrorDistribution("student-t", 1.1, df=6.0),
        ErrorDistribution("scaled-rademacher", 2.0),
        # c * c overflows at a cutoff short of 2^512 scales
        ErrorDistribution("laplace", 1e50),
        ErrorDistribution("uniform-centered", 1e10),
    ],
    ids=lambda d: f"{d.family}-{d.scale}",
)
def test_far_cutoffs_give_the_limits_without_warnings(dist):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cutoff in (1e200, 1e300, np.inf):
            for k in (2.0, 4.0):
                assert dist.truncated_abs_moment(k, cutoff) == dist.abs_moment(k), (k, cutoff)
            assert dist.tail_second_moment(cutoff) == 0.0, cutoff


def test_tail_probability_against_reference():
    dist = ErrorDistribution("normal", 2.0)
    assert dist.tail_prob(3.0) == pytest.approx(2 * stats.norm(scale=2.0).sf(3.0), rel=1e-12)
    assert ErrorDistribution("laplace", 1.0).tail_prob(2.0) == pytest.approx(
        2 * stats.laplace.sf(2.0), rel=1e-12
    )


def test_laplace_tail_at_a_huge_scale_is_finite():
    # From scales past 1.8e151 the polynomial c^2 + 2sc + 2s^2 overflows where
    # exp(-c/s) does not underflow; the tail is s^2 e^(-m) (m^2 + 2m + 2).
    mpmath = pytest.importorskip("mpmath")
    dist = ErrorDistribution("laplace", 1e153)
    cutoffs = np.array([1e153, 1e154, 1e155, 3e155])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = dist.tail_second_moment(cutoffs)
        scalar = dist.tail_second_moment(1e155)
    assert scalar == vector[2]
    with mpmath.workdps(50):
        s = mpmath.mpf(1e153)
        for c, got in zip(cutoffs, vector):
            m = mpmath.mpf(float(c)) / s
            ref = s * s * mpmath.exp(-m) * (m * m + 2 * m + 2)
            # a relative error of m, one ulp, moves e^(-m) by m ulp
            assert abs(got - ref) <= max(1e-14, 4e-16 * m) * ref, c
            assert got <= dist.variance()
    assert vector[2] == pytest.approx(3.7952215107364568e266, rel=1e-14)
    # where the polynomial is finite the tail keeps its form, bit for bit
    unit = ErrorDistribution("laplace", 1.0)
    assert unit.tail_second_moment(3.0) == math.exp(-3.0) * (9.0 + 6.0 + 2.0)


def test_laplace_tail_where_exp_underflows_takes_the_root_form():
    # From m = 745 e^(-m) underflows to 0, but (s e^(-m/2))^2 (m^2 + 2m + 2)
    # need not: at scale 1e153 and m = 1000, 1400 the tail is 5.1e-123 and
    # 1.9e-296. The reference reads the law's own m = c / s; an ulp of m
    # moves e^(-m) by m ulp.
    mpmath = pytest.importorskip("mpmath")
    s = 1e153
    dist = ErrorDistribution("laplace", s)
    cutoffs = np.array([1e156, 1.4e156])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = dist.tail_second_moment(cutoffs)
        assert [dist.tail_second_moment(c) for c in cutoffs] == list(vector)
        # from m = 1491 on e^(-m/2) underflows too
        assert list(dist.tail_second_moment(np.array([1.5e156, 1e300]))) == [0.0, 0.0]
    with mpmath.workdps(50):
        for c, got in zip(cutoffs, vector):
            m = mpmath.mpf(float(c) / s)
            ref = mpmath.mpf(s) ** 2 * mpmath.exp(-m) * (m * m + 2 * m + 2)
            assert abs(got - ref) <= 1e-14 * ref, c
    assert vector[0] == pytest.approx(5.08612096726235e-123, rel=1e-14)
    # wherever e^(-m) is normal and the polynomial finite, the direct form
    unit = ErrorDistribution("laplace", 1.0)
    m = np.array([0.0, 0.5, 3.0, 40.0, 700.0])
    assert list(unit.tail_second_moment(m)) == list(np.exp(-m) * (m * m + 2 * m + 2))


def test_laplace_tail_where_exp_is_subnormal_keeps_its_digits():
    # From m = 708.40, -ln of the smallest normal float, e^(-m) is subnormal
    # and keeps too few bits for the direct form: at m = 745 it read 2.75e-318
    # where the tail is 1.57e-318, and at m = 746 it read 0. The root form
    # gives the tail to its last bit, subnormal or not.
    mpmath = pytest.importorskip("mpmath")
    unit = ErrorDistribution("laplace", 1.0)
    cutoffs = np.array([709.0, 720.0, 740.0, 745.0, 746.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = unit.tail_second_moment(cutoffs)
    with mpmath.workdps(50):
        for m, got in zip(cutoffs, vector):
            ref = float(mpmath.exp(-m) * (m * m + 2 * m + 2))
            assert abs(got - ref) <= np.spacing(ref), m


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDistribution("normal", 1e-300),
        ErrorDistribution("student-t", 1e-300, df=5.0),
        ErrorDistribution("laplace", 1e-300),
        ErrorDistribution("uniform-centered", 1e-300),
    ],
    ids=lambda d: d.family,
)
def test_tail_prob_over_a_tiny_scale_is_zero_without_warnings(dist):
    # c / s overflows to inf at cutoff 1e10 over scale 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist.tail_prob(1e10) == 0.0
        assert np.array_equal(dist.tail_prob(np.array([0.0, 1e10])), [1.0, 0.0])


def test_student_t_high_moment_at_a_large_df_is_finite():
    # nu^(k/2) and Gamma((nu - k)/2 + k/2) / Gamma((nu - k)/2) each pass
    # float64 at k = 110, df 1e6, where E|T|^k = 3.48e88
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        nu, k = mpmath.mpf(10**6), mpmath.mpf(110)
        ref = (
            nu ** (k / 2) * mpmath.gamma((k + 1) / 2) * mpmath.gamma((nu - k) / 2)
            / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu / 2))
        )
    got = ErrorDistribution("student-t", 1.0, df=1e6).abs_moment(110.0)
    assert got == pytest.approx(float(ref), rel=1e-14)
    assert float(ref) == 3.4827704319567934e88
    scaled = ErrorDistribution("student-t", 10.0, df=1e6)
    assert math.isfinite(scaled.abs_moment(100.0))  # s^k nu^(k/2) is inf there


def test_scaled_gamma_ratio_matches_mpmath():
    # near 1 at a large x, where x^a overflows; a sum of logs near 200 (a = 55
    # at x = 0.3) would cost its exponent's ulp, so the large a is read far out
    mpmath = pytest.importorskip("mpmath")
    cases = [(x, a) for x in (0.3, 7.5, 20.0, 1e5) for a in (0.5, 2.5, 7.0)]
    for x, a in cases + [(1e5, 55.0), (5e5 - 55, 55.0), (5e5 - 55.5, 55.5)]:
        with mpmath.workdps(50):
            ref = mpmath.gamma(mpmath.mpf(x) + a) / (mpmath.gamma(x) * mpmath.mpf(x) ** a)
        assert scaled_gamma_ratio(x, a) == pytest.approx(float(ref), rel=4e-15), (x, a)


def test_rademacher_truncation_strictness():
    dist = ErrorDistribution("scaled-rademacher", 1.0)
    assert dist.truncated_abs_moment(2.0, 1.0) == 0.0  # strict |X| < cutoff
    assert dist.truncated_abs_moment(2.0, 1.0 + 1e-9) == 1.0
    assert dist.tail_second_moment(1.0) == 0.0  # strict |X| > cutoff
    assert dist.tail_prob(1.0) == 1.0  # |X| >= cutoff


def test_uniform_tail_second_moment_near_the_scale_is_exact():
    # E[X^2; |X| > c] = (s^3 - c^3) / (3s), evaluated exactly on the float
    # inputs; as c nears s the two cubes agree in almost every bit.
    s = 1.7
    dist = ErrorDistribution("uniform-centered", s)
    cutoffs = np.array([s * (1.0 - 2.0**-k) for k in range(1, 52)])
    vector = dist.tail_second_moment(cutoffs)
    for c, got in zip(cutoffs, vector):
        fs, fc = Fraction(s), Fraction(float(c))
        exact = (fs**3 - fc**3) / (3 * fs)
        assert abs(Fraction(float(got)) - exact) / exact < Fraction(1, 10**15), c
        assert dist.tail_second_moment(float(c)) == got


def test_degenerate_scale_zero():
    dist = ErrorDistribution("normal", 0.0)
    assert dist.variance() == 0.0
    assert dist.support_bound() == 0.0
    assert np.array_equal(dist.sample(np.array([0.25, 0.75])), np.zeros(2))
    assert dist.tail_prob(0.5) == 0.0


_HUGE_SCALE_LAWS = [
    ("normal", None),
    ("uniform-centered", None),
    ("laplace", None),
    ("student-t", 6.0),
    ("student-t", 5.0),
    ("scaled-rademacher", None),
]


@pytest.mark.parametrize("family, df", _HUGE_SCALE_LAWS)
def test_scale_whose_variance_overflows_is_refused(family, df):
    # scale^2 passes the float64 maximum (1.8e308) from scale 1.34e154.
    for scale in (1e200, 1e155, 1e300):
        with pytest.raises(ConfigError, match="overflows float64"):
            ErrorDistribution(family, scale, df=df)
    dist = ErrorDistribution(family, 1e150, df=df)
    assert math.isfinite(dist.variance()) and dist.variance() >= 1e299


def test_normal_law_whose_variance_is_finite_near_the_float64_maximum_builds():
    # s^2 = 1e308 is finite while 2 s^2 is not: the constant 2 Gamma(3/2) /
    # Gamma(1/2) = 1 of the second moment multiplies s^2 last
    assert ErrorDistribution("normal", 1e154).variance() == 1e154 * 1e154


def test_nu_variance_where_beta_squared_alone_overflows():
    unit, point = ErrorDistribution("normal", 1.0), ErrorDistribution("normal", 0.0)
    # a point-mass delta: V = Var(eps) at any beta, not inf * 0 = NaN
    assert EVModelSpec(1.0, 1e300, unit, point).nu_variance() == 1.0
    assert EVModelSpec(1.0, -1e300, unit, point).nu_variance() == 1.0
    # beta^2 = 1e400 is past float64, but beta^2 Var(delta) = 1e100 is not
    tiny = ErrorDistribution("normal", 1e-150)
    v = EVModelSpec(1.0, 1e200, unit, tiny).nu_variance()
    assert v == pytest.approx(1e100, rel=1e-15)
    # where beta^2 is finite, V is the plain sum
    assert EVModelSpec(1.0, 1e154, unit, unit).nu_variance() == 1.0 + 1e154**2
    for beta in (1e300, -2e154):
        with pytest.raises(ConfigError, match="overflows float64"):
            EVModelSpec(1.0, beta, unit, unit)


@pytest.mark.parametrize("family, df", _HUGE_SCALE_LAWS)
def test_abs_moment_overflow_is_a_config_error(family, df):
    # At scale 1e150 the third moment is past 1e450; at scale 1 laplace's
    # gamma(k + 1) overflows from k = 171 and the normal's from k = 341.
    dist = ErrorDistribution(family, 1e150, df=df)
    assert math.isfinite(dist.abs_moment(2.0))
    with pytest.raises(ConfigError, match="overflows float64"):
        dist.abs_moment(3.0)
    if family in ("normal", "laplace"):
        unit = ErrorDistribution(family, 1.0)
        assert math.isfinite(unit.abs_moment(100.0))
        with pytest.raises(ConfigError, match="overflows float64"):
            unit.abs_moment(400.0)


def _truncated_moment_reference(mpmath, family, scale, df, k, cutoff):
    """E[|X|^k ; |X| < cutoff] at 50 digits, from the regularized incomplete
    gamma and beta functions (an argument of 1e-298 is no underflow there)."""
    with mpmath.workdps(50):
        s, c, k = mpmath.mpf(scale), mpmath.mpf(cutoff), mpmath.mpf(k)
        m = c / s
        if family == "normal":
            a = (k + 1) / 2
            return (
                s**k * 2 ** (k / 2) * mpmath.gamma(a) / mpmath.sqrt(mpmath.pi)
                * mpmath.gammainc(a, 0, m * m / 2, regularized=True)
            )
        if family == "uniform-centered":
            return min(c, s) ** (k + 1) / (s * (k + 1))
        if family == "laplace":
            return s**k * mpmath.gamma(k + 1) * mpmath.gammainc(k + 1, 0, m, regularized=True)
        if family == "student-t":
            nu = mpmath.mpf(df)
            a, b = (k + 1) / 2, (nu - k) / 2
            pre = s**k * nu ** (k / 2) * mpmath.beta(a, b) / mpmath.beta(0.5, nu / 2)
            return pre * mpmath.betainc(a, b, 0, m * m / (nu + m * m), regularized=True)
        return s**k if s < c else mpmath.mpf(0)


@pytest.mark.parametrize("scale", [1e150, 2.0])
@pytest.mark.parametrize("family, df", _HUGE_SCALE_LAWS)
def test_truncated_moment_below_the_scale_matches_mpmath(family, df, scale):
    # At scale 1e150 the Petrov cutoffs of a linear design (S_n^(1/4) = 10.1
    # at n = 50) sit 1e-149 scales out: there s^k overflows (k = 4) and the
    # regularized incomplete gamma or beta underflows to 0 (k = 2). Scale 2
    # puts cutoffs on both sides of it and just below it.
    mpmath = pytest.importorskip("mpmath")
    dist = ErrorDistribution(family, scale, df=df)
    cutoffs = np.array([1e-3, 0.3, 1.0, 1.999, 10.101567114056747, 1e4, 1e60])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in (2.0, 3.0, 4.0):
            for c, got in zip(cutoffs, dist.truncated_abs_moment(k, cutoffs)):
                ref = _truncated_moment_reference(mpmath, family, scale, df, k, c)
                if ref == 0:
                    assert got == 0.0, (k, c)
                else:
                    assert got == pytest.approx(float(ref), rel=1e-12), (k, c)


def test_truncated_normal_moments_at_a_huge_scale_are_pinned():
    dist = ErrorDistribution("normal", 1e150)
    cutoff = 10.101567114056747  # S_50^(1/4) on the linear design
    assert dist.truncated_abs_moment(2.0, cutoff) == pytest.approx(2.7414799e-148, rel=1e-7)
    assert dist.truncated_abs_moment(4.0, cutoff) == pytest.approx(1.6784709e-146, rel=1e-7)


def test_cli_import_leaves_scipy_stats_and_integrate_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, evclt.cli; "
        "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_student_t_truncated_moments_pinned():
    dist = ErrorDistribution("student-t", 1.5, df=6.0)
    assert dist.truncated_abs_moment(2.0, 2.0) == pytest.approx(0.79558319024593, rel=1e-12)
    assert dist.truncated_abs_moment(3.0, 4.0) == pytest.approx(5.438445040888105, rel=1e-12)
    assert dist.tail_second_moment(2.0) == pytest.approx(2.5794168097540697, rel=1e-12)
    assert dist.tail_second_moment(10.0) == pytest.approx(0.08589366631823883, rel=1e-12)


def test_gamma_ratio_matches_mpmath_at_every_size():
    # Gamma(x + a) / Gamma(x) on both sides of the shift to x >= 16 and far
    # past it, at the half-integer and integer a of the student-t moments
    mpmath = pytest.importorskip("mpmath")
    for x in (0.05, 0.25, 1.0, 2.35, 7.5, 15.9, 16.0, 100.0, 5e3, 5e5, 5e7, 1e12):
        for a in (0.5, 1.0, 1.5, 2.0, 2.5):
            with mpmath.workdps(50):
                ref = mpmath.exp(mpmath.loggamma(mpmath.mpf(x) + a) - mpmath.loggamma(x))
            assert gamma_ratio(x, a) == pytest.approx(float(ref), rel=4e-15), (x, a)
    # a whole a is the product x (x + 1) ... (x + a - 1), rounded per factor
    assert (gamma_ratio(2.0, 1.0), gamma_ratio(0.5, 2.0), gamma_ratio(3.0, 0.0)) == (2.0, 0.75, 1.0)


def test_gamma_ratio_at_a_large_non_whole_a_rounds_once_per_factor():
    # a = j + f past 2.5 is the ratio at f times j factors x + f + i; the
    # Stirling form's exp(rest), rest near 100, was 9.6e-15 off at (0.5, 55.5)
    mpmath = pytest.importorskip("mpmath")

    def error(x, a):
        with mpmath.workdps(50):
            ref = mpmath.exp(mpmath.loggamma(mpmath.mpf(x) + a) - mpmath.loggamma(x))
            return float(abs(gamma_ratio(x, a) - ref) / ref)

    assert error(0.5, 55.5) <= 4e-15 and error(100.0, 55.5) <= 4e-15
    # a seeded sweep below the float64 maximum: at most 150 factors of an ulp
    rng = np.random.default_rng(7)
    x = np.exp(rng.uniform(math.log(0.05), math.log(1e6), 2000))
    a = rng.uniform(3.0, 151.0, 2000)
    finite = [(xi, ai) for xi, ai in zip(x, a) if ai * math.log(xi + ai) < 690.0][:294]
    assert len(finite) == 294
    assert max(error(float(xi), float(ai)) for xi, ai in finite) <= 2e-14


@pytest.mark.parametrize("df", [4.5, 6.0, 30.0, 200.0, 1e3, 1e4, 1e5, 1e6])
def test_student_t_truncated_moments_match_incomplete_beta_reference(df):
    # T^2 / (nu + T^2) ~ Beta(1/2, nu/2): both moments are regularized
    # incomplete beta functions, evaluated here at 50 digits. Their
    # prefactors are gamma ratios, which scipy's beta function loses to
    # 1e-11 at df 1e4 and 1e-9 at df 1e6.
    mpmath = pytest.importorskip("mpmath")
    scale = 2.0  # a power of two, so cutoff / scale is exact
    dist = ErrorDistribution("student-t", scale, df=df)
    checked = 0
    with mpmath.workdps(50):
        nu, s = mpmath.mpf(df), mpmath.mpf(scale)
        for cutoff in (0.01, 0.3, 1.0, 3.0, 50.0, 1e4):
            m = mpmath.mpf(cutoff) / s
            x = m**2 / (nu + m**2)
            y = nu / (nu + m**2)
            refs = {}
            for k in (2, 3, 4):
                if k >= df:
                    continue
                a, b = mpmath.mpf(k + 1) / 2, (nu - k) / 2
                pre = s**k * nu ** (mpmath.mpf(k) / 2) * mpmath.beta(a, b) / mpmath.beta(0.5, nu / 2)
                refs[f"truncated k={k}"] = (
                    pre * mpmath.betainc(a, b, 0, x, regularized=True),
                    dist.truncated_abs_moment(float(k), cutoff),
                )
            refs["tail"] = (
                s**2 * nu / (nu - 2) * mpmath.betainc((nu - 2) / 2, 1.5, 0, y, regularized=True),
                dist.tail_second_moment(cutoff),
            )
            for label, (ref, got) in refs.items():
                if ref < mpmath.mpf("1e-290"):
                    continue
                assert got == pytest.approx(float(ref), rel=1e-13), (label, cutoff)
                checked += 1
    assert checked >= 20
