import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evclt import kernels
from evclt.design import DesignSequence, DesignSummary, summarize
from evclt.errors import (
    ConfigError,
    DegenerateDesignError,
    MissingLatentsError,
    SingularDesignError,
    ZeroVarianceError,
)
from evclt.estimator import (
    FitResult,
    decompose,
    fit,
    identity_gaps,
    negligible_ratios,
    singular_threshold,
    standardize,
)
from evclt.model import FAMILIES, ErrorDistribution, EVModelSpec, EVSample, draw_sample

from conftest import catalog_designs


def _manual_sample(xi, eta, design=None):
    xi = np.asarray(xi, dtype=float)
    return EVSample(
        n=xi.shape[0],
        xi=xi,
        eta=np.asarray(eta, dtype=float),
        design=design or DesignSequence("linear"),
    )


# --- fit -----------------------------------------------------------------------


def test_fit_noiseless_line_is_exact(noiseless_spec, linear_design):
    sample = draw_sample(noiseless_spec, linear_design, 4, seed=0)
    result = fit(sample)
    assert result.beta_hat == pytest.approx(3.0, abs=1e-13)
    assert result.theta_hat == pytest.approx(2.0, abs=1e-12)
    assert result.residual_var == pytest.approx(0.0, abs=1e-24)


def test_fit_flat_data():
    result = fit(_manual_sample([0.0, 1.0], [0.0, 0.0]))
    assert result.beta_hat == 0.0
    assert result.theta_hat == 0.0


def test_fit_matches_normal_equations_oracle(standard_spec, linear_design):
    for rep in range(5):
        sample = draw_sample(standard_spec, linear_design, 120, seed=21, replicate=rep)
        result = fit(sample)
        design_matrix = np.column_stack([np.ones(sample.n), sample.xi])
        coef, *_ = np.linalg.lstsq(design_matrix, sample.eta, rcond=None)
        assert result.theta_hat == pytest.approx(coef[0], rel=1e-9, abs=1e-9)
        assert result.beta_hat == pytest.approx(coef[1], rel=1e-9)


def test_fit_residuals_orthogonal(standard_spec, linear_design):
    sample = draw_sample(standard_spec, linear_design, 300, seed=2)
    result = fit(sample)
    resid = sample.eta - result.theta_hat - result.beta_hat * sample.xi
    scale = float(np.sqrt(np.sum(sample.eta**2) * sample.n))
    assert abs(np.sum(resid)) <= 1e-9 * scale
    assert abs(np.dot(resid, sample.xi)) <= 1e-9 * float(
        np.sqrt(np.sum(sample.eta**2) * np.sum(sample.xi**2))
    )


def test_singular_threshold_over_an_array_matches_each_mean():
    means = np.array([0.0, -0.5, 0.999, 1.0, -3.25, 1e8])
    floors = singular_threshold(500, means)
    for mean, floor in zip(means, floors):
        assert floor == 1e-12 * 500 * max(1.0, mean * mean)
        assert floor == singular_threshold(500, float(mean))


def test_fit_singular_design_rejected(noiseless_spec):
    constant = DesignSequence("constant", {"value": 2.0})
    sample = draw_sample(noiseless_spec, constant, 10, seed=0)
    with pytest.raises(SingularDesignError):
        fit(sample)


def test_fit_shift_and_scale_equivariance(standard_spec, linear_design):
    sample = draw_sample(standard_spec, linear_design, 80, seed=13)
    base = fit(sample)
    shifted = fit(_manual_sample(sample.xi, sample.eta + 5.0))
    assert shifted.beta_hat == pytest.approx(base.beta_hat, rel=1e-12)
    assert shifted.theta_hat == pytest.approx(base.theta_hat + 5.0, rel=1e-12)
    scaled = fit(_manual_sample(sample.xi, 3.0 * sample.eta))
    assert scaled.beta_hat == pytest.approx(3.0 * base.beta_hat, rel=1e-12)
    assert scaled.theta_hat == pytest.approx(3.0 * base.theta_hat, rel=1e-12)


# --- decomposition ----------------------------------------------------------------


def test_decompose_noiseless_all_zero(noiseless_spec, linear_design):
    sample = draw_sample(noiseless_spec, linear_design, 6, seed=0, retain_latents=True)
    decomp = decompose(sample, noiseless_spec)
    assert decomp.term_xi_eps == 0.0
    assert decomp.term_x_delta == 0.0
    assert decomp.term_delta_sq == 0.0
    assert decomp.term_delta_eps == 0.0
    assert decomp.term_x_nu == 0.0
    assert fit(sample).beta_hat - noiseless_spec.beta == pytest.approx(0.0, abs=1e-13)


def test_decompose_without_measurement_error(linear_design):
    spec = EVModelSpec(
        theta=1.0,
        beta=2.0,
        eps_dist=ErrorDistribution("normal", 1.0),
        delta_dist=ErrorDistribution("normal", 0.0),
    )
    sample = draw_sample(spec, linear_design, 60, seed=3, retain_latents=True)
    decomp = decompose(sample, spec)
    assert decomp.term_x_delta == 0.0
    assert decomp.term_delta_sq == 0.0
    assert decomp.term_delta_eps == 0.0
    # reduces to the classical OLS error: sum d(x) eps / sum d(x)^2
    x = linear_design.generate(60)
    ols_error = np.dot(x - x.mean(), sample.latent_eps) / np.sum((x - x.mean()) ** 2)
    assert fit(sample).beta_hat - spec.beta == pytest.approx(ols_error, rel=1e-10)


def test_decompose_requires_latents(standard_spec, linear_design):
    sample = draw_sample(standard_spec, linear_design, 20, seed=0)
    with pytest.raises(MissingLatentsError):
        decompose(sample, standard_spec)


def test_identities_on_random_sample(standard_spec, linear_design):
    sample = draw_sample(standard_spec, linear_design, 50, seed=77, retain_latents=True)
    result = fit(sample)
    decomp = decompose(sample, standard_spec)
    g_direct, g_split, g_mutual = identity_gaps(result, decomp, standard_spec)
    assert g_direct <= 1e-10
    assert g_split <= 1e-10
    assert g_mutual <= 1e-10


@pytest.mark.parametrize("design", catalog_designs(seed=5), ids=lambda d: d.kind)
def test_identities_across_design_catalog(design, standard_spec):
    n = 40 if design.kind == "geometric" else 150
    for rep in range(3):
        sample = draw_sample(standard_spec, design, n, seed=101, replicate=rep, retain_latents=True)
        result = fit(sample)
        decomp = decompose(sample, standard_spec)
        gaps = identity_gaps(result, decomp, standard_spec)
        assert max(gaps) <= 1e-10, (design.kind, rep, gaps)


_DESIGNS = st.one_of(
    *(
        st.builds(DesignSequence, st.just(kind), st.fixed_dictionaries({param: st.floats(lo, hi)}))
        for kind, param, lo, hi in (
            ("linear", "slope", 0.01, 100.0),
            ("power", "exponent", 0.25, 3.0),
            ("alternating", "scale", 0.01, 100.0),
            ("bounded", "scale", 0.01, 100.0),
        )
    )
)
_ERROR_LAWS = st.builds(
    lambda family, scale: ErrorDistribution(
        family, scale, df=6.0 if family == "student-t" else None
    ),
    st.sampled_from(FAMILIES),
    st.floats(0.05, 5.0),
)


@settings(max_examples=40, deadline=None)
@given(
    design=_DESIGNS,
    n=st.integers(10, 2000),
    eps=_ERROR_LAWS,
    delta=_ERROR_LAWS,
    beta=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_slope_identities_hold_on_random_designs_and_laws(design, n, eps, delta, beta, seed):
    spec = EVModelSpec(theta=1.0, beta=beta, eps_dist=eps, delta_dist=delta)
    sample = draw_sample(spec, design, n, seed=seed, retain_latents=True)
    gap_direct, gap_split, _ = identity_gaps(fit(sample), decompose(sample, spec), spec)
    assert gap_direct <= 1e-10
    assert gap_split <= 1e-10


# --- standardization -----------------------------------------------------------


def test_standardize_zero_error_is_zero(standard_spec):
    summary = DesignSummary(n=4, mean=2.5, s_n=5.0, max_dev=1.5, s_star=5.0)
    result = FitResult(beta_hat=2.0, theta_hat=1.0, sxx_obs=5.0, residual_var=1.0, n=4)
    stats = standardize(result, standard_spec, summary)
    assert stats.z_beta == 0.0
    assert stats.z_theta == 0.0


def test_standardize_direct_arithmetic(standard_spec):
    # sqrt(5) * 1 / sqrt(5) = 1 with the true variance V = 5
    summary = DesignSummary(n=4, mean=2.5, s_n=5.0, max_dev=1.5, s_star=5.0)
    result = FitResult(beta_hat=3.0, theta_hat=1.0, sxx_obs=5.0, residual_var=0.3, n=4)
    stats = standardize(result, standard_spec, summary, variance_source="true")
    assert stats.z_beta == pytest.approx(1.0, rel=1e-14)
    assert stats.used_variance == pytest.approx(5.0)
    assert stats.variance_source == "true"


def test_standardize_normalization_split(standard_spec):
    # z_beta scales with sqrt(S_n), z_theta with sqrt(n)
    summary = DesignSummary(n=100, mean=0.0, s_n=400.0, max_dev=3.0, s_star=400.0)
    result = FitResult(beta_hat=2.5, theta_hat=2.0, sxx_obs=400.0, residual_var=1.0, n=100)
    stats = standardize(result, standard_spec, summary)
    assert stats.z_beta == pytest.approx(np.sqrt(400.0) * 0.5 / np.sqrt(5.0), rel=1e-13)
    assert stats.z_theta == pytest.approx(np.sqrt(100.0) * 1.0 / np.sqrt(5.0), rel=1e-13)


def test_standardize_plug_in_variance(standard_spec):
    summary = DesignSummary(n=4, mean=2.5, s_n=5.0, max_dev=1.5, s_star=5.0)
    result = FitResult(beta_hat=3.0, theta_hat=1.0, sxx_obs=5.0, residual_var=4.0, n=4)
    stats = standardize(result, standard_spec, summary, variance_source="plug-in")
    assert stats.used_variance == 4.0
    assert stats.z_beta == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-13)
    zero_rvar = FitResult(beta_hat=3.0, theta_hat=1.0, sxx_obs=5.0, residual_var=0.0, n=4)
    with pytest.raises(ZeroVarianceError):
        standardize(zero_rvar, standard_spec, summary, variance_source="plug-in")


def test_standardize_rejects_an_unknown_variance_source(standard_spec):
    summary = DesignSummary(n=4, mean=2.5, s_n=5.0, max_dev=1.5, s_star=5.0)
    result = FitResult(beta_hat=3.0, theta_hat=1.0, sxx_obs=5.0, residual_var=4.0, n=4)
    with pytest.raises(ConfigError, match="variance_source"):
        standardize(result, standard_spec, summary, variance_source="estimated")


def test_plug_in_residual_variance_tracks_truth(standard_spec, linear_design):
    # medians over replicates shrink toward Var(nu) as n grows
    gaps = []
    for n in (200, 2000):
        vals = []
        for rep in range(40):
            sample = draw_sample(standard_spec, linear_design, n, seed=55, replicate=rep)
            vals.append(abs(fit(sample).residual_var - 5.0))
        gaps.append(np.median(vals))
    assert gaps[1] < gaps[0]


# --- negligibility ratios --------------------------------------------------------


def test_negligible_ratios_no_measurement_error(linear_design):
    spec = EVModelSpec(
        theta=0.0,
        beta=1.0,
        eps_dist=ErrorDistribution("normal", 1.0),
        delta_dist=ErrorDistribution("normal", 0.0),
    )
    sample = draw_sample(spec, linear_design, 40, seed=8, retain_latents=True)
    summary = summarize(linear_design.generate(40))
    r1, r2, r3 = negligible_ratios(decompose(sample, spec), summary)
    assert r1 == 0.0
    assert r2 == 0.0
    assert abs(r3) <= 1e-12


def test_negligible_ratios_constant_design_rejected(standard_spec):
    constant = DesignSequence("constant", {"value": 1.0})
    sample = draw_sample(standard_spec, constant, 20, seed=1, retain_latents=True)
    summary = summarize(constant.generate(20))
    with pytest.raises(DegenerateDesignError):
        negligible_ratios(decompose(sample, standard_spec), summary)


# --- JSON record shapes ----------------------------------------------------------


def test_fit_and_decomposition_json_field_names(standard_spec, linear_design):
    sample = draw_sample(standard_spec, linear_design, 30, seed=4, retain_latents=True)
    fit_record = fit(sample).to_dict()
    assert set(fit_record) == {"beta_hat", "theta_hat", "sxx_obs", "residual_var", "n"}
    decomp_record = decompose(sample, standard_spec).to_dict()
    assert set(decomp_record) == {
        "term_xi_eps",
        "term_x_delta",
        "term_delta_sq",
        "term_delta_eps",
        "term_x_nu",
        "sxx_obs",
        "sum_delta_sq",
    }
    summary = summarize(linear_design.generate(30))
    stats_record = standardize(fit(sample), standard_spec, summary).to_dict()
    assert set(stats_record) == {"z_beta", "z_theta", "used_variance", "variance_source"}



def test_batched_kernels_center_once_and_match_the_direct_sums():
    # The kernels reuse one centering and one product scratch; every sum
    # equals the expression that forms each centered row and product anew.
    rng = np.random.default_rng(3)
    rows, n = 4, 257
    x = np.linspace(-2.0, 5.0, n)
    eps, delta = rng.standard_normal((2, rows, n))
    xi, eta = x + delta, 1.0 + 2.0 * x + eps
    dxi = xi - xi.mean(axis=1, keepdims=True)
    deta = eta - eta.mean(axis=1, keepdims=True)
    ddelta = delta - delta.mean(axis=1, keepdims=True)
    xdev = x - np.mean(x)
    sxx = np.sum(dxi * dxi, axis=1)
    beta = np.sum(dxi * deta, axis=1) / sxx

    xi_buf, eta_buf, delta_buf = xi.copy(), eta.copy(), delta.copy()
    scratch = np.full((rows, n), np.nan)
    fit_beta, fit_theta, fit_sxx, xi_mean = kernels.fit_batch(xi_buf, eta_buf, scratch=scratch)
    np.testing.assert_array_equal(xi_buf, dxi)
    np.testing.assert_array_equal(eta_buf, deta)
    np.testing.assert_array_equal(xi_mean, xi.mean(axis=1))
    np.testing.assert_array_equal(fit_sxx, sxx)
    np.testing.assert_array_equal(fit_beta, beta)
    np.testing.assert_array_equal(fit_theta, eta.mean(axis=1) - beta * xi.mean(axis=1))

    resid = deta - beta[:, None] * dxi
    np.testing.assert_array_equal(
        kernels.residual_variance(xi_buf, eta_buf, fit_beta, scratch=scratch),
        np.sum(resid * resid, axis=1) / n,
    )
    sums = kernels.decompose_batch(xdev, xi_buf, eps, delta_buf, scratch=scratch)
    expected = (
        np.sum(dxi * eps, axis=1),
        np.sum(xdev * delta, axis=1),
        np.sum(xdev * eps, axis=1),
        np.sum(ddelta * ddelta, axis=1),
        np.sum(ddelta * eps, axis=1),
    )
    for got, want in zip(sums, expected):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(delta_buf, ddelta)


def _one_row_dot(a, b) -> float:
    return float(np.multiply(a, b).sum())


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(2, 3000), st.integers(kernels.SLICE + 1, 2 * kernels.SLICE + 7)),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slice_sums_match_the_one_row_sums_bit_for_bit(n, data, seed):
    # The kernels sum a block one slice of rows at a time; every per-row
    # result equals the 1-D computation on that row alone, for row counts
    # that are not a multiple of the slice rows, for rows longer than a
    # slice, for the broadcast d(x) row, and whatever scratch is given
    # (None, as estimator.fit and estimator.decompose pass, included).
    slice_rows = max(1, kernels.SLICE // n)
    rows = data.draw(st.integers(1, min(2 * slice_rows + 3, 40)), label="rows")
    scratch_rows = data.draw(st.sampled_from([None, 1, slice_rows, rows]), label="scratch_rows")
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.exponential(size=n))
    delta = rng.standard_t(5, size=(rows, n)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    eps = rng.standard_normal((rows, n))
    xi, eta = x + delta, 1.0 - 3.0 * x + eps
    scratch = None if scratch_rows is None else np.full((scratch_rows, n), np.nan)

    xi_buf, eta_buf, delta_buf = xi.copy(), eta.copy(), delta.copy()
    beta, theta, sxx, xi_mean = kernels.fit_batch(xi_buf, eta_buf, scratch=scratch)
    rvar = kernels.residual_variance(xi_buf, eta_buf, beta, scratch=scratch)
    xdev = x - np.mean(x)
    sums = kernels.decompose_batch(xdev, xi_buf, eps, delta_buf, scratch=scratch)
    for i in range(rows):
        dxi = xi[i] - xi[i].mean()
        deta = eta[i] - eta[i].mean()
        ddelta = delta[i] - delta[i].mean()
        row_sxx = _one_row_dot(dxi, dxi)
        row_beta = _one_row_dot(dxi, deta) / row_sxx
        assert (sxx[i], beta[i], xi_mean[i]) == (row_sxx, row_beta, xi[i].mean())
        assert theta[i] == eta[i].mean() - row_beta * xi[i].mean()
        resid = deta - dxi * row_beta
        assert rvar[i] == _one_row_dot(resid, resid) / n
        expected = (
            _one_row_dot(dxi, eps[i]),
            _one_row_dot(xdev, delta[i]),
            _one_row_dot(xdev, eps[i]),
            _one_row_dot(ddelta, ddelta),
            _one_row_dot(ddelta, eps[i]),
        )
        assert tuple(s[i] for s in sums) == expected


def test_one_sample_fit_longer_than_a_slice_matches_the_one_row_sums():
    # estimator.fit and estimator.decompose run the kernels on one-row copies
    # with no scratch; draw_sample samples the t law in slices of the same
    # size. At n above a slice both must still give the 1-D sums.
    n = kernels.SLICE + 4099
    spec = EVModelSpec(
        theta=1.0,
        beta=2.0,
        eps_dist=ErrorDistribution("student-t", 1.0, df=6.0),
        delta_dist=ErrorDistribution("laplace", 0.5),
    )
    design = DesignSequence("linear")
    sample = draw_sample(spec, design, n, seed=4, retain_latents=True)
    dxi = sample.xi - sample.xi.mean()
    deta = sample.eta - sample.eta.mean()
    beta = _one_row_dot(dxi, deta) / _one_row_dot(dxi, dxi)
    result = fit(sample)
    assert result.sxx_obs == _one_row_dot(dxi, dxi)
    assert result.beta_hat == beta
    resid = deta - dxi * beta
    assert result.residual_var == _one_row_dot(resid, resid) / n
    decomp = decompose(sample, spec)
    ddelta = sample.latent_delta - sample.latent_delta.mean()
    assert decomp.term_xi_eps == _one_row_dot(dxi, sample.latent_eps)
    assert decomp.sum_delta_sq == _one_row_dot(ddelta, ddelta)
    assert decomp.term_delta_eps == _one_row_dot(ddelta, sample.latent_eps)
