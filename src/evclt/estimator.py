"""LS estimators, the exact slope-error decomposition, and the standardized
statistics whose limiting law the harness tests.

Writing d(v) for deviations from the mean of v, the slope error admits two
exact algebraic forms, both computed here from the latent errors:

    (beta_hat - beta) * sum d(xi)^2
        = sum d(xi) eps      - beta * sum d(x) delta - beta * sum d(delta)^2
        = sum d(delta) eps   + sum d(x) (eps - beta delta)
                             - beta * sum d(delta)^2

The standardized statistics are

    z_beta  = sqrt(S_n) * (beta_hat - beta)  / sqrt(V),
    z_theta = sqrt(n)   * (theta_hat - theta) / sqrt(V),

with V either the true composite-error variance or the plug-in mean squared
residual. Note the different normalizations: the slope error scales with the
design dispersion, the intercept error with the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from . import kernels
from .design import DesignSummary
from .errors import (
    ConfigError,
    DegenerateDesignError,
    MissingLatentsError,
    SingularDesignError,
    ZeroVarianceError,
)
from .model import EVModelSpec, EVSample

VarianceSource = Literal["true", "plug-in"]


def check_variance_source(variance_source) -> VarianceSource:
    """The variance source, which must be one of VarianceSource."""
    if variance_source not in get_args(VarianceSource):
        raise ConfigError("variance_source must be 'true' or 'plug-in'")
    return variance_source


# Observed dispersion below this is treated as a constant column rather than
# a fit; see singular_threshold.
_SINGULAR_COEFF = 1e-12


def singular_threshold(n: int, xi_mean: float | np.ndarray) -> float | np.ndarray:
    """Dispersion floor under which a design is declared singular; elementwise
    over an array of observed means."""
    return _SINGULAR_COEFF * n * np.maximum(1.0, xi_mean * xi_mean)


@dataclass(frozen=True)
class FitResult:
    beta_hat: float
    theta_hat: float
    sxx_obs: float
    residual_var: float
    n: int


@dataclass(frozen=True)
class Decomposition:
    """The five centered sums of the exact slope-error identities, as floats
    for one sample or as per-replicate arrays (see ``from_sums``).

    ``sum_delta_sq`` carries sum d(delta)^2 without the beta factor; the
    first negligibility ratio needs it even when beta = 0.
    """

    term_xi_eps: float
    term_x_delta: float
    term_delta_sq: float
    term_delta_eps: float
    term_x_nu: float
    sxx_obs: float
    sum_delta_sq: float

    @classmethod
    def from_sums(
        cls, beta, s_xi_eps, s_x_delta, s_x_eps, s_delta_sq, s_delta_eps, sxx_obs
    ) -> "Decomposition":
        """The terms from the five raw sums of ``kernels.decompose_batch`` and
        the fit's ``sxx_obs``."""
        return cls(
            term_xi_eps=s_xi_eps,
            term_x_delta=beta * s_x_delta,
            term_delta_sq=beta * s_delta_sq,
            term_delta_eps=s_delta_eps,
            term_x_nu=s_x_eps - beta * s_x_delta,
            sxx_obs=sxx_obs,
            sum_delta_sq=s_delta_sq,
        )

    def slope_error_direct(self) -> float:
        """(beta_hat - beta) via the observed-regressor form."""
        return (self.term_xi_eps - self.term_x_delta - self.term_delta_sq) / self.sxx_obs

    def slope_error_split(self) -> float:
        """(beta_hat - beta) via the latent-regressor form."""
        return (self.term_delta_eps + self.term_x_nu - self.term_delta_sq) / self.sxx_obs


@dataclass(frozen=True)
class StandardizedStats:
    z_beta: float
    z_theta: float
    used_variance: float
    variance_source: VarianceSource


def _fit_rows(sample: EVSample):
    """``kernels.fit_batch`` on one-row copies of the sample's (xi, eta), and
    the centered rows it leaves in them."""
    xi = np.array(sample.xi, dtype=np.float64)[None, :]
    eta = np.array(sample.eta, dtype=np.float64)[None, :]
    return kernels.fit_batch(xi, eta), xi, eta


def fit(sample: EVSample) -> FitResult:
    """Simple LS of eta on xi; raises SingularDesignError on a constant column."""
    if sample.n < 2:
        raise ConfigError("fit needs n >= 2")
    (beta, theta, sxx, xi_mean), dxi, deta = _fit_rows(sample)
    if sxx[0] < singular_threshold(sample.n, xi_mean[0]):
        raise SingularDesignError(
            f"observed regressor is numerically constant (sxx={sxx[0]:.3e})"
        )
    return FitResult(
        beta_hat=float(beta[0]),
        theta_hat=float(theta[0]),
        sxx_obs=float(sxx[0]),
        residual_var=float(kernels.residual_variance(dxi, deta, beta)[0]),
        n=sample.n,
    )


def decompose(sample: EVSample, spec: EVModelSpec) -> Decomposition:
    """Centered sums of the slope-error identities, from the retained latents."""
    if not sample.has_latents:
        raise MissingLatentsError("decompose needs a sample drawn with retain_latents=True")
    (_, _, sxx, _), dxi, _ = _fit_rows(sample)
    x = sample.design.generate(sample.n)
    sums = kernels.decompose_batch(
        x - np.mean(x),
        dxi,
        np.asarray(sample.latent_eps, dtype=np.float64)[None, :],
        np.array(sample.latent_delta, dtype=np.float64)[None, :],
    )
    return Decomposition.from_sums(spec.beta, *(float(s[0]) for s in (*sums, sxx)))


def standardizing_variance(
    spec: EVModelSpec, variance_source: VarianceSource, residual_var: float | np.ndarray | None
) -> float | np.ndarray:
    """V of the standardized statistics: sigma2^2 + beta^2 sigma1^2 with the
    true source; with plug-in, the fit's mean squared residual (a float or
    one per replicate), which must be positive. ``variance_source`` must
    already be checked (``check_variance_source``)."""
    if variance_source == "true":
        return spec.nu_variance()
    if np.any(residual_var <= 0.0):
        raise ZeroVarianceError("plug-in standardization needs residual_var > 0")
    return residual_var


def standardized_errors(beta_err, theta_err, s_n: float, n: int, variance):
    """(z_beta, z_theta) = (sqrt(S_n) beta_err, sqrt(n) theta_err) / sqrt(V),
    elementwise over replicate arrays.

    A zero estimation error maps to a zero statistic even when V is zero
    (the noiseless degenerate case).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        root_v = np.sqrt(variance)
        z_beta = np.where(beta_err == 0.0, 0.0, math.sqrt(s_n) * beta_err / root_v)
        z_theta = np.where(theta_err == 0.0, 0.0, math.sqrt(n) * theta_err / root_v)
    return z_beta, z_theta


def standardize(
    fit_result: FitResult,
    spec: EVModelSpec,
    summary: DesignSummary,
    variance_source: VarianceSource = "true",
) -> StandardizedStats:
    """Standardized slope and intercept statistics of one fit; see
    ``standardizing_variance`` and ``standardized_errors``."""
    variance = standardizing_variance(
        spec, check_variance_source(variance_source), fit_result.residual_var
    )
    z_beta, z_theta = standardized_errors(
        fit_result.beta_hat - spec.beta,
        fit_result.theta_hat - spec.theta,
        summary.s_n,
        summary.n,
        variance,
    )
    return StandardizedStats(
        z_beta=float(z_beta),
        z_theta=float(z_theta),
        used_variance=float(variance),
        variance_source=variance_source,
    )


def negligible_ratios(decomp: Decomposition, summary: DesignSummary) -> tuple:
    """The three quantities that vanish in probability when the slope CLT holds:

    sum d(delta)^2 / sqrt(S_n),  |sum d(delta) eps| / sqrt(S_n),
    and  sum d(xi)^2 / S_n - 1  (the last one signed).

    Elementwise when the decomposition holds per-replicate arrays.
    """
    if summary.s_n <= 0.0:
        raise DegenerateDesignError("negligible ratios need S_n > 0")
    root_s = math.sqrt(summary.s_n)
    return (
        decomp.sum_delta_sq / root_s,
        abs(decomp.term_delta_eps) / root_s,
        decomp.sxx_obs / summary.s_n - 1.0,
    )


def slope_identity_gaps(beta_hat, beta: float, rhs_direct, rhs_split) -> tuple:
    """|(beta_hat - beta) - rhs| / max(1, |beta|, |beta_hat|) for the direct
    and the split form of the slope error; elementwise over replicate arrays.

    The scale is max(1, |beta|, |beta_hat|) because beta_hat itself carries a
    few ulps of error at the scale of beta.
    """
    err_fit = beta_hat - beta
    fit_scale = np.maximum(1.0, np.maximum(abs(beta), np.abs(beta_hat)))
    return np.abs(err_fit - rhs_direct) / fit_scale, np.abs(err_fit - rhs_split) / fit_scale


def identity_gaps(fit_result: FitResult, decomp: Decomposition, spec: EVModelSpec) -> tuple[float, float, float]:
    """Relative identity residuals, measured against the estimator scale.

    Returns (direct-form gap, split-form gap, mutual gap between the two
    forms). The first two are ``slope_identity_gaps``; the mutual gap is
    scaled by the natural magnitude of the decomposition terms.
    """
    rhs_direct = decomp.slope_error_direct()
    rhs_split = decomp.slope_error_split()
    gap_direct, gap_split = slope_identity_gaps(
        fit_result.beta_hat, spec.beta, rhs_direct, rhs_split
    )
    term_scale = max(
        (
            abs(decomp.term_xi_eps)
            + abs(decomp.term_x_delta)
            + abs(decomp.term_delta_sq)
            + abs(decomp.term_delta_eps)
            + abs(decomp.term_x_nu)
        )
        / decomp.sxx_obs,
        abs(rhs_direct),
        abs(rhs_split),
        1e-300,
    )
    return float(gap_direct), float(gap_split), abs(rhs_direct - rhs_split) / term_scale
