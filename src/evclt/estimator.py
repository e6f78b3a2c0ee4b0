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

from dataclasses import dataclass
from typing import Literal

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

    def to_dict(self) -> dict:
        return {
            "beta_hat": self.beta_hat,
            "theta_hat": self.theta_hat,
            "sxx_obs": self.sxx_obs,
            "residual_var": self.residual_var,
            "n": self.n,
        }


@dataclass(frozen=True)
class Decomposition:
    """The five centered sums of the exact slope-error identities.

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

    def to_dict(self) -> dict:
        return {
            "term_xi_eps": self.term_xi_eps,
            "term_x_delta": self.term_x_delta,
            "term_delta_sq": self.term_delta_sq,
            "term_delta_eps": self.term_delta_eps,
            "term_x_nu": self.term_x_nu,
            "sxx_obs": self.sxx_obs,
            "sum_delta_sq": self.sum_delta_sq,
        }

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

    def to_dict(self) -> dict:
        return {
            "z_beta": self.z_beta,
            "z_theta": self.z_theta,
            "used_variance": self.used_variance,
            "variance_source": self.variance_source,
        }


def fit(sample: EVSample) -> FitResult:
    """Simple LS of eta on xi; raises SingularDesignError on a constant column."""
    if sample.n < 2:
        raise ConfigError("fit needs n >= 2")
    xi = np.asarray(sample.xi, dtype=np.float64)[None, :]
    eta = np.asarray(sample.eta, dtype=np.float64)[None, :]
    beta, theta, sxx, rvar = kernels.fit_batch(xi, eta)
    if sxx[0] < singular_threshold(sample.n, float(np.mean(xi))):
        raise SingularDesignError(
            f"observed regressor is numerically constant (sxx={sxx[0]:.3e})"
        )
    return FitResult(
        beta_hat=float(beta[0]),
        theta_hat=float(theta[0]),
        sxx_obs=float(sxx[0]),
        residual_var=float(rvar[0]),
        n=sample.n,
    )


def decompose(sample: EVSample, spec: EVModelSpec) -> Decomposition:
    """Centered sums of the slope-error identities, from the retained latents."""
    if not sample.has_latents:
        raise MissingLatentsError("decompose needs a sample drawn with retain_latents=True")
    x = sample.design.generate(sample.n)
    s_xi_eps, s_x_delta, s_x_eps, s_delta_sq, s_delta_eps, sxx_obs = kernels.decompose_batch(
        x,
        np.asarray(sample.xi)[None, :],
        np.asarray(sample.latent_eps)[None, :],
        np.asarray(sample.latent_delta)[None, :],
    )
    beta = spec.beta
    return Decomposition(
        term_xi_eps=float(s_xi_eps[0]),
        term_x_delta=beta * float(s_x_delta[0]),
        term_delta_sq=beta * float(s_delta_sq[0]),
        term_delta_eps=float(s_delta_eps[0]),
        term_x_nu=float(s_x_eps[0]) - beta * float(s_x_delta[0]),
        sxx_obs=float(sxx_obs[0]),
        sum_delta_sq=float(s_delta_sq[0]),
    )


def standardize(
    fit_result: FitResult,
    spec: EVModelSpec,
    summary: DesignSummary,
    variance_source: VarianceSource = "true",
) -> StandardizedStats:
    """Standardized slope and intercept statistics.

    With the true source the variance is sigma2^2 + beta^2 sigma1^2; with
    plug-in it is the fit's mean squared residual, which must be positive.
    A zero estimation error maps to a zero statistic even when the variance
    is zero (the noiseless degenerate case).
    """
    if variance_source == "true":
        variance = spec.nu_variance()
    elif variance_source == "plug-in":
        variance = fit_result.residual_var
        if variance <= 0.0:
            raise ZeroVarianceError("plug-in standardization needs residual_var > 0")
    else:
        raise ConfigError(f"unknown variance source {variance_source!r}")

    def _scale(err: float, factor: float) -> float:
        if err == 0.0:
            return 0.0
        return factor * err / np.sqrt(variance)

    return StandardizedStats(
        z_beta=_scale(fit_result.beta_hat - spec.beta, float(np.sqrt(summary.s_n))),
        z_theta=_scale(fit_result.theta_hat - spec.theta, float(np.sqrt(summary.n))),
        used_variance=float(variance),
        variance_source=variance_source,
    )


def negligible_ratios(decomp: Decomposition, summary: DesignSummary) -> tuple[float, float, float]:
    """The three quantities that vanish in probability when the slope CLT holds:

    sum d(delta)^2 / sqrt(S_n),  |sum d(delta) eps| / sqrt(S_n),
    and  sum d(xi)^2 / S_n - 1  (the last one signed).
    """
    if summary.s_n <= 0.0:
        raise DegenerateDesignError("negligible ratios need S_n > 0")
    root_s = float(np.sqrt(summary.s_n))
    return (
        decomp.sum_delta_sq / root_s,
        abs(decomp.term_delta_eps) / root_s,
        decomp.sxx_obs / summary.s_n - 1.0,
    )


def identity_gaps(fit_result: FitResult, decomp: Decomposition, spec: EVModelSpec) -> tuple[float, float, float]:
    """Relative identity residuals, measured against the estimator scale.

    Returns (direct-form gap, split-form gap, mutual gap between the two
    forms). The first two compare against the fitted slope error and are
    scaled by max(1, |beta|, |beta_hat|) because beta_hat itself carries a
    few ulps of error at the scale of beta; the mutual gap is scaled by the
    natural magnitude of the decomposition terms.
    """
    err_fit = fit_result.beta_hat - spec.beta
    rhs_direct = decomp.slope_error_direct()
    rhs_split = decomp.slope_error_split()
    fit_scale = max(1.0, abs(spec.beta), abs(fit_result.beta_hat))
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
    return (
        abs(err_fit - rhs_direct) / fit_scale,
        abs(err_fit - rhs_split) / fit_scale,
        abs(rhs_direct - rhs_split) / term_scale,
    )
