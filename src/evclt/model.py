"""Model specification and sampling for the errors-in-variables pair

    eta_i = theta + beta * x_i + eps_i,      xi_i = x_i + delta_i,

with (eps_i, delta_i) i.i.d. across i, eps independent of delta, both
centered. Only the composite error nu = eps - beta * delta enters the
observable regression eta_i = theta + beta * xi_i + nu_i, and its variance
sigma2^2 + beta^2 * sigma1^2 drives every standardized statistic.

Error laws form a small symmetric catalog; each one is sampled by inverse
CDF from a single keyed uniform per index, so a draw is a pure function of
its stream key and index i: (seed, n, replicate, stream) for a replicate,
(seed, stream) for the one Monte Carlo |nu| draw of a Lindeberg run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import beta as beta_function
from scipy.special import betainc, erfc, gammainc, gammaln, ndtri, stdtr, stdtrit

from .design import DesignSequence, real_number
from .errors import ConfigError
from .rng import STREAM_DELTA, STREAM_EPS, uniforms

FAMILIES = (
    "normal",
    "uniform-centered",
    "laplace",
    "student-t",
    "scaled-rademacher",
)

_SQRT_PI = math.sqrt(math.pi)


def _t_beta_arguments(nu: float, m):
    """x = m^2 / (nu + m^2) and y = nu / (nu + m^2), each computed directly.

    T^2 / (nu + T^2) ~ Beta(1/2, nu/2) for T ~ t(nu), so the student-t
    truncated moments are incomplete beta functions at x (or y = 1 - x);
    see Johnson, Kotz and Balakrishnan, *Continuous Univariate
    Distributions* vol. 2, ch. 28.
    """
    m2 = m * m
    return m2 / (nu + m2), nu / (nu + m2)


def _regularized_beta(a: float, b: float, x, y):
    """I_x(a, b), given y = 1 - x; taken as 1 - I_y(b, a) where x > 1/2 so
    that neither argument is ever formed as 1 minus the other."""
    return np.where(x > 0.5, 1.0 - betainc(b, a, y), betainc(a, b, x))


def _per_cutoff(cutoff, at_most_zero, value):
    """``at_most_zero`` where cutoff <= 0, else ``value``: a float for a
    scalar cutoff, else an array."""
    value = np.where(np.less_equal(cutoff, 0), at_most_zero, value)
    return float(value) if np.ndim(cutoff) == 0 else value


@dataclass(frozen=True)
class ErrorDistribution:
    """A centered, symmetric error law.

    ``scale`` is the family's natural scale parameter: the standard deviation
    for normal, the half-width for uniform-centered, the classical scale b
    for laplace (so the variance is 2 b^2), the multiplier of a standard t
    variate for student-t, and the magnitude of the two atoms for
    scaled-rademacher. ``scale = 0`` degenerates to a point mass at zero,
    which the noiseless test scenarios rely on. ``df`` applies to student-t
    only and must exceed 4 so that fourth moments exist.
    """

    family: str
    scale: float
    df: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown error family {self.family!r}; expected one of {FAMILIES}")
        scale = real_number(self.scale, "error-distribution scale")
        if not np.isfinite(scale) or scale < 0:
            raise ConfigError("error-distribution scale must be finite and >= 0")
        object.__setattr__(self, "scale", scale)
        if self.family == "student-t":
            if self.df is None:
                raise ConfigError("student-t needs a df parameter")
            df = real_number(self.df, "student-t df")
            if not np.isfinite(df) or df <= 4:
                raise ConfigError("student-t df must be finite and > 4")
            object.__setattr__(self, "df", df)
        elif self.df is not None:
            raise ConfigError(f"family {self.family!r} takes no df parameter")

    # -- moments ------------------------------------------------------------

    def moment_exists(self, order: float) -> bool:
        if self.family == "student-t":
            return order < self.df  # type: ignore[operator]
        return True

    def abs_moment(self, order: float) -> float:
        """E |X|^order, closed form for every family in the catalog."""
        if order < 0:
            raise ConfigError("moment order must be >= 0")
        if not self.moment_exists(order):
            raise ConfigError(
                f"student-t with df={self.df} has no absolute moment of order {order}"
            )
        s, k = self.scale, float(order)
        if k == 0:
            return 1.0
        if s == 0.0:
            return 0.0
        if self.family == "normal":
            return s**k * 2 ** (k / 2) * math.gamma((k + 1) / 2) / _SQRT_PI
        if self.family == "uniform-centered":
            return s**k / (k + 1)
        if self.family == "laplace":
            return s**k * math.gamma(k + 1)
        if self.family == "student-t":
            nu = float(self.df)  # type: ignore[arg-type]
            log_m = (
                (k / 2) * math.log(nu)
                + gammaln((k + 1) / 2)
                + gammaln((nu - k) / 2)
                - gammaln(nu / 2)
                - math.log(_SQRT_PI)
            )
            return s**k * math.exp(log_m)
        return s**k  # scaled-rademacher

    def variance(self) -> float:
        return self.abs_moment(2.0)

    # -- sampling -----------------------------------------------------------

    def sample(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse-CDF transform of uniforms in the open interval (0, 1).

        The draws are written into ``out`` (which may be ``u`` itself) when it
        is given, and ``out`` is returned.
        """
        if out is None:
            out = np.empty_like(u)
        s = self.scale
        if s == 0.0:
            out.fill(0.0)
        elif self.family == "normal":
            ndtri(u, out=out)
            out *= s
        elif self.family == "uniform-centered":
            np.multiply(u, 2.0, out=out)
            out -= 1.0
            out *= s
        elif self.family == "laplace":
            # -s sign(q) log1p(-2|q|) with q = u - 0.5, formed as
            # s log1p(-2|q|) <= 0 and negated where q >= 0; rounding is
            # symmetric in sign, and q = 0 gives +0 as sign(0) does.
            nonnegative = u >= 0.5
            np.subtract(u, 0.5, out=out)
            np.abs(out, out=out)
            out *= -2.0
            np.log1p(out, out=out)
            out *= s
            np.negative(out, out=out, where=nonnegative)
        elif self.family == "student-t":
            stdtrit(self.df, u, out=out)
            out *= s
        else:
            negative = u < 0.5
            out.fill(s)
            np.negative(out, out=out, where=negative)
        return out

    # -- support and truncated moments (condition diagnostics) ---------------

    def support_bound(self) -> float:
        """Smallest b with |X| <= b almost surely (inf if unbounded)."""
        if self.scale == 0.0:
            return 0.0
        if self.family in ("uniform-centered", "scaled-rademacher"):
            return self.scale
        return math.inf

    # The moments below are elementwise over an array of cutoffs. Each branch
    # runs at max(cutoff, 0), so cutoffs <= 0 raise no warning; powers use the
    # np.power ufunc, as ``**`` on a numpy scalar calls libm's pow, which may
    # round unlike the vector loop that an array of cutoffs runs.

    def tail_prob(self, cutoff):
        """P(|X| >= cutoff)."""
        s, c = self.scale, np.maximum(cutoff, 0.0)
        if s == 0.0:
            p = 0.0
        elif self.family == "normal":
            p = erfc(c / (s * math.sqrt(2.0)))
        elif self.family == "uniform-centered":
            p = np.maximum(0.0, 1.0 - c / s)
        elif self.family == "laplace":
            p = np.exp(-c / s)
        elif self.family == "student-t":
            p = 2.0 * stdtr(self.df, -c / s)
        else:
            p = np.where(s >= c, 1.0, 0.0)
        return _per_cutoff(cutoff, 1.0, p)

    def truncated_abs_moment(self, order: float, cutoff):
        """E[|X|^order ; |X| < cutoff] (strict truncation).

        Closed form for every family; student-t needs order < df.
        """
        s, c, k = self.scale, np.maximum(cutoff, 0.0), float(order)
        if s == 0.0:
            value = 0.0
        elif self.family == "normal":
            m = c / s
            value = (
                s**k
                * 2 ** (k / 2)
                * math.gamma((k + 1) / 2)
                / _SQRT_PI
                * gammainc((k + 1) / 2, m * m / 2)
            )
        elif self.family == "uniform-centered":
            value = np.power(np.minimum(c, s), k + 1) / (s * (k + 1))
        elif self.family == "laplace":
            value = s**k * math.gamma(k + 1) * gammainc(k + 1, c / s)
        elif self.family == "student-t":
            if not self.moment_exists(k):
                raise ConfigError(
                    f"student-t with df={self.df} has no closed-form truncated moment "
                    f"of order {k}"
                )
            nu = float(self.df)  # type: ignore[arg-type]
            x, y = _t_beta_arguments(nu, c / s)
            a, b = (k + 1) / 2, (nu - k) / 2
            ratio = beta_function(a, b) / beta_function(0.5, nu / 2)
            value = s**k * nu ** (k / 2) * float(ratio) * _regularized_beta(a, b, x, y)
        else:
            value = np.where(s < c, s**k, 0.0)
        return _per_cutoff(cutoff, 0.0, value)

    def tail_second_moment(self, cutoff):
        """E[X^2 ; |X| > cutoff], computed directly (no cancellation)."""
        s, c = self.scale, np.maximum(cutoff, 0.0)
        if s == 0.0:
            value = 0.0
        elif self.family == "normal":
            m = c / s
            phi = np.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi)
            value = s * s * (erfc(m / math.sqrt(2.0)) + 2.0 * m * phi)
        elif self.family == "uniform-centered":
            value = np.where(c >= s, 0.0, (s - c) * (s * s + s * c + c * c) / (3.0 * s))
        elif self.family == "laplace":
            value = np.exp(-c / s) * (c * c + 2 * s * c + 2 * s * s)
        elif self.family == "student-t":
            nu = float(self.df)  # type: ignore[arg-type]
            x, y = _t_beta_arguments(nu, c / s)
            value = s * s * nu / (nu - 2) * _regularized_beta((nu - 2) / 2, 1.5, y, x)
        else:
            value = np.where(s > c, s * s, 0.0)
        return _per_cutoff(cutoff, self.variance(), value)

    def to_dict(self) -> dict:
        """The fields, without ``df`` where the family takes none."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def moment(dist: ErrorDistribution, order: float, absolute: bool = False) -> float:
    """Moment of the error law: E|X|^order, or the raw E X^order.

    Raw moments are defined here for integer orders only; odd ones vanish by
    symmetry of every catalog family.
    """
    if order < 1:
        raise ConfigError("moment order must be >= 1")
    if absolute:
        return dist.abs_moment(order)
    if float(order) != int(order):
        raise ConfigError("raw (signed) moments need an integer order")
    if int(order) % 2 == 1:
        if not dist.moment_exists(order):
            raise ConfigError(f"moment of order {order} does not exist for {dist.family}")
        return 0.0
    return dist.abs_moment(order)


@dataclass(frozen=True)
class EVModelSpec:
    """True parameters plus the two error laws.

    alpha is the extra moment order required by the slope CLT: both laws
    must have finite absolute moments of order 2 + alpha. The same alpha is
    used for both laws.
    """

    theta: float
    beta: float
    eps_dist: ErrorDistribution
    delta_dist: ErrorDistribution
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("theta", "beta", "alpha"):
            value = real_number(getattr(self, name), name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")
        for dist in (self.eps_dist, self.delta_dist):
            if not dist.moment_exists(2.0 + self.alpha):
                raise ConfigError(
                    f"{dist.family} lacks a finite absolute moment of order {2 + self.alpha}"
                )

    def nu_variance(self) -> float:
        """Var(eps - beta * delta) under independence of the two error streams."""
        return self.eps_dist.variance() + self.beta**2 * self.delta_dist.variance()

    def nu_bound(self) -> float:
        """Almost-sure bound on |eps - beta * delta| (inf if unbounded)."""
        return self.eps_dist.support_bound() + abs(self.beta) * self.delta_dist.support_bound()

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "beta": self.beta,
            "eps": self.eps_dist.to_dict(),
            "delta": self.delta_dist.to_dict(),
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class EVSample:
    """One realized dataset; latents are kept only when identity-testing."""

    n: int
    xi: np.ndarray
    eta: np.ndarray
    design: DesignSequence
    latent_eps: np.ndarray | None = None
    latent_delta: np.ndarray | None = None

    @property
    def has_latents(self) -> bool:
        return self.latent_eps is not None and self.latent_delta is not None


def draw_sample(
    spec: EVModelSpec,
    design: DesignSequence,
    n: int,
    seed: int,
    replicate: int = 0,
    retain_latents: bool = False,
) -> EVSample:
    """Draw one replicate; a pure function of (spec, design, n, seed, replicate)."""
    if n < 2:
        raise ConfigError(f"sample size must be >= 2, got {n}")
    x = design.generate(n)
    eps = spec.eps_dist.sample(uniforms((seed, n, replicate, STREAM_EPS), n))
    delta = spec.delta_dist.sample(uniforms((seed, n, replicate, STREAM_DELTA), n))
    xi = x + delta
    eta = spec.theta + spec.beta * x + eps
    return EVSample(
        n=n,
        xi=xi,
        eta=eta,
        design=design,
        latent_eps=eps if retain_latents else None,
        latent_delta=delta if retain_latents else None,
    )
