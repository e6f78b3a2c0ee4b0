"""Model specification and sampling for the errors-in-variables pair

    eta_i = theta + beta * x_i + eps_i,      xi_i = x_i + delta_i,

with (eps_i, delta_i) i.i.d. across i, eps independent of delta, both
centered. Only the composite error nu = eps - beta * delta enters the
observable regression eta_i = theta + beta * xi_i + nu_i, and its variance
sigma2^2 + beta^2 * sigma1^2 drives every standardized statistic.

Error laws form a small symmetric catalog; each one is sampled by inverse
CDF from a single keyed uniform per index, so a draw is a pure function of
its stream key and index i: (seed, n, replicate, stream) for a replicate,
(seed, stream) for the one Monte Carlo |nu| draw of a Lindeberg run. The
student-t quantile for an even integer df from 6 to ``EVEN_T_DF_MAX`` comes
from the t law's finite-sum CDF (``_EvenStudentT``), within 8 ulp of exact
and several times cheaper than scipy's ``stdtrit``, which every other df
calls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import betainc, erfc, gammainc, ndtri, stdtr, stdtrit

from .design import DesignSequence, real_number
from .errors import ConfigError
from .kernels import SLICE
from .rng import STREAM_DELTA, STREAM_EPS, uniforms
from .special import gamma_ratio, student_t_abs_moment

FAMILIES = (
    "normal",
    "uniform-centered",
    "laplace",
    "student-t",
    "scaled-rademacher",
)

# From this multiple of the scale on, m = cutoff / scale squares to inf and
# every tail is below float64 resolution against the moments (student-t's,
# the heaviest, falls as m^(2 - df), df > 4): the moments take their limits.
_FAR = 2.0**512


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


# Student-t laws whose df is an even integer from 6 to this cutoff are sampled
# through the closed-form CDF of ``_EvenStudentT``; every other df calls
# scipy's stdtrit. In ``benchmarks/BENCH_t-quantile-layer.json`` (written by
# ``benchmarks/t_quantile.py``) the closed form is 3.6x to 5.9x faster and
# within 5.3 ulp up to df 40; above, its gain falls toward 2.2x and its error
# rises to 11 ulp (past 8 from df 72).
EVEN_T_DF_MAX = 40
# Elements per slice of ``_EvenStudentT.quantile``, the kernels' slice: each
# temporary stays near 128 KiB, whatever the size of the block, and at most
# about four are alive at once. A harness worker holds them on top of its
# data blocks, next to the kernels' product scratch of the same size
# (``harness.CHUNK_BYTES``). Halving the slice costs about 15% of the
# sampler's time in per-call overhead.
_T_SLICE = SLICE


def _horner(coefficients: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] * y^k, into a new array (two or more terms)."""
    acc = coefficients[-1] * y
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= y
    acc += coefficients[0]
    return acc


def _power(y: np.ndarray, k: int) -> np.ndarray:
    """y^k for an integer k >= 1 by repeated squaring, into a new array."""
    result, base = None, y
    while True:
        if k & 1:
            if result is None:
                # Every base but y itself is a temporary of this call.
                result = base.copy() if base is y else base
            else:
                np.multiply(result, base, out=result)
        k >>= 1
        if not k:
            return result
        base = base * base


class _EvenStudentT:
    """Quantiles of the standard t law with even df nu = 2m.

    With y = nu / (nu + t^2), x = t / sqrt(nu + t^2) and
    P_m(y) = sum_{k<m} C(2k, k) / 4^k y^k, the CDF has the finite form

        P(0 < T < t) = x P_m(y) / 2,
        P(T > t)     = y^m Q_m(y) / (2 (1 + x P_m(y))),

    where 1 - (1 - y) P_m(y)^2 = y^m Q_m(y) defines Q_m (Hill 1970, CACM
    Algorithm 396). Both coefficient lists are positive, so neither form
    cancels; both are dyadic rationals, rounded once from exact integers.
    On the central form d/dx = K y^(m-1), K = m C(2m, m) / 4^m, so Newton
    steps there are polynomial. In the tail, Newton steps in log t against
    log p start from Hill's approximation.
    """

    def __init__(self, m: int) -> None:
        nu = 2 * m
        # P_m and (1 - y) P_m^2 as integers over 4^(m-1) and 16^(m-1); the
        # latter is 1 - y^m Q_m, so Q_m is minus its coefficients from y^m.
        scale = 4 ** (m - 1)
        p_num = [math.comb(2 * k, k) * 4 ** (m - 1 - k) for k in range(m)]
        damped_square = [0] * (2 * m)
        for i, a in enumerate(p_num):
            for j, b in enumerate(p_num):
                damped_square[i + j] += a * b
                damped_square[i + j + 1] -= a * b
        self.m, self.nu = m, float(nu)
        self.p_coefficients = tuple(c / scale for c in p_num)
        self.q_coefficients = tuple(-c / scale**2 for c in damped_square[m:])
        self.k = m * math.comb(2 * m, m) / 4**m
        # Hill's constants for df = nu.
        a = 1.0 / (nu - 0.5)
        b = 48.0 / (a * a)
        c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
        d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * nu
        self.hill = (a, b, c, d)

    def quantile(self, u: np.ndarray, out: np.ndarray) -> None:
        """Writes the quantiles of the flat array ``u`` into the flat array
        ``out``, which may be ``u`` itself, one slice at a time."""
        for lo in range(0, u.size, _T_SLICE):
            u_s, out_s = u[lo : lo + _T_SLICE], out[lo : lo + _T_SLICE]
            # p = min(u, 1 - u) is exact: 1 - u is, wherever u >= 1/2. So
            # p >= 1/4 exactly where 1/4 <= u <= 3/4. The sign and both sides
            # are read before out_s, which may be u_s, is written; each form
            # then reads u_s only at its own positions. Index arrays, as take
            # and integer assignment cost a fraction of boolean masks on
            # random patterns.
            negative = u_s < 0.5
            central = u_s >= 0.25
            central &= u_s <= 0.75
            for form, side in ((self._central, central), (self._tail, ~central)):
                index = np.flatnonzero(side)
                p = u_s.take(index)
                np.minimum(p, np.subtract(1.0, p), out=p)
                out_s[index] = form(p)
            # The sign of u - 1/2: -1/2 where u < 1/2, else +1/2.
            np.copysign(out_s, np.subtract(0.5, negative), out=out_s)

    def _central(self, p: np.ndarray) -> np.ndarray:
        """t >= 0 with P(0 < T < t) = 1/2 - p, for 1/4 <= p <= 1/2."""
        m, k = self.m, self.k
        # h = 1/2 - p is exact for p >= 1/4 (Sterbenz).
        h = np.subtract(0.5, p, out=p)
        # Start from the series inverse to third order in v = h / K.
        v = h / k
        x = v * v
        x *= (m - 1) / 3.0
        x += 1.0
        x *= v
        del v
        y = np.empty_like(x)
        for _ in range(3):
            np.multiply(x, x, out=y)
            np.subtract(1.0, y, out=y)
            residual = _horner(self.p_coefficients, y)
            residual *= x
            residual *= 0.5
            residual -= h
            slope = _power(y, m - 1)
            slope *= k
            residual /= slope
            x -= residual
            del residual, slope
        np.multiply(x, x, out=y)
        np.subtract(1.0, y, out=y)
        np.sqrt(y, out=y)
        x *= math.sqrt(self.nu)
        x /= y
        return x

    def _tail(self, p: np.ndarray) -> np.ndarray:
        """t > 0 with P(T > t) = p, for 0 <= p < 1/4 (inf at p = 0)."""
        t = self._hill_start(p)
        # Hill's start is good to about 1e-6, so two Newton steps suffice;
        # only the last one needs every bit of P(T > t).
        self._tail_step(p, t, final=False)
        self._tail_step(p, t, final=True)
        if not p.all():
            t[p == 0.0] = np.inf
        return t

    def _hill_start(self, p: np.ndarray) -> np.ndarray:
        """Hill's approximation to the t quantile of upper tail p: an
        expansion about the normal quantile z, or, where w = (2 d p)^(2/nu)
        <= 0.05 + a, one in powers of w."""
        nu = self.nu
        a, b, c, d = self.hill
        w = np.power(2.0 * d * p, 2.0 / nu)
        far = np.flatnonzero(w <= 0.05 + a)
        w = w.take(far)
        z = ndtri(p)
        z2 = z * z
        denominator = 0.05 * d * z
        for coefficient in (-5.0, -7.0, -2.0):
            denominator += coefficient
            denominator *= z
        denominator += b + c
        y = 0.4 * z2
        for coefficient in (6.3, 36.0):
            y += coefficient
            y *= z2
        y += 94.5
        y /= denominator
        y -= z2
        y -= 3.0
        y /= b
        y += 1.0
        y *= z
        y *= y
        y *= a
        np.expm1(y, out=y)
        if far.size:
            inner = ((nu + 6.0) / (nu * w) - 0.089 * d - 0.822) * (nu + 2.0) * 3.0
            y[far] = ((1.0 / inner + 0.5 / (nu + 4.0)) * w - 1.0) * (nu + 1.0) / (nu + 2.0) + 1.0 / w
        y *= nu
        return np.sqrt(y, out=y)

    def _tail_step(self, p: np.ndarray, t: np.ndarray, final: bool) -> None:
        """One Newton step in log t on log P(T > t) = log p, in place.

        The step is log(P(T > t) / p) / e(t), with the elasticity
        e(t) = t f(t) / P(T > t) = 2 K x (1 + x P_m) / Q_m. y^m is taken as
        exp(-m log1p(t^2 / nu)), which keeps its error near one ulp where
        y is close to 1. In the last step it is a product of y's where
        t^2 >= 4 nu, as exp would multiply the rounding of its large
        argument there, and the step is applied through expm1.
        """
        m, nu = self.m, self.nu
        # The order keeps at most four arrays the size of t alive besides p
        # and t: x = t / sqrt(t^2 + nu) is formed once y is released.
        log_y_m = t * t
        log_y_m /= nu
        np.log1p(log_y_m, out=log_y_m)
        log_y_m *= -m
        y = t * t
        y += nu
        np.divide(nu, y, out=y)
        q = _horner(self.q_coefficients, y)
        w = _horner(self.p_coefficients, y)
        if final:
            near = np.flatnonzero(~(log_y_m > -m * math.log1p(4.0)))
            y_m_near = _power(y.take(near), m)
        del y
        x = t * t
        x += nu
        np.sqrt(x, out=x)
        np.divide(t, x, out=x)
        w *= x
        w += 1.0
        x *= w
        x *= 2.0 * self.k
        ratio = np.exp(log_y_m, out=log_y_m)
        if final:
            ratio[near] = y_m_near
        ratio *= q
        ratio /= w
        del w
        ratio /= 2.0 * p
        step = np.log(ratio, out=ratio)
        step *= q
        del q
        step /= x
        if final:
            np.expm1(step, out=step)
            step *= t
            t += step
        else:
            np.exp(step, out=step)
            t *= step

    # A memo of pure functions of m: at most one entry per even df up to
    # EVEN_T_DF_MAX, never changed once written.
    _cache: dict = {}

    @classmethod
    def of(cls, m: int) -> _EvenStudentT:
        """The cached instance for df = 2m."""
        if m not in cls._cache:
            cls._cache[m] = cls(m)
        return cls._cache[m]


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
        if scale < 0:
            raise ConfigError("error-distribution scale must be >= 0")
        object.__setattr__(self, "scale", scale)
        if self.family == "student-t":
            if self.df is None:
                raise ConfigError("student-t needs a df parameter")
            df = real_number(self.df, "student-t df")
            if df <= 4:
                raise ConfigError("student-t df must be > 4")
            object.__setattr__(self, "df", df)
        elif self.df is not None:
            raise ConfigError(f"family {self.family!r} takes no df parameter")
        # Every standardized statistic divides by a variance; one that
        # overflows float64 is refused here (abs_moment raises).
        self.variance()

    # -- moments ------------------------------------------------------------

    def moment_exists(self, order: float) -> bool:
        if self.family == "student-t":
            return order < self.df  # type: ignore[operator]
        return True

    def abs_moment(self, order: float) -> float:
        """E |X|^order, closed form for every family in the catalog; a
        ``ConfigError`` where it overflows float64."""
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
        # Python float powers and math.gamma raise OverflowError; products
        # of finite factors round to inf instead.
        try:
            if self.family == "normal":
                # s^k times 2^(k/2) Gamma((k+1)/2) / Gamma(1/2), exact at even k, last
                value = s**k * (2 ** (k / 2) * gamma_ratio(0.5, k / 2))
            elif self.family == "uniform-centered":
                value = s**k / (k + 1)
            elif self.family == "laplace":
                value = s**k * math.gamma(k + 1)
            elif self.family == "student-t":
                value = student_t_abs_moment(s, float(self.df), k)  # type: ignore[arg-type]
            else:  # scaled-rademacher
                value = s**k
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(
                f"E|X|^{order:g} of the {self.family} law with scale {s:g} overflows float64"
            )
        return value

    def variance(self) -> float:
        return self.abs_moment(2.0)

    # -- sampling -----------------------------------------------------------

    def sample(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse-CDF transform of uniforms in the open interval (0, 1).

        The draws are written into ``out`` (which may be ``u`` itself) when it
        is given, and ``out`` is returned. student-t with an even integer df
        <= ``EVEN_T_DF_MAX`` takes the closed-form quantile of
        ``_EvenStudentT`` (odd in u - 1/2 exactly, within 8 ulp); any other
        df calls ``stdtrit``.
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
            # s log1p(-2|q|) <= 0 and given the sign of q; rounding is
            # symmetric in sign, and q = +0 gives +0 as sign(0) does.
            q = np.subtract(u, 0.5)
            np.abs(q, out=out)
            out *= -2.0
            np.log1p(out, out=out)
            out *= s
            np.copysign(out, q, out=out)
        elif self.family == "student-t":
            df = self.df
            if df <= EVEN_T_DF_MAX and df % 2 == 0:
                dest = out if out.flags.c_contiguous else np.empty(out.shape)
                with np.errstate(divide="ignore", invalid="ignore"):
                    _EvenStudentT.of(int(df) // 2).quantile(np.ravel(u), dest.reshape(-1))
                if dest is not out:
                    out[...] = dest
            else:
                stdtrit(df, u, out=out)
            out *= s
        else:
            np.subtract(u, 0.5, out=out)
            np.copysign(s, out, out=out)
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
        # c / s overflows to inf only at a huge cutoff over a tiny scale,
        # where every tail is exactly 0
        with np.errstate(over="ignore"):
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
        """E[|X|^order ; |X| < cutoff] (strict truncation): the closed form of
        ``_truncated_from_scale`` from the scale up, the series of
        ``_truncated_below_scale`` below it; student-t needs order < df."""
        s, c, k = self.scale, np.asarray(np.maximum(cutoff, 0.0)), float(order)
        if s == 0.0:
            return _per_cutoff(cutoff, 0.0, 0.0)
        if self.family == "student-t" and not self.moment_exists(k):
            raise ConfigError(
                f"student-t with df={self.df} has no closed-form truncated moment of order {k}"
            )
        # Each form runs on its own cutoffs only: the closed form's s^k
        # overflows, or its incomplete gamma or beta underflows, at a cutoff
        # far below a huge scale.
        value = np.empty(np.shape(c))
        below = c < s
        if np.any(below):
            value[below] = self._truncated_below_scale(k, c[below])
        if not np.all(below):
            value[~below] = self._truncated_from_scale(k, c[~below])
        return _per_cutoff(cutoff, 0.0, value)

    # Terms of the series in ``_truncated_below_scale``: below the scale,
    # from the fifth term on, each is at most 0.36 times the one before, so
    # 40 terms reach the last bit of the sum.
    _SERIES_TERMS = 40

    def _truncated_below_scale(self, k: float, c: np.ndarray) -> np.ndarray:
        """E[|X|^k ; |X| < c] for 0 <= c < scale, as c^k m g(m) with m = c / s.

        On [0, m] the density of Z = X / s is f(0) sum_j t_j w^j, where w is
        z^2 / 2, z or z^2 / df (z^e) and t_{j+1} = -t_j (p + q j) / (j + 1):
        exp(-w) for q = 0, (1 + w)^(-p) for q = 1. Term by term,
        g(m) = 2 f(0) sum_j t_j w(m)^j / (k + 1 + e j), which is bounded for
        m < 1, so the moment is finite wherever c^k is.
        """
        m = c / self.scale
        if self.family == "scaled-rademacher":
            return np.zeros_like(m)  # |X| = scale > c
        if self.family == "uniform-centered":
            return np.power(c, k) * m / (k + 1)  # f = 1/2 on (-1, 1)
        if self.family == "normal":
            f0, e, w, p, q = 1.0 / math.sqrt(2.0 * math.pi), 2, m * m / 2, 1.0, 0
        elif self.family == "laplace":
            f0, e, w, p, q = 0.5, 1, m, 1.0, 0
        else:  # student-t
            nu = float(self.df)  # type: ignore[arg-type]
            f0 = gamma_ratio(nu / 2, 0.5) / math.sqrt(nu * math.pi)
            e, w, p, q = 2, m * m / nu, (nu + 1) / 2, 1
        term = np.ones_like(m)
        total = term / (k + 1)
        for j in range(self._SERIES_TERMS - 1):
            term *= -(p + q * j) / (j + 1) * w
            total += term / (k + 1 + e * (j + 1))
        return np.power(c, k) * m * (2.0 * f0) * total

    def _truncated_from_scale(self, k: float, c: np.ndarray) -> np.ndarray:
        """E[|X|^k ; |X| < c] for c >= scale: E|X|^k times its share below c, a
        regularized incomplete function of m = c / s (1 from ``_FAR`` scales on)."""
        s, share = self.scale, np.ones_like(c)  # uniform-centered: |X| <= s <= c
        if self.family == "scaled-rademacher":
            share = np.where(s < c, 1.0, 0.0)  # strict: |X| = s < c
        elif self.family != "uniform-centered":
            near = c < s * _FAR
            m = c[near] / s
            if self.family == "normal":
                share[near] = gammainc((k + 1) / 2, m * m / 2)
            elif self.family == "laplace":
                share[near] = gammainc(k + 1, m)
            else:  # student-t
                nu = float(self.df)  # type: ignore[arg-type]
                x, y = _t_beta_arguments(nu, m)
                share[near] = _regularized_beta((k + 1) / 2, (nu - k) / 2, x, y)
        return self.abs_moment(k) * share

    def tail_second_moment(self, cutoff):
        """E[X^2 ; |X| > cutoff], computed directly (no cancellation); 0 from
        ``_FAR`` scales on, and at every cutoff for a point mass at zero."""
        s, c = self.scale, np.asarray(np.maximum(cutoff, 0.0))
        value, near = np.zeros(c.shape), c < s * _FAR
        c = c[near]
        if self.family == "normal":
            m = c / s
            phi = np.exp(-0.5 * m * m) / math.sqrt(2.0 * math.pi)
            tail = s * s * (erfc(m / math.sqrt(2.0)) + 2.0 * m * phi)
        elif self.family == "uniform-centered":
            b = np.minimum(c, s)  # b * b is finite, where c * c may not be
            tail = np.where(c >= s, 0.0, (s - b) * (s * s + s * b + b * b) / (3.0 * s))
        elif self.family == "laplace":
            m = c / s
            tail = np.exp(-m)
            live = tail >= np.finfo(float).tiny  # elsewhere c * c may overflow
            c = c[live]
            with np.errstate(over="ignore"):
                tail[live] *= c * c + 2 * s * c + 2 * s * s
            # From scales past 1.8e151 the polynomial can overflow where the
            # tail, at most the variance 2 s^2, is finite, and from m = 708.4
            # e^(-m) is subnormal (too few bits) or 0: there the tail takes
            # s e^(-m/2) (m^2 + 2m + 2) s e^(-m/2), which forms no subnormal
            # square. Past m = 1500 e^(-m/2) underflows too: the tail stays 0,
            # and m * m, which can overflow there, is not formed.
            redo = (np.isinf(tail) | ~live) & (m < 1500.0)
            m = m[redo]
            root = s * np.exp(-m / 2)
            tail[redo] = root * (m * m + 2 * m + 2) * root
        elif self.family == "student-t":
            nu = float(self.df)  # type: ignore[arg-type]
            x, y = _t_beta_arguments(nu, c / s)
            tail = s * s * nu / (nu - 2) * _regularized_beta((nu - 2) / 2, 1.5, y, x)
        else:
            tail = np.where(s > c, s * s, 0.0)
        value[near] = tail
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
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")
        for dist in (self.eps_dist, self.delta_dist):
            if not dist.moment_exists(2.0 + self.alpha):
                raise ConfigError(
                    f"{dist.family} lacks a finite absolute moment of order {2 + self.alpha}"
                )
        if math.isinf(self.nu_variance()):
            raise ConfigError(f"Var(eps - beta delta) at beta = {self.beta:g} overflows float64")

    def nu_variance(self) -> float:
        """Var(eps - beta * delta) of independent error streams; inf past float64."""
        try:
            return self.eps_dist.variance() + self.beta**2 * self.delta_dist.variance()
        except OverflowError:  # beta^2 alone is past float64; Var(delta) may be 0
            return self.eps_dist.variance() + self.beta * (self.beta * self.delta_dist.variance())

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
    latents = (eps, delta) if retain_latents else (None, None)
    return EVSample(n, x + delta, spec.theta + spec.beta * x + eps, design, *latents)
