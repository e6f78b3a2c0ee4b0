"""The student-t quantile for an even integer df from 6 to ``EVEN_T_DF_MAX``,
from the t law's finite-sum CDF (``EvenStudentT``): within 8 ulp of exact and
several times cheaper than scipy's ``stdtrit``, which
``model.ErrorDistribution`` calls for every other df.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import ndtri

from .kernels import SLICE

# Student-t laws whose df is an even integer from 6 to this cutoff are sampled
# through the closed-form CDF of ``EvenStudentT``; every other df calls
# scipy's stdtrit. The cutoff comes from ``benchmarks/BENCH_t-quantile-layer.json``
# (written by ``benchmarks/t_quantile.py``), taken when the tail form started
# from Hill's approximation: 3.6x to 5.9x faster than stdtrit and within 5.3
# ulp up to df 40; above, its gain fell toward 2.2x and its error rose to 11
# ulp (past 8 from df 72). With the tabulated start it is 5.0x to 8.2x faster
# up to df 40 (``benchmarks/BENCH_t-quantile-table.json``).
EVEN_T_DF_MAX = 40
# Elements per slice of ``EvenStudentT.quantile``, the kernels' slice: each
# temporary stays near 128 KiB, whatever the size of the block, and at most
# about four are alive at once. A harness worker holds them on top of its
# data blocks, next to the kernels' product scratch of the same size
# (``harness.CHUNK_BYTES``). Halving the slice costs about 15% of the
# sampler's time in per-call overhead.
_T_SLICE = SLICE
# ``EvenStudentT`` starts the tail form (p < 1/4) from a table over
# 2^-56 <= p < 1/4, which holds every keyed uniform (they reach down to
# 2^-54): this many intervals uniform in log p, a quintic on each, 24 KiB
# per df.
_TABLE_P_MIN = 2.0**-56
_TABLE_INTERVALS = 512
# The smallest normal float64, 2^-1022: below it p is scaled by a power of
# two (``EvenStudentT._subnormal_tail``). Written as 2.0**-1022, its constant
# folding alone faulted in 64 KiB of libm at every import.
_P_NORMAL = sys.float_info.min


def _horner(coefficients: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] * y^k, into a new array (two or more terms)."""
    acc = coefficients[-1] * y
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= y
    acc += coefficients[0]
    return acc


def _split(p: np.ndarray, low: np.ndarray, below, above) -> np.ndarray:
    """``below`` of p where ``low`` holds and ``above`` of p elsewhere."""
    if not low.any():
        return above(p)
    t = np.empty_like(p)
    t[low] = below(p[low])
    high = ~low
    t[high] = above(p[high])
    return t


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


class EvenStudentT:
    """Quantiles of the standard t law with even df nu = 2m.

    With y = nu / (nu + t^2), x = t / sqrt(nu + t^2) and
    P_m(y) = sum_{k<m} C(2k, k) / 4^k y^k, the CDF has the finite form

        P(0 < T < t) = x P_m(y) / 2,
        P(T > t)     = y^m Q_m(y) / (2 (1 + x P_m(y))),

    where 1 - (1 - y) P_m(y)^2 = y^m Q_m(y) defines Q_m (Hill 1970, CACM
    Algorithm 396). Both coefficient lists are positive, so neither form
    cancels; both are dyadic rationals, rounded once from exact integers.
    On the central form d/dx = K y^(m-1), K = m C(2m, m) / 4^m, so Newton
    steps there are polynomial. In the tail, Newton steps are taken in
    log t against log p. From 2^-56 to 1/4 one step starts from a table,
    which each instance builds when ``of`` makes it on the first draw of its
    df (``_start_table``); below it, two steps start from Hill's
    approximation (``_hill_tail``), and a subnormal p is scaled by a power of
    two (``_subnormal_tail``).
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
        self.table = self._start_table()

    def _start_table(self) -> tuple[float, float, np.ndarray]:
        """(log 2^-56, 1 / h, coefficients) of the tail's start: from
        s_i = log 2^-56 + i h on, log t is sum_j coefficients[j, i] r^j in
        r = (log p - s_i) / h.

        On each interval the quintic matches log t and its first two
        derivatives in log p at both ends. At the nodes log t comes from
        Hill's start and two steps, and, with the elasticity
        e = t f(t) / P(T > t) of ``_tail_step``, d log t / d log p = -1 / e
        and d^2 log t / d log p^2 = -(e - nu + (nu + 1) y) / e^2. Between the
        nodes the quintic is within 2.7e-9 of log t for every even df from 6
        to 40, so one Newton step reaches the last bits. The last column,
        which a p just below 1/4 reaches where log p rounds to log 1/4, is the
        quadratic about the node at 1/4.
        """
        s0 = math.log(_TABLE_P_MIN)
        h = (math.log(0.25) - s0) / _TABLE_INTERVALS
        # float nodes: an integer arange would take numpy's cast loop, 64 KiB
        # of code that no other draw touches
        t = self._hill_tail(np.exp(s0 + h * np.arange(_TABLE_INTERVALS + 1.0)))
        nu = self.nu
        y = nu / (nu + t * t)
        x = t / np.sqrt(nu + t * t)
        e = 2.0 * self.k * x * (1.0 + x * _horner(self.p_coefficients, y))
        e /= _horner(self.q_coefficients, y)
        # log t and its first two derivatives in r at each node.
        value = np.log(t)
        slope = -h / e
        curvature = -h * h * (e - nu + (nu + 1.0) * y) / (e * e)
        # The quintic a + b r + c r^2 / 2 + A r^3 + B r^4 + C r^5 takes the
        # value, slope and curvature at r = 0; A, B and C solve for them at r = 1.
        d0 = value[1:] - value[:-1] - slope[:-1] - curvature[:-1] / 2.0
        d1 = slope[1:] - slope[:-1] - curvature[:-1]
        d2 = curvature[1:] - curvature[:-1]
        higher = (
            10.0 * d0 - 4.0 * d1 + d2 / 2.0,
            -15.0 * d0 + 7.0 * d1 - d2,
            6.0 * d0 - 3.0 * d1 + d2 / 2.0,
        )
        coefficients = np.array(
            [value, slope, curvature / 2.0, *(np.append(c, 0.0) for c in higher)]
        )
        return s0, 1.0 / h, coefficients

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
        return _split(p, p < _TABLE_P_MIN, self._below_table, self._table_tail)

    def _table_tail(self, p: np.ndarray) -> np.ndarray:
        """The tail at 2^-56 <= p < 1/4: one step from the table's start."""
        s0, inverse_h, coefficients = self.table
        # At most four arrays the size of p are alive: r, the node index, log t
        # and a gathered coefficient. The index is at least 0, as trunc rounds
        # a log p that lands a rounding below s0 up to 0, and at most
        # _TABLE_INTERVALS; "clip" mode only spares take a bounds check.
        r = np.log(p)
        r -= s0
        r *= inverse_h
        term = np.trunc(r)
        index = term.astype(np.intp)
        r -= term
        t = coefficients[-1].take(index, mode="clip")
        for row in coefficients[-2::-1]:
            t *= r
            t += row.take(index, out=term, mode="clip")
        del r, index, term
        np.exp(t, out=t)
        self._tail_step(p, t, final=True)
        return t

    def _below_table(self, p: np.ndarray) -> np.ndarray:
        """The tail below the table, 0 <= p < 2^-56."""
        return _split(p, p < _P_NORMAL, self._subnormal_tail, self._hill_tail)

    def _hill_tail(self, p: np.ndarray) -> np.ndarray:
        """The tail at normal p > 0 from Hill's start, which is good to about
        1e-6, and two Newton steps; only the last one needs every bit of
        P(T > t)."""
        t = self._hill_start(p)
        self._tail_step(p, t, final=False)
        self._tail_step(p, t, final=True)
        return t

    def _subnormal_tail(self, p: np.ndarray) -> np.ndarray:
        """The tail at 0 <= p < 2^-1022 (inf at p = 0), where t > 2^25.

        The start is the leading term P(T > t) ~ nu^m Q_m(0) / 4 t^-nu, whose
        relative error O(nu / t^2) is below 1e-14 here. The step takes p
        times 2^(m s) and each y times 2^s, s = ceil(64 / m), so that p and
        y^m are normal floats: it rounds as the unscaled step does at a
        normal p.
        """
        m, nu = self.m, self.nu
        t = np.log(p)
        np.subtract(m * math.log(nu) + math.log(self.q_coefficients[0] / 4.0), t, out=t)
        t /= nu
        np.exp(t, out=t)
        shift = -(-64 // m)
        self._tail_step(p * 2.0 ** (m * shift), t, final=True, shift=shift)
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

    def _tail_step(self, p: np.ndarray, t: np.ndarray, final: bool, shift: int = 0) -> None:
        """One Newton step in log t on log P(T > t) = log p, in place; with
        ``shift``, p is the upper tail times 2^(m shift), and each of the last
        step's products of y's is formed from y 2^shift.

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
            y_near = y.take(near)
            if shift:
                y_near *= 2.0**shift
            y_m_near = _power(y_near, m)
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
    def of(cls, m: int) -> EvenStudentT:
        """The cached instance for df = 2m."""
        if m not in cls._cache:
            cls._cache[m] = cls(m)
        return cls._cache[m]
