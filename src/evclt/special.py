"""Special functions to full double precision where scipy's lose digits.

They live apart from ``evclt.model``, which calls them. Where Python writes
no bytecode cache (PYTHONDONTWRITEBYTECODE), each CLI run compiles the
package from source, and compiling ``model.py``, the largest module, sets
the heap high-water of the import: with ``gamma_ratio`` inside it, that
heap grew by about 0.2 MB (glibc ``mallinfo2``), and so did every command's
peak RSS.
"""

from __future__ import annotations

import math


def gamma_ratio(x: float, a: float) -> float:
    """Gamma(x + a) / Gamma(x) for x > 0 and a >= 0, within a few ulp per
    factor.

    scipy's beta function, and a difference of log-gammas, lose digits as x
    grows (3.5e-11 at x = 5e4). A whole a gives the product
    x (x + 1) ... (x + a - 1), rounded once per factor. A non-whole a up to
    2.5 lifts x to at least 16 by Gamma(x + 1) = x Gamma(x), and the ratio is
    x^a exp((x + a - 1/2) log1p(a / x) - a + S), with S the difference of the
    Stirling series B_2j / (2j (2j - 1) x^(2j-1)) at x + a and at x, to its
    sixth term: the seventh is below 1e-16 from x = 16 on, for a up to 2.5.
    A larger a = j + f, with j whole and 0 < f < 1, takes that ratio at f
    times (x + f) (x + f + 1) ... (x + f + j - 1): exp(rest) would carry the
    rounding of a rest near 100 (9.6e-15 at x = 0.5, a = 55.5).
    """
    j = int(a)
    f = a - j
    if f and a <= 2.5:
        factor, y, rest = _lifted_stirling(x, a)
        return factor * y**a * math.exp(rest)
    product = gamma_ratio(x, f) if f else 1.0
    for i in range(j):
        product *= x + f + i
    return product


def scaled_gamma_ratio(x: float, a: float) -> float:
    """Gamma(x + a) / (Gamma(x) x^a) for x > 0 and a >= 0: the ratio of
    ``gamma_ratio`` over x^a, which stays near 1 as x grows where x^a may
    overflow. A whole a sums log1p(j / x) over the factors (x + j) / x."""
    if a == int(a):
        return math.exp(math.fsum(math.log1p(j / x) for j in range(int(a))))
    factor, y, rest = _lifted_stirling(x, a)
    return factor * (y / x) ** a * math.exp(rest)


def student_t_abs_moment(s: float, nu: float, k: float) -> float:
    """E |X|^k for X = s T, T a t variate with nu > k degrees of freedom:
    s^k nu^(k/2) Gamma((k+1)/2) Gamma((nu-k)/2) / (Gamma(1/2) Gamma(nu/2)),
    inf where it overflows (or an OverflowError from s^k).

    It takes two gamma ratios: a difference of log-gammas cancels as nu
    grows (6.6e-10 of the variance at df 1e6), and an even k makes both
    ratios exact products. Where nu^(k/2) and Gamma(x + k/2) / Gamma(x),
    x = (nu - k) / 2, overflow but the moment need not (k = 110 at df 1e6),
    both are scaled by x^(k/2), with (nu / x)^(k/2) = 2^(k/2) (1 - k/nu)^(-k/2).
    """
    x, a = (nu - k) / 2, k / 2
    try:
        value = s**k * nu**a * (gamma_ratio(0.5, a) / gamma_ratio(x, a))
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        scaled = 2**a * math.exp(-a * math.log1p(-k / nu))
        value = s**k * scaled * (gamma_ratio(0.5, a) / scaled_gamma_ratio(x, a))
    return value


def _lifted_stirling(x: float, a: float) -> tuple[float, float, float]:
    """(factor, y, rest) with Gamma(x + a) / Gamma(x) = factor y^a exp(rest)
    and y >= 16; see ``gamma_ratio``."""
    factor = 1.0
    while x < 16.0:
        factor *= x / (x + a)
        x += 1.0
    rest = (x + a - 0.5) * math.log1p(a / x) - a
    stirling = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
    for j, b in enumerate(stirling, start=1):
        rest += b * ((x + a) ** (1 - 2 * j) - x ** (1 - 2 * j))
    return factor, x, rest
