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
    """Gamma(x + a) / Gamma(x) for x > 0 and a >= 0, within a few ulp.

    scipy's beta function, and a difference of log-gammas, lose digits as x
    grows (3.5e-11 at x = 5e4). Here Gamma(x + 1) = x Gamma(x) lifts x to at
    least 16, and the ratio is x^a exp((x + a - 1/2) log1p(a / x) - a + S),
    with S the difference of the Stirling series B_2j / (2j (2j - 1) x^(2j-1))
    at x + a and at x, to its sixth term: the seventh is below 1e-16 from
    x = 16 on, for a up to 2.5.
    """
    factor = 1.0
    while x < 16.0:
        factor *= x / (x + a)
        x += 1.0
    rest = (x + a - 0.5) * math.log1p(a / x) - a
    stirling = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
    for j, b in enumerate(stirling, start=1):
        rest += b * ((x + a) ** (1 - 2 * j) - x ** (1 - 2 * j))
    return factor * x**a * math.exp(rest)
