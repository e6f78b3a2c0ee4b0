"""Deterministic design sequences and their dispersion summaries.

The regressors x_1, x_2, ... are fixed constants chosen by a generator; the
dispersion S_n = sum (x_i - x_bar_n)^2 of a design is what separates the
regimes where the slope estimator behaves well from the ones where it does
not. The catalog deliberately covers one generator per regime:

==============  ======================  =======================================
kind            formula (i >= 1)        regime it exercises
==============  ======================  =======================================
linear          slope * i               S_n ~ n^3: every condition holds
power           i ** exponent           steeper growth, hierarchy ratios shrink
alternating     (-1)^i * scale * i      bounded mean, intercept CLT condition
geometric       base ** i               one point dominates: max-deviation
                                        condition fails while n/sqrt(S_n) -> 0
bounded         scale * sin(i)          S_n ~ n: dispersion too small, no
                                        consistency
gaussian-iid    sd * N(0,1) draws       S_n/n stabilizes: the classic
                                        attenuation counterexample
constant        value                   degenerate, S_n = 0
==============  ======================  =======================================

Only gaussian-iid consumes the seed; it is drawn from a counter-based stream
keyed by (seed, design stream id) so the prefix property holds despite the
randomness.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from collections.abc import Iterator, Mapping, Sequence
from numbers import Integral, Real

import numpy as np
from scipy.special import ndtri

from . import kernels
from .errors import ConfigError
from .rng import STREAM_DESIGN, uniforms

DESIGN_KINDS = (
    "linear",
    "power",
    "alternating",
    "geometric",
    "bounded",
    "gaussian-iid",
    "constant",
)

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "linear": {"slope": 1.0},
    "power": {"exponent": 2.0},
    "alternating": {"scale": 1.0},
    "geometric": {"base": 2.0},
    "bounded": {"scale": 1.0},
    "gaussian-iid": {"sd": 1.0},
    "constant": {"value": 1.0},
}


@dataclass(frozen=True)
class DesignSequence:
    """A generator tag plus its parameters; values come from :meth:`generate`."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.params, Mapping):
            raise ConfigError(
                f"design.params must be a mapping, got {type(self.params).__name__}"
            )
        if self.kind not in DESIGN_KINDS:
            raise ConfigError(
                f"unknown design kind {self.kind!r}; expected one of {DESIGN_KINDS}"
            )
        merged = dict(_DEFAULT_PARAMS[self.kind])
        for key, value in self.params.items():
            if key not in merged:
                raise ConfigError(f"design kind {self.kind!r} has no parameter {key!r}")
            merged[key] = real_number(value, f"design parameter {key!r}")
        if self.kind == "power" and merged["exponent"] <= 0:
            raise ConfigError("power design needs exponent > 0")
        if self.kind == "geometric" and merged["base"] <= 1:
            raise ConfigError("geometric design needs base > 1")
        if self.kind == "gaussian-iid" and merged["sd"] < 0:
            raise ConfigError("gaussian-iid design needs sd >= 0")
        object.__setattr__(self, "params", merged)
        object.__setattr__(self, "seed", whole_number(self.seed, "design.seed"))

    def generate(self, n: int) -> np.ndarray:
        """First n values of the sequence (1-based index formulas). A value
        past the float64 range is inf, without a warning: ``summarize``
        refuses it."""
        if n < 2:
            raise ConfigError(f"design length must be >= 2, got {n}")
        p = self.params
        with np.errstate(over="ignore"):
            if self.kind == "gaussian-iid":
                return p["sd"] * ndtri(uniforms((self.seed, STREAM_DESIGN), n))
            i = np.arange(1, n + 1, dtype=np.float64)
            if self.kind == "linear":
                return p["slope"] * i
            if self.kind == "power":
                return i ** p["exponent"]
            if self.kind == "alternating":
                return np.where(i % 2 == 0, 1.0, -1.0) * p["scale"] * i
            if self.kind == "geometric":
                return p["base"] ** i
            if self.kind == "bounded":
                return p["scale"] * np.sin(i)
            return np.full(n, p["value"])

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DesignSummary:
    """Prefix statistics that every asymptotic condition is computed from."""

    n: int
    mean: float
    s_n: float
    max_dev: float
    s_star: float

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(x: Sequence[float] | np.ndarray) -> DesignSummary:
    """Two-pass mean, dispersion S_n, max deviation, and S_n* = max(n, S_n)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ConfigError("summarize needs a 1-d sequence of length >= 2")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("summarize needs finite values (geometric designs overflow for large n)")
    n = arr.shape[0]
    with np.errstate(over="ignore"):  # an overflow is reported below
        mean, s_n, max_dev = kernels.summary_stats(arr)
    if not np.isfinite(s_n):
        raise ConfigError(f"the dispersion S_n of {n} design values overflows float64")
    return DesignSummary(n=n, mean=mean, s_n=s_n, max_dev=max_dev, s_star=max(float(n), s_n))


def real_number(value, what: str) -> float:
    """``value`` as a finite float; it must be an int or a float, so that a
    string, a bool or an int past the float64 range is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # an exact comparison for an int
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return float(value)


def whole_number(value, what: str) -> int:
    """``value`` as an int; it must be an int or an integral float, so that a
    fractional count is refused instead of truncated, and a string or a bool
    instead of converted."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what} must be a whole number, got {value!r}")


def entries(value, what: str) -> Iterator:
    """An iterator over ``value``, which must be a list (or another iterable
    such as a tuple or a range), so that a scalar is refused instead of
    raising ``TypeError``, and a string or a mapping instead of being read
    as its characters or its keys."""
    if not isinstance(value, (str, bytes, Mapping)):
        try:
            return iter(value)
        except TypeError:
            pass
    raise ConfigError(f"{what} must be a list, got {value!r}")


def check_grid(n_grid: Sequence[int]) -> tuple[int, ...]:
    """The n grid as a tuple of ints; it must be strictly increasing with min >= 2."""
    grid = tuple(whole_number(n, "each n grid entry") for n in entries(n_grid, "grid"))
    if not grid or grid[0] < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("the n grid must be strictly increasing with min >= 2")
    return grid


def prefix_summaries(
    design: DesignSequence, n_grid: Sequence[int]
) -> tuple[np.ndarray, list[DesignSummary]]:
    """The design's values through the last grid point, generated once, and
    the summary of the prefix at each grid point."""
    grid = check_grid(n_grid)
    x = design.generate(grid[-1])
    return x, [summarize(x[:n]) for n in grid]


def summary_path(design: DesignSequence, n_grid: Sequence[int]) -> list[DesignSummary]:
    """Summaries of the design prefixes at each grid point."""
    return prefix_summaries(design, n_grid)[1]
