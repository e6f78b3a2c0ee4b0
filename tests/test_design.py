import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evclt.design import DesignSequence, prefix_summaries, summarize, summary_path
from evclt.errors import ConfigError

from conftest import catalog_designs


# --- generators -------------------------------------------------------------


def test_linear_identity_generator():
    assert DesignSequence("linear", {"slope": 1.0}, 0).generate(4).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_alternating_generator():
    x = DesignSequence("alternating", {"scale": 1.0}, 0).generate(4)
    assert x.tolist() == [-1.0, 2.0, -3.0, 4.0]


def test_gaussian_iid_deterministic():
    a = DesignSequence("gaussian-iid", {"sd": 1.0}, 123).generate(5)
    b = DesignSequence("gaussian-iid", {"sd": 1.0}, 123).generate(5)
    assert np.array_equal(a, b)
    c = DesignSequence("gaussian-iid", {"sd": 1.0}, 124).generate(5)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("design", catalog_designs(seed=7), ids=lambda d: d.kind)
def test_prefix_property(design):
    short = design.generate(16)
    long = design.generate(40)
    assert np.array_equal(short, long[:16])


def test_generator_errors():
    with pytest.raises(ConfigError):
        DesignSequence("unknown-kind")
    with pytest.raises(ConfigError):
        DesignSequence("power", {"exponent": -1.0})
    with pytest.raises(ConfigError):
        DesignSequence("geometric", {"base": 1.0})
    with pytest.raises(ConfigError):
        DesignSequence("linear", {"slope": float("nan")})
    with pytest.raises(ConfigError):
        DesignSequence("linear", {"slop": 1.0})
    with pytest.raises(ConfigError):
        DesignSequence("linear", {}, 0).generate(1)


# --- summaries ---------------------------------------------------------------


def test_summarize_hand_values():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.mean == pytest.approx(2.5, abs=0)
    assert s.s_n == pytest.approx(5.0, abs=1e-14)  # 1.5^2+0.5^2+0.5^2+1.5^2
    assert s.max_dev == pytest.approx(1.5, abs=0)
    assert s.s_star == pytest.approx(5.0, abs=1e-14)


def test_summarize_alternating_hand_values():
    s = summarize([-1.0, 2.0, -3.0, 4.0])
    assert s.mean == pytest.approx(0.5, abs=0)
    assert s.s_n == pytest.approx(29.0, abs=1e-13)  # 2.25+2.25+12.25+12.25
    assert s.max_dev == pytest.approx(3.5, abs=0)


def test_summarize_constant_sequence():
    s = summarize([3.0] * 10)
    assert s.s_n == 0.0
    assert s.max_dev == 0.0
    assert s.s_star == 10.0  # max(n, 0)


def test_summarize_errors():
    with pytest.raises(ConfigError):
        summarize([1.0])
    with pytest.raises(ConfigError):
        summarize([1.0, float("inf")])


def test_linear_closed_form_dispersion():
    # For x_i = i the dispersion is n (n^2 - 1) / 12 exactly.
    for n in (4, 100, 1000):
        s = summarize(np.arange(1, n + 1, dtype=float))
        oracle = n * (n * n - 1) / 12.0
        assert abs(s.s_n - oracle) <= 1e-10 * oracle
    assert summarize(np.arange(1, 101, dtype=float)).s_n == pytest.approx(83325.0, rel=1e-12)


def _exact_mean_and_dispersion(x):
    values = [Fraction(float(v)) for v in x]
    mean = sum(values) / len(values)
    return mean, sum((v - mean) ** 2 for v in values)


@pytest.mark.parametrize(
    "x",
    [
        DesignSequence("geometric", {"base": 2.0}).generate(500),
        DesignSequence("power", {"exponent": 3.0}).generate(10_000),
        DesignSequence("alternating").generate(10_000),
        DesignSequence("linear").generate(10_000) + (1e8 - 5000.5),  # mean 1e8
    ],
    ids=["geometric-500", "power3-1e4", "alternating-1e4", "linear-mean-1e8-1e4"],
)
def test_summarize_matches_exact_rational_reference(x):
    # Plain two-pass numpy sums, no compensation, on the widest-range designs.
    s = summarize(x)
    mean, s_n = _exact_mean_and_dispersion(x)
    assert abs(Fraction(s.mean) - mean) <= Fraction(1e-15) * abs(mean)
    assert abs(Fraction(s.s_n) - s_n) <= Fraction(1e-15) * s_n


def test_summarize_rejects_overflowing_dispersion():
    # Geometric base 2 stays finite through i = 1023, but S_n overflows from
    # about n = 512.
    x = DesignSequence("geometric", {"base": 2.0}).generate(600)
    assert np.all(np.isfinite(x))
    with pytest.raises(ConfigError, match="overflows"):
        summarize(x)


def test_s_star_tracks_max_of_n_and_dispersion():
    small = summarize([0.0, 1e-3, 2e-3, 1e-3])  # s_n << n
    assert small.s_star == 4.0
    big = summarize(np.arange(1, 101, dtype=float))  # s_n >> n
    assert big.s_star == big.s_n


@given(
    xs=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=60),
    c=st.floats(min_value=-100.0, max_value=100.0),
    lam=st.floats(min_value=-16.0, max_value=16.0),
)
@settings(max_examples=120, deadline=None)
def test_shift_and_scale_invariance(xs, c, lam):
    x = np.array(xs)
    base = summarize(x)
    if base.s_n < 1e-3:  # relative comparisons need genuine dispersion
        return
    shifted = summarize(x + c)
    assert math.isclose(shifted.s_n, base.s_n, rel_tol=1e-12)
    assert math.isclose(shifted.max_dev, base.max_dev, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(shifted.mean, base.mean + c, rel_tol=1e-12, abs_tol=1e-9)
    scaled = summarize(lam * x)
    assert math.isclose(scaled.s_n, lam * lam * base.s_n, rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(scaled.max_dev, abs(lam) * base.max_dev, rel_tol=1e-12, abs_tol=1e-300)


# --- summary paths -----------------------------------------------------------


def test_summary_path_matches_prefix_summaries(linear_design):
    path = summary_path(linear_design, [4, 10, 100])
    assert [s.n for s in path] == [4, 10, 100]
    assert path[0].s_n == pytest.approx(5.0, rel=1e-14)
    assert path[2].s_n == pytest.approx(83325.0, rel=1e-12)
    direct = summarize(linear_design.generate(10))
    assert path[1] == direct


def test_prefix_summaries_return_the_last_grid_point_values_with_the_path():
    design = DesignSequence("gaussian-iid", {"sd": 2.0}, 7)
    x, summaries = prefix_summaries(design, [4, 10, 100])
    assert np.array_equal(x, design.generate(100))
    assert summaries == summary_path(design, [4, 10, 100])
    assert summaries == [summarize(x[:n]) for n in (4, 10, 100)]


def test_summary_path_constant_design():
    path = summary_path(DesignSequence("constant", {"value": 2.0}), [4, 8])
    assert all(s.s_n == 0.0 for s in path)


def test_summary_path_rejects_bad_grid(linear_design):
    with pytest.raises(ConfigError):
        summary_path(linear_design, [10, 10])
    with pytest.raises(ConfigError):
        summary_path(linear_design, [1, 10])
    with pytest.raises(ConfigError):
        summary_path(linear_design, [])
