"""Numeric kernels: the design summary, replicate-batched LS fits, the
residual pass and the error-decomposition sums, in plain numpy.

Every sum is two-pass: the mean first, then the centered products. On the
widest-range designs in the catalog (geometric base 2, power exponent 3)
this keeps S_n within 1e-15 relative of the exact rational value, so no
compensated summation is needed; ``tests/test_design.py`` pins that bound.

The batched kernels work on (rows, n) float64 C-contiguous blocks and
allocate no block of their own when given one: ``fit_batch`` centers its
inputs in place, and ``residual_variance`` and ``decompose_batch`` read the
centered rows it leaves. Each product is formed in a ``scratch`` block of
the same shape (a fresh one when none is given) and summed along the row,
so every value is the one the unbuffered expression would give.
"""

from __future__ import annotations

import numpy as np


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def summary_stats(x) -> tuple[float, float, float]:
    """(mean, sum of squared deviations, max absolute deviation) of ``x``."""
    x = _as_f64(x)
    mean = float(np.mean(x))
    dev = x - mean
    return mean, float(np.sum(dev * dev)), float(np.max(np.abs(dev)))


def _row_sum_of_products(a, b, scratch) -> np.ndarray:
    return np.multiply(a, b, out=scratch).sum(axis=1)


def fit_batch(xi, eta, scratch=None):
    """Row-wise simple LS fits of ``eta`` on ``xi``.

    ``xi`` and ``eta`` are (replicates, n) float64 C-contiguous blocks; each
    is centered in place, once, so that on return they hold d(xi) and
    d(eta). Returns per-row arrays (slope, intercept, centered regressor sum
    of squares, regressor mean). Rows with a constant regressor yield
    non-finite slopes; the caller decides how to treat them.
    """
    scratch = np.empty_like(xi) if scratch is None else scratch
    xi_mean = xi.mean(axis=1)
    eta_mean = eta.mean(axis=1)
    xi -= xi_mean[:, None]
    eta -= eta_mean[:, None]
    sxx = _row_sum_of_products(xi, xi, scratch)
    sxy = _row_sum_of_products(xi, eta, scratch)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(sxx > 0.0, sxy / np.where(sxx > 0.0, sxx, 1.0), np.nan)
    theta = eta_mean - beta * xi_mean
    return beta, theta, sxx, xi_mean


def residual_variance(dxi, deta, beta, scratch=None):
    """Row-wise mean squared residual (divisor n) of the fits ``beta``, from
    the centered blocks that ``fit_batch`` leaves in its inputs."""
    scratch = np.empty_like(dxi) if scratch is None else scratch
    np.multiply(dxi, beta[:, None], out=scratch)
    np.subtract(deta, scratch, out=scratch)
    return _row_sum_of_products(scratch, scratch, scratch) / dxi.shape[1]


def decompose_batch(x, xi, eps, delta, scratch=None):
    """Row-wise raw sums feeding the slope-error decomposition.

    ``xi`` holds the centered observed regressor rows d(xi) that
    ``fit_batch`` leaves; ``delta`` is centered in place. Returns, per row:
    sum d(xi)_i eps_i, sum d(x)_i delta_i, sum d(x)_i eps_i,
    sum d(delta)_i^2, sum d(delta)_i eps_i. The fit supplies the sixth
    sum, sum d(xi)_i^2.
    """
    scratch = np.empty_like(xi) if scratch is None else scratch
    x = _as_f64(x)
    xdev = x - np.mean(x)
    s_xi_eps = _row_sum_of_products(xi, eps, scratch)
    s_x_delta = _row_sum_of_products(xdev, delta, scratch)
    s_x_eps = _row_sum_of_products(xdev, eps, scratch)
    delta -= delta.mean(axis=1, keepdims=True)
    s_delta_sq = _row_sum_of_products(delta, delta, scratch)
    s_delta_eps = _row_sum_of_products(delta, eps, scratch)
    return s_xi_eps, s_x_delta, s_x_eps, s_delta_sq, s_delta_eps
