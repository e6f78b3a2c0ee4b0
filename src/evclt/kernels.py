"""Numeric kernels: the design summary, replicate-batched LS fits and the
error-decomposition sums, in plain numpy.

Every sum is two-pass: the mean first, then the centered products. On the
widest-range designs in the catalog (geometric base 2, power exponent 3)
this keeps S_n within 1e-15 relative of the exact rational value, so no
compensated summation is needed; ``tests/test_design.py`` pins that bound.
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


def fit_batch(xi, eta):
    """Row-wise simple LS fits.

    ``xi`` and ``eta`` are (replicates, n) arrays; returns per-row arrays
    (slope, intercept, centered regressor sum of squares, mean squared
    residual with divisor n). Rows with a constant regressor yield
    non-finite slopes; the caller decides how to treat them.
    """
    xi, eta = _as_f64(xi), _as_f64(eta)
    n = xi.shape[1]
    dxi = xi - xi.mean(axis=1, keepdims=True)
    deta = eta - eta.mean(axis=1, keepdims=True)
    sxx = np.sum(dxi * dxi, axis=1)
    sxy = np.sum(dxi * deta, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(sxx > 0.0, sxy / np.where(sxx > 0.0, sxx, 1.0), np.nan)
    theta = eta.mean(axis=1) - beta * xi.mean(axis=1)
    resid = deta - beta[:, None] * dxi
    rvar = np.sum(resid * resid, axis=1) / n
    return beta, theta, sxx, rvar


def decompose_batch(x, xi, eps, delta):
    """Row-wise raw sums feeding the slope-error decomposition.

    Returns, per row: sum (xi_i - xi_bar) eps_i, sum (x_i - x_bar) delta_i,
    sum (x_i - x_bar) eps_i, sum (delta_i - delta_bar)^2,
    sum (delta_i - delta_bar) eps_i, sum (xi_i - xi_bar)^2.
    """
    x, xi, eps, delta = _as_f64(x), _as_f64(xi), _as_f64(eps), _as_f64(delta)
    xdev = x - np.mean(x)
    dxi = xi - xi.mean(axis=1, keepdims=True)
    ddelta = delta - delta.mean(axis=1, keepdims=True)
    s_xi_eps = np.sum(dxi * eps, axis=1)
    s_x_delta = np.sum(xdev[None, :] * delta, axis=1)
    s_x_eps = np.sum(xdev[None, :] * eps, axis=1)
    s_delta_sq = np.sum(ddelta * ddelta, axis=1)
    s_delta_eps = np.sum(ddelta * eps, axis=1)
    sxx_obs = np.sum(dxi * dxi, axis=1)
    return s_xi_eps, s_x_delta, s_x_eps, s_delta_sq, s_delta_eps, sxx_obs
