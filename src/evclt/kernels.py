"""Numeric kernels: replicate-batched LS fits, the residual pass and the
error-decomposition sums, in plain numpy.

Every sum is two-pass: the mean first, then the centered products.

The batched kernels work on (rows, n) float64 C-contiguous blocks and
allocate no block of their own: ``fit_batch`` centers its inputs in place,
and ``residual_variance`` and ``decompose_batch`` read the centered rows it
leaves. Each product is formed in a ``scratch`` of one slice
(``slice_scratch``; a fresh one when none is given) and summed along the
row, one slice of rows at a time. numpy sums each row of a C-contiguous
block pairwise on its own, whatever the number of rows reduced together, so
every value is the one the unbuffered expression would give.
"""

from __future__ import annotations

import numpy as np

# Elements of one slice, 128 KiB of float64. The batched kernels form their
# products in a scratch of one slice, and ``tquantile.EvenStudentT`` samples
# in slices of this size: small enough to stay in a 2 MiB L2 next to the
# rows it reads, and large enough that per-call overhead stays small.
SLICE = 16384


def slice_scratch(n: int, rows: int | None = None) -> np.ndarray:
    """An uninitialized (r, n) product scratch of one slice: r = SLICE // n
    rows, at least one (a row longer than a slice) and at most ``rows``."""
    r = max(1, SLICE // n)
    return np.empty((r if rows is None else max(1, min(r, rows)), n))


def _row_slices(rows: int, scratch: np.ndarray):
    """(lo, hi, s) for each slice [lo, hi) of a block's ``rows`` rows, with s
    the first hi - lo rows of ``scratch``."""
    step = scratch.shape[0]
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        yield lo, hi, scratch[: hi - lo]


def _row_sum_of_products(a, b, scratch) -> np.ndarray:
    """sum_j a[i, j] b[i, j] for each row i of ``b``; a 1-D ``a`` is one row
    broadcast to every row."""
    out = np.empty(b.shape[0])
    for lo, hi, s in _row_slices(b.shape[0], scratch):
        np.multiply(a if a.ndim == 1 else a[lo:hi], b[lo:hi], out=s).sum(axis=1, out=out[lo:hi])
    return out


def fit_batch(xi, eta, scratch=None):
    """Row-wise simple LS fits of ``eta`` on ``xi``.

    ``xi`` and ``eta`` are (replicates, n) float64 C-contiguous blocks; each
    is centered in place, once, so that on return they hold d(xi) and
    d(eta). Returns per-row arrays (slope, intercept, centered regressor sum
    of squares, regressor mean). Rows with a constant regressor yield
    non-finite slopes; the caller decides how to treat them.
    """
    scratch = slice_scratch(xi.shape[1], xi.shape[0]) if scratch is None else scratch
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
    rows, n = dxi.shape
    scratch = slice_scratch(n, rows) if scratch is None else scratch
    out = np.empty(rows)
    for lo, hi, s in _row_slices(rows, scratch):
        np.multiply(dxi[lo:hi], beta[lo:hi, None], out=s)
        np.subtract(deta[lo:hi], s, out=s)
        np.multiply(s, s, out=s).sum(axis=1, out=out[lo:hi])
    out /= n
    return out


def decompose_batch(x, xi, eps, delta, scratch=None):
    """Row-wise raw sums feeding the slope-error decomposition.

    ``x`` is the centered design row d(x), a float64 C-contiguous row
    shared by every row of the block; ``xi`` holds the centered observed
    regressor rows d(xi) that ``fit_batch`` leaves; ``delta`` is centered
    in place.
    Returns, per row: sum d(xi)_i eps_i, sum d(x)_i delta_i,
    sum d(x)_i eps_i, sum d(delta)_i^2, sum d(delta)_i eps_i. The fit
    supplies the sixth sum, sum d(xi)_i^2.
    """
    scratch = slice_scratch(xi.shape[1], xi.shape[0]) if scratch is None else scratch
    s_xi_eps = _row_sum_of_products(xi, eps, scratch)
    s_x_delta = _row_sum_of_products(x, delta, scratch)
    s_x_eps = _row_sum_of_products(x, eps, scratch)
    delta -= delta.mean(axis=1, keepdims=True)
    s_delta_sq = _row_sum_of_products(delta, delta, scratch)
    s_delta_eps = _row_sum_of_products(delta, eps, scratch)
    return s_xi_eps, s_x_delta, s_x_eps, s_delta_sq, s_delta_eps
