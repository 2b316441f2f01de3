"""1-D interpolation primitives.

The pattern aligner's two sequential interpolations (paper Eqs. 6–7),
and its rewarp back to the original time grid, call
:func:`linear_interp`.  The EMD baseline's envelopes are natural cubic
splines through the extrema (:func:`cubic_spline_interp`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError
from repro.utils.validation import as_1d_float_array, check_same_length


def _check_strictly_increasing(x: np.ndarray, name: str) -> None:
    if x.size >= 2 and not np.all(np.diff(x) > 0):
        raise DataError(f"{name} must be strictly increasing")


def linear_interp(x_new, x, y) -> np.ndarray:
    """Piecewise-linear interpolation with edge clamping.

    Values outside ``[x[0], x[-1]]`` are clamped to the boundary values
    (the aligner guarantees in-range queries; clamping guards float fuzz).
    """
    x = as_1d_float_array(x, "x")
    y = as_1d_float_array(y, "y")
    check_same_length("x", x, "y", y)
    _check_strictly_increasing(x, "x")
    x_new = np.asarray(x_new, dtype=np.float64)
    return np.interp(x_new, x, y)


def natural_cubic_spline_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through ``(x, y)``.

    Solves the classic tridiagonal system (Thomas algorithm) with natural
    boundary conditions ``y'' = 0`` at both ends.  Needed by the EMD
    baseline, whose envelopes are cubic splines through the extrema.
    """
    n = x.size
    m = np.zeros(n)
    if n < 3:
        return m
    h = np.diff(x)
    # Tridiagonal system for interior second derivatives.
    lower = h[:-1].copy()
    diag = 2.0 * (h[:-1] + h[1:])
    upper = h[1:].copy()
    rhs = 6.0 * (np.diff(y[1:]) / h[1:] - np.diff(y[:-1]) / h[:-1])
    # Thomas forward sweep.
    for i in range(1, rhs.size):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    # Back substitution.
    interior = np.zeros(rhs.size)
    interior[-1] = rhs[-1] / diag[-1]
    for i in range(rhs.size - 2, -1, -1):
        interior[i] = (rhs[i] - upper[i] * interior[i + 1]) / diag[i]
    m[1:-1] = interior
    return m


def cubic_spline_interp(x_new, x, y) -> np.ndarray:
    """Natural cubic spline evaluation with linear extrapolation clamped off.

    Outside the knot span the boundary values are returned (the EMD mirror
    extension keeps queries in-range; clamping guards float fuzz).
    """
    x = as_1d_float_array(x, "x")
    y = as_1d_float_array(y, "y")
    check_same_length("x", x, "y", y)
    _check_strictly_increasing(x, "x")
    x_new = np.asarray(x_new, dtype=np.float64)
    if x.size == 1:
        return np.full(x_new.shape, y[0])
    if x.size == 2:
        return linear_interp(x_new, x, y)
    m = natural_cubic_spline_coeffs(x, y)
    idx = np.clip(np.searchsorted(x, x_new, side="right") - 1, 0, x.size - 2)
    h = x[idx + 1] - x[idx]
    t = np.clip(x_new, x[0], x[-1]) - x[idx]
    a = (m[idx + 1] - m[idx]) / (6 * h)
    b = m[idx] / 2
    c = (y[idx + 1] - y[idx]) / h - h * (2 * m[idx] + m[idx + 1]) / 6
    return y[idx] + t * (c + t * (b + t * a))
