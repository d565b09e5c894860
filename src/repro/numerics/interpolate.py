"""Piecewise-linear interpolation of many columns at once.

Batched ODE results interpolate every trajectory column at the same query
times.  :func:`interp_columns` does that in one vectorized pass without
reaching for :mod:`scipy.interpolate`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interp_columns"]


def interp_columns(x: np.ndarray, xp: np.ndarray,
                   fp: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of every column of *fp* at once.

    Vectorized equivalent of running ``np.interp(x, xp, fp[:, j])`` for each
    column ``j``; the arithmetic (slope formula, exact-node short-circuit,
    boundary clamping and the NaN fallback) mirrors ``np.interp`` so the
    results are bitwise identical to the per-column loop.

    Parameters
    ----------
    x:
        Query points, shape ``(k,)``.
    xp:
        Monotonically increasing sample abscissae, shape ``(n,)`` with
        ``n >= 1``.
    fp:
        Sample values, shape ``(n, m)``.

    Returns
    -------
    np.ndarray
        Interpolated values of shape ``(k, m)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.asarray(xp, dtype=float)
    fp = np.asarray(fp, dtype=float)
    if xp.ndim != 1 or xp.size == 0:
        raise ValueError("xp must be a non-empty 1-D array")
    if fp.ndim != 2 or fp.shape[0] != xp.size:
        raise ValueError("fp must have shape (len(xp), m)")
    if xp.size == 1:
        return np.broadcast_to(fp[0], (x.size, fp.shape[1])).copy()

    index = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    x0 = xp[index]
    x1 = xp[index + 1]
    f0 = fp[index]
    f1 = fp[index + 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = (f1 - f0) / (x1 - x0)[:, None]
        result = slope * (x - x0)[:, None] + f0
        # np.interp's NaN fallback: retry the interpolation anchored at the
        # right endpoint, and fall back to the (equal) endpoints outright.
        bad = np.isnan(result)
        if bad.any():
            alternative = slope * (x - x1)[:, None] + f1
            result = np.where(bad, alternative, result)
            result = np.where(np.isnan(result) & (f0 == f1), f0, result)
    result = np.where((x0 == x)[:, None], f0, result)
    result = np.where((x >= xp[-1])[:, None], fp[-1], result)
    result = np.where((x < xp[0])[:, None], fp[0], result)
    # A NaN query point stays NaN (np.interp's behaviour); without this the
    # equal-endpoint fallback above would fabricate a finite value for it.
    return np.where(np.isnan(x)[:, None], np.nan, result)
