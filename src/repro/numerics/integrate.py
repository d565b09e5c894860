"""Quadrature for densities defined on uniform grids."""

from __future__ import annotations

import numpy as np

from ..exceptions import GridError

__all__ = ["trapezoid"]


def trapezoid(values: np.ndarray, dx: float) -> float:
    """Trapezoidal rule for samples *values* spaced *dx* apart."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise GridError("trapezoid needs at least two samples")
    return float(np.trapezoid(values, dx=dx))
