"""Initial conditions for the Fokker-Planck solver.

The paper's derivation conditions on a known starting point
``(Q(0), ν(0)) = (q̂₀, ν̂₀)``, i.e. a delta-function initial density.  On a
finite grid the delta is represented as a narrow Gaussian
(:func:`gaussian_initial_density`), which is smoother than putting all mass
in one cell and converges to the same solution as the grid is refined.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..numerics.grids import PhaseGrid2D

__all__ = [
    "gaussian_initial_density",
]


def gaussian_initial_density(grid: PhaseGrid2D, q0: float, v0: float,
                             q_std: float = 1.0, v_std: float = 0.05
                             ) -> np.ndarray:
    """A normalised Gaussian blob centred at ``(q0, v0)``.

    Standard deviations should be a few grid cells wide; values below half a
    cell are rejected because they would alias back to a delta and defeat
    the purpose of the smooth initial condition.
    """
    if q_std < 0.5 * grid.dq or v_std < 0.5 * grid.dv:
        raise ConfigurationError(
            "Gaussian initial condition narrower than half a grid cell")
    return grid.gaussian_density(q0, v0, q_std, v_std)
