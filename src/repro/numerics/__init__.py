"""Numerical substrate used by the Fokker-Planck solver and the analyses.

The subpackage is deliberately self-contained: every routine needed by the
higher layers (grids, tridiagonal solves, quadrature, interpolation, ODE /
DDE / SDE integration and spectral period estimation) lives here, so the
physics and control layers above never have to reach for ad-hoc numerical
code.  Streaming statistics live in :mod:`repro.dataplane`.
"""

from .grids import UniformGrid1D, PhaseGrid2D
from .tridiag import TridiagonalFactorization
from .backend import (
    BACKEND_ENV_VAR,
    NumericsBackend,
    available_backends,
    get_backend,
)
from .interpolate import interp_columns
from .ode import (
    rk4_step,
    integrate_fixed,
    integrate_fixed_batch,
    ODEResult,
    BatchODEResult,
)
from .dde import DelayBuffer, integrate_dde, DDEResult
from .sde import euler_maruyama, SDEPaths
from .spectral import dominant_period, power_spectrum, detect_peaks

__all__ = [
    "UniformGrid1D",
    "PhaseGrid2D",
    "TridiagonalFactorization",
    "BACKEND_ENV_VAR",
    "NumericsBackend",
    "available_backends",
    "get_backend",
    "interp_columns",
    "rk4_step",
    "integrate_fixed",
    "integrate_fixed_batch",
    "ODEResult",
    "BatchODEResult",
    "DelayBuffer",
    "integrate_dde",
    "DDEResult",
    "euler_maruyama",
    "SDEPaths",
    "dominant_period",
    "power_spectrum",
    "detect_peaks",
]
