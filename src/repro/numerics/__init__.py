"""Numerical substrate used by the Fokker-Planck solver and the analyses.

The subpackage is deliberately self-contained: every routine needed by the
higher layers (grids, tridiagonal solves, quadrature, interpolation, ODE /
DDE / SDE integration, spectral period estimation, streaming statistics and
root finding) lives here, so the physics and control layers above never have
to reach for ad-hoc numerical code.
"""

from .grids import UniformGrid1D, PhaseGrid2D
from .tridiag import TridiagonalFactorization, solve_tridiagonal
from .backend import (
    BACKEND_ENV_VAR,
    NumericsBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .integrate import trapezoid, simpson, cumulative_trapezoid, normalize_density
from .interpolate import (
    linear_interpolate,
    bilinear_interpolate,
    interp_columns,
    Interpolant1D,
)
from .ode import (
    euler_step,
    rk4_step,
    integrate_fixed,
    integrate_fixed_batch,
    ODEResult,
    BatchODEResult,
)
from .dde import DelayBuffer, integrate_dde, DDEResult
from .sde import euler_maruyama, milstein, SDEPaths
from .spectral import dominant_period, power_spectrum, detect_peaks
from .stats import RunningStatistics, WeightedStatistics, empirical_density
from .rootfind import bisect, newton

__all__ = [
    "UniformGrid1D",
    "PhaseGrid2D",
    "TridiagonalFactorization",
    "solve_tridiagonal",
    "BACKEND_ENV_VAR",
    "NumericsBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "trapezoid",
    "simpson",
    "cumulative_trapezoid",
    "normalize_density",
    "linear_interpolate",
    "bilinear_interpolate",
    "interp_columns",
    "Interpolant1D",
    "euler_step",
    "rk4_step",
    "integrate_fixed",
    "integrate_fixed_batch",
    "ODEResult",
    "BatchODEResult",
    "DelayBuffer",
    "integrate_dde",
    "DDEResult",
    "euler_maruyama",
    "milstein",
    "SDEPaths",
    "dominant_period",
    "power_spectrum",
    "detect_peaks",
    "RunningStatistics",
    "WeightedStatistics",
    "empirical_density",
    "bisect",
    "newton",
]
