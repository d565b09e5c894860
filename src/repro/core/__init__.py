"""Fokker-Planck machinery for the controlled queue (the paper's contribution).

The joint density ``f(t, q, ν)`` of queue length and queue growth rate obeys
Equation 14 of the paper,

    f_t + ν f_q + (g f)_ν = (σ²/2) f_qq,

with ``g(q, λ)`` the rate-control law and ``ν = λ − μ``.  The solver in
:mod:`repro.core.solver` discretises this on the phase grid of
:class:`repro.numerics.PhaseGrid2D` with operator splitting: a conservative
upwind advection step in ``q`` (velocity ``ν``), a conservative upwind
advection step in ``ν`` (velocity ``g``), and a Crank-Nicolson diffusion
step in ``q``.  Reflecting boundaries keep the probability mass at one.

The reduced (σ = 0) hyperbolic system is solved along its characteristics
by :mod:`repro.characteristics`, which reproduces the paper's Section 5
analysis directly.
"""

from .advection import UpwindAdvection, cfl_time_step_from_speeds
from .diffusion import CrankNicolsonDiffusion
from .initial import (
    gaussian_initial_density,
)
from .generator import DiscreteGenerator, SparseOperator, assemble_generator
from .moments import DensityMoments, compute_moments, marginal_q, tail_probability
from .solver import FokkerPlanckSolver, FokkerPlanckResult, DensitySnapshot

__all__ = [
    "UpwindAdvection",
    "cfl_time_step_from_speeds",
    "CrankNicolsonDiffusion",
    "gaussian_initial_density",
    "DensityMoments",
    "compute_moments",
    "marginal_q",
    "tail_probability",
    "FokkerPlanckSolver",
    "FokkerPlanckResult",
    "DensitySnapshot",
    "SparseOperator",
    "DiscreteGenerator",
    "assemble_generator",
]
