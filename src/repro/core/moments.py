"""Moments, marginals and tail probabilities of the joint density.

These are the quantities the paper's Fokker-Planck model provides that the
fluid approximation cannot: not only the mean queue length trajectory but
also its variance and tail probabilities such as ``P(Q > B)`` (buffer
overflow likelihood for a buffer of size ``B``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import AnalysisError
from ..numerics.grids import PhaseGrid2D

__all__ = [
    "DensityMoments",
    "compute_moments",
    "marginal_q",
    "tail_probability",
]


@dataclass(frozen=True)
class DensityMoments:
    """First and second moments of the joint density at one instant.

    Attributes
    ----------
    mass:
        Total probability mass on the grid (should stay close to one).
    mean_q, var_q:
        Mean and variance of the queue length.
    mean_v, var_v:
        Mean and variance of the queue growth rate ``ν = λ − μ``.
    covariance:
        Covariance between queue length and growth rate.
    """

    mass: float
    mean_q: float
    var_q: float
    mean_v: float
    var_v: float
    covariance: float

    @property
    def std_q(self) -> float:
        """Standard deviation of the queue length."""
        return float(np.sqrt(max(self.var_q, 0.0)))

    @property
    def std_v(self) -> float:
        """Standard deviation of the growth rate."""
        return float(np.sqrt(max(self.var_v, 0.0)))

    def mean_rate(self, mu: float) -> float:
        """Mean arrival rate ``E[λ] = E[ν] + μ``."""
        return self.mean_v + mu


def compute_moments(density: np.ndarray, grid: PhaseGrid2D) -> DensityMoments:
    """Compute :class:`DensityMoments` of *density* on *grid*.

    Raises
    ------
    AnalysisError
        If the density has (numerically) no mass.
    """
    mass = grid.total_mass(density)
    if mass <= 0.0:
        raise AnalysisError("density has no probability mass")

    q, v = grid.meshgrid()
    weight = density * grid.cell_area / mass
    mean_q = float(np.sum(q * weight))
    mean_v = float(np.sum(v * weight))
    var_q = float(np.sum((q - mean_q) ** 2 * weight))
    var_v = float(np.sum((v - mean_v) ** 2 * weight))
    covariance = float(np.sum((q - mean_q) * (v - mean_v) * weight))
    return DensityMoments(mass=mass, mean_q=mean_q, var_q=var_q,
                          mean_v=mean_v, var_v=var_v, covariance=covariance)


def marginal_q(density: np.ndarray, grid: PhaseGrid2D) -> np.ndarray:
    """Marginal density of the queue length, shape ``(nq,)``.

    Integrates the joint density over the growth-rate axis; the result
    integrates (cell-sum rule) to the total mass of the joint density.
    """
    return np.sum(density, axis=1) * grid.dv


def tail_probability(density: np.ndarray, grid: PhaseGrid2D,
                     threshold: float) -> float:
    """Return ``P(Q > threshold)`` under the joint density.

    Cells whose centre exceeds the threshold contribute their full mass; the
    cell straddling the threshold contributes the fraction of its width
    above it.  The result is normalised by the total mass so it is a proper
    probability even if some mass has been absorbed at the boundary.
    """
    mass = grid.total_mass(density)
    if mass <= 0.0:
        raise AnalysisError("density has no probability mass")
    q_centers = grid.q_centers
    q_marginal = marginal_q(density, grid)

    above = 0.0
    half = 0.5 * grid.dq
    for center, value in zip(q_centers, q_marginal, strict=True):
        cell_low = center - half
        cell_high = center + half
        if cell_low >= threshold:
            above += value * grid.dq
        elif cell_high > threshold:
            above += value * (cell_high - threshold)
    return float(above / mass)
