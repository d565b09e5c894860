"""Finite-volume style grids for the Fokker-Planck solver.

Two grid classes are provided:

* :class:`UniformGrid1D` -- a uniform cell-centred grid on an interval.
* :class:`PhaseGrid2D` -- the tensor product of a queue-length grid
  ``q ∈ [0, q_max]`` and a growth-rate grid ``ν ∈ [v_min, v_max]`` used to
  discretise the joint density ``f(t, q, ν)`` of Equation 14.

Densities are stored at cell centres; integrals over the grid therefore use
the cell areas, which makes conservation statements exact for the
finite-volume advection schemes in :mod:`repro.core.advection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..exceptions import GridError

__all__ = ["UniformGrid1D", "PhaseGrid2D"]


@dataclass(frozen=True)
class UniformGrid1D:
    """A uniform, cell-centred grid on ``[lower, upper]`` with ``n`` cells.

    Attributes
    ----------
    lower, upper:
        End points of the interval.
    n:
        Number of cells; must be at least 2.
    """

    lower: float
    upper: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GridError(f"grid needs at least 2 cells, got {self.n}")
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise GridError("grid bounds must be finite")
        if self.upper <= self.lower:
            raise GridError(
                f"upper bound {self.upper} must exceed lower bound {self.lower}")
        # Cache the coordinate arrays once: the solver hot loops read them on
        # every substep and the arrays never change (the dataclass is frozen).
        # They are marked read-only because they are shared between callers.
        dx = (self.upper - self.lower) / self.n
        centers = self.lower + (np.arange(self.n) + 0.5) * dx
        edges = self.lower + np.arange(self.n + 1) * dx
        centers.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_max_abs", float(np.max(np.abs(centers))))

    @property
    def dx(self) -> float:
        """Cell width."""
        return (self.upper - self.lower) / self.n

    @property
    def centers(self) -> np.ndarray:
        """Cell-centre coordinates, shape ``(n,)`` (cached, read-only)."""
        return self._centers

    @property
    def edges(self) -> np.ndarray:
        """Cell-edge coordinates, shape ``(n + 1,)`` (cached, read-only)."""
        return self._edges

    @property
    def max_abs_center(self) -> float:
        """Largest absolute cell-centre coordinate, ``max |x_i|`` (cached)."""
        return self._max_abs


@dataclass(frozen=True)
class PhaseGrid2D:
    """Tensor-product grid over the ``(q, ν)`` phase plane.

    The first axis of every density array indexes the queue dimension and
    the second axis indexes the growth-rate dimension, i.e. arrays have shape
    ``(q_grid.n, v_grid.n)``.
    """

    q_grid: UniformGrid1D
    v_grid: UniformGrid1D

    def __post_init__(self) -> None:
        # Cache the cell-centre meshes and the maximum axis speeds used by
        # the CFL computation: both are consulted on every solver substep and
        # are immutable for a frozen grid.
        q_mesh, v_mesh = np.meshgrid(self.q_grid.centers, self.v_grid.centers,
                                     indexing="ij")
        q_mesh.setflags(write=False)
        v_mesh.setflags(write=False)
        object.__setattr__(self, "_mesh", (q_mesh, v_mesh))
        object.__setattr__(self, "_max_abs_v", self.v_grid.max_abs_center)

    @classmethod
    def from_bounds(cls, q_max: float, nq: int, v_min: float, v_max: float,
                    nv: int) -> "PhaseGrid2D":
        """Build a phase grid from the bounds used by :class:`GridParameters`."""
        return cls(UniformGrid1D(0.0, q_max, nq), UniformGrid1D(v_min, v_max, nv))

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape ``(nq, nv)`` of density arrays on this grid."""
        return (self.q_grid.n, self.v_grid.n)

    @property
    def dq(self) -> float:
        """Cell width along the queue axis."""
        return self.q_grid.dx

    @property
    def dv(self) -> float:
        """Cell width along the growth-rate axis."""
        return self.v_grid.dx

    @property
    def cell_area(self) -> float:
        """Area of a single phase-plane cell."""
        return self.dq * self.dv

    @property
    def q_centers(self) -> np.ndarray:
        """Queue-axis cell centres, shape ``(nq,)``."""
        return self.q_grid.centers

    @property
    def v_centers(self) -> np.ndarray:
        """Growth-rate-axis cell centres, shape ``(nv,)``."""
        return self.v_grid.centers

    @property
    def max_abs_v(self) -> float:
        """Largest absolute growth-rate cell centre, ``max |ν|`` (cached).

        This is the fastest queue-axis advection speed on the grid, used by
        the CFL time-step computation on every solver substep.
        """
        return self._max_abs_v

    def meshgrid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(Q, V)`` arrays of shape ``(nq, nv)`` with cell centres.

        The arrays are cached on the grid and read-only; callers that need a
        mutable mesh should copy.
        """
        return self._mesh

    def total_mass(self, density: np.ndarray) -> float:
        """Integral of *density* over the whole phase plane (cell-sum rule)."""
        self._check_shape(density)
        return float(np.sum(density) * self.cell_area)

    def normalize(self, density: np.ndarray) -> np.ndarray:
        """Return *density* rescaled to unit total mass."""
        mass = self.total_mass(density)
        if mass <= 0.0:
            raise GridError("cannot normalise a density with non-positive mass")
        return density / mass

    def gaussian_density(self, q_mean: float, v_mean: float,
                         q_std: float, v_std: float) -> np.ndarray:
        """Return a normalised (truncated) Gaussian density on the grid.

        Used to approximate the initial condition ``f(0, q, ν)`` concentrated
        near a known starting point ``(Q(0), ν(0))``; a narrow Gaussian is a
        smooth stand-in for the delta function of the paper's derivation.
        """
        if q_std <= 0.0 or v_std <= 0.0:
            raise GridError("standard deviations must be positive")
        q, v = self.meshgrid()
        density = np.exp(-0.5 * ((q - q_mean) / q_std) ** 2
                         - 0.5 * ((v - v_mean) / v_std) ** 2)
        return self.normalize(density)

    def _check_shape(self, density: np.ndarray) -> None:
        if density.shape != self.shape:
            raise GridError(
                f"density shape {density.shape} does not match grid {self.shape}")
