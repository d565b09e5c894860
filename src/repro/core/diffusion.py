"""Crank-Nicolson diffusion step along the queue axis.

The right-hand side of Equation 14, ``(σ²/2) f_qq``, models the variability
of the queue growth process (the feature that distinguishes the paper's
Fokker-Planck model from the deterministic fluid approximation).  It is
integrated implicitly with the Crank-Nicolson scheme, which is second-order
accurate in time and unconditionally stable, so the diffusion never
constrains the time step.

Neumann (zero-gradient, i.e. reflecting / no-flux) boundaries are used at
both ends of the queue axis so the diffusion conserves probability mass
exactly; the physical outflow at ``q = q_max`` is negligible provided the
grid extends well past the operating region, which the tests verify.

Performance.  One Crank-Nicolson substep applies ``(I - r L)^{-1} (I + r L)``
for the diffusion number ``r = (σ²/2) dt / (2 dq²)``.
:class:`CrankNicolsonDiffusion` caches one step per ``r``, least recently
used first out, at most :data:`_MAX_CACHED_OPERATORS` of them:

* for ``nq ≤ DENSE_NQ_LIMIT``, the combined dense operator
  ``M = (I - r L)^{-1} (I + r L)``, built on the first request of ``r`` and
  applied as BLAS matrix products plus the non-negativity clamp.  ``M`` is
  stored as tiles of :data:`_TILE_ROWS` rows, each keeping only the column
  range that holds its entries of magnitude at least
  :data:`_BAND_THRESHOLD` · max|M|, so a small ``r`` multiplies only the
  numerical band;
* for larger grids, a reusable tridiagonal factorization from the active
  :mod:`repro.numerics.backend`.

The solver's CFL schedule requests about eleven distinct ``r`` per solve:
the free-running substep plus the truncated interval-final substeps, whose
sizes differ in the last bits of the accumulated time.  Sixteen entries
hold them all; at ``nq = 512`` they take at most 32 MB.

Sub-cycling for very large diffusion numbers (``r > 2``) is an iterative
loop over the cached sub-operator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..numerics.backend import NumericsBackend, get_backend
from ..numerics.grids import PhaseGrid2D
from .advection import FLUSH_THRESHOLD

__all__ = ["CrankNicolsonDiffusion"]

#: Above this many queue cells the dense combined operator (nq² memory,
#: nq²·nv work per substep) loses to the O(nq·nv) factorized banded solve.
DENSE_NQ_LIMIT = 512

#: Retain at most this many per-``r`` operator cache entries per instance.
_MAX_CACHED_OPERATORS = 16

#: Rows per tile of the dense combined operator.
_TILE_ROWS = 32

#: A tile keeps the columns holding an entry ``|M_ij| ≥ _BAND_THRESHOLD ·
#: max|M|``.  The dropped part of any output cell is then at most
#: ``nq · 2⁻⁶⁴ · max|M| · max f``, about ``1e-17 · max f`` at ``nq = 200``:
#: under half an ulp of the largest cell.  The 1e-150 flush below would keep
#: bands 60-199 diagonals wide at ``nq = 200``; this threshold keeps 7-51.
_BAND_THRESHOLD = 2.0 ** -64


def _neumann_second_difference(nq: int) -> np.ndarray:
    """Dense second-difference matrix ``L`` with Neumann boundary rows."""
    main = np.full(nq, -2.0)
    main[0] = -1.0
    main[-1] = -1.0
    matrix = np.diag(main)
    off = np.arange(nq - 1)
    matrix[off, off + 1] = 1.0
    matrix[off + 1, off] = 1.0
    return matrix


#: Values below this magnitude are flushed to zero in the dense combined
#: operator and its output.  The entries of ``(I - rL)^{-1}`` decay
#: exponentially away from the diagonal and the density carries similarly
#: tiny far-tail values; their products land in the IEEE-754 subnormal range,
#: where the FPU falls back to microcoded assists that can triple the BLAS
#: matmul time.  Flushing perturbs the result by < 1e-145 -- far below the
#: 1e-12 agreement budget of the solver -- and keeps every product either
#: a normal number or an exact zero.  The same threshold is applied by
#: ``UpwindAdvection.advect_v(..., flush=True)`` to the density feeding this
#: operator, so the two flushes share one constant.
_FLUSH_THRESHOLD = FLUSH_THRESHOLD


def _band_tiles(combined: np.ndarray) -> list:
    """Row tiles ``(rows, cols, M[rows, cols])`` of the operator *combined*.

    Each tile of :data:`_TILE_ROWS` rows keeps the contiguous column range
    that holds every entry of its rows at or above :data:`_BAND_THRESHOLD`
    · max|M| (never empty: the rows of ``M`` sum to one).
    """
    nq = combined.shape[0]
    magnitude = np.abs(combined)
    significant = magnitude >= _BAND_THRESHOLD * magnitude.max()
    tiles = []
    for start in range(0, nq, _TILE_ROWS):
        rows = slice(start, min(start + _TILE_ROWS, nq))
        columns = np.flatnonzero(significant[rows].any(axis=0))
        cols = slice(int(columns[0]), int(columns[-1]) + 1)
        tiles.append((rows, cols, combined[rows, cols].copy()))
    return tiles


class _DenseStep:
    """Combined CN substep ``density -> max(M @ density, 0)`` for one ``r``.

    ``M`` is held only as the tiles of :func:`_band_tiles`; :meth:`apply`
    runs one matrix product per tile into its rows of *out*.
    """

    def __init__(self, nq: int, r: float):
        laplacian = _neumann_second_difference(nq)
        implicit = np.eye(nq) - r * laplacian
        explicit = np.eye(nq) + r * laplacian
        combined = np.linalg.solve(implicit, explicit)
        combined[np.abs(combined) < _FLUSH_THRESHOLD] = 0.0
        self.tiles = _band_tiles(combined)

    def apply(self, density: np.ndarray, out: np.ndarray) -> None:
        for rows, cols, block in self.tiles:
            np.matmul(block, density[cols], out=out[rows])
        np.maximum(out, 0.0, out=out)


class _FactorizedStep:
    """CN substep via explicit half step plus a cached tridiagonal solve."""

    def __init__(self, nq: int, r: float, backend: NumericsBackend,
                 rhs: np.ndarray):
        lower = np.full(nq, -r)
        upper = np.full(nq, -r)
        diag = np.full(nq, 1.0 + 2.0 * r)
        # Neumann boundary: ghost cell equals the boundary cell, so the
        # boundary rows only couple to one neighbour.
        diag[0] = 1.0 + r
        diag[-1] = 1.0 + r
        self._r = r
        self._solver = backend.factorize_tridiagonal(lower, diag, upper)
        self._rhs = rhs

    def apply(self, density: np.ndarray, out: np.ndarray) -> None:
        r = self._r
        rhs = self._rhs
        # Explicit half step (I + r L) applied column-wise, vectorised over ν.
        rhs[1:-1, :] = (density[1:-1, :]
                        + r * (density[2:, :] - 2.0 * density[1:-1, :]
                               + density[:-2, :]))
        rhs[0, :] = density[0, :] + r * (density[1, :] - density[0, :])
        rhs[-1, :] = density[-1, :] + r * (density[-2, :] - density[-1, :])
        self._solver.solve(rhs, out=out)
        np.maximum(out, 0.0, out=out)


class CrankNicolsonDiffusion:
    """Reusable Crank-Nicolson diffusion operator for one grid and σ.

    Parameters
    ----------
    grid:
        The phase grid; each ν-column diffuses independently along q.
    sigma:
        Diffusion coefficient σ of Equation 14 (σ = 0 makes :meth:`step` a
        no-op copy).
    backend:
        Kernel backend used for the factorized (large-grid) path; defaults
        to :func:`repro.numerics.backend.get_backend` resolution.

    Grids of at most :data:`DENSE_NQ_LIMIT` queue cells, read when the
    object is built, use the dense combined operator.
    """

    def __init__(self, grid: PhaseGrid2D, sigma: float,
                 backend: Optional[NumericsBackend] = None):
        self.grid = grid
        self.sigma = float(sigma)
        self.backend = backend if backend is not None else get_backend()
        self.dense_limit = DENSE_NQ_LIMIT
        self._diffusivity = 0.5 * self.sigma * self.sigma
        # Kept as a divisor (not a cached reciprocal) so the diffusion number
        # r rounds exactly as in the original per-call implementation.
        self._two_dq2 = 2.0 * grid.dq * grid.dq
        self._steps: OrderedDict = OrderedDict()
        # Right-hand side shared by every factorized step, allocated with
        # the first of them.
        self._rhs: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None

    def _step_for(self, r: float):
        step = self._steps.get(r)
        if step is not None:
            self._steps.move_to_end(r)
            return step
        nq = self.grid.shape[0]
        if nq <= self.dense_limit:
            step = _DenseStep(nq, r)
        else:
            if self._rhs is None:
                self._rhs = np.empty(self.grid.shape)
            step = _FactorizedStep(nq, r, self.backend, self._rhs)
        self._steps[r] = step
        if len(self._steps) > _MAX_CACHED_OPERATORS:
            self._steps.popitem(last=False)
        return step

    def step(self, density: np.ndarray, dt: float,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply one Crank-Nicolson step of size *dt* to *density*.

        Writes into *out* when given, otherwise returns a new array.  *out*
        must not share memory with *density*: the tiled product would read
        rows an earlier tile has already overwritten, so an overlap raises
        :class:`~repro.exceptions.ConfigurationError` before any write.  For
        σ = 0 the input is copied into *out*.
        """
        if out is None:
            out = np.empty_like(density)
        elif np.may_share_memory(out, density):
            raise ConfigurationError(
                "CrankNicolsonDiffusion.step: out must not share memory with "
                "density")
        if self.sigma == 0.0:
            np.copyto(out, density)
            return out

        # Diffusion number of the requested step.  Crank-Nicolson is
        # unconditionally stable but oscillatory for very large diffusion
        # numbers; sub-cycle so each substep stays in the smooth regime
        # (keeps the density non-negative and the mass exactly conserved).
        r = self._diffusivity * dt / self._two_dq2
        if r <= 2.0:
            self._step_for(r).apply(density, out)
            return out

        n_sub = int(np.ceil(r / 2.0))
        sub_dt = dt / n_sub
        sub_r = self._diffusivity * sub_dt / self._two_dq2
        step = self._step_for(sub_r)
        if self._scratch is None:
            self._scratch = np.empty_like(out)
        # Alternate between *out* and the scratch buffer so the final
        # substep always lands in *out*.
        buffers = (out, self._scratch) if n_sub % 2 else (self._scratch, out)
        source = density
        for index in range(n_sub):
            target = buffers[index % 2]
            step.apply(source, target)
            source = target
        return out
