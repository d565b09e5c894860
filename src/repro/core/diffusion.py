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

Performance.  One Crank-Nicolson substep always applies the same pair of
operators ``(I - r L)^{-1} (I + r L)`` for a fixed diffusion number
``r = (σ²/2) dt / (2 dq²)``; the Fokker-Planck solver calls it with the
same ``dt`` on every substep of an output interval.  :class:`
CrankNicolsonDiffusion` therefore caches, keyed by ``r``:

* for moderate grids, the *combined* dense operator
  ``M = (I - r L)^{-1} (I + r L)`` -- one BLAS matrix-matrix product per
  substep, no python-level row loop at all;
* for large grids (``nq > dense_limit``), a reusable tridiagonal
  factorization from the active :mod:`repro.numerics.backend` plus a
  preallocated right-hand-side scratch buffer.

Sub-cycling for very large diffusion numbers (``r > 2``) is an iterative
loop over the cached sub-operator rather than the recursive call of the
original implementation; the arithmetic is unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..numerics.backend import NumericsBackend, get_backend
from ..numerics.grids import PhaseGrid2D
from .advection import FLUSH_THRESHOLD

__all__ = ["CrankNicolsonDiffusion"]

#: Above this many queue cells the dense combined operator (nq² memory,
#: nq²·nv work per substep) loses to the O(nq·nv) factorized banded solve.
DENSE_NQ_LIMIT = 512

#: Retain at most this many per-``r`` operator cache entries per instance.
_MAX_CACHED_OPERATORS = 32

#: Build the dense combined operator only once a diffusion number has been
#: requested this many times.  Building it costs an O(nq³) solve, which only
#: pays off for the repeated substeps of the CFL schedule; one-off diffusion
#: numbers (e.g. the truncated final substep of each output interval) stay
#: on the O(nq) factorized path.
_DENSE_UPGRADE_HITS = 2


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


class _DenseStep:
    """Combined CN substep ``density -> max(M @ density, 0)`` for one ``r``.

    The Neumann Laplacian commutes with the index reflection ``J``
    (``i -> nq-1-i``), so the combined operator ``M`` is centrosymmetric:
    ``J M J = M``.  For even ``nq`` the product ``M @ density`` therefore
    splits into two half-size products on the symmetric and antisymmetric
    parts of the density -- half the BLAS flops, and the two half-operators
    together use half the cache footprint of ``M``.
    """

    def __init__(self, nq: int, r: float, workspace: "CrankNicolsonDiffusion"):
        laplacian = _neumann_second_difference(nq)
        implicit = np.eye(nq) - r * laplacian
        explicit = np.eye(nq) + r * laplacian
        combined = np.linalg.solve(implicit, explicit)
        combined[np.abs(combined) < _FLUSH_THRESHOLD] = 0.0
        self._half = nq // 2 if nq % 2 == 0 else 0
        if self._half:
            h = self._half
            upper_left = combined[:h, :h]
            upper_right_flipped = combined[:h, h:][:, ::-1]
            # M @ d = [P s + Q a ; J (P s - Q a)] with s/a the (anti)symmetric
            # halves of d; the 1/2 of the half decomposition is folded in.
            # P and Q are stacked so one batched matmul covers both halves.
            self._ops = np.stack([0.5 * (upper_left + upper_right_flipped),
                                  0.5 * (upper_left - upper_right_flipped)])
            self._combined = None
        else:
            self._combined = combined
        self._workspace = workspace

    def apply(self, density: np.ndarray, out: np.ndarray) -> None:
        h = self._half
        if not h:
            np.matmul(self._combined, density, out=out)
        else:
            halves, products = self._workspace._half_buffers(h)
            top = density[:h]
            bottom_flipped = density[h:][::-1]
            np.add(top, bottom_flipped, out=halves[0])
            np.subtract(top, bottom_flipped, out=halves[1])
            np.matmul(self._ops, halves, out=products)
            # Recombine the halves with the non-negativity clamp folded into
            # the same passes (elementwise max commutes with the flip).
            np.add(products[0], products[1], out=halves[0])
            np.maximum(halves[0], 0.0, out=out[:h])
            np.subtract(products[0], products[1], out=halves[1])
            np.maximum(halves[1][::-1], 0.0, out=out[h:])
            return
        np.maximum(out, 0.0, out=out)


class _FactorizedStep:
    """CN substep via explicit half step plus a cached tridiagonal solve."""

    def __init__(self, nq: int, nv: int, r: float, backend: NumericsBackend,
                 workspace: "CrankNicolsonDiffusion"):
        lower = np.full(nq, -r)
        upper = np.full(nq, -r)
        diag = np.full(nq, 1.0 + 2.0 * r)
        # Neumann boundary: ghost cell equals the boundary cell, so the
        # boundary rows only couple to one neighbour.
        diag[0] = 1.0 + r
        diag[-1] = 1.0 + r
        self._r = r
        self._solver = backend.factorize_tridiagonal(lower, diag, upper)
        self._workspace = workspace

    def apply(self, density: np.ndarray, out: np.ndarray) -> None:
        r = self._r
        rhs = self._workspace._rhs_buffer(density.shape)
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
    dense_limit:
        Largest ``nq`` for which the dense combined operator is used
        (defaults to :data:`DENSE_NQ_LIMIT`; pass 0 to force the factorized
        path, e.g. in backend-parity tests).
    scratch:
        Optional flat float scratch arena of at least ``2·nq·nv`` entries
        (see :func:`repro.core.advection.shared_scratch_size`); the solver
        shares one arena between this operator and the advection kernels so
        the hot loop's working set stays cache-resident.
    """

    def __init__(self, grid: PhaseGrid2D, sigma: float,
                 backend: Optional[NumericsBackend] = None,
                 dense_limit: Optional[int] = None,
                 scratch: Optional[np.ndarray] = None):
        self.grid = grid
        self.sigma = float(sigma)
        self.backend = backend if backend is not None else get_backend()
        self.dense_limit = DENSE_NQ_LIMIT if dense_limit is None else dense_limit
        self._diffusivity = 0.5 * self.sigma * self.sigma
        # Kept as a divisor (not a cached reciprocal) so the diffusion number
        # r rounds exactly as in the original per-call implementation.
        self._two_dq2 = 2.0 * grid.dq * grid.dq
        self._steps: OrderedDict = OrderedDict()
        nq, nv = grid.shape
        if scratch is None:
            scratch = np.empty(2 * nq * nv)
        self._arena = scratch
        self._scratch: Optional[np.ndarray] = None
        self._half_views = None
        self._last_r: Optional[float] = None
        self._last_step = None

    def _half_buffers(self, h: int):
        """(halves, products) views over the shared arena for the dense step."""
        if self._half_views is None or self._half_views[0].shape[1] != h:
            nv = self.grid.shape[1]
            count = 2 * h * nv
            self._half_views = (self._arena[:count].reshape(2, h, nv),
                                self._arena[count:2 * count].reshape(2, h, nv))
        return self._half_views

    def _rhs_buffer(self, shape) -> np.ndarray:
        """Grid-shaped right-hand-side view for the factorized step."""
        count = int(np.prod(shape))
        return self._arena[:count].reshape(shape)

    def _step_for(self, r: float):
        # Fast path: the CFL schedule requests the same diffusion number for
        # long runs of consecutive substeps.  Only steps that can no longer
        # be upgraded are cached here, so the hit counting of the slow path
        # (which drives the dense-operator upgrade) stays accurate.
        if r == self._last_r:
            return self._last_step
        step = self._step_for_slow(r)
        if not isinstance(step, _FactorizedStep):
            self._last_r = r
            self._last_step = step
        return step

    def _step_for_slow(self, r: float):
        nq, nv = self.grid.shape
        entry = self._steps.get(r)
        if entry is None:
            entry = [_FactorizedStep(nq, nv, r, self.backend, self), 1]
            self._steps[r] = entry
            if len(self._steps) > _MAX_CACHED_OPERATORS:
                self._steps.popitem(last=False)
            return entry[0]
        self._steps.move_to_end(r)
        entry[1] += 1
        if (entry[1] >= _DENSE_UPGRADE_HITS and nq <= self.dense_limit
                and isinstance(entry[0], _FactorizedStep)):
            entry[0] = _DenseStep(nq, r, self)
        return entry[0]

    def step(self, density: np.ndarray, dt: float,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply one Crank-Nicolson step of size *dt* to *density*.

        Writes into *out* when given (must not alias *density*), otherwise
        returns a new array.  For σ = 0 the input is returned unchanged
        (or copied into *out*).
        """
        if out is None:
            out = np.empty_like(density)
        if self.sigma == 0.0:
            if out is not density:
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
