"""Pluggable time-marching steppers for the Fokker-Planck solver.

Historically the marching scheme lived inline in
:class:`repro.core.solver.FokkerPlanckSolver`: per-axis upwind advection
sweeps glued to a Crank-Nicolson diffusion step.  This module extracts that
substep into an :class:`FPStepper` seam with two implementations:

* :class:`AxisSplitStepper` (``"axis"``, the default) is the historical
  per-axis splitting — it owns the
  :class:`~repro.core.advection.UpwindAdvection` /
  :class:`~repro.core.diffusion.CrankNicolsonDiffusion` kernels and issues
  their calls in the seed's order, so the golden pins of
  ``tests/unit/test_fp_golden.py`` hold: bit for bit at σ = 0, to rounding
  at σ > 0.
* :class:`ADIStepper` (``"adi"``) is a Peaceman-Rachford 2-D operator-split
  scheme that treats q- and ν-direction transport implicitly in alternating
  half-steps:

      f*      = (I − h A₁)⁻¹ (I + h A₂) fⁿ        (h = dt/2)
      fⁿ⁺¹    = (I − h A₂)⁻¹ (I + h A₁) f*

  with ``A₁ = G_q + diffusion`` (all q-direction transport) and
  ``A₂ = G_ν`` (ν-direction transport), both taken from the term-by-term
  COO assembly of :mod:`repro.core.generator`.  In the direction-contiguous
  orderings each implicit factor is a flat tridiagonal matrix that decouples
  into independent per-line systems, so the solves run on the sparse-operator
  kernel family of :mod:`repro.numerics.backend`
  (:meth:`~repro.numerics.backend.NumericsBackend.factorize_sparse`):
  ``scipy.sparse`` SuperLU on the scipy backend, one vectorized batched
  Thomas sweep on the pure-numpy fallback.  Factorizations are cached per
  substep size exactly like the PR 2 Crank-Nicolson operator cache.

Two properties make ADI the large-grid scheme:

* **Stationary fidelity.**  At a fixed point ``f`` of the Peaceman-Rachford
  recurrence the two half-step equations force ``(A₁ + A₂) f = 0`` exactly —
  the marched tail is the null vector of the *continuous* discrete
  generator, with no splitting error, which is what the ≤1e-6 stationary
  agreement gate pins.
* **Step doubling.**  Diffusion is implicit in the q half (no ``r > 2``
  sub-cycling, ever) and each explicit half advances only ``h = dt/2``, so
  the stepper runs stably at twice the per-axis CFL step while each explicit
  half keeps the Courant number ≤ the configured CFL bound (which is what
  preserves positivity of the upwind halves; the implicit factors are
  M-matrices whose inverses are non-negative).

Health monitoring: the ADI intermediate ``f*`` is a genuine physical
density candidate, so when a :class:`~repro.health.HealthMonitor` is active
the stepper stashes it and :meth:`FPStepper.record_health` feeds it to
``monitor.check_fp_half_step`` at the solver's usual check cadence.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple, Type

import numpy as np

from ..exceptions import ConfigurationError, StabilityError
from ..numerics.backend import NumericsBackend
from ..numerics.grids import PhaseGrid2D
from .advection import UpwindAdvection, cfl_time_step_from_speeds
from .diffusion import CrankNicolsonDiffusion
from .generator import DiscreteGenerator

__all__ = ["FPStepper", "AxisSplitStepper", "ADIStepper", "STEPPERS",
           "available_steppers", "is_known_stepper", "get_stepper"]

#: Retain at most this many per-``dt`` operator cache entries per direction.
#: The CFL schedule produces two step sizes per output interval (the
#: free-running substep and the truncated interval-final one), so a handful
#: of entries covers every schedule while bounding memory.
_MAX_CACHED_OPERATORS = 8


class FPStepper:
    """One Fokker-Planck marching substep, bound to a grid, σ and a drift.

    The solver builds a stepper once, with the static ν-drift field ``g``
    evaluated on the grid, and drives it through a small protocol:

    1. :meth:`free_running_dt` reports the largest stable substep;
    2. :meth:`begin` announces whether the solve is health-monitored;
    3. :meth:`advance` marches ``density`` by ``dt`` using ``work`` as the
       ping-pong buffer and returns the (possibly swapped) pair.

    Implementations own all kernel state (scratch buffers, operator caches)
    so a solver holds exactly one stepper for its lifetime, and the caches
    serve every solve it runs.
    """

    #: Registry name of the stepper.
    name: str = ""

    def __init__(self, grid: PhaseGrid2D, sigma: float, drift: np.ndarray,
                 backend: NumericsBackend):
        self.grid = grid
        self.sigma = float(sigma)
        self.backend = backend

    def begin(self, monitored: bool) -> None:
        """Announce the per-solve monitoring flag before the marching loop."""
        self._monitored = monitored

    def free_running_dt(self, cfl: float) -> float:
        """Largest stable substep for the drift (may be ``inf``)."""
        raise NotImplementedError

    def advance(self, density: np.ndarray, dt: float, work: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """March *density* by *dt*; returns the new ``(density, work)`` pair."""
        raise NotImplementedError

    def record_health(self, monitor, t: float) -> None:
        """Feed stepper-internal intermediate state to a health monitor.

        Called at the solver's per-interval check cadence.  The default is a
        no-op (the per-axis scheme has no intermediates beyond the committed
        density, which the solver already checks).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class AxisSplitStepper(FPStepper):
    """The historical per-axis splitting.

    One substep is ``CN(dt) · A_ν(dt) · A_q(dt)``: explicit upwind advection
    along q, explicit upwind advection along ν, Crank-Nicolson diffusion
    along q (sub-cycled when the diffusion number exceeds 2).  At σ = 0 the
    substep is bit-identical to the seed's per-call kernels; at σ > 0 the
    dense combined diffusion operator changes results only by rounding.
    """

    name = "axis"

    def __init__(self, grid: PhaseGrid2D, sigma: float, drift: np.ndarray,
                 backend: NumericsBackend):
        super().__init__(grid, sigma, drift, backend)
        self.advection = UpwindAdvection(grid)
        self.advection.set_drift(drift)
        self.diffusion = CrankNicolsonDiffusion(grid, sigma, backend=backend)
        self._sigma_zero = self.sigma == 0.0
        self._monitored = False

    def free_running_dt(self, cfl: float) -> float:
        return cfl_time_step_from_speeds(self.grid,
                                         self.advection.max_abs_drift, cfl,
                                         max_dt=np.inf)

    def advance(self, density: np.ndarray, dt: float, work: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        # Two buffers suffice: each kernel's input is dead once it has run,
        # so its buffer becomes the next kernel's output.  Every kernel
        # keeps the reference arithmetic; the σ > 0 path only skips the
        # q-advection clamp (the flush-clamp of the ν-advection output
        # removes the same rounding negatives) and runs the diffusion as
        # the products of one dense operator's band tiles.
        sigma_zero = self._sigma_zero
        self.advection.advect_q(density, dt, work, sigma_zero)
        if sigma_zero:
            # The diffusion step is a no-op: the ν-advection output (written
            # over the dead pre-step density) is the state.
            self.advection.advect_v(work, dt, density)
        else:
            # flush=True zeroes the far-tail values the advection re-creates
            # below the diffusion flush threshold: products of two
            # sub-threshold magnitudes inside the Crank-Nicolson matmul land
            # in the (microcode-slow) IEEE subnormal range.
            self.advection.advect_v(work, dt, density, True)
            self.diffusion.step(density, dt, work)
            density, work = work, density
        return density, work


class ADIStepper(FPStepper):
    """Peaceman-Rachford 2-D operator-split stepper on sparse kernels.

    See the module docstring for the scheme.  Construction assembles the
    bands of both direction operators once; their per-``dt`` implicit
    factorizations are cached on first use and serve every later solve.
    """

    name = "adi"

    def __init__(self, grid: PhaseGrid2D, sigma: float, drift: np.ndarray,
                 backend: NumericsBackend):
        super().__init__(grid, sigma, drift, backend)
        nq, nv = grid.shape
        self._nq = nq
        self._nv = nv
        self.n = nq * nv
        self._monitored = False
        generator = DiscreteGenerator(grid, self.sigma, drift)
        self._max_abs_drift = (float(np.max(np.abs(generator.drift)))
                               if generator.drift.size else 0.0)
        # q-direction bands in ν-major ordering, ν-direction bands in
        # row-major ordering.
        self._q_bands = generator.q_direction_bands()
        self._v_bands = generator.v_direction_bands()
        # Per-dt operator caches: dt -> (explicit_bands, implicit_solver).
        self._q_ops: OrderedDict = OrderedDict()
        self._v_ops: OrderedDict = OrderedDict()
        # Flat work vectors: two ν-major buffers for the q-direction half
        # steps, one band-product scratch, one stashed intermediate for the
        # health monitor.
        self._flat_t = np.empty(self.n)
        self._flat_t2 = np.empty(self.n)
        self._band_tmp = np.empty(self.n)
        self._stash: Optional[np.ndarray] = None

    def free_running_dt(self, cfl: float) -> float:
        # Each explicit half advances h = dt/2, so the full step can be
        # twice the per-axis CFL step while every explicit half keeps its
        # Courant number within the configured bound; diffusion is implicit
        # and never constrains dt.
        return 2.0 * cfl_time_step_from_speeds(self.grid,
                                               self._max_abs_drift, cfl,
                                               max_dt=np.inf)

    def _ops_for(self, cache: OrderedDict, bands, block_size: int, h: float):
        """The cached ``(I + h A, (I − h A)⁻¹)`` pair for one half-step size.

        The explicit factor is stored as premultiplied bands
        ``(h·lower, 1 + h·diag, h·upper)``; the implicit factor is a backend
        sparse factorization (COO triplets of ``I − h A``, with the
        decoupled-block structure hint).  Keyed by ``h`` with LRU eviction,
        mirroring the PR 2 Crank-Nicolson operator cache.
        """
        ops = cache.get(h)
        if ops is not None:
            cache.move_to_end(h)
            return ops
        lower, diag, upper = bands
        explicit = (h * lower, 1.0 + h * diag, h * upper)
        n = self.n
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[1:], idx[:-1]])
        cols = np.concatenate([idx, idx[1:] - 1, idx[:-1] + 1])
        values = np.concatenate([1.0 - h * diag, -h * lower[1:],
                                 -h * upper[:-1]])
        implicit = self.backend.factorize_sparse(rows, cols, values, n,
                                                 block_size=block_size)
        ops = (explicit, implicit)
        cache[h] = ops
        if len(cache) > _MAX_CACHED_OPERATORS:
            cache.popitem(last=False)
        return ops

    def _apply_explicit(self, explicit, x: np.ndarray, out: np.ndarray
                        ) -> None:
        """``out = x + h·A x`` from premultiplied bands (block-safe).

        The ``±1`` band entries at block boundaries are exact zeros by
        construction (the generator zeroes couplings that would cross a
        grid line), so one flat shifted multiply-add per band is correct
        for all blocks at once.
        """
        lower_h, diag_1h, upper_h = explicit
        tmp = self._band_tmp
        np.multiply(diag_1h, x, out=out)
        head = tmp[:self.n - 1]
        np.multiply(upper_h[:-1], x[1:], out=head)
        out[:-1] += head
        np.multiply(lower_h[1:], x[:-1], out=head)
        out[1:] += head

    def advance(self, density: np.ndarray, dt: float, work: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        h = 0.5 * dt
        grid = self.grid
        courant_q = grid.max_abs_v * h / grid.dq
        courant_v = self._max_abs_drift * h / grid.dv
        if max(courant_q, courant_v) > 1.0 + 1e-12:
            raise StabilityError(
                f"ADI explicit half-step violates CFL: max Courant number "
                f"{max(courant_q, courant_v):.3f}")

        nq, nv = self._nq, self._nv
        v_explicit, v_implicit = self._ops_for(self._v_ops, self._v_bands,
                                               nv, h)
        q_explicit, q_implicit = self._ops_for(self._q_ops, self._q_bands,
                                               nq, h)

        flat = density.reshape(-1)
        flat_work = work.reshape(-1)

        # Explicit ν half: y = (I + h A₂) fⁿ       (row-major)
        self._apply_explicit(v_explicit, flat, flat_work)
        # Reorder to ν-major for the q-direction half-steps.
        transposed = self._flat_t.reshape(nv, nq)
        np.copyto(transposed, work.reshape(nq, nv).T)
        # Implicit q half: (I − h A₁) f* = y       (ν-major, per-column)
        q_implicit.solve(self._flat_t, out=self._flat_t2)
        if self._monitored:
            # Stash the Peaceman-Rachford intermediate for the health
            # monitor (checked at the solver's per-interval cadence).
            if self._stash is None:
                self._stash = np.empty(self.n)
            np.copyto(self._stash, self._flat_t2)
        # Explicit q half: z = (I + h A₁) f*       (ν-major)
        self._apply_explicit(q_explicit, self._flat_t2, self._flat_t)
        # Back to row-major.
        np.copyto(work.reshape(nq, nv),
                  self._flat_t.reshape(nv, nq).T)
        # Implicit ν half: (I − h A₂) fⁿ⁺¹ = z     (row-major, per-row)
        v_implicit.solve(flat_work, out=flat)
        # The upwind halves are positivity-preserving and the implicit
        # factors are M-matrices, so negatives are rounding-level; clamp
        # them exactly as the per-axis kernels do.
        np.maximum(density, 0.0, out=density)
        return density, work

    def record_health(self, monitor, t: float) -> None:
        if monitor is None or self._stash is None:
            return
        monitor.check_fp_half_step(self._stash, self.grid, t)


#: Registry of stepper implementations by name.
STEPPERS: Dict[str, Type[FPStepper]] = {
    AxisSplitStepper.name: AxisSplitStepper,
    ADIStepper.name: ADIStepper,
}


def available_steppers() -> list:
    """Names of the registered steppers."""
    return sorted(STEPPERS)


def is_known_stepper(name: str) -> bool:
    """Whether *name* is resolvable by :func:`get_stepper` (``""`` = default)."""
    return name == "" or name in STEPPERS


def get_stepper(name: Optional[str] = None) -> Type[FPStepper]:
    """Resolve a stepper *name* to its implementation class.

    ``None`` or the empty string select the default per-axis splitting.
    Unknown names raise :class:`~repro.exceptions.ConfigurationError`
    listing the registered steppers.
    """
    if not name:
        return AxisSplitStepper
    stepper = STEPPERS.get(name)
    if stepper is None:
        raise ConfigurationError(
            f"unknown FP stepper {name!r}; available steppers: "
            f"{available_steppers()}")
    return stepper
