"""Conservative upwind advection steps for the Fokker-Planck solver.

Equation 14 contains two advection terms:

* ``ν f_q`` -- transport of probability mass along the queue axis with
  velocity ``ν`` (each row of the ``(q, ν)`` grid moves with its own
  constant velocity, the cell's growth rate), and
* ``(g f)_ν`` -- transport along the growth-rate axis with the
  *conservative* velocity field ``g(q, λ)`` (the drift of the control law).

Both are discretised with a first-order finite-volume upwind scheme written
in flux form, which guarantees exact conservation of the total probability
mass up to what leaves through the outflow boundaries.  The queue-axis
boundary at ``q = 0`` reflects: mass that would be advected below zero stays
in the first cell, implementing the paper's convention ``ν = 0`` when
``Q = 0`` and ``λ < μ``.

Performance.  :class:`UpwindAdvection` binds the scheme to one grid and
preallocates every flux and scratch array, so repeated steps run
allocation-free; this is what the Fokker-Planck solver's hot loop uses.
Every pass over the grid is a contiguous whole-array pass:

* the q-fluxes go into one ``(nq + 1, nv)`` array whose first row is the
  ``q = 0`` boundary flux and whose last row is the top outflow, computed
  from full-width sign-split velocity fields;
* the ν-fluxes run on the flattened density.  The split interface drifts
  are ``(nq, nv)`` arrays whose last column is a permanently zero no-flux
  wall, so the flat products also zero the interfaces where one grid row
  wraps into the next, and the flux array of length ``nq·nv + 1`` keeps
  its two end entries as the zero walls.

Both kernels keep the reference arithmetic: unscaled flux, difference,
``× dt/dq`` or ``× dt/dν``, subtract, then clamp or flush.  The result is
bit-identical to the per-call scheme.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import StabilityError
from ..numerics.grids import PhaseGrid2D

#: Magnitudes below this are flushed to zero by ``advect_v(..., flush=True)``.
#: :mod:`repro.core.diffusion` imports this as its own flush threshold (see
#: there for why subnormal-range values are poison for the dense diffusion
#: matmul), so the advection-side and diffusion-side flushes always agree.
FLUSH_THRESHOLD = 1e-150

__all__ = ["UpwindAdvection", "cfl_time_step_from_speeds"]


def cfl_time_step_from_speeds(grid: PhaseGrid2D, max_v_speed: float,
                              cfl: float, max_dt: float) -> float:
    """The largest stable time step for the explicit advection steps.

    The step must satisfy ``|ν| dt / dq ≤ cfl`` for the q-advection and
    ``|g| dt / dν ≤ cfl`` for the ν-advection.  *max_v_speed* is a
    precomputed ``max |g|`` (the grid caches ``max |ν|``): with a static
    drift field it is constant over the whole integration, so the solver
    computes it once and skips the per-substep array reduction.
    """
    max_q_speed = grid.max_abs_v
    limits = [max_dt]
    if max_q_speed > 0.0:
        limits.append(cfl * grid.dq / max_q_speed)
    if max_v_speed > 0.0:
        limits.append(cfl * grid.dv / max_v_speed)
    dt = min(limits)
    if dt <= 0.0:
        raise StabilityError("computed CFL time step is non-positive")
    return dt


class UpwindAdvection:
    """Allocation-free upwind advection kernels bound to one grid.

    Parameters
    ----------
    grid:
        The phase grid the kernels operate on.  All flux and scratch arrays
        are preallocated for its shape, and the velocity field ``ν`` is
        split by sign once.
    """

    def __init__(self, grid: PhaseGrid2D):
        self.grid = grid
        nq, nv = grid.shape
        v_mesh = grid.meshgrid()[1]
        self._dq = grid.dq
        self._dv = grid.dv
        self._max_abs_v = grid.max_abs_v
        # Full-width sign-split velocity fields: the q-flux products are
        # same-shape contiguous multiplies instead of row broadcasts.
        self._v_pos = np.where(v_mesh > 0.0, v_mesh, 0.0)
        self._v_neg = np.where(v_mesh < 0.0, v_mesh, 0.0)
        # Flux products and flux differences share one scratch block: each
        # product is consumed before the difference overwrites it.
        self._scratch = np.empty((nq, nv))
        self._scratch_flat = self._scratch.reshape(-1)
        self._product_v = self._scratch_flat[:-1]
        # q-interface fluxes.  Row 0 is the reflecting q = 0 boundary and
        # stays zero.
        self._flux_q = np.zeros((nq + 1, nv))
        # Flat ν-interface fluxes; entries 0 and nq·nv are the no-flux walls
        # and are never written.
        self._flux_v = np.zeros(nq * nv + 1)
        self._flux_v_inner = self._flux_v[1:-1]
        # Drift-dependent state (set_drift).  Column nv - 1 of both split
        # drifts is the ν = v_max wall and stays zero.
        self._drift: Optional[np.ndarray] = None
        self._drift_from_left = np.zeros((nq, nv))
        self._drift_from_right = np.zeros((nq, nv))
        self._from_left_flat = self._drift_from_left.reshape(-1)[:-1]
        self._from_right_flat = self._drift_from_right.reshape(-1)[:-1]
        self._max_abs_drift = 0.0
        self._flush_mask = np.empty((nq, nv), dtype=bool)

    @property
    def max_abs_drift(self) -> float:
        """``max |g|`` of the drift installed by :meth:`set_drift`."""
        return self._max_abs_drift

    def set_drift(self, drift: np.ndarray) -> None:
        """Install the ν-drift field ``g`` and precompute its invariants.

        The per-axis stepper calls this once, when it is built.  The
        interface drift between adjacent ν-columns, split by upwind
        direction, and ``max |g|`` are cached until the next call.
        """
        drift = np.asarray(drift, dtype=float)
        if drift.shape != self.grid.shape:
            raise StabilityError("drift array shape does not match density shape")
        self._drift = drift
        # Interface drift between column j and j+1 (mean of the neighbours),
        # split by upwind direction: the interface flux is then two dense
        # multiply-adds instead of a masked select per step.
        interface = 0.5 * (drift[:, :-1] + drift[:, 1:])
        from_left = self._drift_from_left[:, :-1]
        np.multiply(interface, interface > 0.0, out=from_left)
        np.subtract(interface, from_left, out=self._drift_from_right[:, :-1])
        self._max_abs_drift = (float(np.max(np.abs(drift)))
                               if drift.size else 0.0)

    def advect_q(self, density: np.ndarray, dt: float,
                 out: Optional[np.ndarray] = None,
                 clamp: bool = True) -> np.ndarray:
        """Advect along the queue axis with per-column velocity ``ν``.

        *dt* must satisfy the CFL condition (checked).  Mass that would flow
        out through ``q = 0`` is retained in the first cell instead of
        leaving the domain (the paper's model): a queue cannot become
        negative.
        Writes into *out* when given (must not alias *density*); otherwise
        returns a new array.

        ``clamp=False`` skips the final ``max(·, 0)``: CFL-respecting upwind
        transport is positivity-preserving in exact arithmetic, so the clamp
        only removes sub-ulp rounding negatives, and a caller that clamps
        the subsequent ν-advection output anyway (the σ > 0 solver path)
        can drop this intermediate pass.
        """
        max_courant = self._max_abs_v * dt / self._dq
        if max_courant > 1.0 + 1e-12:
            raise StabilityError(
                f"q-advection violates CFL: max Courant number {max_courant:.3f}")
        if out is None:
            out = np.empty_like(density)

        # Interface i (between cells i-1 and i) carries v⁺·f[i-1] + v⁻·f[i]:
        # for v > 0 the donor is the cell below, for v < 0 the cell above,
        # and the sign split zeroes the other term.  Row nq is the v > 0
        # outflow through the top; row 0 (the reflecting q = 0 wall) stays
        # zero.
        flux = self._flux_q
        scratch = self._scratch
        np.multiply(self._v_pos, density, out=flux[1:])
        np.multiply(self._v_neg, density, out=scratch)
        np.add(flux[1:-1], scratch[1:], out=flux[1:-1])
        np.subtract(flux[1:], flux[:-1], out=scratch)
        np.multiply(scratch, dt / self._dq, out=scratch)
        np.subtract(density, scratch, out=out)
        if clamp:
            np.maximum(out, 0.0, out=out)
        return out

    def advect_v(self, density: np.ndarray, dt: float,
                 out: Optional[np.ndarray] = None,
                 flush: bool = False) -> np.ndarray:
        """Advect along the growth-rate axis with the installed drift.

        The term is conservative, ``(g f)_ν``, so the interface flux uses
        the upwind cell value multiplied by the interface drift (the average
        of the two adjacent cell drifts).  Both ν-boundaries are no-flux
        walls: the control law cannot push the rate outside the modelled
        range, so mass accumulates at the boundary cells rather than
        disappearing; the grid should be wide enough that this is
        negligible.

        Requires a prior :meth:`set_drift`; *dt* is CFL-checked.  Writes
        into *out* when given (must not alias *density*); otherwise returns
        a new array.

        With ``flush=True`` the final non-negativity clamp also zeroes
        values below :data:`FLUSH_THRESHOLD` (used by the solver when the
        result feeds the dense diffusion matmul); the default keeps the
        plain ``max(·, 0)`` of the reference scheme bit-for-bit.
        """
        if self._drift is None:
            raise StabilityError("advect_v called before set_drift")
        max_courant = self._max_abs_drift * dt / self._dv
        if max_courant > 1.0 + 1e-12:
            raise StabilityError(
                f"v-advection violates CFL: max Courant number {max_courant:.3f}")
        if out is None:
            out = np.empty_like(density)

        # Upwind interface flux on the flattened grid: drift times the donor
        # cell value, with the direction select folded into the pre-split
        # interface drifts.  Their zero wall column also zeroes the flux
        # across each row wrap.
        flat = density.reshape(-1)
        flux = self._flux_v
        inner = self._flux_v_inner
        product = self._product_v
        np.multiply(self._from_left_flat, flat[:-1], out=inner)
        np.multiply(self._from_right_flat, flat[1:], out=product)
        np.add(inner, product, out=inner)
        scratch = self._scratch
        np.subtract(flux[1:], flux[:-1], out=self._scratch_flat)
        np.multiply(scratch, dt / self._dv, out=scratch)
        np.subtract(density, scratch, out=out)
        if flush:
            np.greater_equal(out, FLUSH_THRESHOLD, out=self._flush_mask)
            np.multiply(out, self._flush_mask, out=out)
        else:
            np.maximum(out, 0.0, out=out)
        return out
