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
boundary at ``q = 0`` is handled by the boundary-condition object (mass that
would be advected below zero is reflected back into the first cell,
implementing the paper's convention ``ν = 0`` when ``Q = 0`` and ``λ < μ``).

Performance.  :class:`UpwindAdvection` binds the scheme to one grid and
preallocates every scratch array (interface fluxes, flux differences,
upwind products) plus the grid-dependent invariants (the contiguous
``ν < 0`` / ``ν > 0`` column ranges, and -- via
:meth:`UpwindAdvection.set_drift` -- the interface drift, its upwind mask
and ``max |g|``).  Repeated steps therefore run allocation-free; this is
what the Fokker-Planck solver's hot loop uses.

The floating-point arithmetic is ordered exactly as in the original
per-call implementation, so the optimized kernels are bit-compatible with
it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..exceptions import StabilityError
from ..numerics.grids import PhaseGrid2D

#: Magnitudes below this are flushed to zero by ``advect_v(..., flush=True)``.
#: :mod:`repro.core.diffusion` imports this as its own flush threshold (see
#: there for why subnormal-range values are poison for the dense diffusion
#: matmul), so the advection-side and diffusion-side flushes always agree.
FLUSH_THRESHOLD = 1e-150

__all__ = ["UpwindAdvection", "cfl_time_step"]


def cfl_time_step(grid: PhaseGrid2D, v_drift: np.ndarray, cfl: float,
                  max_dt: float) -> float:
    """Return the largest stable time step for the explicit advection steps.

    The step must satisfy ``|ν| dt / dq ≤ cfl`` for the q-advection and
    ``|g| dt / dν ≤ cfl`` for the ν-advection.  *v_drift* is the drift array
    ``g`` evaluated on the grid (shape ``(nq, nv)``).
    """
    max_v_speed = float(np.max(np.abs(v_drift))) if v_drift.size else 0.0
    return cfl_time_step_from_speeds(grid, max_v_speed, cfl, max_dt)


def cfl_time_step_from_speeds(grid: PhaseGrid2D, max_v_speed: float,
                              cfl: float, max_dt: float) -> float:
    """CFL step from a precomputed ``max |g|`` (the grid caches ``max |ν|``).

    Hot-loop variant of :func:`cfl_time_step`: with a static drift field the
    maximum drift speed is constant over the whole integration, so the
    solver computes it once and skips the per-substep array reduction.
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


def shared_scratch_size(grid: PhaseGrid2D) -> int:
    """Float count of the scratch arena shared by the per-grid kernels.

    :class:`UpwindAdvection` and
    :class:`repro.core.diffusion.CrankNicolsonDiffusion` each need two
    grid-sized scratch blocks, but never at the same time within a substep,
    so the solver allocates one ``2·nq·nv`` arena and hands it to both.
    """
    nq, nv = grid.shape
    return 2 * nq * nv


class UpwindAdvection:
    """Allocation-free upwind advection kernels bound to one grid.

    Parameters
    ----------
    grid:
        The phase grid the kernels operate on.  All scratch arrays are
        preallocated for its shape; the ``ν``-column sign split is
        precomputed (cell centres are sorted, so the ``ν < 0`` and ``ν > 0``
        columns form contiguous ranges addressable by slices instead of
        boolean masks).
    """

    def __init__(self, grid: PhaseGrid2D,
                 scratch: Optional[np.ndarray] = None):
        self.grid = grid
        nq, nv = grid.shape
        v = grid.v_centers
        self._dq = grid.dq
        self._dv = grid.dv
        self._max_abs_v = grid.max_abs_v
        # Contiguous column ranges by sign of ν (centres are ascending).
        neg = slice(0, int(np.searchsorted(v, 0.0, side="left")))
        pos = slice(int(np.searchsorted(v, 0.0, side="right")), nv)
        self._neg = neg
        self._pos = pos
        self._v_neg = v[neg]
        # Full-width velocity rows split by sign: the interior flux is then
        # two contiguous multiplies and an add over all columns instead of
        # three strided writes into column sub-ranges.
        self._v_pos_full = np.where(v > 0.0, v, 0.0)
        self._v_neg_full = np.where(v < 0.0, v, 0.0)
        # All large scratch lives in a flat arena of 2·nq·nv floats that the
        # solver shares with the diffusion operator: the kernels of one
        # substep use their scratch at disjoint times, and overlaying them
        # keeps the per-substep working set inside L2 (see
        # :func:`shared_scratch_size`).
        if scratch is None:
            scratch = np.empty(shared_scratch_size(grid))
        region_a = scratch[:nq * nv]
        region_b = scratch[nq * nv:2 * nq * nv]
        self._diff = region_a.reshape(nq, nv)
        # Interface fluxes along q, split into the interior block (region B)
        # and two small owned boundary rows.  The q = 0 row is persistent:
        # cells never written while reflecting stay zero, exactly as the
        # per-call implementation re-zeroed them each step.
        self._flux_q_interior = region_b[:(nq - 1) * nv].reshape(nq - 1, nv)
        self._flux_q_top = np.empty(nv)
        self._flux_q_row0 = np.zeros(nv)
        self._flux_q0_dirty = False
        # Per-dt cache of (dt/dq)-prescaled velocity rows for the `scaled`
        # fast path (1-D arrays, so the cache is essentially free).
        self._scaled_v: OrderedDict = OrderedDict()
        # Inner ν-interface fluxes (interfaces 1..nv-1; the walls at 0 and
        # nv are identically zero and folded into the difference stencil).
        self._inner_v = region_b[:nq * (nv - 1)].reshape(nq, nv - 1)
        # The multiply scratch views alias the flux-difference buffer: both
        # are fully consumed before the difference is written.
        self._tmp_q = self._diff[:nq - 1, :]
        self._tmp = self._diff[:, :nv - 1]
        # Drift-dependent state (set_drift).
        self._drift: Optional[np.ndarray] = None
        self._drift_from_left = np.empty((nq, nv - 1))
        self._drift_from_right = np.empty((nq, nv - 1))
        self._max_abs_drift = 0.0
        self._flush_mask = np.empty((nq, nv), dtype=bool)
        # Per-dt cache of (dt/dv)-prescaled split drifts for the `scaled`
        # fast path.  Two entries cover the CFL schedule (the free-running
        # substep and the truncated interval-final substep) while keeping
        # the extra cache footprint bounded.
        self._scaled_drift: OrderedDict = OrderedDict()

    @property
    def max_abs_drift(self) -> float:
        """``max |g|`` of the drift installed by :meth:`set_drift`."""
        return self._max_abs_drift

    def set_drift(self, drift: np.ndarray) -> None:
        """Install the ν-drift field ``g`` and precompute its invariants.

        With a static drift this runs once per solve; with delayed feedback
        the solver calls it whenever the effective drift changes.  The
        interface drift between adjacent ν-columns, the upwind-direction
        mask and ``max |g|`` are all cached until the next call.
        """
        drift = np.asarray(drift, dtype=float)
        if drift.shape != self.grid.shape:
            raise StabilityError("drift array shape does not match density shape")
        self._drift = drift
        # Interface drift between column j-1 and j (mean of the neighbours),
        # split by upwind direction: the interface flux is then two dense
        # multiply-adds instead of a masked select per step.
        interface = 0.5 * (drift[:, :-1] + drift[:, 1:])
        upwind_from_left = interface > 0.0
        np.multiply(interface, upwind_from_left, out=self._drift_from_left)
        np.subtract(interface, self._drift_from_left,
                    out=self._drift_from_right)
        self._max_abs_drift = (float(np.max(np.abs(drift)))
                               if drift.size else 0.0)
        self._scaled_drift.clear()

    def advect_q(self, density: np.ndarray, dt: float,
                 reflect_at_zero: bool = True,
                 out: Optional[np.ndarray] = None,
                 scaled: bool = False,
                 clamp: bool = True) -> np.ndarray:
        """Advect along the queue axis with per-column velocity ``ν``.

        *dt* must satisfy the CFL condition (checked).  With
        *reflect_at_zero* (the default, matching the paper's model) mass
        that would flow out through ``q = 0`` is retained in the first cell
        instead of leaving the domain: a queue cannot become negative.
        Writes into *out* when given (must not alias *density*); otherwise
        returns a new array.

        With ``scaled=True`` the Courant factor ``dt/dq`` is folded into the
        (1-D, per-dt cached) velocity rows, which removes one full-array
        pass; the result agrees with the reference ordering to one ulp per
        step.  The default keeps the reference arithmetic bit-for-bit.

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

        neg = self._neg
        if scaled:
            scaled_rows = self._scaled_v.get(dt)
            if scaled_rows is None:
                courant_factor = dt / self._dq
                scaled_rows = (self._v_pos_full * courant_factor,
                               self._v_neg_full * courant_factor,
                               self._v_neg * courant_factor)
                self._scaled_v[dt] = scaled_rows
                if len(self._scaled_v) > 8:
                    self._scaled_v.popitem(last=False)
            else:
                self._scaled_v.move_to_end(dt)
            v_pos_full, v_neg_full, v_neg = scaled_rows
        else:
            v_pos_full, v_neg_full, v_neg = (self._v_pos_full,
                                             self._v_neg_full, self._v_neg)

        # For v > 0 mass moves toward larger q: upwind value is the left
        # cell; for v < 0 it is the right cell.  The sign-split velocity
        # rows zero out the opposite-direction contribution, so both donor
        # choices combine into one dense expression; the last row is the
        # outflow through the top boundary (v > 0 columns only).
        interior = self._flux_q_interior
        np.multiply(v_pos_full, density[:-1, :], out=interior)
        np.multiply(v_neg_full, density[1:, :], out=self._tmp_q)
        np.add(interior, self._tmp_q, out=interior)
        np.multiply(v_pos_full, density[-1, :], out=self._flux_q_top)

        # Flux difference with the boundary rows folded in (the interior
        # block holds interfaces 1..nq-1; rows 0 and nq live in the small
        # owned boundary arrays).
        diff = self._diff
        if reflect_at_zero:
            # Mass trying to leave through q = 0 stays: zero boundary flux.
            if self._flux_q0_dirty:
                self._flux_q_row0[:] = 0.0
                self._flux_q0_dirty = False
            np.copyto(diff[0], interior[0])
        else:
            np.multiply(v_neg, density[0, neg], out=self._flux_q_row0[neg])
            self._flux_q0_dirty = True
            np.subtract(interior[0], self._flux_q_row0, out=diff[0])
        np.subtract(interior[1:], interior[:-1], out=diff[1:-1])
        np.subtract(self._flux_q_top, interior[-1], out=diff[-1])
        if not scaled:
            np.multiply(diff, dt / self._dq, out=diff)
        np.subtract(density, diff, out=out)
        if clamp:
            np.maximum(out, 0.0, out=out)
        return out

    def advect_v(self, density: np.ndarray, dt: float,
                 out: Optional[np.ndarray] = None,
                 flush: bool = False,
                 scaled: bool = False) -> np.ndarray:
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

        # Upwind interface flux: drift times the donor-cell value.  The
        # direction select is folded into the pre-split interface drifts, so
        # the step is two dense multiplies and an add.  With ``scaled=True``
        # (solver static-drift path) the Courant factor dt/dν is folded into
        # per-dt cached copies of the split drifts, saving the full-array
        # scaling pass; callers whose drift changes every step should leave
        # it off, since each set_drift invalidates the cache.
        if scaled:
            drift_pair = self._scaled_drift.get(dt)
            if drift_pair is None:
                factor = dt / self._dv
                drift_pair = (self._drift_from_left * factor,
                              self._drift_from_right * factor)
                self._scaled_drift[dt] = drift_pair
                if len(self._scaled_drift) > 2:
                    self._scaled_drift.popitem(last=False)
            else:
                self._scaled_drift.move_to_end(dt)
            drift_from_left, drift_from_right = drift_pair
        else:
            drift_from_left = self._drift_from_left
            drift_from_right = self._drift_from_right
        inner = self._inner_v
        np.multiply(drift_from_left, density[:, :-1], out=inner)
        np.multiply(drift_from_right, density[:, 1:], out=self._tmp)
        np.add(inner, self._tmp, out=inner)

        # Flux difference with the no-flux walls folded in: the wall fluxes
        # at interfaces 0 and nv are identically zero, so the first and last
        # columns reduce to ±the adjacent inner flux.
        diff = self._diff
        np.copyto(diff[:, 0], inner[:, 0])
        np.subtract(inner[:, 1:], inner[:, :-1], out=diff[:, 1:-1])
        np.subtract(0.0, inner[:, -1], out=diff[:, -1])
        if not scaled:
            np.multiply(diff, dt / self._dv, out=diff)
        np.subtract(density, diff, out=out)
        if flush:
            np.greater_equal(out, FLUSH_THRESHOLD, out=self._flush_mask)
            np.multiply(out, self._flush_mask, out=out)
        else:
            np.maximum(out, 0.0, out=out)
        return out
