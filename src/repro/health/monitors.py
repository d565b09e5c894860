"""The invariant monitor: per-engine checks bound to a degradation policy.

A :class:`HealthMonitor` bundles a resolved health mode with a
:class:`~repro.health.report.HealthLog` and exposes one check method per
invariant family.  Engines create a monitor with :meth:`HealthMonitor.create`
(``None`` under ``off``, so the unguarded hot path survives bit-identically)
and call the checks at their natural cadence — the Fokker-Planck solver once
per output interval, the DES engines at segment boundaries, the SDE/ODE
engines at record points.

Policy semantics per check:

``strict``
    every violation aborts with its typed
    :class:`~repro.exceptions.NumericalHealthError` subclass;
``repair``
    violations with a registered repair apply it (logged and counted);
    violations without one degrade to observe, unless *fatal*;
``observe``
    record-only — except *fatal* violations (a non-finite density cannot
    be integrated further), which abort exactly as the pre-health code did,
    just with a richer, typed error.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..exceptions import (
    EventBudgetError,
    MassConservationError,
    NegativeDensityError,
    NonFiniteStateError,
    QueueInvariantError,
    ResidualHealthError,
    SimTimeError,
    StepSizeError,
)
from .policy import resolve_health
from .report import HealthLog, HealthReport

__all__ = ["HealthMonitor", "MASS_TOLERANCE", "NEGATIVE_TOLERANCE"]

#: Allowed drift of total FP mass from its conservation target before the
#: ``mass`` invariant fires.  Healthy runs on the golden configs stay below
#: 1e-11; 1e-8 leaves three decades of headroom against grid refinement.
MASS_TOLERANCE = 1e-8

#: Most negative density cell tolerated before ``positivity`` fires; the
#: kernels clamp, so anything beyond rounding noise indicates a bug.
NEGATIVE_TOLERANCE = 1e-12


class HealthMonitor:
    """One run's invariant watcher, bound to a degradation policy."""

    __slots__ = ("mode", "where", "log", "_budget_fired")

    def __init__(self, mode: str, where: str = ""):
        self.mode = mode
        self.where = where
        self.log = HealthLog(mode=mode, where=where)
        self._budget_fired = False

    @classmethod
    def create(cls, health: Optional[str] = None,
               where: str = "") -> Optional["HealthMonitor"]:
        """Monitor for the resolved mode, or ``None`` under ``off``.

        Returning ``None`` (rather than a no-op monitor) lets hot paths
        keep their original unguarded branches, which is what makes
        ``--health=off`` bit-identical to the pre-health code by
        construction.
        """
        mode = resolve_health(health)
        if mode == "off":
            return None
        return cls(mode, where=where)

    # ------------------------------------------------------------------
    # policy core

    def _fire(self, invariant: str, *, time: float, magnitude: float,
              threshold: float, error_cls: type, message: str,
              cell: Optional[Tuple[int, ...]] = None,
              repair: Optional[Callable[[], None]] = None,
              fatal: bool = False) -> bool:
        """Record a violation and act on it; True when a repair ran."""
        if self.mode == "repair" and repair is not None:
            action = "repair"
        elif self.mode == "strict" or fatal:
            action = "abort"
        else:
            action = "observe"
        report = HealthReport(
            where=self.where, invariant=invariant, time=float(time),
            magnitude=float(magnitude), threshold=float(threshold),
            action=action, cell=cell,
            trend=self.log.trend(invariant, magnitude), message=message)
        self.log.record(report)
        if action == "abort":
            raise error_cls(message, report=report)
        if action == "repair":
            repair()
            return True
        return False

    # ------------------------------------------------------------------
    # Fokker-Planck density invariants (core/)

    def check_fp_density(self, density: np.ndarray, grid, t: float) -> None:
        """Finiteness, positivity and mass conservation of an FP density.

        Runs once per output interval; mutates *density* in place only in
        repair mode.  The conservation target is unit mass: a density that
        reaches the open ``q = q_max`` edge loses mass there and fires the
        mass check.
        """
        total = float(density.sum())
        # density >= 0 on the healthy path, so a finite sum certifies every
        # cell; a NaN/Inf anywhere poisons the sum (same certificate the
        # pre-health check used).
        if not (total < np.inf):
            self._fire_non_finite_density(density, grid, t)
            total = float(density.sum())

        min_value = float(density.min())
        if min_value < -NEGATIVE_TOLERANCE:
            flat_index = int(np.argmin(density))
            cell = tuple(int(i) for i in
                         np.unravel_index(flat_index, density.shape))

            def _clamp() -> None:
                np.maximum(density, 0.0, out=density)

            self._fire(
                "positivity", time=t, magnitude=-min_value,
                threshold=NEGATIVE_TOLERANCE, error_cls=NegativeDensityError,
                cell=cell, repair=_clamp,
                message=(f"density cell {cell} negative ({min_value:.3e}) "
                         f"at t={t:.6g}"))
            total = float(density.sum())

        mass = total * grid.cell_area
        drift = abs(mass - 1.0)
        if drift > MASS_TOLERANCE:

            def _renormalize() -> None:
                if mass > 0.0:
                    np.multiply(density, 1.0 / mass, out=density)

            self._fire(
                "mass", time=t, magnitude=drift, threshold=MASS_TOLERANCE,
                error_cls=MassConservationError, repair=_renormalize,
                message=(f"total mass {mass:.12g} drifted {drift:.3e} from "
                         f"conservation target 1 at t={t:.6g}"))

    def check_fp_half_step(self, intermediate: np.ndarray, grid,
                           t: float) -> None:
        """Finiteness and positivity of an ADI half-step intermediate.

        The Peaceman-Rachford intermediate ``f*`` is a genuine density
        candidate (its upwind half is positivity-preserving and its
        implicit factor is an M-matrix), so non-finite values or negatives
        beyond rounding noise flag the same failures the committed-density
        checks do — caught half a step earlier.  Mass is *not* checked
        here: the intermediate legitimately differs from the conservation
        target by in-flight boundary outflow, which only the committed
        density accounts for.  The stashed copy is never mutated, so there
        is no repair; ``repair`` mode degrades to observe.
        """
        total = float(intermediate.sum())
        if not (total < np.inf):
            bad = np.flatnonzero(~np.isfinite(intermediate.ravel()))
            n_bad = int(bad.size)
            cell = (int(bad[0]),) if n_bad else None
            self._fire(
                "finiteness", time=t, magnitude=float(n_bad), threshold=0.0,
                error_cls=NonFiniteStateError, cell=cell, fatal=True,
                message=(f"ADI half-step intermediate non-finite at "
                         f"t={t:.6g}: {n_bad} bad cells, first at {cell}"))

        min_value = float(intermediate.min())
        if min_value < -NEGATIVE_TOLERANCE:
            cell = (int(np.argmin(intermediate)),)
            self._fire(
                "positivity", time=t, magnitude=-min_value,
                threshold=NEGATIVE_TOLERANCE, error_cls=NegativeDensityError,
                cell=cell,
                message=(f"ADI half-step intermediate cell {cell} negative "
                         f"({min_value:.3e}) at t={t:.6g}"))

    def _fire_non_finite_density(self, density: np.ndarray, grid,
                                 t: float) -> None:
        bad = np.flatnonzero(~np.isfinite(density.ravel()))
        n_bad = int(bad.size)
        cell = (tuple(int(i) for i in
                      np.unravel_index(int(bad[0]), density.shape))
                if n_bad else None)

        def _scrub() -> None:
            np.nan_to_num(density, copy=False, nan=0.0,
                          posinf=0.0, neginf=0.0)
            remaining = grid.total_mass(density)
            if remaining <= 0.0:
                raise NonFiniteStateError(
                    f"density unrecoverable at t={t:.6g}: no finite mass "
                    f"left after scrubbing {n_bad} non-finite cells")
            np.multiply(density, 1.0 / remaining, out=density)

        self._fire(
            "finiteness", time=t, magnitude=float(n_bad), threshold=0.0,
            error_cls=NonFiniteStateError, cell=cell, repair=_scrub,
            fatal=True,
            message=(f"density non-finite at t={t:.6g}: {n_bad} bad cells, "
                     f"first at {cell}"))

    # ------------------------------------------------------------------
    # generic array finiteness (SDE batch engines)

    def check_finite_block(self, states: np.ndarray, t: float, *,
                           label: str = "state",
                           repair: Optional[Callable[[], None]] = None
                           ) -> bool:
        """Finiteness of a trajectory/path block; True when repaired."""
        if np.isfinite(states).all():
            return False
        bad = np.argwhere(~np.isfinite(states))
        cell = tuple(int(i) for i in bad[0])
        n_bad = int(bad.shape[0])
        return self._fire(
            "finiteness", time=t, magnitude=float(n_bad), threshold=0.0,
            error_cls=NonFiniteStateError, cell=cell, repair=repair,
            message=(f"{label}: {n_bad} non-finite entries at t={t:.6g}, "
                     f"first at index {cell}"))

    def check_step_size(self, dt: float, span: float, *,
                        label: str = "integrator") -> bool:
        """Step-size sanity: dt must resolve the integration horizon."""
        if span <= 0.0 or dt <= span:
            return False
        return self._fire(
            "step-size", time=0.0, magnitude=float(dt),
            threshold=float(span), error_cls=StepSizeError,
            message=(f"{label}: dt={dt:.6g} exceeds the integration "
                     f"horizon {span:.6g}"))

    def check_min_step(self, dt: float, min_dt: float, t: float) -> bool:
        """Step-size collapse in an adaptive integrator (strict aborts;
        otherwise the caller's original error still follows).

        No integrator in ``src/`` calls it, but ``perfbench/tracer.py``
        wraps it by name, so removing it breaks every traced benchmark run.
        """
        if dt >= min_dt:
            return False
        return self._fire(
            "step-size", time=t, magnitude=float(dt),
            threshold=float(min_dt), error_cls=StepSizeError,
            message=(f"adaptive integrator: step {dt:.3e} shrank below the "
                     f"minimum {min_dt:.3e} at t={t:.6g}"))

    # ------------------------------------------------------------------
    # discrete-event invariants (queueing/)

    def check_queue_value(self, name: str, value: float, t: float,
                          repair: Optional[Callable[[], None]] = None) -> bool:
        """Queue non-negativity for a live state or a recorded sample."""
        if value >= 0.0:
            return False
        return self._fire(
            "queue", time=t, magnitude=float(-value), threshold=0.0,
            error_cls=QueueInvariantError, repair=repair,
            message=(f"queue '{name}' went negative ({value:.6g}) "
                     f"at t={t:.6g}"))

    def check_event_budget(self, executed: int, max_events: Optional[int],
                           t: float) -> bool:
        """Total-event budget watchdog (fires at most once per run)."""
        if max_events is None or executed <= max_events or self._budget_fired:
            return False
        self._budget_fired = True
        return self._fire(
            "event-budget", time=t, magnitude=float(executed),
            threshold=float(max_events), error_cls=EventBudgetError,
            message=(f"executed {executed} events, exceeding the budget of "
                     f"{max_events} at t={t:.6g}"))

    def check_sim_time(self, current_time: float, expected: float) -> bool:
        """Sim-time watchdog: the engine must reach each segment end."""
        if current_time >= expected - 1e-9:
            return False
        return self._fire(
            "sim-time", time=current_time,
            magnitude=float(expected - current_time), threshold=0.0,
            error_cls=SimTimeError,
            message=(f"event engine stalled at t={current_time:.6g}, "
                     f"{expected - current_time:.6g} short of segment end "
                     f"{expected:.6g}"))

    # ------------------------------------------------------------------
    # convergence / residual health (design/)

    def check_residual(self, residual: float, tol: float, *,
                       label: str = "stationary solve",
                       repair: Optional[Callable[[], None]] = None) -> bool:
        """Residual health of a converged (or failed) stationary solve."""
        if np.isfinite(residual) and residual <= tol:
            return False
        return self._fire(
            "residual", time=0.0, magnitude=float(residual),
            threshold=float(tol), error_cls=ResidualHealthError,
            repair=repair,
            message=(f"{label}: residual {residual:.3e} exceeds "
                     f"tolerance {tol:.3e}"))

    # re-exported for callers that need the typed aborts directly
    error_types = {
        "finiteness": NonFiniteStateError,
        "mass": MassConservationError,
        "positivity": NegativeDensityError,
        "queue": QueueInvariantError,
        "event-budget": EventBudgetError,
        "sim-time": SimTimeError,
        "step-size": StepSizeError,
        "residual": ResidualHealthError,
    }
