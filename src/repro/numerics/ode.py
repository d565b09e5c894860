"""Ordinary differential equation integrators.

The characteristic system of Section 5 (``dq/dt = λ − μ``, ``dλ/dt = g``) is
integrated with the classical fourth-order Runge-Kutta method on a fixed
step.  :func:`integrate_fixed` returns an :class:`ODEResult` that stores the
full time series so downstream analyses (oscillation detection, convergence
detection, Poincaré sections) can operate on the trajectory directly.

A small event facility is provided: an ``event`` callable evaluated on the
state can terminate integration when it changes sign, used for example to
detect crossings of the ``q = q̂`` switching line.

The batched variant integrates a whole *family* of trajectories as one
state block: :func:`integrate_fixed_batch` steps every trajectory of the
block through the identical RK4 update (so a batch of one is bit-identical
to :func:`integrate_fixed`), records the selected state components into
preallocated storage, and handles per-trajectory terminal events through an
active mask that compacts the working block as trajectories finish.  Its
block is component-major -- a C-contiguous ``(dim, n_active)`` array, one
contiguous row per state component -- and its callbacks receive the ``.T``
view of it: the ``(n_active, dim)`` shape of :data:`BatchRHS`, but not
C-contiguous.  Callbacks must not mutate or keep that view, and must return
a fresh array.
The engine returns a :class:`BatchODEResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import ConvergenceError, StabilityError
from .interpolate import interp_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..health import HealthMonitor

__all__ = ["rk4_step", "integrate_fixed", "integrate_fixed_batch",
           "ODEResult", "BatchODEResult"]

RHS = Callable[[float, np.ndarray], np.ndarray]

#: Right-hand side of a batched system: ``rhs(t, states, indices)`` receives
#: the block of currently-active states, shape ``(n_active, dim)``, plus the
#: integer array of *original* trajectory indices those rows correspond to
#: (so per-trajectory parameter columns can be gathered after the engine has
#: compacted finished trajectories away), and returns the ``(n_active, dim)``
#: derivative.  ``t`` is the scalar time shared by the batch.  The engine
#: hands over a non-C-contiguous view of its component-major block (so
#: ``states[:, 0]`` is contiguous); the block is the engine's own: a callback
#: must not mutate it or keep a reference to it, and must return a fresh
#: array.
BatchRHS = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ODEResult:
    """Trajectory returned by the ODE integrators.

    Attributes
    ----------
    times:
        Array of sample times, shape ``(n,)``.
    states:
        Array of states, shape ``(n, dim)``.
    event_time:
        Time at which a terminal event fired, or ``None``.
    """

    times: np.ndarray
    states: np.ndarray
    event_time: Optional[float] = None

    def component(self, index: int) -> np.ndarray:
        """Time series of a single state component."""
        return self.states[:, index]

    def resample(self, times: np.ndarray) -> np.ndarray:
        """Linearly resample the trajectory at the given *times*.

        All state components are interpolated in one vectorized pass;
        the result matches a per-component ``np.interp`` loop exactly.
        """
        times = np.asarray(times, dtype=float)
        return interp_columns(times, self.times, self.states)


def rk4_step(rhs: RHS, t: float, state: np.ndarray, dt: float) -> np.ndarray:
    """A single classical Runge-Kutta 4 step."""
    k1 = np.asarray(rhs(t, state), dtype=float)
    k2 = np.asarray(rhs(t + 0.5 * dt, state + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(rhs(t + 0.5 * dt, state + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(rhs(t + dt, state + dt * k3), dtype=float)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_fixed(rhs: RHS, initial_state: Sequence[float], t_end: float,
                    dt: float, t_start: float = 0.0,
                    projection: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    event: Optional[Callable[[float, np.ndarray], float]] = None,
                    health: Optional["HealthMonitor"] = None,
                    ) -> ODEResult:
    """Integrate ``dx/dt = rhs(t, x)`` with fixed-step RK4.

    Parameters
    ----------
    rhs:
        Right-hand side function returning ``dx/dt``.
    initial_state:
        Initial state vector.
    t_end, dt, t_start:
        Integration horizon, step size and start time.
    projection:
        Optional callable applied to the state after every step; used to
        enforce constraints such as ``q ≥ 0`` and ``λ ≥ 0`` for the queue.
    event:
        Optional scalar function of ``(t, state)``; integration stops at the
        first step where its sign changes (the terminal event).
    health:
        Optional :class:`~repro.health.HealthMonitor`.  When supplied, a
        step size exceeding the horizon fires the ``step-size`` invariant,
        and a non-finite state fires ``finiteness`` — typed abort under
        ``strict``/``observe``, and under ``repair`` the whole integration
        is retried at half the step (up to three halvings, each logged and
        counted) before aborting.  ``None`` keeps the original unmonitored
        behaviour exactly.

    Raises
    ------
    StabilityError
        If the state becomes non-finite.
    """
    if dt <= 0.0:
        raise ConvergenceError("dt must be positive")
    if t_end <= t_start:
        raise ConvergenceError("t_end must exceed t_start")
    if health is not None:
        health.check_step_size(dt, t_end - t_start, label="fixed-step ODE")
    halvings_left = 3 if health is not None and health.mode == "repair" else 0

    while True:
        state = np.asarray(initial_state, dtype=float).copy()
        n_steps = int(np.ceil((t_end - t_start) / dt))
        times: List[float] = [t_start]
        states: List[np.ndarray] = [state.copy()]
        event_time: Optional[float] = None
        previous_event = event(t_start, state) if event is not None else None

        t = t_start
        halved = False
        for _ in range(n_steps):
            step = min(dt, t_end - t)
            state = rk4_step(rhs, t, state, step)
            if projection is not None:
                state = projection(state)
            t += step
            if not np.all(np.isfinite(state)):
                if health is None:
                    raise StabilityError(
                        f"ODE state became non-finite at t={t:.6g}")
                # "Halve dt and substep": the repair action restarts the
                # whole march at half the step, so the retried run is
                # deterministic rather than patched mid-flight.
                repaired = health.check_finite_block(
                    state[None, :], t, label="fixed-step ODE",
                    repair=(lambda: None) if halvings_left > 0 else None,
                    fatal=True)
                if repaired:
                    halvings_left -= 1
                    dt = dt / 2.0
                    halved = True
                break
            times.append(t)
            states.append(state.copy())
            if event is not None:
                current_event = event(t, state)
                if previous_event is not None and previous_event * current_event < 0:
                    event_time = t
                    break
                previous_event = current_event
        if halved:
            continue
        return ODEResult(np.asarray(times), np.asarray(states), event_time)


@dataclass
class BatchODEResult:
    """A family of trajectories integrated as one state block.

    Attributes
    ----------
    times:
        Sample times shared by every trajectory, shape ``(n,)``.
    states:
        Recorded state block, shape ``(n, batch, dim)``, holding the
        components selected by ``integrate_fixed_batch(record=...)`` (all of
        them by default).  Rows past a trajectory's ``n_samples`` are frozen
        copies of its last valid sample, so whole-block reductions stay
        meaningful after early termination.
    n_samples:
        Number of valid samples per trajectory, shape ``(batch,)``.
    event_times:
        Per-trajectory terminal-event times (``NaN`` where no event fired).
    failed:
        Boolean mask of trajectories stopped by a non-finite state (only
        ever set under ``on_nonfinite="mask"``).
    """

    times: np.ndarray
    states: np.ndarray
    n_samples: np.ndarray
    event_times: np.ndarray
    failed: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of trajectories in the block."""
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        """Number of recorded state components."""
        return self.states.shape[2]

    @property
    def final_states(self) -> np.ndarray:
        """Last valid state of every trajectory, shape ``(batch, dim)``."""
        rows = self.n_samples - 1
        return self.states[rows, np.arange(self.batch_size)]

    def component(self, index: int) -> np.ndarray:
        """All trajectories of one recorded component, shape ``(n, batch)``.

        *index* counts the recorded components.  Its rows are contiguous
        for :func:`integrate_fixed_batch`, whose ``states`` is a view of
        ``(n, dim, batch)`` storage.
        """
        return self.states[:, :, index]

    def event_time(self, trajectory: int) -> Optional[float]:
        """Terminal-event time of one trajectory, or ``None``."""
        value = float(self.event_times[trajectory])
        return None if np.isnan(value) else value

    def trajectory(self, index: int) -> ODEResult:
        """Extract one trajectory as a scalar :class:`ODEResult`.

        The extracted arrays are views truncated to the trajectory's valid
        samples; for a batch of one produced by :func:`integrate_fixed_batch`
        they are bit-identical to the output of :func:`integrate_fixed`.
        """
        n = int(self.n_samples[index])
        return ODEResult(self.times[:n], self.states[:n, index],
                         self.event_time(index))

    def trajectories(self) -> List[ODEResult]:
        """All trajectories as scalar results."""
        return [self.trajectory(i) for i in range(self.batch_size)]


def _as_state_block(initial_states: Sequence[Sequence[float]]) -> np.ndarray:
    """Coerce initial conditions to a fresh ``(batch, dim)`` float block."""
    block = np.array(initial_states, dtype=float, copy=True)
    if block.ndim == 1:
        block = block.reshape(1, -1)
    if block.ndim != 2 or block.size == 0:
        raise ConvergenceError(
            "initial_states must be a non-empty (batch, dim) block")
    return block


def _component_major(block) -> np.ndarray:
    """Read an ``(n_active, dim)`` callback result as a C-contiguous
    ``(dim, n_active)`` block (no copy when it is the ``.T`` of one)."""
    return np.ascontiguousarray(np.asarray(block, dtype=float).T)


def _freeze_tails(storage: np.ndarray, n_samples: np.ndarray,
                  n_rows: int) -> None:
    """Repeat each trajectory's last valid row through the remaining rows."""
    for index in np.nonzero(n_samples < n_rows)[0]:
        last = int(n_samples[index]) - 1
        storage[last + 1:n_rows, index] = storage[last, index]


def integrate_fixed_batch(rhs: BatchRHS,
                          initial_states: Sequence[Sequence[float]],
                          t_end: float, dt: float, t_start: float = 0.0,
                          projection: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                          event: Optional[BatchRHS] = None,
                          on_nonfinite: str = "raise",
                          health: Optional["HealthMonitor"] = None,
                          record: Optional[Sequence[int]] = None
                          ) -> BatchODEResult:
    """Integrate a ``(batch, dim)`` family with fixed-step RK4.

    Every trajectory sees exactly the floating-point operations of
    :func:`integrate_fixed` (same step schedule, same RK4 expression), so a
    batch of one reproduces the scalar integrator bit for bit as long as
    *rhs* and *projection* are element-wise equivalents of their scalar
    counterparts.

    The live block is component-major: a C-contiguous ``(dim, n_active)``
    array, so each state component is one contiguous row.  *rhs*, *event*
    and *projection* receive its ``.T`` view -- the ``(n_active, dim)``
    block of :data:`BatchRHS`, but not C-contiguous.  They must not mutate
    or keep it, and must return a fresh array.  A result laid out as the
    ``.T`` of a C-contiguous array (``np.empty_like(states)`` or any
    element-wise expression of *states*) is read back without a copy.

    Parameters
    ----------
    rhs:
        Batched right-hand side ``rhs(t, states, indices) -> (n_active, dim)``
        (see :data:`BatchRHS`).
    initial_states:
        Initial conditions, shape ``(batch, dim)`` (a single ``(dim,)``
        vector is treated as a batch of one).
    t_end, dt, t_start:
        Integration horizon, step size and start time (shared by the batch).
    projection:
        Optional element-wise constraint applied to the state block after
        every step.
    event:
        Optional per-trajectory scalar function
        ``event(t, states, indices) -> (n_active,)``; a trajectory stops at
        the first step where its event value changes sign.  Finished
        trajectories are compacted out of the working block immediately, so
        the per-step cost tracks the number of *live* trajectories.
    on_nonfinite:
        ``"raise"`` (default) mirrors the scalar integrator and raises
        :class:`StabilityError` as soon as any trajectory goes non-finite;
        ``"mask"`` instead stops only the offending trajectories and flags
        them in ``BatchODEResult.failed`` so a parameter sweep survives
        isolated blow-ups.
    health:
        Optional :class:`~repro.health.HealthMonitor`.  Non-finite
        trajectories fire the ``finiteness`` invariant: ``strict`` aborts
        typed, ``repair`` degrades to the masking path regardless of
        *on_nonfinite* (each degradation counted), ``observe`` records and
        then honours *on_nonfinite* unchanged.  ``None`` keeps the
        original unmonitored behaviour exactly.
    record:
        Indices of the state components kept in ``BatchODEResult.states``,
        in that order (default: all).  The whole state is integrated either
        way; a caller that reads only some components keeps the stored
        block, the one allocation that grows with the horizon, that much
        smaller.
    """
    if dt <= 0.0:
        raise ConvergenceError("dt must be positive")
    if t_end <= t_start:
        raise ConvergenceError("t_end must exceed t_start")
    if on_nonfinite not in ("raise", "mask"):
        raise ConvergenceError("on_nonfinite must be 'raise' or 'mask'")
    if health is not None:
        health.check_step_size(dt, t_end - t_start,
                               label="batched fixed-step ODE")

    # Component-major (dim, n_active) block; callbacks see its ``.T`` view.
    states = np.ascontiguousarray(_as_state_block(initial_states).T)
    dim, batch = states.shape
    # Rows of the live block that are stored: a slice keeps the default
    # full recording a plain copy per step.
    kept = slice(None)
    if record is not None:
        kept = np.asarray(record, dtype=np.intp).reshape(-1)
        if kept.size == 0 or kept.min() < 0 or kept.max() >= dim:
            raise ConvergenceError(
                f"record must list state components in [0, {dim}), "
                f"got {record!r}")
    n_steps = int(np.ceil((t_end - t_start) / dt))

    times = np.empty(n_steps + 1)
    storage = np.empty((n_steps + 1, states[kept].shape[0], batch))
    times[0] = t_start
    storage[0] = states[kept]
    n_samples = np.empty(batch, dtype=np.intp)
    event_times = np.full(batch, np.nan)
    failed = np.zeros(batch, dtype=bool)

    active = np.arange(batch)
    previous_event = None
    if event is not None:
        previous_event = np.asarray(event(t_start, states.T, active),
                                    dtype=float)

    n_rows = n_steps + 1
    t = t_start
    for step_index in range(1, n_steps + 1):
        step = min(dt, t_end - t)
        k1 = _component_major(rhs(t, states.T, active))
        k2 = _component_major(rhs(t + 0.5 * step,
                                  (states + 0.5 * step * k1).T, active))
        k3 = _component_major(rhs(t + 0.5 * step,
                                  (states + 0.5 * step * k2).T, active))
        k4 = _component_major(rhs(t + step, (states + step * k3).T, active))
        states = states + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if projection is not None:
            states = _component_major(projection(states.T))
        t += step
        times[step_index] = t

        if not np.isfinite(states).all():
            finite = np.isfinite(states).all(axis=0)
            mask_out = on_nonfinite == "mask"
            if health is not None:
                repaired = health.check_finite_block(
                    states.T, t, label="batched fixed-step ODE",
                    repair=lambda: None, fatal=not mask_out)
                # strict (and observe under "raise") aborted inside the
                # check; a repair means "degrade to masking".
                mask_out = mask_out or repaired
            if not mask_out:
                raise StabilityError(
                    f"ODE state became non-finite at t={t:.6g}")
            leaving = active[~finite]
            failed[leaving] = True
            n_samples[leaving] = step_index
            active = active[finite]
            states = states[:, finite]
            if previous_event is not None:
                previous_event = previous_event[finite]
            if active.size == 0:
                n_rows = step_index
                break

        # The fancy-index scatter is only needed once a member has left.
        if active.size == batch:
            storage[step_index] = states[kept]
        else:
            storage[step_index][:, active] = states[kept]

        if event is not None:
            current_event = np.asarray(event(t, states.T, active),
                                       dtype=float)
            fired = previous_event * current_event < 0.0
            if fired.any():
                leaving = active[fired]
                event_times[leaving] = t
                n_samples[leaving] = step_index + 1
                keep = ~fired
                active = active[keep]
                states = states[:, keep]
                previous_event = current_event[keep]
                if active.size == 0:
                    n_rows = step_index + 1
                    break
            else:
                previous_event = current_event
    n_samples[active] = n_rows

    # (n, recorded, batch) storage seen as the (n, batch, recorded) block.
    states_view = storage[:n_rows].transpose(0, 2, 1)
    _freeze_tails(states_view, n_samples, n_rows)
    return BatchODEResult(times=times[:n_rows], states=states_view,
                          n_samples=n_samples, event_times=event_times,
                          failed=failed)
