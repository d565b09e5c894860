"""Ordinary differential equation integrators.

The characteristic system of Section 5 (``dq/dt = λ − μ``, ``dλ/dt = g``) is
integrated with the classical fourth-order Runge-Kutta method on a fixed
step.  :func:`integrate_fixed` returns an :class:`ODEResult` that stores the
full time series so downstream analyses (oscillation and convergence
detection) can operate on the trajectory directly.

The batched variant integrates a whole *family* of trajectories as one
state block: :func:`integrate_fixed_batch` steps every trajectory of the
block through the identical RK4 update (so a batch of one is bit-identical
to :func:`integrate_fixed`) and records the selected state components into
preallocated storage.  Its block is component-major -- a C-contiguous
``(dim, batch)`` array, one contiguous row per state component -- and its
callbacks receive the ``.T`` view of it: the ``(batch, dim)`` shape of
:data:`BatchRHS`, but not C-contiguous.  Callbacks must not mutate or keep
that view, and must return a fresh array.  The engine returns a
:class:`BatchODEResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import ConvergenceError, StabilityError
from .interpolate import interp_columns

__all__ = ["rk4_step", "integrate_fixed", "integrate_fixed_batch",
           "ODEResult", "BatchODEResult"]

RHS = Callable[[float, np.ndarray], np.ndarray]

#: Right-hand side of a batched system: ``rhs(t, states)`` receives the
#: state block, shape ``(batch, dim)``, and returns its ``(batch, dim)``
#: derivative.  ``t`` is the scalar time shared by the batch.  The engine
#: hands over a non-C-contiguous view of its component-major block (so
#: ``states[:, 0]`` is contiguous); the block is the engine's own: a callback
#: must not mutate it or keep a reference to it, and must return a fresh
#: array.
BatchRHS = Callable[[float, np.ndarray], np.ndarray]


@dataclass
class ODEResult:
    """Trajectory returned by the ODE integrators.

    Attributes
    ----------
    times:
        Array of sample times, shape ``(n,)``.
    states:
        Array of states, shape ``(n, dim)``.
    """

    times: np.ndarray
    states: np.ndarray

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
                    dt: float,
                    projection: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    ) -> ODEResult:
    """Integrate ``dx/dt = rhs(t, x)`` with fixed-step RK4 from ``t = 0``.

    Parameters
    ----------
    rhs:
        Right-hand side function returning ``dx/dt``.
    initial_state:
        Initial state vector.
    t_end, dt:
        Integration horizon and step size.
    projection:
        Optional callable applied to the state after every step; used to
        enforce constraints such as ``q ≥ 0`` and ``λ ≥ 0`` for the queue.

    Raises
    ------
    StabilityError
        If the state becomes non-finite.
    """
    if dt <= 0.0:
        raise ConvergenceError("dt must be positive")
    if t_end <= 0.0:
        raise ConvergenceError("t_end must be positive")
    state = np.asarray(initial_state, dtype=float).copy()
    n_steps = int(np.ceil(t_end / dt))
    times: List[float] = [0.0]
    states: List[np.ndarray] = [state.copy()]
    t = 0.0
    for _ in range(n_steps):
        step = min(dt, t_end - t)
        state = rk4_step(rhs, t, state, step)
        if projection is not None:
            state = projection(state)
        t += step
        if not np.all(np.isfinite(state)):
            raise StabilityError(f"ODE state became non-finite at t={t:.6g}")
        times.append(t)
        states.append(state.copy())
    return ODEResult(np.asarray(times), np.asarray(states))


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
        them by default).
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of trajectories in the block."""
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        """Number of recorded state components."""
        return self.states.shape[2]

    def component(self, index: int) -> np.ndarray:
        """All trajectories of one recorded component, shape ``(n, batch)``.

        *index* counts the recorded components.  Its rows are contiguous
        for :func:`integrate_fixed_batch`, whose ``states`` is a view of
        ``(n, dim, batch)`` storage.
        """
        return self.states[:, :, index]

    def trajectory(self, index: int) -> ODEResult:
        """Extract one trajectory as a scalar :class:`ODEResult`.

        The extracted arrays are views; for a batch of one produced by
        :func:`integrate_fixed_batch` they are bit-identical to the output
        of :func:`integrate_fixed`.
        """
        return ODEResult(self.times, self.states[:, index])


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
    """Read a ``(batch, dim)`` callback result as a C-contiguous
    ``(dim, batch)`` block (no copy when it is the ``.T`` of one)."""
    return np.ascontiguousarray(np.asarray(block, dtype=float).T)


def integrate_fixed_batch(rhs: BatchRHS,
                          initial_states: Sequence[Sequence[float]],
                          t_end: float, dt: float,
                          projection: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                          record: Optional[Sequence[int]] = None
                          ) -> BatchODEResult:
    """Integrate a ``(batch, dim)`` family with fixed-step RK4 from ``t = 0``.

    Every trajectory sees exactly the floating-point operations of
    :func:`integrate_fixed` (same step schedule, same RK4 expression), so a
    batch of one reproduces the scalar integrator bit for bit as long as
    *rhs* and *projection* are element-wise equivalents of their scalar
    counterparts.

    The live block is component-major: a C-contiguous ``(dim, batch)``
    array, so each state component is one contiguous row.  *rhs* and
    *projection* receive its ``.T`` view -- the ``(batch, dim)`` block of
    :data:`BatchRHS`, but not C-contiguous.  They must not mutate or keep
    it, and must return a fresh array.  A result laid out as the ``.T`` of
    a C-contiguous array (``np.empty_like(states)`` or any element-wise
    expression of *states*) is read back without a copy.

    Parameters
    ----------
    rhs:
        Batched right-hand side ``rhs(t, states) -> (batch, dim)`` (see
        :data:`BatchRHS`).
    initial_states:
        Initial conditions, shape ``(batch, dim)`` (a single ``(dim,)``
        vector is treated as a batch of one).
    t_end, dt:
        Integration horizon and step size (shared by the batch).
    projection:
        Optional element-wise constraint applied to the state block after
        every step.
    record:
        Indices of the state components kept in ``BatchODEResult.states``,
        in that order (default: all).  The whole state is integrated either
        way; a caller that reads only some components keeps the stored
        block, the one allocation that grows with the horizon, that much
        smaller.

    Raises
    ------
    StabilityError
        As soon as any trajectory becomes non-finite, like the scalar
        integrator.
    """
    if dt <= 0.0:
        raise ConvergenceError("dt must be positive")
    if t_end <= 0.0:
        raise ConvergenceError("t_end must be positive")

    # Component-major (dim, batch) block; callbacks see its ``.T`` view.
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
    n_steps = int(np.ceil(t_end / dt))

    times = np.empty(n_steps + 1)
    storage = np.empty((n_steps + 1, states[kept].shape[0], batch))
    times[0] = 0.0
    storage[0] = states[kept]

    t = 0.0
    for step_index in range(1, n_steps + 1):
        step = min(dt, t_end - t)
        k1 = _component_major(rhs(t, states.T))
        k2 = _component_major(rhs(t + 0.5 * step, (states + 0.5 * step * k1).T))
        k3 = _component_major(rhs(t + 0.5 * step, (states + 0.5 * step * k2).T))
        k4 = _component_major(rhs(t + step, (states + step * k3).T))
        states = states + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if projection is not None:
            states = _component_major(projection(states.T))
        t += step
        if not np.isfinite(states).all():
            raise StabilityError(f"ODE state became non-finite at t={t:.6g}")
        times[step_index] = t
        storage[step_index] = states[kept]

    # (n, recorded, batch) storage seen as the (n, batch, recorded) block.
    return BatchODEResult(times=times, states=storage.transpose(0, 2, 1))
