"""Delay-differential-equation integration by the method of steps.

Section 7 of the paper studies the control law evaluated on *delayed* queue
information, ``dλ/dt = g(Q(t − τ), λ(t))``.  The state derivative therefore
depends on the solution at an earlier time, which we support with a
:class:`DelayBuffer` -- a growing history of ``(t, state)`` samples with
linear interpolation -- and :func:`integrate_dde`, a fixed-step RK4 scheme
whose right-hand side receives a *lookup* function for past states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import ConvergenceError, StabilityError

__all__ = ["DelayBuffer", "integrate_dde", "DDEResult"]

DelayedRHS = Callable[[float, np.ndarray, Callable[[float], np.ndarray]],
                      np.ndarray]


class DelayBuffer:
    """History of state samples supporting interpolated lookup of past values.

    The buffer is seeded with the constant pre-history (the state for
    ``t`` up to its start time) and extended by the integrator after every accepted
    step.  Lookups before the earliest sample return the earliest sample,
    matching the usual constant-history convention for DDEs.
    """

    def __init__(self, t_start: float, initial_state: Sequence[float]):
        self._times: List[float] = [t_start]
        self._states: List[np.ndarray] = [np.asarray(initial_state, dtype=float).copy()]

    def append(self, t: float, state: np.ndarray) -> None:
        """Record the state at time *t* (times must be non-decreasing)."""
        if t < self._times[-1]:
            raise ValueError("DelayBuffer times must be non-decreasing")
        self._times.append(float(t))
        self._states.append(np.asarray(state, dtype=float).copy())

    def __len__(self) -> int:
        return len(self._times)

    def lookup(self, t: float) -> np.ndarray:
        """Return the (interpolated) state at time *t*.

        Times before the first sample return the first sample; times after
        the last sample return the last sample (needed by RK stages that
        peek slightly beyond the current history).
        """
        times = self._times
        if t <= times[0]:
            return self._states[0]
        if t >= times[-1]:
            return self._states[-1]
        # Binary search for the bracketing interval.
        lo, hi = 0, len(times) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if times[mid] <= t:
                lo = mid
            else:
                hi = mid
        t0, t1 = times[lo], times[hi]
        s0, s1 = self._states[lo], self._states[hi]
        if t1 == t0:
            return s0
        weight = (t - t0) / (t1 - t0)
        return s0 + weight * (s1 - s0)


@dataclass
class DDEResult:
    """Trajectory returned by :func:`integrate_dde`."""

    times: np.ndarray
    states: np.ndarray

    def component(self, index: int) -> np.ndarray:
        """Time series of a single state component."""
        return self.states[:, index]


def integrate_dde(rhs: DelayedRHS, initial_state: Sequence[float], t_end: float,
                  dt: float,
                  projection: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                  ) -> DDEResult:
    """Integrate a delay differential equation with fixed-step RK4 from
    ``t = 0``.

    Parameters
    ----------
    rhs:
        Callable ``rhs(t, state, history)`` where ``history(s)`` returns the
        (interpolated) state vector at the earlier time ``s``.
    initial_state:
        State for all ``t ≤ 0`` (constant pre-history).
    t_end, dt:
        Integration horizon and step.
    projection:
        Optional constraint projection applied after each step.
    """
    if dt <= 0.0:
        raise ConvergenceError("dt must be positive")
    if t_end <= 0.0:
        raise ConvergenceError("t_end must be positive")

    buffer = DelayBuffer(0.0, initial_state)
    state = np.asarray(initial_state, dtype=float).copy()
    times: List[float] = [0.0]
    states: List[np.ndarray] = [state.copy()]

    t = 0.0
    n_steps = int(np.ceil(t_end / dt))
    for _ in range(n_steps):
        step = min(dt, t_end - t)
        history = buffer.lookup

        k1 = np.asarray(rhs(t, state, history), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * step, state + 0.5 * step * k1, history),
                        dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * step, state + 0.5 * step * k2, history),
                        dtype=float)
        k4 = np.asarray(rhs(t + step, state + step * k3, history), dtype=float)
        state = state + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if projection is not None:
            state = projection(state)
        t += step
        if not np.all(np.isfinite(state)):
            raise StabilityError(f"DDE state became non-finite at t={t:.6g}")
        buffer.append(t, state)
        times.append(t)
        states.append(state.copy())

    return DDEResult(np.asarray(times), np.asarray(states))
