"""Stochastic differential equation integrator.

The Langevin analogue of the Fokker-Planck equation (Equation 14) is

    dQ = ν dt + σ dW,      dν = g(Q, λ) dt,

i.e. the diffusion acts on the queue length while the growth rate follows
the deterministic control law along each random sample path.  The ensemble
of such particles has exactly the density governed by the FP equation, which
gives an independent Monte-Carlo check of the PDE solver.

The scheme is Euler-Maruyama: strong order 0.5, and for the additive noise
of the paper's model it coincides with the Milstein scheme, whose derivative
correction vanishes when the diffusion does not depend on the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..exceptions import ConvergenceError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..health import HealthMonitor

__all__ = ["euler_maruyama", "SDEPaths"]

Drift = Callable[[float, np.ndarray], np.ndarray]
Diffusion = Callable[[float, np.ndarray], np.ndarray]


@dataclass
class SDEPaths:
    """Monte-Carlo sample paths produced by the SDE integrators.

    Attributes
    ----------
    times:
        Sample times, shape ``(n_times,)``.
    paths:
        Sample paths, shape ``(n_times, n_paths, dim)``.
    """

    times: np.ndarray
    paths: np.ndarray

    @property
    def n_paths(self) -> int:
        """Number of Monte-Carlo particles."""
        return self.paths.shape[1]

    @property
    def final_states(self) -> np.ndarray:
        """States of all particles at the final time, shape ``(n_paths, dim)``."""
        return self.paths[-1]

    def component(self, index: int) -> np.ndarray:
        """All sample paths of one component, shape ``(n_times, n_paths)``."""
        return self.paths[:, :, index]

    def mean(self, index: int) -> np.ndarray:
        """Ensemble mean of a component as a function of time."""
        return np.mean(self.paths[:, :, index], axis=1)

    def variance(self, index: int) -> np.ndarray:
        """Ensemble variance of a component as a function of time."""
        return np.var(self.paths[:, :, index], axis=1)


def euler_maruyama(drift: Drift, diffusion: Diffusion, initial: np.ndarray,
                   t_end: float, dt: float, n_paths: int,
                   rng: Optional[np.random.Generator] = None,
                   projection: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                   record_every: int = 1,
                   health: Optional["HealthMonitor"] = None) -> SDEPaths:
    """Simulate sample paths with the Euler-Maruyama scheme.

    Parameters
    ----------
    drift, diffusion:
        Vectorised callables mapping ``(t, states)`` with *states* of shape
        ``(n_paths, dim)`` to arrays of the same shape.
    initial:
        Initial state (shared by all particles) of shape ``(dim,)``.
    t_end, dt:
        Horizon and step size.
    n_paths:
        Number of Monte-Carlo particles.
    rng:
        Optional :class:`numpy.random.Generator` for reproducibility.
    projection:
        Optional constraint projection (e.g. clip the queue at zero).
    record_every:
        Record a snapshot every this many steps to bound memory use.
    health:
        Optional :class:`~repro.health.HealthMonitor`.  At every record
        point the path block is checked for finiteness: ``strict`` aborts
        typed, ``repair`` holds diverged paths at their last recorded
        value (counted), ``observe`` records the report only.  ``None``
        keeps the original unmonitored behaviour exactly.
    """
    rng = rng if rng is not None else np.random.default_rng()
    if dt <= 0.0:
        raise ConvergenceError("dt must be positive")
    if n_paths < 1:
        raise ConvergenceError("n_paths must be at least 1")
    if health is not None:
        health.check_step_size(dt, t_end, label="SDE integrator")

    initial = np.asarray(initial, dtype=float)
    dim = initial.shape[-1] if initial.ndim > 0 else 1
    states = np.broadcast_to(initial, (n_paths, dim)).astype(float).copy()

    n_steps = int(np.ceil(t_end / dt))

    # Preallocate the snapshot storage: the recording schedule is known up
    # front, so the per-record ``states.copy()`` appends become writes into
    # one contiguous array (same layout the delayed Langevin loop uses).
    n_records = n_steps // record_every
    if n_steps % record_every:
        n_records += 1
    times = np.empty(n_records + 1)
    snapshots = np.empty((n_records + 1, n_paths, dim))
    times[0] = 0.0
    snapshots[0] = states
    record_index = 1

    sqrt_dt = np.sqrt(dt)

    t = 0.0
    for step_index in range(1, n_steps + 1):
        noise = rng.standard_normal(states.shape) * sqrt_dt
        drift_term = drift(t, states)
        diffusion_term = diffusion(t, states)
        increment = drift_term * dt + diffusion_term * noise
        states = states + increment
        if projection is not None:
            states = projection(states)
        t += dt
        if step_index % record_every == 0 or step_index == n_steps:
            if health is not None:
                bad = ~np.isfinite(states)
                if bad.any():

                    def _hold_last(states=states, bad=bad,
                                   previous=snapshots[record_index - 1]):
                        # Replace non-finite entries with the path's last
                        # recorded value (held constant); the path is
                        # flagged by the report rather than poisoning the
                        # whole ensemble's moments.
                        np.copyto(states, previous, where=bad)

                    health.check_finite_block(states, t,
                                              label="SDE path block",
                                              repair=_hold_last)
            times[record_index] = t
            snapshots[record_index] = states
            record_index += 1

    return SDEPaths(times[:record_index], snapshots[:record_index])

