"""The Bolot-Shankar coupled-ODE fluid model.

Bolot and Shankar [BoSh 90] analyse the Ramakrishnan-Jain algorithm with a
deterministic fluid model: the queue obeys

    dQ/dt = λ(t) − μ        when Q > 0 or λ > μ, else 0      (Equation 5)

and the arrival rate obeys the control law ``dλ/dt = g(Q, λ)``.  Both
quantities are treated as deterministic functions of time; the model
captures the mean behaviour but has no notion of variance -- the gap the
paper's Fokker-Planck formulation fills.  Delayed feedback lives in
:mod:`repro.delay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..characteristics.trajectory import integrate_characteristic_batch
from ..config import SystemParameters
from ..control.base import RateControl

__all__ = ["FluidModel", "FluidTrajectory"]


@dataclass
class FluidTrajectory:
    """Deterministic ``(Q(t), λ(t))`` trajectory of the fluid model."""

    times: np.ndarray
    queue: np.ndarray
    rate: np.ndarray
    mu: float

    @property
    def growth_rate(self) -> np.ndarray:
        """Queue growth rate ``ν(t) = λ(t) − μ``."""
        return self.rate - self.mu

    @property
    def final_queue(self) -> float:
        """Queue length at the end of the run."""
        return float(self.queue[-1])

    @property
    def final_rate(self) -> float:
        """Arrival rate at the end of the run."""
        return float(self.rate[-1])

    def time_average_queue(self) -> float:
        """Time-averaged queue length over the run's last 80% (the first 20%
        is transient)."""
        start = min(int(0.2 * self.times.size), self.times.size - 2)
        duration = self.times[-1] - self.times[start]
        if duration <= 0.0:
            return float(self.queue[-1])
        return float(np.trapezoid(self.queue[start:], self.times[start:]) / duration)


class FluidModel:
    """Deterministic fluid approximation of the controlled queue: the plain
    coupled-ODE model of Bolot-Shankar, with undelayed feedback."""

    def __init__(self, control: RateControl, params: SystemParameters):
        self.control = control
        self.params = params

    def solve(self, q0: float, rate0: float, t_end: float,
              dt: float = 0.02) -> FluidTrajectory:
        """Integrate the fluid model from ``(q0, rate0)`` until ``t_end``.

        The model rides the batched characteristic engine (as a family of
        one), which is bit-identical to the scalar fixed-step integration
        the model used before.
        """
        return self.solve_batch([q0], [rate0], t_end=t_end, dt=dt)[0]

    def solve_batch(self, q0, rate0, t_end: float,
                    dt: float = 0.02) -> List[FluidTrajectory]:
        """Integrate a family of fluid trajectories as one batched run.

        *q0* and *rate0* are scalars or broadcastable 1-D arrays of initial
        conditions; each returned trajectory is bit-identical to ``solve``
        from the same point.
        """
        # The undelayed fluid system *is* the characteristic system (pinned
        # queue drift, non-negativity projection), so the integration is
        # delegated to the one batched implementation of those dynamics.
        batch = integrate_characteristic_batch(self.control, self.params,
                                               q0, rate0, t_end=t_end, dt=dt)
        return [FluidTrajectory(times=batch.times,
                                queue=batch.queue[:, index],
                                rate=batch.rate[:, index],
                                mu=self.params.mu)
                for index in range(batch.batch_size)]
