"""Coupled dynamics of N adaptive sources sharing one bottleneck queue.

Each source ``i`` adjusts its own rate ``λᵢ(t)`` by the JRJ rule driven by
the *shared* queue length,

    dλᵢ/dt =  C0ᵢ          if Q ≤ q̂,
    dλᵢ/dt = −C1ᵢ λᵢ       if Q > q̂,

while the queue aggregates all the arrivals,

    dQ/dt = Σᵢ λᵢ(t) − μ        (pinned at zero when empty and under-loaded).

Optionally every source can see the queue with its own feedback delay
``τᵢ``, which is the setting of Section 7's unfairness result; the model
then becomes a DDE and is integrated by the method of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import SourceParameters, SystemParameters
from ..exceptions import ConfigurationError
from ..numerics.dde import integrate_dde
from ..numerics.ode import integrate_fixed

__all__ = ["MultiSourceModel", "MultiSourceTrajectory"]


@dataclass
class MultiSourceTrajectory:
    """Trajectory of the shared queue and every per-source rate.

    Attributes
    ----------
    times:
        Sample times, shape ``(n,)``.
    queue:
        Shared queue length ``Q(t)``, shape ``(n,)``.
    rates:
        Per-source rates ``λᵢ(t)``, shape ``(n, n_sources)``.
    mu:
        Bottleneck service rate.
    source_names:
        Labels of the sources (for reports).
    """

    times: np.ndarray
    queue: np.ndarray
    rates: np.ndarray
    mu: float
    source_names: List[str]

    @property
    def n_sources(self) -> int:
        """Number of sources in the run."""
        return self.rates.shape[1]

    def final_rates(self) -> np.ndarray:
        """Per-source rates at the end of the run."""
        return self.rates[-1].copy()

    def time_average_rates(self, skip_fraction: float = 0.3) -> np.ndarray:
        """Per-source time-average rates over the post-transient tail.

        This is each source's long-run throughput share of the bottleneck --
        the quantity the fairness results of Section 6 and the unfairness
        results of Section 7 are stated about.
        """
        start = min(int(skip_fraction * self.times.size), self.times.size - 2)
        times = self.times[start:]
        duration = times[-1] - times[0]
        if duration <= 0.0:
            return self.final_rates()
        averages = np.empty(self.n_sources)
        for i in range(self.n_sources):
            averages[i] = np.trapezoid(self.rates[start:, i], times) / duration
        return averages

    def shares(self, skip_fraction: float = 0.3) -> np.ndarray:
        """Normalised throughput shares (time-average rates divided by their sum)."""
        averages = self.time_average_rates(skip_fraction)
        total = float(np.sum(averages))
        if total <= 0.0:
            return np.full(self.n_sources, 1.0 / self.n_sources)
        return averages / total


class MultiSourceModel:
    """N adaptive sources driving one bottleneck queue.

    Parameters
    ----------
    sources:
        Per-source control parameters (increase rate, decrease constant,
        optional feedback delay and initial rate).
    params:
        Shared system parameters: service rate ``mu`` and target queue
        ``q_target`` (the switching threshold every source uses).
    """

    def __init__(self, sources: Sequence[SourceParameters],
                 params: SystemParameters):
        if len(sources) < 1:
            raise ConfigurationError("need at least one source")
        self.sources = list(sources)
        self.params = params

    @property
    def n_sources(self) -> int:
        """Number of sources."""
        return len(self.sources)

    @property
    def has_delay(self) -> bool:
        """True when any source has a positive feedback delay."""
        return any(source.delay > 0.0 for source in self.sources)

    def _source_names(self) -> List[str]:
        return [source.name or f"source-{index}"
                for index, source in enumerate(self.sources)]

    def _initial_state(self, q0: float) -> np.ndarray:
        rates = [source.initial_rate for source in self.sources]
        return np.array([q0] + rates, dtype=float)

    def _queue_drift(self, queue: float, total_rate: float) -> float:
        drift = total_rate - self.params.mu
        if queue <= 0.0 and drift < 0.0:
            return 0.0
        return drift

    def _rate_drift(self, source: SourceParameters, queue_seen: float,
                    rate: float) -> float:
        if queue_seen <= self.params.q_target:
            return source.c0
        return -source.c1 * rate

    @staticmethod
    def _project(state: np.ndarray) -> np.ndarray:
        return np.maximum(state, 0.0)

    def solve(self, q0: float = 0.0, t_end: float = 400.0,
              dt: float = 0.02) -> MultiSourceTrajectory:
        """Integrate the coupled system and return the full trajectory."""
        initial = self._initial_state(q0)

        if not self.has_delay:
            def rhs(_t: float, state: np.ndarray) -> np.ndarray:
                queue = state[0]
                rates = state[1:]
                derivatives = np.empty_like(state)
                derivatives[0] = self._queue_drift(queue, float(np.sum(rates)))
                for i, source in enumerate(self.sources):
                    derivatives[1 + i] = self._rate_drift(source, queue, rates[i])
                return derivatives

            result = integrate_fixed(rhs, initial, t_end=t_end, dt=dt,
                                     projection=self._project)
            states = result.states
            times = result.times
        else:
            def delayed_rhs(t: float, state: np.ndarray, history) -> np.ndarray:
                queue = state[0]
                rates = state[1:]
                derivatives = np.empty_like(state)
                derivatives[0] = self._queue_drift(queue, float(np.sum(rates)))
                for i, source in enumerate(self.sources):
                    if source.delay > 0.0:
                        queue_seen = float(history(t - source.delay)[0])
                    else:
                        queue_seen = queue
                    derivatives[1 + i] = self._rate_drift(source, queue_seen,
                                                          rates[i])
                return derivatives

            result = integrate_dde(delayed_rhs, initial, t_end=t_end, dt=dt,
                                   projection=self._project)
            states = result.states
            times = result.times

        return MultiSourceTrajectory(
            times=times,
            queue=states[:, 0],
            rates=states[:, 1:],
            mu=self.params.mu,
            source_names=self._source_names())
