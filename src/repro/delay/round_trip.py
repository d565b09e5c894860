"""Per-round-trip rate updates: the discrete origin of delay unfairness.

The continuous delayed model of :mod:`repro.delay.delayed_model` treats the
feedback delay purely as a *phase lag*.  For sources whose decrease is
multiplicative, a pure phase lag shifts each source's periodic rate waveform
in time without changing its average, so heterogeneous delays alone produce
only a weak throughput imbalance (this is measurable with
:func:`repro.delay.heterogeneous.heterogeneous_delay_experiment`; experiment
E7, ``benchmarks/bench_heterogeneous_delay_unfairness.py``, sets it beside
the per-round-trip updates below).

The unfairness the paper (and Jacobson's measurements, and Zhang's
simulations) attribute to longer feedback paths has a second ingredient: the
end point adjusts its window/rate *once per round trip*.  A connection with
a feedback delay twice as long therefore applies its additive increase half
as often per unit time, while the multiplicative decrease -- triggered per
congestion episode, not per round trip -- is unaffected.  The sliding-
equilibrium share formula of Section 6 then gives

    share_i ∝ (C0_i / τ_i) / C1_i,

i.e. throughput inversely proportional to the feedback delay for otherwise
identical sources.  :class:`RoundTripUpdateModel` simulates exactly this
discrete-update system (shared fluid queue, per-source update timers) so the
unfairness experiment E7 can quantify the effect and compare it against the
packet-level window simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import SourceParameters, SystemParameters
from ..exceptions import ConfigurationError
from ..multisource.fairness import jain_fairness_index
from ..multisource.model import MultiSourceTrajectory

__all__ = ["RoundTripUpdateModel", "predicted_round_trip_shares"]


def predicted_round_trip_shares(sources: Sequence[SourceParameters]) -> np.ndarray:
    """Predicted shares when each source updates once per its own round trip.

    The per-unit-time increase rate of source ``i`` becomes ``C0ᵢ / τᵢ``
    (one additive step of size ``C0ᵢ`` every ``τᵢ``), so the Section 6 share
    formula gives shares proportional to ``C0ᵢ / (τᵢ C1ᵢ)``.
    """
    if len(sources) == 0:
        raise ConfigurationError("need at least one source")
    weights = np.array([
        source.c0 / (max(source.delay, 1e-9) * source.c1)
        for source in sources
    ])
    return weights / float(np.sum(weights))


@dataclass
class RoundTripUpdateResult:
    """Outcome of one round-trip-update simulation.

    Attributes
    ----------
    trajectory:
        Queue and per-source rate series (same container as the continuous
        multi-source model so the analysis helpers apply unchanged).
    throughputs:
        Per-source time-average rates over the measurement window.
    shares:
        Normalised throughput shares.
    predicted_shares:
        Shares from :func:`predicted_round_trip_shares`.
    jain_index:
        Jain fairness index of the throughputs.
    """

    trajectory: MultiSourceTrajectory
    throughputs: np.ndarray
    shares: np.ndarray
    predicted_shares: np.ndarray
    jain_index: float

    @property
    def throughput_ratio_long_to_short(self) -> float:
        """Throughput of the longest-delay source over the shortest-delay one."""
        delays = np.array([float(name.split("-")[-1])
                           if name.startswith("delay-") else 0.0
                           for name in self.trajectory.source_names])
        longest = int(np.argmax(delays))
        shortest = int(np.argmin(delays))
        short_throughput = self.throughputs[shortest]
        if short_throughput <= 0.0:
            return float("nan")
        return float(self.throughputs[longest] / short_throughput)


class RoundTripUpdateModel:
    """Shared fluid queue driven by sources that update once per round trip.

    Between updates every source sends at its current (constant) rate; the
    queue integrates ``Σλᵢ − μ`` exactly over each simulation step.  At each
    of its update instants (spaced by its own delay ``τᵢ``) source ``i``
    looks at the queue as it was one round trip ago and applies

        λᵢ ← λᵢ + C0ᵢ            if Q(t − τᵢ) ≤ q̂,
        λᵢ ← λᵢ · exp(−C1ᵢ τᵢ)   otherwise,

    i.e. the integral of the continuous JRJ law over one update interval.

    Parameters
    ----------
    sources:
        Per-source parameters; ``delay`` must be positive for every source
        (it is both the feedback lag and the update interval).
    params:
        Shared system parameters.
    """

    def __init__(self, sources: Sequence[SourceParameters],
                 params: SystemParameters):
        if not sources:
            raise ConfigurationError("need at least one source")
        if any(source.delay <= 0.0 for source in sources):
            raise ConfigurationError(
                "round-trip-update model requires a positive delay per source")
        self.sources = list(sources)
        self.params = params

    def run(self, q0: float = 0.0, t_end: float = 2000.0, dt: float = 0.05,
            skip_fraction: float = 0.3) -> RoundTripUpdateResult:
        """Simulate the discrete-update system and summarise the shares."""
        n = len(self.sources)
        n_steps = int(np.ceil(t_end / dt))
        rates = np.array([max(source.initial_rate, 1e-3)
                          for source in self.sources])
        next_update = np.array([source.delay for source in self.sources])

        times = np.empty(n_steps + 1)
        queue_series = np.empty(n_steps + 1)
        rate_series = np.empty((n_steps + 1, n))
        queue = float(q0)
        times[0] = 0.0
        queue_series[0] = queue
        rate_series[0] = rates

        # Ring buffer of past queue values for the delayed lookups.
        max_delay_steps = int(np.ceil(max(s.delay for s in self.sources) / dt)) + 1
        history = np.full(max_delay_steps + 1, q0)
        head = 0

        t = 0.0
        for step in range(1, n_steps + 1):
            total_rate = float(np.sum(rates))
            queue = max(queue + (total_rate - self.params.mu) * dt, 0.0)
            t += dt
            head = (head + 1) % (max_delay_steps + 1)
            history[head] = queue

            for i, source in enumerate(self.sources):
                if t + 1e-12 >= next_update[i]:
                    delay_steps = min(int(round(source.delay / dt)),
                                      max_delay_steps)
                    seen_index = (head - delay_steps) % (max_delay_steps + 1)
                    queue_seen = history[seen_index]
                    if queue_seen <= self.params.q_target:
                        rates[i] = rates[i] + source.c0
                    else:
                        rates[i] = rates[i] * np.exp(-source.c1 * source.delay)
                    rates[i] = max(rates[i], 1e-3)
                    next_update[i] += source.delay

            times[step] = t
            queue_series[step] = queue
            rate_series[step] = rates

        names = [source.name or f"delay-{source.delay:g}"
                 for source in self.sources]
        trajectory = MultiSourceTrajectory(times=times, queue=queue_series,
                                           rates=rate_series,
                                           mu=self.params.mu,
                                           source_names=names)
        throughputs = trajectory.time_average_rates(skip_fraction)
        total = float(np.sum(throughputs))
        shares = (throughputs / total if total > 0.0
                  else np.full(n, 1.0 / n))
        return RoundTripUpdateResult(
            trajectory=trajectory,
            throughputs=throughputs,
            shares=shares,
            predicted_shares=predicted_round_trip_shares(self.sources),
            jain_index=jain_fairness_index(throughputs))
