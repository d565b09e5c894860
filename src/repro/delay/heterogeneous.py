"""Unfairness under heterogeneous feedback delays (Section 7).

When two (or more) sources share the bottleneck but receive their feedback
after *different* delays -- the long-haul connection versus the short one --
the algorithm allocates them unequal throughput: the source with the longer
feedback path reacts later to both congestion onset and congestion relief
and ends up with the smaller share.  This is the mechanism behind the
unfairness observed in Jacobson's measurements and Zhang's simulations that
the paper identifies.

:func:`heterogeneous_delay_experiment` runs the coupled multi-source DDE for
a given vector of delays and reports per-source throughput, shares and the
Jain index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import SourceParameters, SystemParameters
from ..multisource.fairness import jain_fairness_index
from ..multisource.model import MultiSourceModel, MultiSourceTrajectory

__all__ = [
    "HeterogeneousDelayResult",
    "heterogeneous_delay_experiment",
]


@dataclass
class HeterogeneousDelayResult:
    """Per-source outcome of one heterogeneous-delay run.

    Attributes
    ----------
    delays:
        Feedback delay of each source.
    throughputs:
        Time-average rate achieved by each source.
    shares:
        Normalised shares (throughputs divided by their sum).
    jain_index:
        Jain fairness index of the throughputs.
    trajectory:
        The full multi-source trajectory (kept for oscillation inspection).
    """

    delays: np.ndarray
    throughputs: np.ndarray
    shares: np.ndarray
    jain_index: float
    trajectory: MultiSourceTrajectory

    @property
    def throughput_ratio_long_to_short(self) -> float:
        """Throughput of the longest-delay source over the shortest-delay one.

        A value below one means the long-delay source is disadvantaged --
        the paper's unfairness claim.
        """
        longest = int(np.argmax(self.delays))
        shortest = int(np.argmin(self.delays))
        short_throughput = self.throughputs[shortest]
        if short_throughput <= 0.0:
            return float("nan")
        return float(self.throughputs[longest] / short_throughput)


def heterogeneous_delay_experiment(params: SystemParameters,
                                   delays: Sequence[float],
                                   t_end: float = 800.0, dt: float = 0.02
                                   ) -> HeterogeneousDelayResult:
    """Run N sources with identical control parameters but different delays.

    All sources use the ``(C0, C1)`` of *params* and start from an empty
    queue, so any throughput difference is attributable purely to the delay
    difference -- the controlled comparison Section 7 argues from.  The
    throughputs average the last 60% of the run.
    """
    sources = [
        SourceParameters(c0=params.c0, c1=params.c1, delay=float(delay),
                         initial_rate=params.mu / (2.0 * len(delays)),
                         name=f"delay-{delay:g}")
        for delay in delays
    ]
    model = MultiSourceModel(sources, params)
    trajectory = model.solve(q0=0.0, t_end=t_end, dt=dt)
    throughputs = trajectory.time_average_rates(0.4)
    total = float(np.sum(throughputs))
    shares = (throughputs / total if total > 0.0
              else np.full(len(sources), 1.0 / len(sources)))
    return HeterogeneousDelayResult(
        delays=np.asarray(list(delays), dtype=float),
        throughputs=throughputs,
        shares=shares,
        jain_index=jain_fairness_index(throughputs),
        trajectory=trajectory)

