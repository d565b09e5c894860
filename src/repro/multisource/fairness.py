"""Fairness analysis and the exact equilibrium-share formula (Section 6).

Without feedback delay the coupled multi-source system slides along the
switching surface ``Q = q̂`` with ``Σᵢ λᵢ = μ``.  On the surface each source
alternates between its increase drift ``+C0ᵢ`` and its decrease drift
``−C1ᵢ λᵢ``; writing ``α`` for the fraction of time spent on the increase
side, the sliding (average) dynamics of source ``i`` are

    dλᵢ/dt = α C0ᵢ − (1 − α) C1ᵢ λᵢ.

At the sliding equilibrium every right-hand side vanishes, so

    λᵢ* ∝ C0ᵢ / C1ᵢ,           and with  Σᵢ λᵢ* = μ:

    λᵢ* = μ · (C0ᵢ / C1ᵢ) / Σⱼ (C0ⱼ / C1ⱼ).

This is the paper's Section 6 statement made concrete: equal parameters give
equal shares (fairness), and unequal parameters give shares in exact
proportion to ``C0ᵢ / C1ᵢ``.  The helpers below compute the prediction,
extract the observed shares from a :class:`MultiSourceTrajectory` (or any
throughput vector) and summarise both with Jain's fairness index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import SourceParameters
from ..exceptions import AnalysisError
from .model import MultiSourceTrajectory

__all__ = [
    "predicted_equilibrium_shares",
    "jain_fairness_index",
    "FairnessReport",
    "fairness_report",
]


def predicted_equilibrium_shares(sources: Sequence[SourceParameters]) -> np.ndarray:
    """Predicted share of the bottleneck for each source (sums to one).

    The share of source ``i`` is ``(C0ᵢ/C1ᵢ) / Σⱼ (C0ⱼ/C1ⱼ)`` -- the sliding
    equilibrium of the coupled no-delay dynamics.
    """
    if len(sources) == 0:
        raise AnalysisError("need at least one source")
    ratios = np.array([source.c0 / source.c1 for source in sources], dtype=float)
    return ratios / float(np.sum(ratios))


def jain_fairness_index(throughputs: Sequence[float]) -> float:
    """Jain's fairness index ``(Σ xᵢ)² / (n Σ xᵢ²)``.

    Equals one when all throughputs are equal and approaches ``1/n`` when a
    single source takes everything.
    """
    values = np.asarray(list(throughputs), dtype=float)
    if values.size == 0:
        raise AnalysisError("need at least one throughput value")
    if np.any(values < 0.0):
        raise AnalysisError("throughputs must be non-negative")
    peak = float(np.max(values))
    if peak == 0.0:
        return 1.0
    # The index is scale-invariant.  Dividing by the largest value first
    # keeps (Σ x)² and Σ x² inside the normal floating-point range, where
    # tiny throughputs would otherwise underflow and huge ones overflow.
    scaled = values / peak
    total = float(np.sum(scaled))
    return total * total / (values.size * float(np.sum(scaled * scaled)))


@dataclass
class FairnessReport:
    """Predicted versus observed shares for one multi-source run.

    Attributes
    ----------
    source_names:
        Labels of the sources.
    predicted_shares:
        Shares from the closed-form sliding-equilibrium formula.
    observed_shares:
        Shares measured from the trajectory's time-average rates.
    observed_rates:
        The time-average rates themselves.
    jain_index:
        Jain fairness index of the observed rates.
    max_share_error:
        Largest absolute difference between predicted and observed shares.
    """

    source_names: List[str]
    predicted_shares: np.ndarray
    observed_shares: np.ndarray
    observed_rates: np.ndarray
    jain_index: float
    max_share_error: float

    def rows(self) -> List[dict]:
        """Table rows (one per source) for report printing."""
        return [
            {
                "source": name,
                "predicted_share": float(self.predicted_shares[i]),
                "observed_share": float(self.observed_shares[i]),
                "observed_rate": float(self.observed_rates[i]),
            }
            for i, name in enumerate(self.source_names)
        ]


def fairness_report(trajectory: MultiSourceTrajectory,
                    sources: Sequence[SourceParameters]) -> FairnessReport:
    """Compare a simulated multi-source run against the share prediction.

    The observed rates average the run's last 70%.
    """
    if trajectory.n_sources != len(sources):
        raise AnalysisError(
            "trajectory and source list disagree on the number of sources")
    predicted = predicted_equilibrium_shares(sources)
    observed_rates = trajectory.time_average_rates(0.3)
    total = float(np.sum(observed_rates))
    observed_shares = (observed_rates / total if total > 0.0
                       else np.full(len(sources), 1.0 / len(sources)))
    return FairnessReport(
        source_names=list(trajectory.source_names),
        predicted_shares=predicted,
        observed_shares=observed_shares,
        observed_rates=observed_rates,
        jain_index=jain_fairness_index(observed_rates),
        max_share_error=float(np.max(np.abs(predicted - observed_shares))))
