"""Spiral-versus-limit-cycle diagnosis of characteristic trajectories.

The paper's central qualitative results are phrased in exactly these terms:

* without feedback delay, the JRJ characteristic is a **convergent spiral**
  homing in on the limit point ``(q̂, μ)`` (Theorem 1, Figure 3);
* with feedback delay (Section 7), or for the linear-decrease algorithm,
  the trajectory settles onto a **limit cycle** -- sustained oscillations.

The discriminator used here is the sequence of successive excursions of the
queue above the target: for a convergent spiral the peak heights contract
(ratio < 1 and the amplitude goes to zero), for a limit cycle they approach
a positive constant (ratio → 1 with non-vanishing amplitude).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import AnalysisError
from ..numerics.spectral import detect_peaks
from .trajectory import CharacteristicTrajectory

__all__ = [
    "SpiralAnalysis",
    "analyze_spiral",
    "peak_contraction_ratios",
]

#: Peak amplitudes (packets) at or below this count as zero.
_AMPLITUDE_FLOOR = 1e-3


@dataclass(frozen=True)
class SpiralAnalysis:
    """Summary of the convergence behaviour of one trajectory.

    Attributes
    ----------
    peak_times:
        Times of successive queue-length peaks.
    peak_amplitudes:
        Peak queue excursions above the target ``q̂`` (non-negative).
    contraction_ratios:
        Ratios of successive peak amplitudes.
    converges:
        ``True`` when the amplitudes contract towards zero.
    limit_cycle_amplitude:
        Mean amplitude of the last few peaks -- effectively zero for a
        convergent spiral and positive for a limit cycle.
    """

    peak_times: np.ndarray
    peak_amplitudes: np.ndarray
    contraction_ratios: np.ndarray
    converges: bool
    limit_cycle_amplitude: float

    @property
    def n_oscillations(self) -> int:
        """Number of queue-length peaks observed."""
        return int(self.peak_amplitudes.size)

    @property
    def mean_contraction(self) -> float:
        """Mean of the successive-peak ratios (NaN when fewer than two peaks)."""
        if self.contraction_ratios.size == 0:
            return float("nan")
        return float(np.mean(self.contraction_ratios))


def peak_contraction_ratios(amplitudes: Sequence[float]) -> np.ndarray:
    """Ratios ``a_{k+1} / a_k`` of successive positive amplitudes."""
    amplitudes = np.asarray([a for a in amplitudes if a > 0.0], dtype=float)
    if amplitudes.size < 2:
        return np.zeros(0)
    return amplitudes[1:] / amplitudes[:-1]


def analyze_spiral(trajectory: CharacteristicTrajectory) -> SpiralAnalysis:
    """Analyse the queue-peak sequence of *trajectory*.

    The limit-cycle amplitude is the mean of the last 30% of the peaks (at
    least one), and peak amplitudes at or below ``_AMPLITUDE_FLOOR``
    packets count as zero when deciding convergence.

    Raises
    ------
    AnalysisError
        If the trajectory contains no queue-length peaks at all (e.g. a
        monotone approach) -- callers treat that case as trivially
        convergent and should catch the exception where appropriate.
    """
    excursion = trajectory.queue - trajectory.q_target
    peak_indices = detect_peaks(trajectory.queue)
    if not peak_indices:
        raise AnalysisError("trajectory has no queue-length peaks to analyse")

    peak_indices = np.asarray(peak_indices, dtype=int)
    peak_times = trajectory.times[peak_indices]
    peak_amplitudes = np.maximum(excursion[peak_indices], 0.0)

    positive = peak_amplitudes > _AMPLITUDE_FLOOR
    ratios = peak_contraction_ratios(peak_amplitudes[positive])

    n_tail = max(1, int(round(0.3 * peak_amplitudes.size)))
    tail_amplitude = float(np.mean(peak_amplitudes[-n_tail:]))

    if peak_amplitudes.size == 1 or ratios.size == 0:
        # A single overshoot followed by settling is the convergent case.
        converges = True
    else:
        final_ratio = float(ratios[-1])
        shrinking = final_ratio < 0.98
        vanished = tail_amplitude <= max(_AMPLITUDE_FLOOR,
                                         0.05 * float(np.max(peak_amplitudes)))
        converges = shrinking or vanished

    return SpiralAnalysis(peak_times=peak_times,
                          peak_amplitudes=peak_amplitudes,
                          contraction_ratios=ratios,
                          converges=converges,
                          limit_cycle_amplitude=tail_amplitude)
