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
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import AnalysisError
from ..numerics.spectral import detect_peaks
from .trajectory import CharacteristicBatch, CharacteristicTrajectory

__all__ = [
    "SpiralAnalysis",
    "analyze_spiral",
    "analyze_spiral_batch",
    "peak_contraction_ratios",
    "is_convergent_spiral",
]


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


def analyze_spiral(trajectory: CharacteristicTrajectory,
                   settle_fraction: float = 0.3,
                   amplitude_floor: float = 1e-3) -> SpiralAnalysis:
    """Analyse the queue-peak sequence of *trajectory*.

    Parameters
    ----------
    trajectory:
        A characteristic (or delayed-characteristic) trajectory.
    settle_fraction:
        Fraction of the final peaks used to estimate the limit-cycle
        amplitude (at least one peak).
    amplitude_floor:
        Amplitudes below this value (in packets) are treated as zero when
        deciding convergence.

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

    positive = peak_amplitudes > amplitude_floor
    ratios = peak_contraction_ratios(peak_amplitudes[positive])

    n_tail = max(1, int(round(settle_fraction * peak_amplitudes.size)))
    tail_amplitude = float(np.mean(peak_amplitudes[-n_tail:]))

    if peak_amplitudes.size == 1:
        converges = tail_amplitude <= amplitude_floor or True
        # A single overshoot followed by settling is the convergent case.
        converges = True
    elif ratios.size == 0:
        converges = True
    else:
        final_ratio = float(ratios[-1])
        shrinking = final_ratio < 0.98
        vanished = tail_amplitude <= max(amplitude_floor,
                                         0.05 * float(np.max(peak_amplitudes)))
        converges = shrinking or vanished

    return SpiralAnalysis(peak_times=peak_times,
                          peak_amplitudes=peak_amplitudes,
                          contraction_ratios=ratios,
                          converges=converges,
                          limit_cycle_amplitude=tail_amplitude)


def analyze_spiral_batch(batch: CharacteristicBatch,
                         settle_fraction: float = 0.3,
                         amplitude_floor: float = 1e-3
                         ) -> List[Optional[SpiralAnalysis]]:
    """Peak/contraction extraction for every member of a characteristic batch.

    Each member goes through exactly :func:`analyze_spiral` (the extraction
    is shared, so batched sweeps report the same peaks, contraction ratios
    and verdicts as their scalar counterparts).  Members without any queue
    peak -- the monotone-settling case that makes the scalar function raise
    -- are reported as ``None`` so one featureless trajectory cannot abort
    a whole sweep.
    """
    analyses: List[Optional[SpiralAnalysis]] = []
    for index in range(batch.batch_size):
        try:
            analyses.append(analyze_spiral(batch.trajectory(index),
                                           settle_fraction=settle_fraction,
                                           amplitude_floor=amplitude_floor))
        except AnalysisError:
            analyses.append(None)
    return analyses


def is_convergent_spiral(trajectory: CharacteristicTrajectory,
                         amplitude_floor: float = 1e-3) -> bool:
    """Convenience predicate: does the trajectory converge to the limit point?

    Trajectories with no peaks at all (monotone settling) count as
    convergent.
    """
    try:
        analysis = analyze_spiral(trajectory, amplitude_floor=amplitude_floor)
    except AnalysisError:
        return True
    return analysis.converges
