"""Oscillation amplitude and period versus feedback delay.

The Section 7 claim reproduced here: delayed feedback introduces cyclic
behaviour -- a limit cycle whose amplitude (and period) grow with the delay,
whereas the undelayed system converges (amplitude → 0).  The benchmark for
experiment E6 sweeps the delay and prints the resulting amplitude/period
series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import SystemParameters
from ..control.base import RateControl
from ..exceptions import AnalysisError
from ..numerics.spectral import dominant_period
from .delayed_model import DelayedSystem, DelayedTrajectory

__all__ = ["OscillationSummary", "measure_oscillation", "delay_sweep"]


@dataclass(frozen=True)
class OscillationSummary:
    """Steady-state oscillation metrics of one delayed-feedback run.

    Attributes
    ----------
    delay:
        Feedback delay of the run.
    queue_amplitude:
        Half the steady-state peak-to-trough swing of the queue length.
    rate_amplitude:
        Half the steady-state peak-to-trough swing of the arrival rate.
    period:
        Dominant oscillation period of the queue (NaN when the trajectory
        converges and has no sustained oscillation).
    sustained:
        ``True`` when the oscillation persists (limit cycle), ``False`` when
        it dies out (convergent spiral).
    mean_queue:
        Time-average queue length over the analysis window.
    """

    delay: float
    queue_amplitude: float
    rate_amplitude: float
    period: float
    sustained: bool
    mean_queue: float


def _steady_window(values: np.ndarray, fraction: float) -> np.ndarray:
    start = int((1.0 - fraction) * values.size)
    return values[max(start, 0):]


def measure_oscillation(trajectory: DelayedTrajectory) -> OscillationSummary:
    """Quantify the steady-state oscillation of a delayed-feedback run.

    The final 40% of the trajectory is treated as the steady state; the
    amplitude is half the peak-to-trough swing over that window and the
    period comes from the dominant FFT component.  Oscillations whose queue
    amplitude is at most 0.05 packets are reported as not sustained.
    """
    queue_window = _steady_window(trajectory.queue, 0.4)
    rate_window = _steady_window(trajectory.rate, 0.4)
    times_window = _steady_window(trajectory.times, 0.4)
    if queue_window.size < 8:
        raise AnalysisError("trajectory too short for oscillation analysis")

    queue_amplitude = 0.5 * float(np.max(queue_window) - np.min(queue_window))
    rate_amplitude = 0.5 * float(np.max(rate_window) - np.min(rate_window))
    sustained = queue_amplitude > 0.05

    period = float("nan")
    if sustained:
        # Above the floor the window's power is far above dominant_period's
        # 1e-12 relative threshold, so it always finds a period.
        dt = float(np.mean(np.diff(times_window)))
        period = dominant_period(queue_window, dt)

    return OscillationSummary(
        delay=trajectory.delay,
        queue_amplitude=queue_amplitude,
        rate_amplitude=rate_amplitude,
        period=period,
        sustained=sustained,
        mean_queue=float(np.mean(queue_window)))


def delay_sweep(control: RateControl, params: SystemParameters,
                delays: Sequence[float], t_end: float = 600.0,
                dt: float = 0.02) -> List[OscillationSummary]:
    """Run the delayed system for each delay value and summarise the oscillation.

    Parameters
    ----------
    control, params:
        Control law and system parameters shared across the sweep.
    delays:
        Feedback delays to sweep (zero is allowed and gives the convergent
        baseline).
    t_end, dt:
        Integration horizon and step for every run, each from an empty queue
        at rate ``μ/2``.
    """
    rate0 = 0.5 * params.mu
    summaries: List[OscillationSummary] = []
    for delay in delays:
        system = DelayedSystem(control, params, delay=float(delay))
        trajectory = system.solve(q0=0.0, rate0=rate0, t_end=t_end, dt=dt)
        summaries.append(measure_oscillation(trajectory))
    return summaries
