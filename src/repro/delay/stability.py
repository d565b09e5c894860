"""Stability boundary of the delayed system: how much delay is tolerable?

Theorem 1 says zero delay converges; the Section 7 experiments show large
delays oscillate.  A natural engineering question the model can answer is
*where the boundary lies*: the critical feedback delay below which the
closed loop still settles (within a tolerance) and above which it sustains a
limit cycle.  :func:`critical_delay` locates it by bisection on the measured
steady-state oscillation amplitude of the delayed characteristic system.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemParameters
from ..control.jrj import JRJControl
from ..exceptions import ConfigurationError
from .delayed_model import DelayedSystem
from .oscillation import measure_oscillation

__all__ = ["critical_delay"]


def _steady_amplitude(params: SystemParameters, control: JRJControl,
                      delay: float, t_end: float, dt: float) -> float:
    system = DelayedSystem(control, params, delay=delay)
    trajectory = system.solve(q0=0.0, rate0=0.5 * params.mu, t_end=t_end,
                              dt=dt)
    return measure_oscillation(trajectory).queue_amplitude


def critical_delay(params: SystemParameters,
                   control: Optional[JRJControl] = None,
                   amplitude_threshold: float = 0.5,
                   delay_upper_bound: float = 20.0,
                   tolerance: float = 0.05, t_end: float = 600.0,
                   dt: float = 0.05, max_iterations: int = 30) -> float:
    """Smallest feedback delay whose steady oscillation exceeds the threshold.

    Parameters
    ----------
    params:
        System parameters (``sigma`` is ignored; the boundary is a property
        of the deterministic dynamics).
    control:
        Control law; defaults to the JRJ law built from *params*.
    amplitude_threshold:
        Steady-state queue amplitude (in packets) regarded as "oscillating".
    delay_upper_bound:
        Upper end of the search bracket; must oscillate there.
    tolerance:
        Bisection stops when the bracket is narrower than this.
    t_end, dt:
        Horizon and step of each trial integration.

    Raises
    ------
    ConfigurationError
        If even the upper bound of the bracket does not oscillate (raise the
        bound) or the undelayed system already oscillates (the law itself is
        unstable, so no delay margin exists).
    """
    if control is None:
        control = JRJControl(c0=params.c0, c1=params.c1,
                             q_target=params.q_target)
    low = 0.0
    high = float(delay_upper_bound)

    amplitude_low = _steady_amplitude(params, control, low, t_end, dt)
    if amplitude_low > amplitude_threshold:
        raise ConfigurationError(
            "the undelayed system already oscillates; no delay margin exists")
    amplitude_high = _steady_amplitude(params, control, high, t_end, dt)
    if amplitude_high <= amplitude_threshold:
        raise ConfigurationError(
            f"no oscillation up to delay {delay_upper_bound}; "
            "raise delay_upper_bound")

    for _ in range(max_iterations):
        if high - low <= tolerance:
            break
        middle = 0.5 * (low + high)
        amplitude = _steady_amplitude(params, control, middle, t_end, dt)
        if amplitude > amplitude_threshold:
            high = middle
        else:
            low = middle
    return 0.5 * (low + high)

