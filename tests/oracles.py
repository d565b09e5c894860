"""Scalar oracles the tests compare the library's batched paths against.

Nothing a user runs calls these; they exist for differential testing, so
they live with the tests:

- :func:`settling_time` is the per-trajectory form of
  ``CharacteristicBatch.settling_times``;
- :func:`score_operating_point` scores one gain choice through the scalar
  integrator and analyses, the reference for ``score_gain_grid``;
- :func:`compute_poincare_section` and :class:`PoincareSection` section a
  trajectory at ``q = q̂``, and :func:`is_convergent_spiral` asks whether
  its peaks shrink: both judge members of batched characteristic runs.

Poincaré sections.  The proof of Theorem 1 follows the characteristic from
one crossing of the switching line ``q = q̂`` to the next and shows the
excursion shrinks.  A Poincaré section makes that argument computable for
*any* control law and *any* delay: record the state each time the
trajectory crosses the section (here: downward crossings of ``q = q̂``,
i.e. entering the under-loaded half plane), and study the induced
one-dimensional return map on the crossing amplitude.

* For a convergent spiral the return map's fixed point is the limit point
  and its slope (the contraction factor) is below one.
* For a limit cycle the crossing amplitudes approach a positive fixed point
  with |slope| reaching one from below (neutral), which is how the
  delay-induced cycles of Section 7 show up in this representation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.analysis.oscillations import oscillation_metrics
from repro.characteristics.limit_cycle import analyze_spiral
from repro.characteristics.trajectory import (CharacteristicTrajectory,
                                              integrate_characteristic)
from repro.config import SystemParameters
from repro.control.jrj import JRJControl
from repro.design.objectives import (ObjectiveWeights, OperatingPointScore,
                                     combine_score, deployment_unfairness)
from repro.exceptions import AnalysisError


def settling_time(trajectory: CharacteristicTrajectory,
                  tolerance: float) -> float:
    """Earliest time after which the queue stays near its final value.

    The band is relative to the final queue with an absolute floor of
    *tolerance*.  It never raises: the final sample is always inside its
    own band, so a still-oscillating path simply reports a time near the
    horizon -- the behaviour gain-design scoring needs.
    """
    final = float(trajectory.queue[-1])
    band = max(tolerance * abs(final), tolerance)
    inside = np.abs(trajectory.queue - final) <= band
    settled = np.logical_and.accumulate(inside[::-1])[::-1]
    return float(trajectory.times[int(np.argmax(settled))])


def score_operating_point(params: SystemParameters, c0: float, c1: float,
                          q_target: float, mu: float, *,
                          weights: Optional[ObjectiveWeights] = None,
                          t_end: float = 150.0,
                          dt: float = 0.1) -> OperatingPointScore:
    """Score one gain choice through the scalar trajectory path.

    Runs the non-batched integrator and analysis routines end to end, with
    ``score_gain_grid``'s start point, analysis window and settling band;
    because the batched engine is member-wise bit-identical to the scalar
    one, the result equals the corresponding ``score_gain_grid`` entry
    exactly.
    """
    weights = weights if weights is not None else ObjectiveWeights()
    point_params = replace(params, mu=float(mu))
    control = JRJControl(c0=float(c0), c1=float(c1),
                         q_target=float(q_target))
    trajectory = integrate_characteristic(control, point_params, 0.0, 0.0,
                                          t_end=t_end, dt=dt)
    oscillation = oscillation_metrics(trajectory.times, trajectory.queue)
    relaxation = settling_time(trajectory, 0.1)
    queue_error = abs(oscillation.mean_value - float(q_target))
    unfairness = float(deployment_unfairness(float(c0), float(c1),
                                             params.c0, params.c1))
    q_scale = max(float(q_target), 1.0)
    score = float(combine_score(weights, oscillation.amplitude, relaxation,
                                queue_error, unfairness, q_scale, t_end))
    return OperatingPointScore(
        c0=float(c0), c1=float(c1), q_target=float(q_target), mu=float(mu),
        oscillation_amplitude=oscillation.amplitude,
        oscillation_period=oscillation.period,
        relaxation_time=relaxation, queue_error=queue_error,
        unfairness=unfairness, score=score)


def is_convergent_spiral(trajectory: CharacteristicTrajectory) -> bool:
    """Does the trajectory converge to the limit point?

    Trajectories with no peaks at all (monotone settling) count as
    convergent.
    """
    try:
        return analyze_spiral(trajectory).converges
    except AnalysisError:
        return True


@dataclass
class PoincareSection:
    """Successive crossings of the ``q = q̂`` section and the induced return map.

    Attributes
    ----------
    crossing_times:
        Times of the recorded crossings (one direction only).
    crossing_rates:
        Arrival rate ``λ`` at each crossing -- the section coordinate.
    mu:
        Service rate, for converting rates to excursions ``|λ − μ|``.
    """

    crossing_times: np.ndarray
    crossing_rates: np.ndarray
    mu: float

    @property
    def n_crossings(self) -> int:
        """Number of recorded crossings."""
        return int(self.crossing_rates.size)

    @property
    def excursions(self) -> np.ndarray:
        """Rate excursions ``|λ − μ|`` at the crossings."""
        return np.abs(self.crossing_rates - self.mu)

    def return_map(self) -> np.ndarray:
        """Pairs ``(x_k, x_{k+1})`` of successive excursions, shape ``(n-1, 2)``."""
        excursions = self.excursions
        if excursions.size < 2:
            return np.zeros((0, 2))
        return np.column_stack([excursions[:-1], excursions[1:]])

    def contraction_factor(self) -> float:
        """Least-squares slope of the return map through the origin.

        A value below one means successive excursions shrink (convergent
        spiral); a value of one means they are preserved (limit cycle).

        Raises
        ------
        AnalysisError
            With fewer than two crossings.
        """
        pairs = self.return_map()
        if pairs.shape[0] < 1:
            raise AnalysisError("need at least two crossings for a return map")
        x = pairs[:, 0]
        y = pairs[:, 1]
        denominator = float(np.dot(x, x))
        if denominator <= 0.0:
            return 0.0
        return float(np.dot(x, y) / denominator)

    def converges(self, tolerance: float = 0.02) -> bool:
        """True when the return map contracts (factor below ``1 − tolerance``)."""
        try:
            return self.contraction_factor() < 1.0 - tolerance
        except AnalysisError:
            return True

    def cycle_period_estimate(self) -> float:
        """Mean time between successive crossings (NaN with fewer than two)."""
        if self.crossing_times.size < 2:
            return float("nan")
        return float(np.mean(np.diff(self.crossing_times)))


def compute_poincare_section(trajectory: CharacteristicTrajectory,
                             direction: str = "down",
                             skip_fraction: float = 0.0) -> PoincareSection:
    """Record crossings of ``q = q̂`` along *trajectory*.

    Parameters
    ----------
    trajectory:
        The characteristic (or delayed) trajectory to section.
    direction:
        ``"down"`` records crossings where the queue falls through the
        target (entering the increase region), ``"up"`` the opposite,
        ``"both"`` records every crossing.
    skip_fraction:
        Fraction of the initial samples to ignore (drop the transient when
        studying the asymptotic map).

    Raises
    ------
    AnalysisError
        If no crossing is found or the direction keyword is invalid.
    """
    if direction not in ("down", "up", "both"):
        raise AnalysisError("direction must be 'down', 'up' or 'both'")

    start = int(skip_fraction * trajectory.times.size)
    times = trajectory.times[start:]
    queue = trajectory.queue[start:]
    rate = trajectory.rate[start:]
    offset = queue - trajectory.q_target

    # Vectorized crossing scan: the masks and the interpolation below apply
    # the per-sample loop's arithmetic element-wise, so the recorded
    # crossings are bit-identical to the scalar scan.
    previous = offset[:-1]
    current = offset[1:]
    changed = previous != current
    crossed_down = (previous > 0.0) & (current <= 0.0)
    crossed_up = (previous < 0.0) & (current >= 0.0)
    if direction == "down":
        wanted = crossed_down
    elif direction == "up":
        wanted = crossed_up
    else:
        wanted = crossed_down | crossed_up
    indices = np.nonzero(changed & wanted)[0] + 1

    if indices.size == 0:
        raise AnalysisError("trajectory never crosses the q = q_target section")

    previous = offset[indices - 1]
    fraction = previous / (previous - offset[indices])
    crossing_times = times[indices - 1] \
        + fraction * (times[indices] - times[indices - 1])
    crossing_rates = rate[indices - 1] \
        + fraction * (rate[indices] - rate[indices - 1])
    return PoincareSection(crossing_times=crossing_times,
                           crossing_rates=crossing_rates,
                           mu=trajectory.mu)
