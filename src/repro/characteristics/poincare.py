"""Poincaré return map of the characteristic system.

The proof of Theorem 1 follows the characteristic from one crossing of the
switching line ``q = q̂`` to the next and shows the excursion shrinks.  A
Poincaré section makes that argument computable for *any* control law and
*any* delay: record the state each time the trajectory crosses the section
(here: downward crossings of ``q = q̂``, i.e. entering the under-loaded half
plane), and study the induced one-dimensional return map on the crossing
amplitude.

* For a convergent spiral the return map's fixed point is the limit point
  and its slope (the contraction factor) is below one.
* For a limit cycle the crossing amplitudes approach a positive fixed point
  with |slope| reaching one from below (neutral), which is how the
  delay-induced cycles of Section 7 show up in this representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import AnalysisError
from .trajectory import CharacteristicTrajectory

__all__ = ["PoincareSection", "compute_poincare_section"]


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

