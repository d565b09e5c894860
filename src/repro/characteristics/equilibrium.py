"""Equilibrium location of the reduced system.

The limit point identified by Theorem 1 is the state where both drifts
vanish: ``dq/dt = λ − μ = 0`` (so ``λ = μ``) and ``dλ/dt = g(q, λ) = 0``.
For the JRJ law ``g`` never vanishes pointwise (it is ``+C0`` on one side of
the switching line and ``−C1 λ`` on the other); the equilibrium is instead
the sliding point on the switching line ``q = q̂`` that the spiral contracts
towards.  :func:`find_equilibrium` handles both situations -- a genuine zero
of the vector field when one exists, and the switching-line limit point
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemParameters
from ..control.base import RateControl

__all__ = ["Equilibrium", "find_equilibrium"]


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium (or switching-line limit point) of the reduced system.

    Attributes
    ----------
    queue:
        Queue length at the equilibrium.
    rate:
        Arrival rate at the equilibrium.
    is_sliding:
        ``True`` when the point is a limit point on the control law's
        switching line (the generic situation for the JRJ law) rather than a
        pointwise zero of the vector field.
    """

    queue: float
    rate: float
    is_sliding: bool

    @property
    def growth_rate(self) -> float:
        """Growth rate ``ν`` at the equilibrium (zero by construction)."""
        return 0.0


def find_equilibrium(control: RateControl, params: SystemParameters
                     ) -> Equilibrium:
    """Locate the operating point the reduced system converges to.

    The arrival-rate coordinate is always ``μ`` (the queue neither grows nor
    drains there).  The queue coordinate is the control law's target queue
    ``q̂`` when the law has one (the JRJ and linear laws expose
    ``q_target``); otherwise a bisection over ``q`` looks for a zero of
    ``g(q, μ)``.
    """
    q_target = getattr(control, "q_target", None)
    if q_target is not None:
        drift_below = float(np.asarray(control.drift(max(q_target - 1e-6, 0.0),
                                                     params.mu)))
        drift_above = float(np.asarray(control.drift(q_target + 1e-6, params.mu)))
        sliding = drift_below > 0.0 > drift_above
        return Equilibrium(queue=float(q_target), rate=params.mu,
                           is_sliding=sliding)

    # Generic law: search for a genuine zero of g(q, mu) on a wide interval.
    q_low, q_high = 0.0, max(10.0 * params.q_target, 100.0)
    samples = np.linspace(q_low, q_high, 2001)
    drifts = np.asarray(control.drift(samples, np.full_like(samples, params.mu)))
    sign_changes = np.where(np.sign(drifts[:-1]) * np.sign(drifts[1:]) < 0)[0]
    if sign_changes.size == 0:
        raise ValueError("control law has no equilibrium queue in the search range")
    index = int(sign_changes[0])
    # Linear interpolation of the crossing.
    q0, q1 = samples[index], samples[index + 1]
    d0, d1 = drifts[index], drifts[index + 1]
    q_star = q0 if d1 == d0 else q0 - d0 * (q1 - q0) / (d1 - d0)
    return Equilibrium(queue=float(q_star), rate=params.mu, is_sliding=False)
