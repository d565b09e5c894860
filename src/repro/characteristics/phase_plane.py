"""Quadrant-by-quadrant drift analysis of the phase plane (Figure 2).

The lines ``q = q̂`` and ``ν = 0`` divide the ``(q, ν)`` plane into four
quadrants.  Section 5 of the paper reads the direction of the characteristic
in each quadrant off the signs of the two drifts:

* the Q-drift is ``ν`` (positive above the ``ν = 0`` line, negative below),
* the ν-drift is ``g(q, λ)`` (``+C0`` left of the ``q = q̂`` line, ``−C1 λ``
  right of it for the JRJ law).

Quadrant I (ν > 0, q < q̂): both drifts positive → up and to the right.
Quadrant II (ν > 0, q > q̂): Q-drift positive, ν-drift negative.
Quadrant III (ν < 0, q > q̂): both negative.
Quadrant IV (ν < 0, q < q̂): Q-drift negative, ν-drift positive.

The resulting rotation (I → II → III → IV → I) is what makes the trajectory
a cycle or spiral.  :func:`quadrant_drift_table` evaluates the actual signs
from the control law so the benchmark for Figure 2 reproduces the table, and
:func:`drift_field` samples the full vector field for phase-portrait output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..config import SystemParameters
from ..control.base import RateControl

__all__ = ["QuadrantDrift", "quadrant_drift_table", "drift_field"]

_QUADRANT_DEFINITIONS = [
    ("I", "q < q_target, v > 0"),
    ("II", "q > q_target, v > 0"),
    ("III", "q > q_target, v < 0"),
    ("IV", "q < q_target, v < 0"),
]


@dataclass(frozen=True)
class QuadrantDrift:
    """Signs of the Q- and ν-drift in one quadrant of the phase plane."""

    quadrant: str
    description: str
    q_drift_sign: int
    v_drift_sign: int
    sample_point: Tuple[float, float]

    @property
    def direction(self) -> str:
        """Compass-style description of the characteristic direction."""
        vertical = {1: "up", -1: "down", 0: "flat"}[self.v_drift_sign]
        horizontal = {1: "right", -1: "left", 0: "still"}[self.q_drift_sign]
        return f"{vertical}-{horizontal}"


def _sign(value: float) -> int:
    if value > 1e-12:
        return 1
    if value < -1e-12:
        return -1
    return 0


def quadrant_drift_table(control: RateControl, params: SystemParameters
                         ) -> List[QuadrantDrift]:
    """Evaluate the drift signs at a representative point of each quadrant.

    The probe points sit half the target queue (at least one packet) away
    from the ``q = q̂`` line and a quarter of the service rate away from the
    ``ν = 0`` line.
    """
    q_target = getattr(control, "q_target", params.q_target)
    dq = max(0.5 * q_target, 1.0)
    dv = 0.25 * params.mu

    probes = {
        "I": (max(q_target - dq, 0.0), +dv),
        "II": (q_target + dq, +dv),
        "III": (q_target + dq, -dv),
        "IV": (max(q_target - dq, 0.0), -dv),
    }

    table: List[QuadrantDrift] = []
    for name, description in _QUADRANT_DEFINITIONS:
        q, v = probes[name]
        rate = v + params.mu
        q_drift = v
        v_drift = float(np.asarray(control.drift(q, rate)))
        table.append(QuadrantDrift(
            quadrant=name, description=description,
            q_drift_sign=_sign(q_drift), v_drift_sign=_sign(v_drift),
            sample_point=(q, v)))
    return table


def drift_field(control: RateControl, params: SystemParameters,
                q_values: np.ndarray, v_values: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the phase-plane vector field on a rectangular lattice.

    Returns ``(dq_dt, dv_dt)`` arrays of shape ``(len(q_values), len(v_values))``
    suitable for drawing the phase portrait of Figure 2.
    """
    q_values = np.asarray(q_values, dtype=float)
    v_values = np.asarray(v_values, dtype=float)
    q_mesh, v_mesh = np.meshgrid(q_values, v_values, indexing="ij")
    dq_dt = v_mesh.copy()
    # Queue pinned at zero cannot drain further.
    dq_dt[(q_mesh <= 0.0) & (v_mesh < 0.0)] = 0.0
    dv_dt = np.asarray(control.drift(q_mesh, v_mesh + params.mu), dtype=float)
    return dq_dt, dv_dt
