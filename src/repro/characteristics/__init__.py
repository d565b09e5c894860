"""Phase-plane (characteristics) analysis of the reduced system (Section 5).

With the diffusion term suppressed, Equation 14 is a hyperbolic PDE whose
characteristics are the curves ``dq/dt = λ − μ``, ``dλ/dt = g(q, λ)``
(Equation 16).  The paper analyses the control algorithm by studying these
curves in the ``(q, ν)`` plane: the drift directions quadrant by quadrant
(Figure 2), the convergent spiral of the JRJ law (Figure 3, Theorem 1), and
the qualitative change -- limit cycles -- introduced by delayed feedback
(Section 7).  This subpackage reproduces each of those analyses.
"""

from .trajectory import (
    CharacteristicBatch,
    CharacteristicTrajectory,
    integrate_characteristic,
    integrate_characteristic_batch,
)
from .phase_plane import QuadrantDrift, quadrant_drift_table, drift_field
from .equilibrium import Equilibrium, find_equilibrium
from .limit_cycle import (
    SpiralAnalysis,
    analyze_spiral,
    peak_contraction_ratios,
)
from .theorem1 import (
    Theorem1Verification,
    verify_theorem1,
    verify_theorem1_batch,
)

__all__ = [
    "CharacteristicBatch",
    "CharacteristicTrajectory",
    "integrate_characteristic",
    "integrate_characteristic_batch",
    "QuadrantDrift",
    "quadrant_drift_table",
    "drift_field",
    "Equilibrium",
    "find_equilibrium",
    "SpiralAnalysis",
    "analyze_spiral",
    "peak_contraction_ratios",
    "Theorem1Verification",
    "verify_theorem1",
    "verify_theorem1_batch",
]
