"""Rate-control and window-control algorithm library.

The paper analyses a *generic* rate-control law ``dλ/dt = g(q, λ)``
(Equation 4) and instantiates it with the Jacobson / Ramakrishnan-Jain
rate analogue (Equation 2): linear increase while the queue is below the
target ``q̂`` and exponential decrease above it.  This subpackage provides

* :class:`RateControl` -- the abstract interface every control law follows,
* the concrete laws used in the paper's discussion (JRJ
  linear-increase/exponential-decrease, linear/linear, multiplicative
  variants),
* window-based algorithms (Jacobson's TCP congestion avoidance and the
  Ramakrishnan-Jain DECbit scheme) used by the packet-level simulator, and
* a small registry so scenarios and benchmarks can look laws up by name.
"""

from .base import RateControl, WindowControl
from .jrj import JRJControl, jrj_from_parameters
from .linear import LinearIncreaseLinearDecrease, AdditiveIncreaseAdditiveDecrease
from .multiplicative import (
    MultiplicativeIncreaseMultiplicativeDecrease,
    LinearIncreaseMultiplicativeStepDecrease,
)
from .window import JacobsonWindow, DECbitWindow
from .registry import register_control, create_control

__all__ = [
    "RateControl",
    "WindowControl",
    "JRJControl",
    "jrj_from_parameters",
    "LinearIncreaseLinearDecrease",
    "AdditiveIncreaseAdditiveDecrease",
    "MultiplicativeIncreaseMultiplicativeDecrease",
    "LinearIncreaseMultiplicativeStepDecrease",
    "JacobsonWindow",
    "DECbitWindow",
    "register_control",
    "create_control",
]
