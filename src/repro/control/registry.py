"""Name-based registry of rate-control laws.

Scenario builders, the command-line examples and the benchmark harness refer
to control laws by short names ("jrj", "linear", ...) so that parameter
sweeps over algorithm families stay declarative.  New laws can be added by
downstream users through :func:`register_control`.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..exceptions import ConfigurationError
from .base import RateControl
from .jrj import JRJControl
from .linear import AdditiveIncreaseAdditiveDecrease, LinearIncreaseLinearDecrease
from .multiplicative import (
    LinearIncreaseMultiplicativeStepDecrease,
    MultiplicativeIncreaseMultiplicativeDecrease,
)

__all__ = ["register_control", "create_control"]

ControlFactory = Callable[..., RateControl]

_REGISTRY: Dict[str, ControlFactory] = {}


def register_control(name: str, factory: ControlFactory) -> None:
    """Register *factory* under *name* (case-insensitive).

    Raises
    ------
    ConfigurationError
        If the name is already registered.
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("control-law name must be non-empty")
    if key in _REGISTRY:
        raise ConfigurationError(f"control law '{name}' is already registered")
    _REGISTRY[key] = factory


def create_control(name: str, **kwargs) -> RateControl:
    """Instantiate a registered control law by name with keyword parameters."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown control law '{name}'; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key](**kwargs)


# Built-in registrations.
register_control("jrj", JRJControl)
register_control("linear-exponential", JRJControl)
register_control("linear", LinearIncreaseLinearDecrease)
register_control("linear-linear", LinearIncreaseLinearDecrease)
register_control("aiad", AdditiveIncreaseAdditiveDecrease)
register_control("mimd", MultiplicativeIncreaseMultiplicativeDecrease)
register_control("capped-jrj", LinearIncreaseMultiplicativeStepDecrease)
