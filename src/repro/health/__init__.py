"""Run-time numerical health monitoring (invariant monitors + policies).

The package watches the invariants each engine is supposed to preserve —
mass conservation and positivity of Fokker-Planck densities, finiteness of
ODE/SDE state blocks, queue non-negativity and event budgets in the
discrete-event simulator, convergence residuals in the stationary solver —
and reacts according to a configurable degradation policy:

``strict``
    abort with a typed :class:`~repro.exceptions.NumericalHealthError`
    subclass (deterministic under the runner's retry taxonomy);
``repair``
    apply a conservative, logged repair (renormalize mass, clamp negative
    cells, halve dt and substep) and continue;
``observe``
    record a :class:`HealthReport` and continue unchanged (the default);
``off``
    skip monitoring entirely — bit-identical to the pre-health code paths.

Monitors are created with :meth:`HealthMonitor.create`, which returns
``None`` for ``off`` so hot paths keep their original unguarded code.
"""

from .faults import (
    KNOWN_NUMERICAL_FAULTS,
    arm_numerical_fault,
    consume_numerical_fault,
    reset_numerical_faults,
)
from .monitors import HealthMonitor
from .policy import (
    DEFAULT_HEALTH,
    HEALTH_ENV_VAR,
    HEALTH_MODES,
    is_known_health,
    resolve_health,
    validate_health,
)
from .report import HealthLog, HealthReport

__all__ = [
    "DEFAULT_HEALTH",
    "HEALTH_ENV_VAR",
    "HEALTH_MODES",
    "HealthLog",
    "HealthMonitor",
    "HealthReport",
    "KNOWN_NUMERICAL_FAULTS",
    "arm_numerical_fault",
    "consume_numerical_fault",
    "is_known_health",
    "reset_numerical_faults",
    "resolve_health",
    "validate_health",
]
