"""Armed numerical faults: deterministic in-process poisoning hooks.

The chaos suite (``runner/faults.py``) needs to corrupt *numerical state*
inside a running solver — poison one Fokker-Planck cell with NaN, record a
negative queue-length sample — so the health monitors can be exercised end
to end.  ``FaultPlan.apply`` arms a fault here (worker-side, before the job
function runs); the instrumented engine consumes it at a fixed,
deterministic point in its execution.  Each armed fault fires exactly
``count`` times and arming is cleared at the start of every job, so faults
never leak across jobs that share a worker process.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "KNOWN_NUMERICAL_FAULTS",
    "arm_numerical_fault",
    "consume_numerical_fault",
    "reset_numerical_faults",
]

#: ``nan-density`` poisons one FP cell with NaN right after the initial
#: density is normalised; ``negative-queue`` records a ``-1`` queue-length
#: sample halfway through a DES run.
KNOWN_NUMERICAL_FAULTS = ("nan-density", "negative-queue")

_armed: Dict[str, int] = {}


def arm_numerical_fault(kind: str) -> None:
    """Arm *kind* to fire on one more consumption point."""
    if kind not in KNOWN_NUMERICAL_FAULTS:
        raise ValueError(f"unknown numerical fault kind {kind!r}; "
                         f"expected one of {KNOWN_NUMERICAL_FAULTS}")
    _armed[kind] = _armed.get(kind, 0) + 1


def consume_numerical_fault(kind: str) -> bool:
    """True (and decrement) when *kind* is armed; False otherwise."""
    remaining = _armed.get(kind, 0)
    if remaining <= 0:
        return False
    if remaining == 1:
        del _armed[kind]
    else:
        _armed[kind] = remaining - 1
    return True


def reset_numerical_faults() -> None:
    """Disarm everything (called at the start of every runner job)."""
    _armed.clear()
