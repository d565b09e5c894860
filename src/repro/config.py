"""Parameter dataclasses shared across the library.

The central object is :class:`SystemParameters`, which captures the
physical description of the controlled queue studied in the paper:

* ``mu`` -- the mean service rate of the bottleneck (packets / unit time),
* ``q_target`` -- the target queue length ``q̂`` at which the control law
  switches from *increase* to *decrease*,
* ``c0`` -- the linear increase rate (``dλ/dt = C0`` while ``Q ≤ q̂``),
* ``c1`` -- the exponential decrease constant (``dλ/dt = −C1 λ`` while
  ``Q > q̂``),
* ``sigma`` -- the diffusion coefficient ``σ`` of Equation 14, modelling the
  variability of the queue growth rate (``σ = 0`` recovers the reduced
  hyperbolic system analysed in Section 5 of the paper).

All dataclasses validate their fields on construction and raise
:class:`repro.exceptions.ConfigurationError` on inconsistent input, so that
errors surface where the mistake was made rather than deep inside a solver.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Type

from .exceptions import ConfigurationError

__all__ = [
    "SystemParameters",
    "GridParameters",
    "TimeParameters",
    "SourceParameters",
    "DelayParameters",
    "ParameterDictMixin",
    "parameters_from_dict",
]


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with *message* unless *condition*."""
    if not condition:
        raise ConfigurationError(message)


#: Registry mapping the ``__parameters__`` type tag written by
#: :meth:`ParameterDictMixin.to_dict` back to the dataclass, so a dictionary
#: can be revived without knowing its concrete type in advance.
_PARAMETER_REGISTRY: Dict[str, Type["ParameterDictMixin"]] = {}

#: Key under which the concrete type name is stored in serialised form.
_TYPE_TAG = "__parameters__"


class ParameterDictMixin:
    """Canonical ``to_dict()`` / ``from_dict()`` round-trip for parameters.

    Every parameter dataclass in this module mixes this in so that any
    configuration object can be turned into a plain, JSON-serialisable
    dictionary and back.  The dictionary form is the basis of the
    content-addressed job hashes used by :mod:`repro.runner` and is also
    convenient for logging and result metadata.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _PARAMETER_REGISTRY[cls.__name__] = cls

    def to_dict(self) -> dict:
        """Return a plain dictionary with a ``__parameters__`` type tag."""
        data = {_TYPE_TAG: type(self).__name__}
        for spec in fields(self):
            data[spec.name] = getattr(self, spec.name)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ParameterDictMixin":
        """Rebuild an instance from :meth:`to_dict` output.

        The type tag (when present) must match *cls*, unknown keys are
        rejected, and the rebuilt instance passes through the usual
        ``__post_init__`` validation.
        """
        payload = dict(data)
        tag = payload.pop(_TYPE_TAG, None)
        _require(tag is None or tag == cls.__name__,
                 f"cannot revive a {tag!r} dictionary as {cls.__name__}")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        _require(not unknown,
                 f"unknown {cls.__name__} fields in dictionary: {unknown}")
        return cls(**payload)


def parameters_from_dict(data: dict) -> ParameterDictMixin:
    """Revive any parameter dataclass from its :meth:`to_dict` form.

    Dispatches on the ``__parameters__`` tag, so callers need not know which
    concrete parameter class a stored dictionary describes.
    """
    _require(isinstance(data, dict) and _TYPE_TAG in data,
             "parameters_from_dict needs a dictionary with a "
             f"{_TYPE_TAG!r} type tag")
    tag = data[_TYPE_TAG]
    _require(tag in _PARAMETER_REGISTRY,
             f"unknown parameter type tag {tag!r}")
    return _PARAMETER_REGISTRY[tag].from_dict(data)


@dataclass(frozen=True)
class SystemParameters(ParameterDictMixin):
    """Physical parameters of the controlled bottleneck queue.

    Parameters
    ----------
    mu:
        Mean service rate of the bottleneck node (must be positive).
    q_target:
        Target queue length ``q̂`` of the adaptive algorithm (non-negative).
    c0:
        Linear increase rate ``C0 > 0`` used while the queue is below target.
    c1:
        Exponential decrease constant ``C1 > 0`` used above target.
    sigma:
        Diffusion coefficient ``σ ≥ 0`` of the Fokker-Planck equation.  A
        value of zero selects the reduced (purely hyperbolic) system.
    backend:
        Numerical kernel backend for the PDE solvers: ``""`` (the default)
        defers to the ``REPRO_BACKEND`` environment variable / the
        ``"numpy"`` reference kernels, ``"auto"`` picks the fastest
        available backend, and any registered backend name (``"numpy"``,
        ``"scipy"``) pins one explicitly.  See
        :mod:`repro.numerics.backend`.
    health:
        Run-time numerical health policy for the solvers: ``""`` (the
        default) defers to the ``REPRO_HEALTH`` environment variable /
        the ``"observe"`` default, ``"strict"`` aborts on any invariant
        violation with a typed error, ``"repair"`` applies logged
        repairs, ``"observe"`` records reports without changing the
        numerics, and ``"off"`` disables monitoring entirely
        (bit-identical to the unmonitored code paths).  See
        :mod:`repro.health`.
    stepper:
        Time-marching scheme of the Fokker-Planck solver: ``""``/
        ``"axis"`` (the default) selects the per-axis splitting that is
        bit-identical to the historical solver, ``"adi"`` the
        Peaceman-Rachford 2-D operator-split stepper whose implicit
        half-steps run on the sparse-operator backend kernels (larger
        stable steps, scales to grids the dense path cannot).  See
        :mod:`repro.core.stepper`.
    """

    mu: float = 1.0
    q_target: float = 10.0
    c0: float = 0.05
    c1: float = 0.2
    sigma: float = 0.0
    backend: str = ""
    health: str = ""
    stepper: str = ""

    def __post_init__(self) -> None:
        _require(self.mu > 0.0, f"service rate mu must be positive, got {self.mu}")
        _require(self.q_target >= 0.0,
                 f"target queue length must be non-negative, got {self.q_target}")
        _require(self.c0 > 0.0, f"increase rate c0 must be positive, got {self.c0}")
        _require(self.c1 > 0.0, f"decrease constant c1 must be positive, got {self.c1}")
        _require(self.sigma >= 0.0, f"sigma must be non-negative, got {self.sigma}")
        from .numerics.backend import is_known_backend
        _require(is_known_backend(self.backend),
                 f"unknown numerics backend {self.backend!r}")
        from .health.policy import is_known_health
        _require(is_known_health(self.health),
                 f"unknown health mode {self.health!r}")
        from .core.stepper import is_known_stepper
        _require(is_known_stepper(self.stepper),
                 f"unknown FP stepper {self.stepper!r}")

    def with_backend(self, backend: str) -> "SystemParameters":
        """Return a copy of these parameters pinned to a kernel *backend*."""
        return replace(self, backend=backend)

    def with_stepper(self, stepper: str) -> "SystemParameters":
        """Return a copy of these parameters pinned to an FP *stepper*."""
        return replace(self, stepper=stepper)

    def with_health(self, health: str) -> "SystemParameters":
        """Return a copy of these parameters pinned to a *health* policy."""
        return replace(self, health=health)

    def with_sigma(self, sigma: float) -> "SystemParameters":
        """Return a copy of these parameters with a different ``sigma``."""
        return replace(self, sigma=sigma)

    def with_rates(self, c0: Optional[float] = None,
                   c1: Optional[float] = None) -> "SystemParameters":
        """Return a copy with updated increase/decrease constants."""
        return replace(
            self,
            c0=self.c0 if c0 is None else c0,
            c1=self.c1 if c1 is None else c1,
        )

    @property
    def equilibrium_rate(self) -> float:
        """The arrival rate at the limit point of Theorem 1 (``λ* = μ``)."""
        return self.mu

    @property
    def equilibrium_queue(self) -> float:
        """The queue length at the limit point of Theorem 1 (``Q* = q̂``)."""
        return self.q_target


@dataclass(frozen=True)
class GridParameters(ParameterDictMixin):
    """Discretisation of the ``(q, ν)`` phase plane for the PDE solver.

    The queue axis spans ``[0, q_max]`` with ``nq`` cells and the
    growth-rate axis spans ``[v_min, v_max]`` with ``nv`` cells.
    """

    q_max: float = 40.0
    nq: int = 120
    v_min: float = -1.5
    v_max: float = 1.5
    nv: int = 90

    def __post_init__(self) -> None:
        _require(self.q_max > 0.0, "q_max must be positive")
        _require(self.nq >= 4, "nq must be at least 4")
        _require(self.nv >= 4, "nv must be at least 4")
        _require(self.v_max > self.v_min,
                 "v_max must be strictly greater than v_min")

    @property
    def dq(self) -> float:
        """Cell width along the queue axis."""
        return self.q_max / self.nq

    @property
    def dv(self) -> float:
        """Cell width along the growth-rate axis."""
        return (self.v_max - self.v_min) / self.nv


@dataclass(frozen=True)
class TimeParameters(ParameterDictMixin):
    """Time-integration horizon and step control for PDE / ODE solvers."""

    t_end: float = 200.0
    dt: float = 0.05
    cfl: float = 0.8
    snapshot_every: int = 10

    def __post_init__(self) -> None:
        _require(self.t_end > 0.0, "t_end must be positive")
        _require(self.dt > 0.0, "dt must be positive")
        _require(0.0 < self.cfl <= 1.0, "cfl must lie in (0, 1]")
        _require(self.snapshot_every >= 1, "snapshot_every must be >= 1")

    @property
    def n_steps(self) -> int:
        """Number of full time steps of size ``dt`` needed to reach ``t_end``."""
        return max(1, int(round(self.t_end / self.dt)))


@dataclass(frozen=True)
class SourceParameters(ParameterDictMixin):
    """Per-source control parameters for multi-source scenarios.

    Each source ``i`` runs its own copy of the adaptive algorithm with its
    own increase rate ``c0``, decrease constant ``c1`` and feedback delay
    ``delay`` (in the same time units as the service rate).
    """

    c0: float = 0.05
    c1: float = 0.2
    delay: float = 0.0
    initial_rate: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        _require(self.c0 > 0.0, "c0 must be positive")
        _require(self.c1 > 0.0, "c1 must be positive")
        _require(self.delay >= 0.0, "delay must be non-negative")
        _require(self.initial_rate >= 0.0, "initial_rate must be non-negative")


@dataclass(frozen=True)
class DelayParameters(ParameterDictMixin):
    """Feedback-delay configuration for Section 7 experiments."""

    delay: float = 2.0
    history_dt: float = 0.01

    def __post_init__(self) -> None:
        _require(self.delay >= 0.0, "delay must be non-negative")
        _require(self.history_dt > 0.0, "history_dt must be positive")
