"""Declarative, picklable experiment/job specifications.

A :class:`JobSpec` captures one experiment evaluation as the tuple the issue
tracker of every large simulation study converges on: *(callable, parameters,
overrides, seed)*.  The callable must be an importable module-level function
so the spec can cross a process boundary; the remaining fields are plain
data.  From those four ingredients and :data:`RESULTS_EPOCH` the spec
derives a stable content hash that serves as its identity in the on-disk
result cache and in run journals -- two specs with the same hash represent
the same computation and may share a result.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..config import ParameterDictMixin
from ..exceptions import ConfigurationError
from .hashing import canonical_json, content_hash

__all__ = ["RESULTS_EPOCH", "JobSpec", "function_reference",
           "function_accepts_seed"]

#: Epoch of the results the library computes, hashed into every job key.
#: Bump it in any change that changes a result: values cached or journaled
#: under an older epoch are then never served again (``repro cache prune``
#: reclaims them).  ``tests/unit/test_results_epoch.py`` keeps a digest of
#: the pinned reference values per epoch, so editing a pin without bumping
#: the epoch fails tier-1.
RESULTS_EPOCH = 1


def function_accepts_seed(function: Callable) -> bool:
    """Whether *function* can receive a ``seed=`` keyword argument."""
    try:
        signature = inspect.signature(function)
    except (TypeError, ValueError):
        return False
    return "seed" in signature.parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in signature.parameters.values())


def function_reference(function: Callable) -> str:
    """Return the stable ``module:qualname`` reference for *function*.

    Rejects lambdas, nested functions and bound methods: those cannot be
    re-imported by name in a worker process, and their identity would not
    survive an interpreter restart, which would poison the content hash.
    """
    if not callable(function):
        raise ConfigurationError(f"job function must be callable, got "
                                 f"{function!r}")
    module = getattr(function, "__module__", None)
    qualname = getattr(function, "__qualname__", None)
    if not module or not qualname:
        raise ConfigurationError(
            f"job function {function!r} has no importable module/qualname")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise ConfigurationError(
            f"job function {module}:{qualname} must be a module-level "
            "function (lambdas and closures cannot be addressed stably "
            "across processes)")
    return f"{module}:{qualname}"


@dataclass(frozen=True)
class JobSpec:
    """One experiment evaluation: ``function(params, **overrides)`` + seed.

    Attributes
    ----------
    function:
        Module-level callable performing the experiment.  It receives the
        parameter object as first positional argument (when ``params`` is not
        ``None``), every override as a keyword argument, and -- if its
        signature accepts one -- the derived ``seed`` keyword.
    params:
        Optional parameter dataclass (any :class:`~repro.config.ParameterDictMixin`
        subclass, typically :class:`~repro.config.SystemParameters`).
    overrides:
        Extra keyword arguments, stored as a sorted tuple of pairs so the
        spec itself stays hashable and order-insensitive.
    seed:
        Optional deterministic seed for stochastic experiments.  Part of the
        content hash: the same experiment under a different seed is a
        different job.
    label:
        Human-readable name for progress reports and tables.  Not part of
        the content hash.
    """

    function: Callable
    params: Optional[ParameterDictMixin] = None
    overrides: Tuple[Tuple[str, Any], ...] = ()
    seed: Optional[int] = None
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        reference = function_reference(self.function)
        if not isinstance(self.overrides, tuple):
            items = dict(self.overrides)
            object.__setattr__(self, "overrides",
                               tuple(sorted(items.items())))
        else:
            object.__setattr__(self, "overrides",
                               tuple(sorted(self.overrides)))
        # Fail at spec-construction time (not deep inside a worker) if the
        # overrides cannot be canonically hashed.
        canonical_json(dict(self.overrides))
        if not self.label:
            object.__setattr__(self, "label", self.default_label(reference))

    # -- identity ----------------------------------------------------------

    @property
    def function_ref(self) -> str:
        """Stable ``module:qualname`` reference of the job callable."""
        return function_reference(self.function)

    def fingerprint(self) -> Dict[str, Any]:
        """The exact structure that is hashed into the cache key.

        ``memmap_dir`` is left out: it only says where full-history
        columns spill, and results are bit-identical with and without it.
        :data:`RESULTS_EPOCH` is in it, so a result from an older epoch is
        never served.
        """
        return {
            "function": self.function_ref,
            "params": None if self.params is None else self.params.to_dict(),
            "overrides": {name: value for name, value in self.overrides
                          if name != "memmap_dir"},
            "seed": self.seed,
            "epoch": RESULTS_EPOCH,
        }

    @property
    def key(self) -> str:
        """Content hash identifying this job in the result cache."""
        return content_hash(self.fingerprint())

    def default_label(self, reference: Optional[str] = None) -> str:
        reference = reference or self.function_ref
        short = reference.rsplit(":", 1)[-1].lstrip("_")
        if not self.overrides:
            return short
        settings = ",".join(f"{name}={value!r}" if isinstance(value, str)
                            else f"{name}={value:g}" if isinstance(value, float)
                            else f"{name}={value}"
                            for name, value in self.overrides)
        return f"{short}({settings})"

    # -- execution ---------------------------------------------------------

    def call_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments the executor passes to the job function."""
        kwargs = dict(self.overrides)
        if self.seed is not None and "seed" not in kwargs \
                and function_accepts_seed(self.function):
            kwargs["seed"] = self.seed
        return kwargs

    def execute(self) -> Any:
        """Run the job in the current process and return its result."""
        kwargs = self.call_kwargs()
        if self.params is None:
            return self.function(**kwargs)
        return self.function(self.params, **kwargs)
