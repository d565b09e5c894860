"""Multi-dimensional parameter-grid construction.

A mapping of named axes expands into the cartesian list of grid points,
and :func:`build_matrix` turns those points into
:class:`~repro.runner.JobSpec` objects.  Axis values whose names match
fields of the base parameter object are folded into the parameter
dataclass (via :func:`dataclasses.replace`); the remaining names become
keyword arguments of the experiment callable.  Per-job seeds are derived
from a master seed with the spawn-key scheme of
:mod:`repro.queueing.random_streams`, so job ``i`` of a matrix always sees
the same seed no matter how (or where) the matrix is executed.
"""

from __future__ import annotations

import itertools
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..config import ParameterDictMixin
from ..exceptions import ConfigurationError
from ..queueing.random_streams import derive_child_seed
from .spec import JobSpec, function_accepts_seed

__all__ = ["expand_grid", "build_matrix"]


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Expand named axes into the cartesian list of grid points.

    Points are produced in deterministic row-major order: the first axis
    varies slowest, the last axis fastest (like nested for-loops written in
    axis order).
    """
    if not axes:
        raise ConfigurationError("grid needs at least one axis")
    names = list(axes)
    value_lists = []
    for name in names:
        values = list(axes[name])
        if not values:
            raise ConfigurationError(f"grid axis {name!r} has no values")
        value_lists.append(values)
    return [dict(zip(names, combination, strict=True))
            for combination in itertools.product(*value_lists)]


def _split_point(point: Mapping[str, Any],
                 params: Optional[ParameterDictMixin]):
    """Split a grid point into parameter-field overrides and call kwargs."""
    if params is None or not is_dataclass(params):
        return None if params is None else params, dict(point)
    field_names = {spec.name for spec in dataclass_fields(params)}
    param_overrides = {name: value for name, value in point.items()
                       if name in field_names}
    call_overrides = {name: value for name, value in point.items()
                      if name not in field_names}
    if param_overrides:
        params = replace(params, **param_overrides)
    return params, call_overrides


def build_matrix(function: Callable,
                 params: Optional[ParameterDictMixin],
                 axes: Mapping[str, Sequence[Any]],
                 fixed: Optional[Mapping[str, Any]] = None,
                 master_seed: Optional[int] = None) -> List[JobSpec]:
    """Build the full cartesian job matrix for *function* over *axes*.

    Parameters
    ----------
    function:
        Module-level experiment callable (see :class:`~repro.runner.JobSpec`).
    params:
        Base parameter object.  Axis names matching its dataclass fields
        update the parameters of each point; other names are passed to the
        callable as keyword arguments.
    axes:
        Mapping of axis name to the values it sweeps.
    fixed:
        Extra keyword arguments shared by every job (horizons, resolutions).
    master_seed:
        When given, job ``i`` receives the spawn-key-derived child seed
        ``derive_child_seed(master_seed, (i,))``.  Seeds are only assigned
        when *function* can actually accept a ``seed=`` keyword; a
        deterministic callable keeps ``seed=None`` so its cache key (and
        hence its cached result) is independent of the master seed.
    """
    points = expand_grid(axes)
    derive_seeds = master_seed is not None and function_accepts_seed(function)
    jobs: List[JobSpec] = []
    for index, point in enumerate(points):
        merged = dict(fixed or {})
        merged.update(point)
        job_params, call_overrides = _split_point(merged, params)
        seed = None
        if derive_seeds:
            seed = derive_child_seed(master_seed, (index,))
        label = ", ".join(f"{name}={value}" for name, value in point.items())
        jobs.append(JobSpec(function=function, params=job_params,
                            overrides=tuple(sorted(call_overrides.items())),
                            seed=seed, label=label))
    return jobs
