"""Generic parameter-grid runner.

:func:`run_grid` evaluates a callable over a full cartesian matrix of
parameter values (a one-axis grid is a plain sweep), with optional
worker-process parallelism and result caching through :mod:`repro.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..exceptions import ConfigurationError

__all__ = ["GridSweep", "run_grid"]


@dataclass
class GridSweep:
    """Results of evaluating a callable over a multi-parameter grid.

    Attributes
    ----------
    axes:
        The swept axes: name -> list of values, in sweep order.
    points:
        One dictionary per grid point, in deterministic row-major order
        (first axis slowest).
    results:
        One result object per point.
    """

    axes: Dict[str, List[Any]]
    points: List[Dict[str, Any]] = field(default_factory=list)
    results: List[object] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def parameter_names(self) -> List[str]:
        """Names of the swept axes, in sweep order."""
        return list(self.axes)

    def rows(self, extractor: Callable[[object], dict]) -> List[dict]:
        """Build table rows: grid-point coordinates plus extracted metrics."""
        rows = []
        for point, result in zip(self.points, self.results, strict=True):
            row = dict(point)
            row.update(extractor(result))
            rows.append(row)
        return rows


def run_grid(axes: Mapping[str, Sequence[Any]],
             evaluate: Callable[..., object],
             n_jobs: int = 1,
             cache: Optional[object] = None) -> GridSweep:
    """Evaluate *evaluate* at every point of the cartesian grid *axes*.

    Parameters
    ----------
    axes:
        Mapping of parameter name to the values it sweeps (all non-empty).
    evaluate:
        Callable invoked with one keyword argument per axis, e.g.
        ``evaluate(c0=0.05, delay=2.0)``.
    n_jobs:
        Number of worker processes.  Values above one delegate execution to
        :func:`repro.runner.run_jobs`, which requires *evaluate* to be a
        picklable module-level function.
    cache:
        Optional :class:`repro.runner.ResultCache`; implies the runner path
        even when ``n_jobs == 1``.
    """
    from ..runner.grid import expand_grid  # local import: keep layering thin

    if not callable(evaluate):
        raise ConfigurationError("run_grid needs an evaluate callable")
    points = expand_grid(axes)
    sweep = GridSweep(axes={name: list(values) for name, values in axes.items()},
                      points=points)
    if n_jobs == 1 and cache is None:
        sweep.results = [evaluate(**point) for point in points]
        return sweep

    from ..runner.executor import run_jobs
    from ..runner.spec import JobSpec

    jobs = [JobSpec(function=evaluate, params=None,
                    overrides=tuple(sorted(point.items())))
            for point in points]
    sweep.results = run_jobs(jobs, n_jobs=n_jobs, cache=cache).values
    return sweep

