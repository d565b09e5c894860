"""Canonical scenarios and parameter sweeps used by examples and benchmarks.

The paper experiments (``benchmarks/bench_*.py``, each naming its
experiment in its module docstring) and the examples build their shared
scenarios here, so the parameters appearing in reports are defined in
exactly one place.
Parameter grids over them run through :func:`repro.runner.build_matrix` and
:func:`repro.runner.run_jobs`.

The registered network topologies of :mod:`repro.queueing.scenarios`
(dumbbell, parking-lot, chain, mesh) are re-exported here so workloads can
be composed from one namespace.
"""

from ..queueing.scenarios import (
    chain_scenario,
    dumbbell_scenario,
    random_mesh_scenario,
)
from .scenarios import (
    single_source_scenario,
    homogeneous_sources_scenario,
    heterogeneous_parameters_scenario,
    packet_level_jrj_scenario,
    packet_level_window_scenario,
)

__all__ = [
    "single_source_scenario",
    "homogeneous_sources_scenario",
    "heterogeneous_parameters_scenario",
    "packet_level_jrj_scenario",
    "packet_level_window_scenario",
    "chain_scenario",
    "dumbbell_scenario",
    "random_mesh_scenario",
]
