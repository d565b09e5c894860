"""Shared fixtures for the benchmark harness.

Every benchmark names what it measures in its module docstring -- a paper
experiment (E1-E11), a numerical ablation or the runner's scaling -- and
does two things: it *times* the underlying computation with
pytest-benchmark and it *prints* the rows/series of the corresponding paper
figure or claim (run with ``pytest benchmarks/ --benchmark-only -s`` to see
them).  Qualitative assertions guard the shape of each result so a
regression in the physics is caught; ``pytest benchmarks/
--benchmark-disable -q`` runs those assertions once each with timing off,
as CI does.
"""

from __future__ import annotations

import pytest

from repro import JRJControl, SystemParameters
from repro.config import GridParameters


@pytest.fixture(scope="session")
def canonical_params() -> SystemParameters:
    """Canonical single-source parameters shared by all benchmarks."""
    return SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2, sigma=0.0)


@pytest.fixture(scope="session")
def noisy_params() -> SystemParameters:
    """Canonical parameters with diffusion enabled."""
    return SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2, sigma=0.5)


@pytest.fixture(scope="session")
def jrj_control() -> JRJControl:
    """JRJ control law matching the canonical parameters."""
    return JRJControl(c0=0.05, c1=0.2, q_target=10.0)


@pytest.fixture(scope="session")
def bench_grid() -> GridParameters:
    """Phase grid used by the PDE benchmarks."""
    return GridParameters(q_max=40.0, nq=100, v_min=-1.5, v_max=1.5, nv=60)
