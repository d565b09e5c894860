"""Gain-design benchmark: direct stationary solves versus time marching.

Times the two routes to the same stationary Fokker-Planck operating point:

* ``marched``    -- :class:`repro.core.solver.FokkerPlanckSolver` run to a
  long horizon with uniform substeps (the route the tuner would otherwise
  take for every refined gain point);
* ``stationary`` -- one cold :func:`repro.design.solve_stationary` call
  (operator assembly plus the null-space solve of the splitting matrix).

Rounds are interleaved so machine-load drift affects both sides equally
and the per-side minimum is reported, following the methodology of
``bench_fp_hot_path.py`` / ``bench_traj_batch.py``.  A coarse
:func:`repro.design.design_gains` sweep is also timed to record the
gain-points-per-second throughput of the design toolkit.  The record is
printed and written to ``BENCH_gain_design.json`` at the repository root.

The assertions guard *correctness only*: the stationary moments must match
the marched tail to 1e-5 relative (the acceptance criterion's direct-solve
claim), checked once outside the timed rounds.  Timing is recorded, never
asserted, so a loaded CI machine cannot turn a measurement into a test
failure.  Pass ``--smoke`` (the CI setting) for a smaller grid and shorter
march with the same assertions.
"""

import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro import GridParameters, SystemParameters, TimeParameters
from repro.control.jrj import jrj_from_parameters
from repro.core.solver import FokkerPlanckSolver
from repro.design import compare_with_marching, design_gains, solve_stationary
from repro.numerics import get_backend

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_gain_design.json"

PARAMS = SystemParameters(mu=1.0, q_target=8.0, c0=0.1, c1=0.4, sigma=0.5)
PARITY_TOL = 1e-5
SWEEP_POINTS = 256  # coarse-throughput probe: 4 x 4 x 4 x 4 axes


def _configuration(smoke: bool):
    """Grid, march horizon and step for the benchmark arms.

    Both backends' null solves scale with the grid's bandwidth rather than
    cubically with its ``nq x nv`` unknowns, so both arms share one grid.
    """
    if smoke:
        grid = GridParameters(q_max=30.0, nq=48, v_min=-1.2, v_max=1.2,
                              nv=36)
        return grid, 200.0, 0.05
    grid = GridParameters(q_max=30.0, nq=100, v_min=-1.2, v_max=1.2, nv=80)
    return grid, 300.0, 0.025


def _march(grid: GridParameters, t_end: float, dt: float):
    control = jrj_from_parameters(PARAMS)
    solver = FokkerPlanckSolver(PARAMS, control, grid_params=grid)
    time_params = TimeParameters(t_end=t_end, dt=dt,
                                 snapshot_every=max(1, int(round(t_end / dt))))
    return solver.solve_from_point(PARAMS.q_target, PARAMS.mu, time_params)


def _sweep_throughput() -> dict:
    """Time one coarse-only design sweep; return its throughput stats."""
    axes = np.linspace(0.5, 2.0, 4)
    started = time.perf_counter()
    result = design_gains(PARAMS,
                          c0_values=PARAMS.c0 * axes,
                          c1_values=PARAMS.c1 * axes,
                          q_target_values=PARAMS.q_target * axes,
                          mu_values=PARAMS.mu * axes,
                          t_end=150.0, dt=0.1, refine=False)
    elapsed = time.perf_counter() - started
    assert result.n_points == SWEEP_POINTS
    assert all(np.isfinite(gain.score) for gain in result.ranked)
    return {
        "sweep_points": result.n_points,
        "sweep_seconds": round(elapsed, 4),
        "sweep_points_per_second": round(result.n_points / elapsed, 1),
    }


def test_gain_design_speedup(smoke: Optional[bool] = None):
    if smoke is None:
        smoke = "--smoke" in sys.argv
    rounds = 2 if smoke else 3
    backend_name = get_backend().name
    grid, t_end, dt = _configuration(smoke)

    # Warm both paths (operator caches, BLAS/splu initialisation), then
    # gate the parity once outside the timed rounds: the direct solve must
    # reproduce the marched tail's moments to PARITY_TOL relative.
    stationary = solve_stationary(PARAMS, grid_params=grid, dt=dt)
    comparison = compare_with_marching(stationary, PARAMS, grid_params=grid,
                                       t_end=t_end)
    worst_relative = max(comparison["relative"].values())
    assert worst_relative <= PARITY_TOL, comparison["relative"]

    marched_seconds = []
    stationary_seconds = []
    for _ in range(rounds):
        started = time.perf_counter()
        _march(grid, t_end, dt)
        marched_seconds.append(time.perf_counter() - started)

        started = time.perf_counter()
        stationary = solve_stationary(PARAMS, grid_params=grid, dt=dt)
        stationary_seconds.append(time.perf_counter() - started)

    best_marched = min(marched_seconds)
    best_stationary = min(stationary_seconds)
    record = {
        "benchmark": "gain_design",
        "config": {"nq": grid.nq, "nv": grid.nv, "q_max": grid.q_max,
                   "sigma": PARAMS.sigma, "march_t_end": t_end, "dt": dt,
                   "smoke": smoke},
        "backend": backend_name,
        "null_solve": stationary.estimate.backend,
        "rounds": rounds,
        "marched_seconds": round(best_marched, 4),
        "stationary_seconds": round(best_stationary, 4),
        "speedup": round(best_marched / best_stationary, 3),
        "stationary_residual": stationary.estimate.residual,
        "worst_relative_moment_difference": worst_relative,
    }
    record.update(_sweep_throughput())
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record))


if __name__ == "__main__":
    test_gain_design_speedup()
