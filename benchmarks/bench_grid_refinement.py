"""Numerical ablation: grid-refinement study of the Fokker-Planck solver.

The operator-splitting discretisation (q-advection, nu-advection,
Crank-Nicolson diffusion; see docs/performance.md) is the solver's key
numerical design decision; this benchmark quantifies its convergence.  The
same scenario is solved on successively finer phase grids and the final
mean/std of the queue are compared against the finest run and against the
Langevin Monte-Carlo reference.  The differences must shrink as the grid is
refined -- the practical check that the headline numbers of E4/E9 are
discretisation-converged.

The refinement matrix runs through :mod:`repro.runner`: each resolution is
one :class:`~repro.runner.JobSpec` and the study executes across worker
processes, demonstrating the orchestration subsystem on a real ablation.
"""

import numpy as np

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JobSpec,
    SystemParameters,
    TimeParameters,
    run_ensemble,
    run_jobs,
)
from repro.analysis import format_table
from repro.control.jrj import jrj_from_parameters

RESOLUTIONS = [(50, 30), (100, 60), (150, 90)]
N_WORKERS = 2


def solve_on_grid(params: SystemParameters, nq: int, nv: int):
    """Runner job: final FP moments on one (nq, nv) phase grid."""
    grid = GridParameters(q_max=40.0, nq=nq, v_min=-1.5, v_max=1.5, nv=nv)
    control = jrj_from_parameters(params)
    solver = FokkerPlanckSolver(params, control, grid_params=grid)
    result = solver.solve_from_point(
        0.0, 0.5, TimeParameters(t_end=120.0, dt=0.5, snapshot_every=60))
    return result.final_moments


def _refinement_study(noisy_params):
    jobs = [JobSpec(solve_on_grid, params=noisy_params,
                    overrides={"nq": nq, "nv": nv})
            for nq, nv in RESOLUTIONS]
    return run_jobs(jobs, n_jobs=N_WORKERS).values


def test_grid_refinement_convergence(benchmark, noisy_params, jrj_control):
    moments = benchmark.pedantic(_refinement_study, args=(noisy_params,),
                                 iterations=1, rounds=1)

    reference = run_ensemble(jrj_control, noisy_params, q0=0.0, rate0=0.5,
                             t_end=120.0, dt=0.02, n_paths=2000,
                             rng=np.random.default_rng(17))
    mc_mean = float(reference.mean_queue_series[-1])

    rows = [
        {
            "grid (nq x nv)": f"{nq}x{nv}",
            "mean queue": m.mean_q,
            "std queue": m.std_q,
            "|mean - Monte-Carlo|": abs(m.mean_q - mc_mean),
        }
        for (nq, nv), m in zip(RESOLUTIONS, moments, strict=True)
    ]
    print()
    print(format_table(rows, title="grid-refinement study of the FP solver "
                                   "(Monte-Carlo mean = "
                                   f"{mc_mean:.3f})"))

    errors = [abs(m.mean_q - mc_mean) for m in moments]
    # Refinement moves the solution towards the Monte-Carlo reference: the
    # finest grid has the smallest error, and every grid is within 1 packet.
    assert errors[-1] <= min(errors[:-1]) + 0.05
    assert all(error < 1.0 for error in errors)
    # The spread estimate also converges (it only shrinks with resolution
    # because the first-order scheme's numerical diffusion decreases).
    stds = [m.std_q for m in moments]
    assert stds[-1] <= stds[0]
