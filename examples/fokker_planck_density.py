#!/usr/bin/env python
"""The evolving joint density f(t, q, nu) and its Monte-Carlo cross-check.

The example integrates Equation 14 with a positive diffusion coefficient,
prints the time evolution of the queue-length mean and standard deviation,
shows the final queue-length marginal, and validates both against an
independent Langevin particle ensemble following the same dynamics.

Run with:  python examples/fokker_planck_density.py
"""

import numpy as np

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    SystemParameters,
    TimeParameters,
    compare_with_density,
    run_ensemble,
)
from repro.analysis import format_key_values, format_series, format_table
from repro.core.moments import marginal_q


def main() -> None:
    params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                              sigma=0.5)
    control = JRJControl(c0=params.c0, c1=params.c1, q_target=params.q_target)
    grid_params = GridParameters(q_max=40.0, nq=120, v_min=-1.5, v_max=1.5,
                                 nv=72)

    # --- Fokker-Planck solution -------------------------------------------
    solver = FokkerPlanckSolver(params, control, grid_params=grid_params)
    fp = solver.solve_from_point(
        q0=0.0, rate0=0.5,
        time_params=TimeParameters(t_end=150.0, dt=0.5, snapshot_every=20))

    rows = [
        {
            "time": snapshot.time,
            "mean_queue": snapshot.moments.mean_q,
            "std_queue": snapshot.moments.std_q,
            "mean_rate": snapshot.moments.mean_rate(params.mu),
        }
        for snapshot in fp.snapshots
    ]
    print(format_table(rows, title="Fokker-Planck moments over time"))
    print()

    marginal = marginal_q(fp.final_density, fp.grid)
    print(format_series("final queue-length marginal density",
                        fp.grid.q_centers, marginal,
                        x_label="queue", y_label="density", max_points=25))
    print()

    # --- Langevin Monte-Carlo cross-check ----------------------------------
    ensemble = run_ensemble(control, params, q0=0.0, rate0=0.5, t_end=150.0,
                            dt=0.02, n_paths=3000,
                            rng=np.random.default_rng(7))
    comparison = compare_with_density(ensemble, fp)
    print(format_key_values("PDE versus 3000-particle Langevin ensemble", {
        "FP mean queue": fp.final_moments.mean_q,
        "MC mean queue": float(ensemble.mean_queue_series[-1]),
        "FP std queue": fp.final_moments.std_q,
        "MC std queue": float(ensemble.std_queue_series[-1]),
        "|mean difference|": comparison["mean_queue_difference"],
        "|std difference|": comparison["std_queue_difference"],
        "marginal L1 distance": comparison["marginal_l1_distance"],
        "FP P(Q > 15)": fp.overflow_probability(15.0),
        "MC P(Q > 15)": ensemble.overflow_probability(15.0),
    }))


if __name__ == "__main__":
    main()
