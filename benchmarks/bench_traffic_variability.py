"""Experiment E9b (ablation): what the diffusion term buys.

An ablation benchmark for the model's central design decision: the
sigma^2 diffusion term is what distinguishes Equation 14 from a transported
delta function (equivalently, from the fluid model).  The benchmark sweeps
sigma and reports the stationary queue spread and the buffer-overflow
probability; at sigma = 0 both collapse to (essentially) zero, and they grow
with sigma -- the traffic-variability information the paper highlights.
"""

from repro import FokkerPlanckSolver, JRJControl, SystemParameters, TimeParameters
from repro.analysis import format_table

SIGMAS = [0.0, 0.2, 0.5, 0.8]


def _sweep_sigma(bench_grid):
    rows = []
    for sigma in SIGMAS:
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=sigma)
        control = JRJControl(0.05, 0.2, 10.0)
        solver = FokkerPlanckSolver(params, control, grid_params=bench_grid)
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=150.0, dt=0.5, snapshot_every=50))
        rows.append({
            "sigma": sigma,
            "mean queue": result.final_moments.mean_q,
            "queue std": result.final_moments.std_q,
            "P(Q > 15)": result.overflow_probability(15.0),
            "P(Q > 20)": result.overflow_probability(20.0),
        })
    return rows


def test_traffic_variability_ablation(benchmark, bench_grid):
    rows = benchmark.pedantic(_sweep_sigma, args=(bench_grid,),
                              iterations=1, rounds=1)
    print()
    print(format_table(rows,
                       title="E9b (ablation): queue spread and overflow "
                             "probability versus sigma"))

    stds = [row["queue std"] for row in rows]
    overflows = [row["P(Q > 15)"] for row in rows]
    # Spread grows monotonically with sigma, and so does the tail mass.
    assert all(later >= earlier - 1e-9
               for earlier, later in zip(stds, stds[1:], strict=False))
    assert stds[-1] > stds[0] + 0.5
    assert overflows[-1] >= overflows[0]
