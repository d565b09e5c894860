"""Controller gain design: direct stationary solves plus objective sweeps.

The subsystem turns the reproduction into a design tool: stationary
Fokker-Planck densities are solved directly from the assembled discrete
operator (:mod:`repro.design.stationary`), operating points are scored on
oscillation / relaxation / queue-error / fairness axes
(:mod:`repro.design.objectives`), and :mod:`repro.design.tuner` sweeps
gain grids coarse-to-fine, ranking candidates and tracing the
oscillation-versus-convergence Pareto front.  Exposed on the command line
as ``repro design`` and through the ``design-gain-grid`` runner matrix.
"""

from .objectives import (GainGridScores, ObjectiveWeights,
                         OperatingPointScore, combine_score,
                         deployment_unfairness, score_gain_grid)
from .stationary import (DelayShiftedControl, StationaryDensity,
                         StationaryEstimate, compare_with_marching,
                         solve_stationary)
from .tuner import (GainSweepResult, RankedGain, default_axes, design_gains,
                    pareto_front_indices)

__all__ = [
    "DelayShiftedControl",
    "GainGridScores",
    "GainSweepResult",
    "ObjectiveWeights",
    "OperatingPointScore",
    "RankedGain",
    "StationaryDensity",
    "StationaryEstimate",
    "combine_score",
    "compare_with_marching",
    "default_axes",
    "deployment_unfairness",
    "design_gains",
    "pareto_front_indices",
    "score_gain_grid",
    "solve_stationary",
]
