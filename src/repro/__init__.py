"""Reproduction of "Analysis of Dynamic Congestion Control Protocols:
A Fokker-Planck Approximation" (Mukherjee & Strikwerda, 1991).

The package provides (README.md and ``docs/`` describe each part):

* :mod:`repro.core` -- the Fokker-Planck solver for the joint density of
  queue length and queue growth rate under feedback rate control
  (Equation 14 of the paper),
* :mod:`repro.control` -- the rate- and window-control algorithm library
  (JRJ linear-increase/exponential-decrease and friends),
* :mod:`repro.characteristics` -- the phase-plane analysis of Section 5
  (quadrant drifts, convergent spiral, Theorem 1),
* :mod:`repro.multisource` -- fairness and exact shares with many sources
  (Section 6),
* :mod:`repro.delay` -- delayed feedback, oscillations and unfairness
  (Section 7),
* :mod:`repro.fluid` -- the Bolot-Shankar fluid-approximation baseline,
* :mod:`repro.queueing` -- a packet-level discrete-event simulator,
* :mod:`repro.stochastic` -- Langevin Monte-Carlo validation of the PDE,
* :mod:`repro.analysis`, :mod:`repro.workloads` -- metrics, report tables
  and canonical scenarios shared by the examples and benchmarks,
* :mod:`repro.runner` -- parallel experiment orchestration: declarative
  job specs, multi-dimensional grids, a worker-process executor and a
  content-addressed on-disk result cache (see ``docs/runner.md``).

Quick start::

    from repro import (SystemParameters, JRJControl, FokkerPlanckSolver,
                       TimeParameters)

    params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2, sigma=0.3)
    control = JRJControl(c0=params.c0, c1=params.c1, q_target=params.q_target)
    solver = FokkerPlanckSolver(params, control)
    result = solver.solve_from_point(q0=0.0, rate0=0.5,
                                     time_params=TimeParameters(t_end=100.0))
    print(result.final_moments.mean_q, result.final_moments.std_q)
"""

from .config import (
    GridParameters,
    SourceParameters,
    SystemParameters,
    TimeParameters,
)
from .exceptions import (
    AnalysisError,
    ConfigurationError,
    ConvergenceError,
    EventBudgetError,
    GridError,
    JobTimeoutError,
    MassConservationError,
    NegativeDensityError,
    NonFiniteStateError,
    NumericalHealthError,
    QueueInvariantError,
    ReproError,
    ResidualHealthError,
    ResultTransportError,
    SimTimeError,
    SimulationError,
    StabilityError,
    StepSizeError,
    TransientJobError,
    WorkerCrashError,
)
from .health import HealthLog, HealthMonitor, HealthReport, resolve_health
from .control import (
    DECbitWindow,
    JacobsonWindow,
    JRJControl,
    LinearIncreaseLinearDecrease,
    MultiplicativeIncreaseMultiplicativeDecrease,
    RateControl,
    WindowControl,
    create_control,
)
from .core import (
    DensityMoments,
    DiscreteGenerator,
    FokkerPlanckResult,
    FokkerPlanckSolver,
    SparseOperator,
    assemble_generator,
    compute_moments,
    marginal_q,
    tail_probability,
)
from .characteristics import (
    CharacteristicBatch,
    CharacteristicTrajectory,
    analyze_spiral,
    find_equilibrium,
    integrate_characteristic,
    integrate_characteristic_batch,
    quadrant_drift_table,
    verify_theorem1,
    verify_theorem1_batch,
)
from .multisource import (
    MultiSourceModel,
    fairness_report,
    jain_fairness_index,
    predicted_equilibrium_shares,
)
from .delay import (
    DelayedSystem,
    RoundTripUpdateModel,
    delay_sweep,
    heterogeneous_delay_experiment,
    measure_oscillation,
)
from .fluid import FluidModel, compare_fluid_and_fokker_planck
from .queueing import (
    MultiHopConfig,
    MultiHopSimulator,
    NetworkConfig,
    SimulationResult,
    Simulator,
    SourceConfig,
)
from .crossval import CrossValidationReport, cross_validate
from .design import (
    DelayShiftedControl,
    GainGridScores,
    GainSweepResult,
    ObjectiveWeights,
    OperatingPointScore,
    RankedGain,
    StationaryDensity,
    StationaryEstimate,
    compare_with_marching,
    design_gains,
    score_gain_grid,
    solve_stationary,
)
from .stochastic import LangevinModel, compare_with_density, run_ensemble
from .numerics import available_backends, get_backend
from .runner import (
    JobSpec,
    MatrixResult,
    ResultCache,
    build_matrix,
    expand_grid,
    run_jobs,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # configuration
    "SystemParameters",
    "GridParameters",
    "TimeParameters",
    "SourceParameters",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "GridError",
    "ConvergenceError",
    "StabilityError",
    "SimulationError",
    "AnalysisError",
    "TransientJobError",
    "WorkerCrashError",
    "JobTimeoutError",
    "ResultTransportError",
    "NumericalHealthError",
    "NonFiniteStateError",
    "MassConservationError",
    "NegativeDensityError",
    "QueueInvariantError",
    "EventBudgetError",
    "SimTimeError",
    "StepSizeError",
    "ResidualHealthError",
    # numerical health monitoring
    "HealthReport",
    "HealthLog",
    "HealthMonitor",
    "resolve_health",
    # control laws
    "RateControl",
    "WindowControl",
    "JRJControl",
    "LinearIncreaseLinearDecrease",
    "MultiplicativeIncreaseMultiplicativeDecrease",
    "JacobsonWindow",
    "DECbitWindow",
    "create_control",
    # Fokker-Planck core
    "FokkerPlanckSolver",
    "FokkerPlanckResult",
    "DensityMoments",
    "compute_moments",
    "marginal_q",
    "tail_probability",
    "SparseOperator",
    "DiscreteGenerator",
    "assemble_generator",
    # characteristics / Section 5
    "CharacteristicBatch",
    "CharacteristicTrajectory",
    "integrate_characteristic",
    "integrate_characteristic_batch",
    "quadrant_drift_table",
    "find_equilibrium",
    "analyze_spiral",
    "verify_theorem1",
    "verify_theorem1_batch",
    # multiple sources / Section 6
    "MultiSourceModel",
    "predicted_equilibrium_shares",
    "fairness_report",
    "jain_fairness_index",
    # delayed feedback / Section 7
    "DelayedSystem",
    "RoundTripUpdateModel",
    "measure_oscillation",
    "delay_sweep",
    "heterogeneous_delay_experiment",
    # fluid baseline
    "FluidModel",
    "compare_fluid_and_fokker_planck",
    # packet-level simulator
    "Simulator",
    "SimulationResult",
    "NetworkConfig",
    "SourceConfig",
    "MultiHopConfig",
    "MultiHopSimulator",
    # DES-vs-FP cross-validation
    "CrossValidationReport",
    "cross_validate",
    # gain design / stationary solves
    "DelayShiftedControl",
    "StationaryEstimate",
    "StationaryDensity",
    "solve_stationary",
    "compare_with_marching",
    "ObjectiveWeights",
    "OperatingPointScore",
    "GainGridScores",
    "score_gain_grid",
    "RankedGain",
    "GainSweepResult",
    "design_gains",
    # Monte-Carlo validation
    "LangevinModel",
    "run_ensemble",
    "compare_with_density",
    # kernel backends
    "get_backend",
    "available_backends",
    # experiment orchestration
    "JobSpec",
    "MatrixResult",
    "ResultCache",
    "expand_grid",
    "build_matrix",
    "run_jobs",
]
