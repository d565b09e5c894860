"""Module-level experiment functions and named job matrices for the CLI.

Every function here is a picklable, importable job callable: it takes a
:class:`~repro.config.SystemParameters` first, keyword overrides after,
and returns a JSON-friendly dictionary of headline metrics (so cached
results live in plain ``result.json`` files).  The registry at the bottom
maps matrix names (``repro run <name>``) to builders producing a job list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..characteristics import verify_theorem1, verify_theorem1_batch
from ..config import GridParameters, SystemParameters, TimeParameters
from ..control.jrj import jrj_from_parameters
from ..crossval import cross_validate
from ..delay.delayed_model import DelayedSystem
from ..design import default_axes, score_gain_grid, solve_stationary
from ..delay.oscillation import measure_oscillation
from ..exceptions import ConfigurationError
from ..multisource import MultiSourceModel, fairness_report
from ..queueing import MultiHopSimulator, Simulator
from ..queueing.multihop import parking_lot_scenario
from ..queueing.scenarios import get_scenario
from ..workloads.scenarios import homogeneous_sources_scenario
from .grid import build_matrix
from .spec import JobSpec

__all__ = [
    "theorem1_point",
    "theorem1_batch_point",
    "density_point",
    "delay_point",
    "ensemble_point",
    "fairness_point",
    "multihop_point",
    "des_scenario_point",
    "crossval_point",
    "stationary_point",
    "design_chunk_point",
    "MatrixDefinition",
    "available_matrices",
    "get_matrix",
]


# ---------------------------------------------------------------------------
# Job callables.  Keep them module-level and keyword-friendly: the runner
# addresses them by ``module:qualname`` and hashes their keyword overrides.
# ---------------------------------------------------------------------------

def _with_health(value: dict, log) -> dict:
    """Attach a health-log summary to a job value — only when it has
    something to say, so healthy runs keep their pre-health value shape
    (and the ``repro health`` replay can tell quiet from unmonitored)."""
    if log is not None and log.n_reports:
        value["health"] = log.summary()
    return value

def theorem1_point(params: SystemParameters,
                   t_end: Optional[float] = None) -> dict:
    """Verify Theorem 1 convergence for one parameter combination.

    ``t_end=None`` lets :func:`~repro.characteristics.verify_theorem1` pick
    its parameter-scaled default horizon.
    """
    verification = verify_theorem1(params, t_end=t_end)
    return {
        "converges": bool(verification.converges),
        "final_queue_error": float(verification.final_queue_error),
        "final_rate_error": float(verification.final_rate_error),
        "mean_contraction_ratio": float(verification.mean_contraction_ratio),
    }


def theorem1_batch_point(params: SystemParameters,
                         c0_values: Optional[List[float]] = None,
                         c1_values: Optional[List[float]] = None,
                         t_end: Optional[float] = None,
                         dt: float = 0.02) -> dict:
    """Verify Theorem 1 over a ``c0 × c1`` chunk as one batched integration.

    The chunk's cross product is expanded in the row-major order
    :func:`~repro.runner.grid.expand_grid` uses (``c0`` slowest) and every
    member is integrated in one vectorized run.  With an explicit *t_end*
    each point's verdict is identical to :func:`theorem1_point` on the
    matching parameters.  With ``t_end=None`` the chunk shares the largest
    member's default horizon, so mixed-``c0`` chunks integrate their
    smaller-``c0`` members longer than the scalar default would (the
    in-tree ``theorem1-grid`` chunks are single-``c0``, where the shared
    default equals the scalar one).
    """
    c0_list = [params.c0] if c0_values is None else [float(v)
                                                    for v in c0_values]
    c1_list = [params.c1] if c1_values is None else [float(v)
                                                    for v in c1_values]
    columns = {
        "c0": np.repeat(c0_list, len(c1_list)),
        "c1": np.tile(c1_list, len(c0_list)),
    }
    verifications = verify_theorem1_batch(params, t_end=t_end, dt=dt,
                                          columns=columns)
    points = [
        {
            "c0": float(c0),
            "c1": float(c1),
            "converges": bool(verification.converges),
            "final_queue_error": float(verification.final_queue_error),
            "final_rate_error": float(verification.final_rate_error),
            "mean_contraction_ratio":
                float(verification.mean_contraction_ratio),
        }
        # The columns arrays are the authoritative point ordering.
        for c0, c1, verification in zip(columns["c0"], columns["c1"],
                                        verifications, strict=True)
    ]
    return {
        "n_points": len(points),
        "n_converged": sum(point["converges"] for point in points),
        "all_converge": all(point["converges"] for point in points),
        "points": points,
    }


def density_point(params: SystemParameters, t_end: float = 60.0,
                  nq: int = 60, nv: int = 48, q_max: float = 40.0,
                  v_span: float = 1.5, snapshot_every: int = 30) -> dict:
    """Solve the Fokker-Planck equation and report density moments."""
    from ..core.solver import FokkerPlanckSolver

    grid = GridParameters(q_max=q_max, nq=nq, v_min=-v_span, v_max=v_span,
                          nv=nv)
    control = jrj_from_parameters(params)
    solver = FokkerPlanckSolver(params, control, grid_params=grid)
    result = solver.solve_from_point(
        q0=0.0, rate0=0.5 * params.mu,
        time_params=TimeParameters(t_end=t_end, dt=max(t_end / 300.0, 0.1),
                                   snapshot_every=snapshot_every))
    moments = result.final_moments
    value = {
        "mean_queue": float(moments.mean_q),
        "std_queue": float(moments.std_q),
        "overflow_probability":
            float(result.overflow_probability(2.0 * params.q_target)),
        "snapshots": [
            {
                "time": float(snapshot.time),
                "mean_queue": float(snapshot.moments.mean_q),
                "std_queue": float(snapshot.moments.std_q),
            }
            for snapshot in result.snapshots
        ],
    }
    return _with_health(value, result.health)


def delay_point(params: SystemParameters, delay: float,
                t_end: float = 600.0, dt: float = 0.02) -> dict:
    """Integrate the delayed system and summarise its oscillation."""
    control = jrj_from_parameters(params)
    system = DelayedSystem(control, params, delay=float(delay))
    trajectory = system.solve(q0=0.0, rate0=0.5 * params.mu, t_end=t_end,
                              dt=dt)
    summary = measure_oscillation(trajectory)
    return {
        "delay": float(summary.delay),
        "sustained": bool(summary.sustained),
        "queue_amplitude": float(summary.queue_amplitude),
        "rate_amplitude": float(summary.rate_amplitude),
        "period": float(summary.period),
        "mean_queue": float(summary.mean_queue),
    }


def ensemble_point(params: SystemParameters, seed: int, t_end: float = 60.0,
                   n_paths: int = 500, dt: float = 0.02,
                   retention: str = "full",
                   memmap_dir: Optional[str] = None) -> dict:
    """Run a Langevin ensemble and report final-time queue statistics.

    ``retention="moments"`` streams per-time accumulators instead of the
    full path array (final-time statistics stay exact); ``"none"`` reads
    the mean/std from the streamed moments at the final time.
    """
    from ..stochastic.ensemble import run_ensemble

    ensemble = run_ensemble(jrj_from_parameters(params), params, q0=0.0,
                            rate0=0.5 * params.mu, t_end=t_end, dt=dt,
                            n_paths=n_paths, seed=seed, retention=retention,
                            memmap_dir=memmap_dir)
    if retention == "none":
        mean_queue = float(ensemble.mean_queue_series[-1])
        std_queue = float(ensemble.std_queue_series[-1])
    else:
        samples = ensemble.final_queue_samples()
        mean_queue = float(np.mean(samples))
        std_queue = float(np.std(samples))
    return _with_health({
        "mean_queue": mean_queue,
        "std_queue": std_queue,
        "overflow_probability":
            float(ensemble.overflow_probability(2.0 * params.q_target)),
    }, ensemble.health)


def fairness_point(params: SystemParameters, n_sources: int = 4,
                   t_end: float = 700.0) -> dict:
    """Multi-source fairness metrics for *n_sources* identical sources."""
    scenario_params, sources = homogeneous_sources_scenario(
        n_sources=n_sources, mu=params.mu, q_target=params.q_target,
        c0=params.c0, c1=params.c1)
    trajectory = MultiSourceModel(sources, scenario_params).solve(
        t_end=t_end, dt=0.05)
    report = fairness_report(trajectory, sources)
    return {
        "n_sources": int(n_sources),
        "jain_index": float(report.jain_index),
        "rows": report.rows(),
    }


def multihop_point(extra_hops: int = 2, duration: float = 300.0,
                   service_rate: float = 10.0, health: str = "") -> dict:
    """Parking-lot multihop unfairness metrics (no continuous parameters)."""
    config = parking_lot_scenario(n_extra_hops=extra_hops,
                                  service_rate=service_rate)
    result = MultiHopSimulator(config, health=health).run(duration=duration)
    return _with_health({
        "extra_hops": int(extra_hops),
        "long_to_short_ratio": float(result.long_to_short_ratio()),
        "jain_index": float(result.fairness_index()),
        "throughput_by_hops": [
            {"route": name, "hops": int(hops), "throughput": float(tp)}
            for hops, name, tp in result.throughput_by_hop_count()
        ],
    }, result.health)


def des_scenario_point(scenario: str, duration: float = 120.0,
                       seed: Optional[int] = None, retention: str = "full",
                       memmap_dir: Optional[str] = None,
                       health: str = "",
                       **scenario_kwargs) -> dict:
    """Run one registered DES scenario and report its headline metrics.

    *scenario* names an entry of :mod:`repro.queueing.scenarios`; extra
    keyword arguments are forwarded to its builder.  A ``seed`` (derived
    per job by the matrix layer) overrides the builder's default seed.
    ``retention`` selects the trace data plane's history policy (see
    :mod:`repro.dataplane`); queue averages are reported as NaN under
    ``"none"``, which keeps only counters.  ``health`` selects the
    numerical health policy for the run; non-empty report logs ride in
    the value under ``"health"``.
    """
    spec = get_scenario(scenario)
    if seed is not None:
        scenario_kwargs["seed"] = int(seed)
    config = spec.build(**scenario_kwargs)

    if spec.kind == "multihop":
        result = MultiHopSimulator(config, retention=retention,
                                   memmap_dir=memmap_dir,
                                   health=health).run(duration)
        throughputs = list(result.throughputs.values())
        return _with_health({
            "scenario": scenario,
            "kind": spec.kind,
            "jain_index": float(result.fairness_index()),
            "total_throughput": float(sum(throughputs)),
            "total_losses": int(sum(result.losses.values())),
            "max_node_mean_queue":
                float(max(result.node_mean_queue.values())),
            "events_executed": int(result.events_executed),
        }, result.health)

    result = Simulator(config, retention=retention,
                       memmap_dir=memmap_dir, health=health).run(duration)
    mean_queue = (float("nan") if retention == "none"
                  else float(result.mean_queue))
    return _with_health({
        "scenario": scenario,
        "kind": spec.kind,
        "jain_index": float(result.fairness_index()),
        "utilization": float(result.utilization()),
        "mean_queue": mean_queue,
        "total_losses": int(result.total_losses),
        "events_executed": int(result.events_executed),
    }, result.health)


def stationary_point(params: SystemParameters, nq: int = 48, nv: int = 36,
                     q_max: float = 30.0, v_span: float = 1.2,
                     dt: Optional[float] = None, method: str = "splitting",
                     backend: Optional[str] = None,
                     delay: float = 0.0) -> dict:
    """Solve the stationary Fokker-Planck density directly; report moments."""
    grid = GridParameters(q_max=q_max, nq=nq, v_min=-v_span, v_max=v_span,
                          nv=nv)
    density = solve_stationary(params, grid_params=grid, dt=dt, method=method,
                               backend=backend, delay=delay)
    estimate = density.estimate
    return _with_health({
        "mean_queue": float(estimate.mean_queue),
        "std_queue": float(estimate.std_queue),
        "mean_growth_rate": float(estimate.mean_growth_rate),
        "std_growth_rate": float(estimate.std_growth_rate),
        "residual": float(estimate.residual),
        "iterations": int(estimate.iterations),
        "method": str(estimate.method),
        "backend": str(estimate.backend),
        "dt": float(estimate.dt),
    }, density.health)


def design_chunk_point(params: SystemParameters,
                       c0_values: Optional[List[float]] = None,
                       c1_values: Optional[List[float]] = None,
                       q_target: Optional[float] = None,
                       mu: Optional[float] = None,
                       t_end: float = 150.0, dt: float = 0.1,
                       top_k: int = 5) -> dict:
    """Score one ``c0 × c1`` gain chunk at a fixed ``(q_target, mu)`` point.

    The chunk's cross product is expanded row-major (``c0`` slowest, the
    :func:`~repro.runner.grid.expand_grid` order) and scored as one batched
    characteristic run through
    :func:`~repro.design.objectives.score_gain_grid`; the ``design-gain-grid``
    matrix fans one job per ``(q_target, mu)`` pair.  The value reports no
    oscillation period, so the chunk computes none.
    """
    c0_list = [params.c0] if c0_values is None else [float(v)
                                                    for v in c0_values]
    c1_list = [params.c1] if c1_values is None else [float(v)
                                                    for v in c1_values]
    target = params.q_target if q_target is None else float(q_target)
    service = params.mu if mu is None else float(mu)
    c0 = np.repeat(c0_list, len(c1_list))
    c1 = np.tile(c1_list, len(c0_list))
    scores = score_gain_grid(params, c0, c1,
                             np.full(c0.size, target),
                             np.full(c0.size, service),
                             t_end=t_end, dt=dt,
                             period_points=lambda scores: ())
    ranking = scores.ranking()[:max(int(top_k), 1)]
    top = [scores.point(int(index)) for index in ranking]
    return {
        "n_points": int(scores.size),
        "q_target": float(target),
        "mu": float(service),
        "best_score": float(top[0].score),
        "top": [
            {
                "c0": point.c0,
                "c1": point.c1,
                "score": point.score,
                "oscillation_amplitude": point.oscillation_amplitude,
                "relaxation_time": point.relaxation_time,
                "queue_error": point.queue_error,
                "unfairness": point.unfairness,
            }
            for point in top
        ],
    }


def crossval_point(params: SystemParameters, n_sources: int = 1,
                   duration: float = 2000.0, t_end: float = 150.0,
                   nq: int = 100, nv: int = 70,
                   seed: int = 11) -> dict:
    """DES-vs-FP cross-validation metrics for one matched configuration."""
    report = cross_validate(params, n_sources=n_sources, duration=duration,
                            t_end=t_end, nq=nq, nv=nv, seed=int(seed))
    return report.to_dict()


# ---------------------------------------------------------------------------
# Named matrices for ``repro run``.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixDefinition:
    """A named, CLI-runnable job matrix.

    Builders take ``(params, seed, t_end)``; those with
    ``supports_retention=True`` additionally accept ``retention=`` and
    ``memmap_dir=`` keywords threading the trace data plane's history
    policy into every job (``repro run --retention/--memmap-dir``).
    Builders with ``supports_health=True`` additionally accept a
    ``health=`` keyword that arms the numerical-health monitor inside
    every job (``repro run --health``); matrices whose jobs carry
    :class:`~repro.config.SystemParameters` thread the policy through
    ``params.health`` instead.
    """

    name: str
    description: str
    build: Callable[..., List[JobSpec]]
    supports_retention: bool = False
    supports_health: bool = False


def _dataplane_fixed(fixed: Dict[str, object], retention: str,
                     memmap_dir: Optional[str],
                     health: str = "") -> Dict[str, object]:
    """Merge non-default data-plane knobs into a builder's fixed overrides.

    Defaults are *omitted* rather than spelled out so the job content hash
    -- and therefore the result cache key -- of a default-configured
    campaign is unchanged from before these knobs existed.  ``memmap_dir``
    never enters the key (see :meth:`JobSpec.fingerprint`).
    """
    if retention != "full":
        fixed["retention"] = str(retention)
    if memmap_dir is not None:
        fixed["memmap_dir"] = str(memmap_dir)
    if health:
        fixed["health"] = str(health)
    return fixed


def _density_grid(params: SystemParameters, seed: Optional[int],
                  t_end: Optional[float]) -> List[JobSpec]:
    return build_matrix(
        density_point, params,
        axes={"sigma": [0.2, 0.5, 0.8], "c1": [0.1, 0.2, 0.4, 0.8]},
        fixed={"t_end": t_end if t_end is not None else 60.0,
               "nq": 50, "nv": 40},
        master_seed=seed)


def _fp2d_grid(params: SystemParameters, seed: Optional[int],
               t_end: Optional[float]) -> List[JobSpec]:
    # The stepper axis updates SystemParameters.stepper (it is a parameter
    # field), so each point's content-addressed cache key distinguishes the
    # marching schemes; sigma spans the diffusion-light and diffusion-heavy
    # regimes where the axis and ADI steppers respectively win (see
    # docs/performance.md).
    return build_matrix(
        density_point, params,
        axes={"stepper": ["axis", "adi"], "sigma": [0.5, 2.0]},
        fixed={"t_end": t_end if t_end is not None else 40.0,
               "nq": 160, "nv": 96},
        master_seed=seed)


def _delay_grid(params: SystemParameters, seed: Optional[int],
                t_end: Optional[float]) -> List[JobSpec]:
    return build_matrix(
        delay_point, params,
        axes={"delay": [0.0, 1.0, 2.0, 4.0], "c1": [0.1, 0.2, 0.4]},
        fixed={"t_end": t_end if t_end is not None else 400.0, "dt": 0.05},
        master_seed=seed)


def _ensemble_grid(params: SystemParameters, seed: Optional[int],
                   t_end: Optional[float], retention: str = "full",
                   memmap_dir: Optional[str] = None) -> List[JobSpec]:
    return build_matrix(
        ensemble_point, params,
        axes={"sigma": [0.2, 0.4, 0.6, 0.8], "c0": [0.025, 0.05, 0.1]},
        fixed=_dataplane_fixed(
            {"t_end": t_end if t_end is not None else 40.0,
             "n_paths": 400},
            retention, memmap_dir),
        master_seed=seed if seed is not None else 1991)


def _theorem1_grid(params: SystemParameters, seed: Optional[int],
                   t_end: Optional[float]) -> List[JobSpec]:
    # One batched job per c0 chunk: each job integrates its whole c1 row as
    # a single vectorized characteristic run instead of one process task per
    # grid point.  Verdicts are identical to the per-point form.
    c0_values = [0.025, 0.05, 0.1, 0.2]
    c1_values = (0.1, 0.2, 0.4)
    horizon = t_end if t_end is not None else 400.0
    # Override values are tuples, not lists, so the frozen JobSpec stays
    # hashable; the canonical-JSON hash treats both identically.
    return [
        JobSpec(theorem1_batch_point, params=params,
                overrides={"c0_values": (c0,), "c1_values": c1_values,
                           "t_end": horizon},
                label=f"c0={c0:g}, c1 in {list(c1_values)} (batched)")
        for c0 in c0_values
    ]


def _des_dumbbell_grid(params: SystemParameters, seed: Optional[int],
                       t_end: Optional[float], retention: str = "full",
                       memmap_dir: Optional[str] = None,
                       health: str = "") -> List[JobSpec]:
    return build_matrix(
        des_scenario_point, None,
        axes={"n_sources": [8, 32, 64]},
        fixed=_dataplane_fixed(
            {"scenario": "dumbbell",
             "duration": t_end if t_end is not None else 60.0},
            retention, memmap_dir, health),
        master_seed=seed)


def _des_parking_lot_grid(params: SystemParameters, seed: Optional[int],
                          t_end: Optional[float], retention: str = "full",
                          memmap_dir: Optional[str] = None,
                          health: str = "") -> List[JobSpec]:
    return build_matrix(
        des_scenario_point, None,
        axes={"n_extra_hops": [1, 2, 4],
              "scheme": ["jacobson", "decbit"]},
        fixed=_dataplane_fixed(
            {"scenario": "parking-lot",
             "duration": t_end if t_end is not None else 200.0},
            retention, memmap_dir, health),
        master_seed=seed)


def _des_chain_grid(params: SystemParameters, seed: Optional[int],
                    t_end: Optional[float], retention: str = "full",
                    memmap_dir: Optional[str] = None,
                    health: str = "") -> List[JobSpec]:
    return build_matrix(
        des_scenario_point, None,
        axes={"n_hops": [2, 4, 8]},
        fixed=_dataplane_fixed(
            {"scenario": "chain",
             "duration": t_end if t_end is not None else 200.0},
            retention, memmap_dir, health),
        master_seed=seed)


def _des_mesh_grid(params: SystemParameters, seed: Optional[int],
                   t_end: Optional[float], retention: str = "full",
                   memmap_dir: Optional[str] = None,
                   health: str = "") -> List[JobSpec]:
    return build_matrix(
        des_scenario_point, None,
        axes={"n_routes": [6, 12], "max_hops": [2, 4]},
        fixed=_dataplane_fixed(
            {"scenario": "mesh", "n_nodes": 8,
             "duration": t_end if t_end is not None else 150.0},
            retention, memmap_dir, health),
        master_seed=seed)


def _design_gain_grid(params: SystemParameters, seed: Optional[int],
                      t_end: Optional[float]) -> List[JobSpec]:
    # One batched job per (q_target, mu) operating point; each job scores
    # its whole c0 x c1 gain chunk in a single vectorized characteristic
    # run.  Override values are tuples so the frozen JobSpec stays hashable.
    axes = default_axes(params, n_c0=10, n_c1=10, n_q_target=4, n_mu=4)
    c0_values = tuple(float(value) for value in axes["c0_values"])
    c1_values = tuple(float(value) for value in axes["c1_values"])
    horizon = t_end if t_end is not None else 150.0
    return [
        JobSpec(design_chunk_point, params=params,
                overrides={"c0_values": c0_values, "c1_values": c1_values,
                           "q_target": float(q_target), "mu": float(mu),
                           "t_end": horizon},
                label=(f"q_target={q_target:g}, mu={mu:g} "
                       f"({len(c0_values) * len(c1_values)} gains, batched)"))
        for q_target in axes["q_target_values"]
        for mu in axes["mu_values"]
    ]


def _des_crossval_grid(params: SystemParameters, seed: Optional[int],
                       t_end: Optional[float]) -> List[JobSpec]:
    return build_matrix(
        crossval_point, params,
        axes={"sigma": [0.3, 0.5], "n_sources": [1, 4]},
        fixed={"duration": 2000.0,
               "t_end": t_end if t_end is not None else 150.0,
               "nq": 100, "nv": 70},
        master_seed=seed if seed is not None else 1991)


_MATRICES: Dict[str, MatrixDefinition] = {
    "density-grid": MatrixDefinition(
        "density-grid",
        "Fokker-Planck final moments over a sigma x c1 grid (12 jobs)",
        _density_grid),
    "fp2d-steppers": MatrixDefinition(
        "fp2d-steppers",
        "axis-vs-ADI FP moments over stepper x sigma at nq=160 (4 jobs)",
        _fp2d_grid),
    "delay-grid": MatrixDefinition(
        "delay-grid",
        "delayed-feedback oscillation metrics over delay x c1 (12 jobs)",
        _delay_grid),
    "ensemble-grid": MatrixDefinition(
        "ensemble-grid",
        "Langevin ensemble statistics over sigma x c0 (12 jobs, seeded)",
        _ensemble_grid, supports_retention=True),
    "theorem1-grid": MatrixDefinition(
        "theorem1-grid",
        "Theorem 1 convergence over c0 x c1 (4 batched jobs, 12 points)",
        _theorem1_grid),
    "des-dumbbell": MatrixDefinition(
        "des-dumbbell",
        "packet-level dumbbell scaling over n_sources (3 jobs, seeded)",
        _des_dumbbell_grid, supports_retention=True, supports_health=True),
    "des-parking-lot": MatrixDefinition(
        "des-parking-lot",
        "parking-lot unfairness over hops x scheme (6 jobs, seeded)",
        _des_parking_lot_grid, supports_retention=True, supports_health=True),
    "des-chain": MatrixDefinition(
        "des-chain",
        "N-hop chain with cross traffic over n_hops (3 jobs, seeded)",
        _des_chain_grid, supports_retention=True, supports_health=True),
    "des-mesh": MatrixDefinition(
        "des-mesh",
        "random-mesh DES over n_routes x max_hops (4 jobs, seeded)",
        _des_mesh_grid, supports_retention=True, supports_health=True),
    "des-crossval": MatrixDefinition(
        "des-crossval",
        "DES-vs-FP agreement over sigma x n_sources (4 jobs, seeded)",
        _des_crossval_grid),
    "design-gain-grid": MatrixDefinition(
        "design-gain-grid",
        "gain-design scores over q_target x mu (16 batched jobs, 1600 points)",
        _design_gain_grid),
}


def available_matrices() -> List[MatrixDefinition]:
    """All registered matrices, sorted by name."""
    return [_MATRICES[name] for name in sorted(_MATRICES)]


def get_matrix(name: str) -> MatrixDefinition:
    """Look up a matrix definition by name."""
    if name not in _MATRICES:
        known = ", ".join(sorted(_MATRICES))
        raise ConfigurationError(
            f"unknown experiment matrix {name!r} (available: {known})")
    return _MATRICES[name]
