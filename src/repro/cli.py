"""Command-line interface for the reproduction's main experiments.

Installs no extra dependencies and prints the same plain-text tables the
benchmark harness uses, so results can be regenerated without touching
Python::

    python -m repro.cli theorem1
    python -m repro.cli density --sigma 0.5 --t-end 150
    python -m repro.cli delay-sweep --delays 0 2 4 8 --jobs 4
    python -m repro.cli fairness --sources 4
    python -m repro.cli multihop --extra-hops 3
    python -m repro.cli run density-grid --jobs 4
    python -m repro.cli cache info

Each classic sub-command runs one experiment family, a point function of
:mod:`repro.runner.experiments`.  On top of those, the :mod:`repro.runner`
orchestration layer adds:

* ``repro run <matrix>`` -- execute a named multi-dimensional experiment
  matrix (``repro run --list`` shows the registry) across ``--jobs`` worker
  processes, serving unchanged jobs from the content-addressed result
  cache and reporting the hit/computed/failed counts.  This includes the
  packet-level matrices built on the scenario registry of
  :mod:`repro.queueing.scenarios` (``des-dumbbell``, ``des-parking-lot``,
  ``des-chain``, ``des-mesh``) and ``des-crossval``, the DES-vs-FP
  cross-validation grid;
* ``repro design {stationary,sweep}`` -- the gain-design toolkit: direct
  stationary Fokker-Planck solves (``repro design stationary --sigma 0.5``,
  with ``--check-marching`` cross-checking against the time-marched tail)
  and coarse-to-fine gain sweeps over ``(c0, c1, q_target, mu)`` grids
  (``repro design sweep``), printing ranked gains and the
  oscillation-versus-relaxation Pareto front (see ``docs/design.md``).
  Each action has its own option set and rejects the other's options;
  ``--stepper`` and ``--t-end`` of ``design stationary`` need
  ``--check-marching``;
* ``repro cache {info,list,clear,prune}`` -- inspect, empty or age out
  that cache (``prune --older-than DAYS`` deletes stale entries; ``info``
  also reports quarantined corrupt entries);
* ``--jobs N``, ``--no-cache`` and ``--cache-dir PATH`` on the experiment
  sub-commands above, which route their evaluations through the same
  runner (``delay-sweep --jobs 4`` runs one worker process per delay);
  ``design sweep`` scores its grid in process and has none of them: its
  parallel, cached form is ``repro run design-gain-grid --jobs N``;
  ``theorem1 --portrait`` and ``design stationary --check-marching`` also
  compute in process, and exit 2 on any runner flag;
* ``repro ensemble`` -- Langevin ensemble of the stochastic model with
  final-time queue statistics; together with ``repro run`` and
  ``repro design sweep`` it accepts ``--retention {full,moments,none}``
  and ``--memmap-dir PATH``, selecting the trace data plane's history
  policy (full per-sample history, streamed constant-memory accumulators,
  or counters only -- see ``docs/dataplane.md``);
* fault tolerance for long campaigns (see ``docs/robustness.md``):
  ``--retries N`` re-executes transiently failed jobs with deterministic
  backoff, ``--timeout SECONDS`` kills and retries wedged jobs, and
  ``repro run`` journals every outcome so an interrupted campaign
  continues with ``repro run <matrix> --resume``;
* numerical health monitoring (:mod:`repro.health`): ``--health
  {strict,repair,observe,off}`` on the solver/simulator sub-commands
  selects how run-time invariant violations (non-finite densities, mass
  drift, negative queues, stalled solves) are handled, and ``repro
  health JOURNAL`` replays a campaign journal summarising the recorded
  health reports and repair counts per job.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from .analysis import (
    format_key_values,
    format_table,
    render_trajectory_portrait,
)
from .characteristics import verify_theorem1
from .config import GridParameters, SystemParameters
from .core.stepper import available_steppers
from .exceptions import ConfigurationError, ReproError
from .runner import (
    JobSpec,
    ResultCache,
    RunJournal,
    content_hash,
    default_cache_dir,
    print_progress,
    run_jobs,
)
from .runner.experiments import (
    available_matrices,
    delay_point,
    density_point,
    ensemble_point,
    fairness_point,
    get_matrix,
    multihop_point,
    stationary_point,
    theorem1_point,
)

__all__ = ["main", "build_parser"]


def _system_parameters(args: argparse.Namespace) -> SystemParameters:
    return SystemParameters(mu=args.mu, q_target=args.q_target, c0=args.c0,
                            c1=args.c1, sigma=getattr(args, "sigma", 0.0),
                            health=getattr(args, "health", None) or "",
                            stepper=getattr(args, "stepper", None) or "")


def _add_common_parameters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, default=1.0,
                        help="bottleneck service rate (default 1.0)")
    parser.add_argument("--q-target", type=float, default=10.0,
                        help="target queue length q_hat (default 10)")
    parser.add_argument("--c0", type=float, default=0.05,
                        help="linear increase rate C0 (default 0.05)")
    parser.add_argument("--c1", type=float, default=0.2,
                        help="exponential decrease constant C1 (default 0.2)")


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the job matrix "
                             "(default 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always recompute; do not read or write the "
                             "result cache")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="result-cache directory (default ~/.cache/repro "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--progress", action="store_true",
                        help="print per-job progress lines to stderr")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry transiently failed jobs (killed worker, "
                             "timeout, broken pool) up to N times with "
                             "deterministic backoff (default 0)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget; exceeded jobs are "
                             "killed and retried (needs --jobs > 1)")


def _add_dataplane_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retention", choices=["full", "moments", "none"],
                        default="full",
                        help="trace/path history policy: 'full' keeps every "
                             "recorded sample, 'moments' streams constant-"
                             "memory accumulators, 'none' keeps counters "
                             "only (default full; see docs/dataplane.md)")
    parser.add_argument("--memmap-dir", default=None, metavar="PATH",
                        help="spill full-history arrays to memory-mapped "
                             "scratch files under PATH instead of RAM "
                             "(retention=full only)")


def _add_stepper_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stepper", choices=available_steppers(),
                        default=None,
                        help="Fokker-Planck marching scheme: 'axis' is the "
                             "per-axis split (dense Crank-Nicolson "
                             "diffusion), 'adi' the 2-D Peaceman-Rachford "
                             "operator split on the sparse backend path "
                             "(default axis; see docs/performance.md)")


def _add_design_options(parser: argparse.ArgumentParser) -> None:
    """The options both ``design`` actions read."""
    _add_common_parameters(parser)
    _add_health_option(parser)
    parser.add_argument("--sigma", type=float, default=0.4,
                        help="diffusion coefficient (default 0.4)")
    parser.add_argument("--backend", default=None,
                        help="numerics backend for the null-space solve "
                             "(default: the configured backend)")


def _add_health_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--health", choices=["strict", "repair", "observe",
                                             "off"],
                        default=None,
                        help="numerical health policy: 'strict' aborts on "
                             "any invariant violation (typed errors), "
                             "'repair' applies logged corrections, "
                             "'observe' records reports only, 'off' runs "
                             "the unmonitored engines bit-identically "
                             "(default: $REPRO_HEALTH or observe; see "
                             "docs/robustness.md)")


#: The runner flags, in the order an error names them, with their defaults.
_RUNNER_FLAGS = (("--jobs", "jobs", 1), ("--timeout", "timeout", None),
                 ("--retries", "retries", 0), ("--no-cache", "no_cache", False),
                 ("--cache-dir", "cache_dir", None),
                 ("--progress", "progress", False))


def _reject_ignored_flags(args: argparse.Namespace) -> None:
    """Refuse a flag that the rest of the command line would make a no-op.

    Runs before any job, for every sub-command that has the flag.
    """
    in_process = [flag for flag, name in (("--portrait", "portrait"),
                                          ("--check-marching",
                                           "check_marching"))
                  if getattr(args, name, False)]
    if in_process:
        runner_flags = [flag for flag, name, default in _RUNNER_FLAGS
                        if getattr(args, name) != default]
        if runner_flags:
            raise ConfigurationError(
                f"{runner_flags[0]} is a runner flag, but {in_process[0]} "
                f"computes in this process without the runner")
    if getattr(args, "timeout", None) is not None and args.jobs <= 1:
        raise ConfigurationError(
            "--timeout needs --jobs > 1: a serial run cannot preempt its "
            "own jobs")
    if getattr(args, "memmap_dir", None) is not None \
            and args.retention != "full":
        raise ConfigurationError(
            f"--memmap-dir needs --retention full: --retention "
            f"{args.retention} keeps no history to spill")


def _cache_from(args: argparse.Namespace) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


def _journal_for(args: argparse.Namespace, matrix: str,
                 jobs: List[JobSpec]) -> Optional[RunJournal]:
    """The campaign journal for ``repro run``: derived path, resume-aware.

    The default path encodes the matrix name plus a digest of the job keys,
    so differently parameterised campaigns of the same matrix journal to
    different files.  Without ``--resume`` any existing journal is
    discarded first -- a fresh campaign must not silently skip work
    journaled by an older one.
    """
    if getattr(args, "no_journal", False):
        if getattr(args, "resume", False):
            raise ConfigurationError(
                "--resume needs the journal; drop --no-journal")
        return None
    if args.journal is not None:
        path = args.journal
    else:
        if getattr(args, "no_cache", False) and not getattr(args, "resume",
                                                            False):
            # The derived journal follows the cache's persistence choice;
            # an explicit --journal or --resume re-enables it.
            return None
        root = args.cache_dir if args.cache_dir else default_cache_dir()
        digest = content_hash(sorted(job.key for job in jobs))[:12]
        path = f"{root}/journals/{matrix}-{digest}.jsonl"
    journal = RunJournal(path)
    if not getattr(args, "resume", False):
        journal.clear()
    return journal


def _run_matrix(jobs: List[JobSpec], args: argparse.Namespace):
    result = run_jobs(jobs, n_jobs=args.jobs, cache=_cache_from(args),
                      progress=print_progress if args.progress else None,
                      retries=getattr(args, "retries", 0),
                      timeout=getattr(args, "timeout", None))
    result.raise_failures()
    return result


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fokker-Planck analysis of dynamic congestion control "
                    "(Mukherjee & Strikwerda, 1991) - experiment runner")
    subparsers = parser.add_subparsers(dest="command", required=True)

    theorem1 = subparsers.add_parser(
        "theorem1", help="verify Theorem 1 (stability without delay)")
    _add_common_parameters(theorem1)
    _add_runner_options(theorem1)
    theorem1.add_argument("--portrait", action="store_true",
                          help="also print the ASCII phase portrait")

    density = subparsers.add_parser(
        "density", help="solve the Fokker-Planck equation (Equation 14)")
    _add_common_parameters(density)
    _add_runner_options(density)
    _add_health_option(density)
    density.add_argument("--sigma", type=float, default=0.5,
                         help="diffusion coefficient (default 0.5)")
    density.add_argument("--t-end", type=float, default=150.0,
                         help="integration horizon (default 150)")
    _add_stepper_option(density)
    density.add_argument("--nq", type=int, default=120,
                         help="queue grid points (default 120)")
    density.add_argument("--nv", type=int, default=90,
                         help="growth-rate grid points (default 90)")

    sweep = subparsers.add_parser(
        "delay-sweep", help="oscillation amplitude/period versus feedback delay")
    _add_common_parameters(sweep)
    _add_runner_options(sweep)
    sweep.add_argument("--delays", type=float, nargs="+",
                       default=[0.0, 2.0, 4.0, 8.0],
                       help="feedback delays to sweep")
    sweep.add_argument("--t-end", type=float, default=600.0,
                       help="integration horizon per delay (default 600)")

    fairness = subparsers.add_parser(
        "fairness", help="multi-source fairness (Section 6)")
    _add_common_parameters(fairness)
    _add_runner_options(fairness)
    fairness.add_argument("--sources", type=int, default=4,
                          help="number of identical sources (default 4)")
    fairness.add_argument("--t-end", type=float, default=700.0,
                          help="integration horizon (default 700)")

    multihop = subparsers.add_parser(
        "multihop", help="hop-count unfairness on the parking-lot topology")
    _add_runner_options(multihop)
    _add_health_option(multihop)
    multihop.add_argument("--extra-hops", type=int, default=2,
                          help="hops the long connection traverses before "
                               "the shared node (default 2)")
    multihop.add_argument("--duration", type=float, default=300.0,
                          help="simulated duration (default 300)")
    multihop.add_argument("--service-rate", type=float, default=10.0,
                          help="per-node service rate (default 10)")

    ensemble = subparsers.add_parser(
        "ensemble", help="Langevin ensemble of the stochastic model "
                         "(Equation 12); final-time queue statistics")
    _add_common_parameters(ensemble)
    _add_runner_options(ensemble)
    _add_dataplane_options(ensemble)
    _add_health_option(ensemble)
    ensemble.add_argument("--sigma", type=float, default=0.5,
                          help="diffusion coefficient (default 0.5)")
    ensemble.add_argument("--t-end", type=float, default=60.0,
                          help="integration horizon (default 60)")
    ensemble.add_argument("--n-paths", type=int, default=500,
                          help="sample paths in the ensemble (default 500)")
    ensemble.add_argument("--dt", type=float, default=0.02,
                          help="Euler-Maruyama step (default 0.02)")
    ensemble.add_argument("--seed", type=int, default=1991,
                          help="ensemble master seed (default 1991)")

    run = subparsers.add_parser(
        "run", help="run a named experiment matrix through the parallel "
                    "runner (see --list)")
    _add_common_parameters(run)
    _add_runner_options(run)
    _add_dataplane_options(run)
    _add_health_option(run)
    run.add_argument("matrix", nargs="?", default=None,
                     help="matrix name (e.g. density-grid); see --list")
    run.add_argument("--list", action="store_true", dest="list_matrices",
                     help="list the available experiment matrices and exit")
    run.add_argument("--seed", type=int, default=None,
                     help="master seed for per-job seed derivation")
    run.add_argument("--t-end", type=float, default=None,
                     help="override the matrix's per-job horizon")
    run.add_argument("--resume", action="store_true",
                     help="replay the campaign journal and skip journaled "
                          "successes (continue an interrupted campaign)")
    run.add_argument("--journal", default=None, metavar="PATH",
                     help="campaign journal file (default: derived from the "
                          "matrix under <cache-root>/journals/; with "
                          "--no-cache the derived journal is disabled too "
                          "unless --resume or an explicit path is given)")
    run.add_argument("--no-journal", action="store_true",
                     help="do not journal outcomes (disables --resume)")

    design = subparsers.add_parser(
        "design", help="gain design: stationary solves and objective sweeps")
    actions = design.add_subparsers(dest="action", required=True)
    stationary = actions.add_parser(
        "stationary", help="solve L p = 0 directly",
        description="Solve the stationary Fokker-Planck equation L p = 0 "
                    "directly through the runner; --check-marching also "
                    "time-marches the same configuration and reports the "
                    "relative moment differences.")
    _add_design_options(stationary)
    _add_runner_options(stationary)
    stationary.add_argument("--dt", type=float, default=None,
                            help="splitting step (default: auto)")
    stationary.add_argument("--method",
                            choices=["splitting", "generator"],
                            default="splitting",
                            help="stationary operator: the one-step "
                                 "splitting fixed point (matches marching) "
                                 "or the continuous generator (the ADI "
                                 "fixed point)")
    _add_stepper_option(stationary)
    stationary.add_argument("--delay", type=float, default=0.0,
                            help="feedback delay for the shifted-drift "
                                 "closure (default 0 = undelayed)")
    stationary.add_argument("--nq", type=int, default=48,
                            help="queue grid points (default 48)")
    stationary.add_argument("--nv", type=int, default=36,
                            help="growth-rate grid points (default 36)")
    stationary.add_argument("--q-max", type=float, default=30.0,
                            help="queue grid extent (default 30)")
    stationary.add_argument("--v-span", type=float, default=1.2,
                            help="growth-rate grid half-extent (default 1.2)")
    stationary.add_argument("--check-marching", action="store_true",
                            help="also time-march to --t-end with --stepper "
                                 "and report the relative moment differences")
    stationary.add_argument("--t-end", type=float, default=None,
                            help="marching-check horizon (default 400; needs "
                                 "--check-marching)")

    sweep = actions.add_parser(
        "sweep", help="rank a (c0, c1, q_target, mu) grid",
        description="Score a (c0, c1, q_target, mu) gain grid from batched "
                    "characteristics in this process, refine the best points "
                    "with stationary solves, and print the ranked gains and "
                    "the Pareto front.  For a parallel, cached sweep use "
                    "'repro run design-gain-grid --jobs N'.")
    _add_design_options(sweep)
    _add_dataplane_options(sweep)
    sweep.add_argument("--dt", type=float, default=0.1,
                       help="trajectory step (default 0.1)")
    sweep.add_argument("--t-end", type=float, default=150.0,
                       help="trajectory horizon (default 150)")
    sweep.add_argument("--n-c0", type=int, default=10,
                       help="c0 axis size (default 10)")
    sweep.add_argument("--n-c1", type=int, default=10,
                       help="c1 axis size (default 10)")
    sweep.add_argument("--n-q-target", type=int, default=10,
                       help="q_target axis size (default 10)")
    sweep.add_argument("--n-mu", type=int, default=10,
                       help="mu axis size (default 10)")
    sweep.add_argument("--top-k", type=int, default=16,
                       help="points carried into the stationary refinement "
                            "stage (default 16)")
    sweep.add_argument("--chunk-size", type=int, default=None,
                       help="most gain points per batched-trajectory chunk "
                            "(default: automatic, the fewest equal chunks "
                            "whose queue series fit a fixed memory budget)")

    health = subparsers.add_parser(
        "health", help="summarise the numerical-health reports recorded in "
                       "a campaign journal")
    health.add_argument("journal", metavar="JOURNAL",
                        help="path of a 'repro run' campaign journal "
                             "(.jsonl)")
    health.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable summary instead of "
                             "tables")

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the content-addressed result cache")
    cache.add_argument("action", choices=["info", "list", "clear", "prune"],
                       help="what to do with the cache")
    cache.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="cache directory (default ~/.cache/repro)")
    cache.add_argument("--older-than", type=float, default=None,
                       metavar="DAYS",
                       help="prune: delete entries created more than DAYS "
                            "days ago")

    return parser


def _run_theorem1(args: argparse.Namespace) -> int:
    params = _system_parameters(args)
    if args.portrait:
        # The portrait needs the full trajectory, which the compact runner
        # result intentionally omits; compute directly.
        verification = verify_theorem1(params)
        summary = {
            "converges": verification.converges,
            "final_queue_error": verification.final_queue_error,
            "final_rate_error": verification.final_rate_error,
            "mean_contraction_ratio": verification.mean_contraction_ratio,
        }
        portrait = render_trajectory_portrait(verification.trajectory)
    else:
        outcome = _run_matrix(
            [JobSpec(theorem1_point, params=params)], args).outcomes[0]
        summary = outcome.value
        portrait = None
    print(format_key_values("Theorem 1 verification", {
        "converges": summary["converges"],
        "final |q - q_target|": summary["final_queue_error"],
        "final |rate - mu|": summary["final_rate_error"],
        "mean peak contraction": summary["mean_contraction_ratio"],
    }))
    if portrait is not None:
        print()
        print(portrait)
    return 0 if summary["converges"] else 1


def _run_density(args: argparse.Namespace) -> int:
    params = _system_parameters(args)
    job = JobSpec(density_point, params=params,
                  overrides={"t_end": args.t_end, "nq": args.nq,
                             "nv": args.nv})
    value = _run_matrix([job], args).outcomes[0].value
    print(format_table(value["snapshots"],
                       title="Fokker-Planck moments over time"))
    print(format_key_values("final density", {
        "mean queue": value["mean_queue"],
        "std queue": value["std_queue"],
        "P(Q > 2 q_target)": value["overflow_probability"],
    }))
    return 0


def _run_delay_sweep(args: argparse.Namespace) -> int:
    params = _system_parameters(args)
    jobs = [JobSpec(delay_point, params=params,
                    overrides={"delay": float(delay), "t_end": args.t_end})
            for delay in args.delays]
    result = _run_matrix(jobs, args)
    rows = [
        {
            "delay": value["delay"],
            "sustained": value["sustained"],
            "queue_amplitude": value["queue_amplitude"],
            "period": value["period"],
        }
        for value in (outcome.value for outcome in result)
    ]
    print(format_table(rows, title="oscillation versus feedback delay"))
    return 0


def _run_fairness(args: argparse.Namespace) -> int:
    params = _system_parameters(args)
    job = JobSpec(fairness_point, params=params,
                  overrides={"n_sources": args.sources, "t_end": args.t_end})
    value = _run_matrix([job], args).outcomes[0].value
    print(format_table(value["rows"], title="multi-source fairness"))
    print(format_key_values("summary", {"Jain index": value["jain_index"]}))
    return 0


def _run_multihop(args: argparse.Namespace) -> int:
    overrides = {
        "extra_hops": args.extra_hops,
        "duration": args.duration,
        "service_rate": args.service_rate,
    }
    # The default ("" = resolve the environment/observe) is omitted so the
    # job's cache key matches runs from before the knob existed.
    if getattr(args, "health", None):
        overrides["health"] = args.health
    job = JobSpec(multihop_point, overrides=overrides)
    value = _run_matrix([job], args).outcomes[0].value
    rows = [
        {"route": row["route"], "hops": row["hops"],
         "throughput": row["throughput"]}
        for row in value["throughput_by_hops"]
    ]
    print(format_table(rows, title="throughput by hop count (parking lot)"))
    print(format_key_values("summary", {
        "long/short throughput ratio": value["long_to_short_ratio"],
        "Jain index": value["jain_index"],
    }))
    return 0


def _run_ensemble(args: argparse.Namespace) -> int:
    params = _system_parameters(args)
    overrides = {"t_end": args.t_end, "n_paths": args.n_paths, "dt": args.dt}
    # Default data-plane knobs are omitted so the job's cache key matches
    # runs from before the knobs existed (and the ensemble-grid matrix).
    if args.retention != "full":
        overrides["retention"] = args.retention
    if args.memmap_dir is not None:
        overrides["memmap_dir"] = args.memmap_dir
    job = JobSpec(ensemble_point, params=params, seed=args.seed,
                  overrides=overrides)
    value = _run_matrix([job], args).outcomes[0].value
    print(format_key_values(
        f"Langevin ensemble at t={args.t_end:g} "
        f"({args.n_paths} paths, retention={args.retention})", {
            "mean queue": value["mean_queue"],
            "std queue": value["std_queue"],
            "P(Q > 2 q_target)": value["overflow_probability"],
        }))
    return 0


def _run_run(args: argparse.Namespace) -> int:
    if args.list_matrices:
        rows = [{"matrix": definition.name,
                 "description": definition.description}
                for definition in available_matrices()]
        print(format_table(rows, title="available experiment matrices"))
        return 0
    if args.matrix is None:
        print("error: name a matrix to run, or pass --list", file=sys.stderr)
        return 2

    params = _system_parameters(args)
    definition = get_matrix(args.matrix)
    build_kwargs = {}
    if definition.supports_retention:
        build_kwargs["retention"] = args.retention
        build_kwargs["memmap_dir"] = args.memmap_dir
    elif args.retention != "full" or args.memmap_dir is not None:
        raise ConfigurationError(
            f"matrix {definition.name!r} does not support "
            "--retention/--memmap-dir (its jobs keep no trace history)")
    if definition.supports_health and args.health:
        # Matrices whose jobs take no SystemParameters (the DES scenarios)
        # receive the policy as an explicit per-job override; the others
        # inherit it through params.health.
        build_kwargs["health"] = args.health
    jobs = definition.build(params, args.seed, args.t_end, **build_kwargs)
    journal = _journal_for(args, definition.name, jobs)

    started = time.perf_counter()
    result = run_jobs(jobs, n_jobs=args.jobs, cache=_cache_from(args),
                      progress=print_progress if args.progress else None,
                      retries=args.retries, timeout=args.timeout,
                      journal=journal)
    elapsed = time.perf_counter() - started
    if journal is not None:
        journal.close()

    rows = []
    for outcome in result:
        row = {"job": outcome.spec.label,
               "status": "cached" if outcome.from_cache
               else ("ok" if outcome.ok else "FAILED")}
        if outcome.ok and isinstance(outcome.value, dict):
            row.update({name: value for name, value in outcome.value.items()
                        if isinstance(value, (int, float, bool))})
        rows.append(row)
    print(format_table(rows, title=f"{definition.name}: {definition.description}"))
    summary = {
        "jobs": len(result),
        "cache hits": result.cache_hits,
        "computed": result.computed,
        "failed": len(result.failures),
        "workers": args.jobs,
        "wall clock [s]": round(elapsed, 3),
    }
    if journal is not None:
        summary["journal"] = str(journal.path)
        if args.resume:
            summary["resumed (journal hits)"] = result.journal_hits
    if result.retried:
        summary["retried"] = result.retried
    print(format_key_values("matrix summary", summary))
    for outcome in result.failures:
        print(f"\nFAILED {outcome.spec.label}:\n{outcome.error}",
              file=sys.stderr)
    return 0 if not result.failures else 1


def _design_grid(args: argparse.Namespace) -> GridParameters:
    return GridParameters(q_max=args.q_max, nq=args.nq, v_min=-args.v_span,
                          v_max=args.v_span, nv=args.nv)


def _run_design_stationary(args: argparse.Namespace,
                           params: SystemParameters) -> int:
    marching_only = [flag for flag, value in (("--stepper", args.stepper),
                                              ("--t-end", args.t_end))
                     if value is not None]
    if marching_only and not args.check_marching:
        raise ConfigurationError(
            f"'design stationary' reads {' and '.join(marching_only)} only "
            f"with --check-marching: the direct solve does not march")
    if args.check_marching:
        # The marching cross-check needs the full density, which the
        # compact runner result intentionally omits; compute directly.
        from .design import compare_with_marching, solve_stationary
        density = solve_stationary(params, grid_params=_design_grid(args),
                                   dt=args.dt, method=args.method,
                                   backend=args.backend, delay=args.delay)
        estimate = density.estimate
        summary = {
            "mean_queue": estimate.mean_queue,
            "std_queue": estimate.std_queue,
            "mean_growth_rate": estimate.mean_growth_rate,
            "std_growth_rate": estimate.std_growth_rate,
            "residual": estimate.residual,
            "iterations": estimate.iterations,
            "method": estimate.method,
            "backend": estimate.backend,
            "dt": estimate.dt,
        }
        comparison = compare_with_marching(
            density, params, grid_params=_design_grid(args),
            t_end=args.t_end if args.t_end is not None else 400.0,
            delay=args.delay)
    else:
        job = JobSpec(stationary_point, params=params, overrides={
            "nq": args.nq, "nv": args.nv, "q_max": args.q_max,
            "v_span": args.v_span, "dt": args.dt, "method": args.method,
            "backend": args.backend, "delay": args.delay})
        summary = _run_matrix([job], args).outcomes[0].value
        comparison = None
    print(format_key_values("stationary density", {
        "mean queue": summary["mean_queue"],
        "std queue": summary["std_queue"],
        "mean growth rate": summary["mean_growth_rate"],
        "std growth rate": summary["std_growth_rate"],
        "residual": summary["residual"],
        "null solve": f"{summary['backend']} ({summary['iterations']} it)",
        "operator": summary["method"],
        "dt": summary["dt"],
    }))
    if comparison is not None:
        print()
        print(format_key_values(
            f"versus marching to t={comparison['t_end']:g}",
            {f"relative d {name}": value
             for name, value in comparison["relative"].items()}))
    return 0


def _run_design_sweep(args: argparse.Namespace,
                      params: SystemParameters) -> int:
    from .design import default_axes, design_gains
    axes = default_axes(params, n_c0=args.n_c0, n_c1=args.n_c1,
                        n_q_target=args.n_q_target, n_mu=args.n_mu)
    started = time.perf_counter()
    result = design_gains(
        params, axes["c0_values"], axes["c1_values"],
        axes["q_target_values"], axes["mu_values"],
        top_k=args.top_k, chunk_size=args.chunk_size,
        t_end=args.t_end, dt=args.dt, backend=args.backend,
        retention=args.retention, memmap_dir=args.memmap_dir)
    elapsed = time.perf_counter() - started

    def _row(gain) -> dict:
        row = {"rank": gain.rank, "c0": gain.c0, "c1": gain.c1,
               "q_target": gain.q_target, "mu": gain.mu,
               "score": gain.score,
               "amplitude": gain.oscillation_amplitude,
               "relax [t]": gain.relaxation_time}
        if gain.refined:
            row["stationary mean q"] = gain.stationary_mean_queue
        return row

    print(format_table([_row(gain) for gain in result.ranked],
                       title="ranked gains (lower score is better)"))
    print()
    print(format_table([_row(gain) for gain in result.pareto],
                       title="oscillation-vs-relaxation Pareto front"))
    print(format_key_values("sweep summary", {
        "points": result.n_points,
        "chunks": result.chunks,
        "retention": result.retention,
        "refined (stationary solves)": result.n_refined,
        "coarse horizon": result.t_end,
        "wall clock [s]": round(elapsed, 3),
    }))
    return 0


def _run_design(args: argparse.Namespace) -> int:
    params = _system_parameters(args)
    if args.action == "stationary":
        return _run_design_stationary(args, params)
    return _run_design_sweep(args, params)


def _run_health(args: argparse.Namespace) -> int:
    """Replay a campaign journal and summarise its health reports."""
    import json
    import os

    if not os.path.exists(args.journal):
        raise ConfigurationError(f"no journal at {args.journal!r}")
    journal = RunJournal(args.journal, fsync=False)
    try:
        records = journal.replay()
    finally:
        journal.close()

    rows = []
    totals = {"jobs": 0, "monitored": 0, "reports": 0, "repairs": 0,
              "failed": 0}
    by_invariant: dict = {}
    job_payloads = []
    for record in sorted(records.values(), key=lambda r: r.label):
        totals["jobs"] += 1
        summary = None
        if record.ok and isinstance(record.value, dict):
            summary = record.value.get("health")
        if not record.ok:
            totals["failed"] += 1
        row = {"job": record.label,
               "status": "ok" if record.ok else "FAILED",
               "reports": 0, "repairs": 0, "invariants": "-"}
        payload = {"job": record.label, "ok": record.ok}
        if summary:
            totals["monitored"] += 1
            totals["reports"] += int(summary.get("n_reports", 0))
            totals["repairs"] += int(summary.get("n_repairs", 0))
            invariants = sorted({report["invariant"]
                                 for report in summary.get("reports", ())})
            for report in summary.get("reports", ()):
                entry = by_invariant.setdefault(
                    report["invariant"], {"reports": 0, "repairs": 0})
                entry["reports"] += 1
                if report.get("action") == "repair":
                    entry["repairs"] += 1
            row.update(reports=int(summary.get("n_reports", 0)),
                       repairs=int(summary.get("n_repairs", 0)),
                       invariants=", ".join(invariants) or "-")
            payload["health"] = summary
        if not record.ok:
            payload["error"] = record.error
            # Journalled errors carry the full traceback; the exception
            # line at the end is the informative one.
            lines = [line for line in (record.error or "").splitlines()
                     if line.strip()]
            row["invariants"] = lines[-1].strip()[:60] if lines else "-"
        rows.append(row)
        job_payloads.append(payload)

    if args.as_json:
        print(json.dumps({"journal": str(args.journal), "totals": totals,
                          "by_invariant": by_invariant,
                          "jobs": job_payloads},
                         indent=2, sort_keys=True))
        return 0
    print(format_table(rows, title=f"health replay of {args.journal}"))
    if by_invariant:
        print()
        print(format_table(
            [{"invariant": name, **counts}
             for name, counts in sorted(by_invariant.items())],
            title="reports by invariant"))
    print(format_key_values("health summary", totals))
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "prune":
        if args.older_than is None:
            print("error: cache prune requires --older-than DAYS",
                  file=sys.stderr)
            return 2
        removed = cache.prune(args.older_than * 86400.0)
        print(f"pruned {removed} cache entries older than "
              f"{args.older_than:g} days from {cache.root}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
        return 0
    entries = cache.entries()
    if args.action == "list":
        rows = [
            {
                "key": entry.key[:12],
                "label": entry.label,
                "function": entry.function.rsplit(":", 1)[-1],
                "encoding": entry.encoding,
                "size [B]": entry.size_bytes,
            }
            for entry in sorted(entries, key=lambda e: e.created)
        ]
        print(format_table(rows, title=f"cache entries under {cache.root}"))
        return 0
    print(format_key_values(f"result cache at {cache.root}", {
        "entries": len(entries),
        "total size [B]": cache.size_bytes(),
        "quarantined (corrupt)": cache.quarantined_count(),
    }))
    return 0


_COMMANDS = {
    "theorem1": _run_theorem1,
    "density": _run_density,
    "delay-sweep": _run_delay_sweep,
    "ensemble": _run_ensemble,
    "fairness": _run_fairness,
    "multihop": _run_multihop,
    "run": _run_run,
    "design": _run_design,
    "health": _run_health,
    "cache": _run_cache,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    A configuration error exits 2 and any other library error, such as a
    failed job, exits 1; both print one ``error:`` line to stderr.
    """
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        _reject_ignored_flags(args)
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2 if isinstance(error, ConfigurationError) else 1


if __name__ == "__main__":
    sys.exit(main())
