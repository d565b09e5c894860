"""Parallel experiment orchestration with a content-addressed result cache.

This subsystem turns any experiment of the reproduction into a declarative,
picklable job and executes whole matrices of them with worker-process
parallelism, deterministic seeding and on-disk result reuse:

* :mod:`repro.runner.spec` -- :class:`JobSpec`, the *(callable,
  parameters, overrides, seed)* description of one evaluation, with a
  stable SHA-256 content hash;
* :mod:`repro.runner.grid` -- :func:`expand_grid` / :func:`build_matrix`,
  cartesian sweep construction with spawn-key-derived per-job seeds;
* :mod:`repro.runner.executor` -- :func:`run_jobs`, the supervised
  serial/parallel executor (the library's one process pool) with failure
  isolation, retries with deterministic backoff (:class:`RetryPolicy`),
  per-job timeouts, pool respawn on worker death, and progress reporting;
* :mod:`repro.runner.cache` -- :class:`ResultCache`, the content-addressed
  JSON + npz (+ pickle fallback) store under ``~/.cache/repro`` with
  fsync'd atomic writes and a ``corrupt/`` quarantine;
* :mod:`repro.runner.journal` -- :class:`RunJournal`, the crash-safe
  append-only outcome journal behind checkpoint/resume
  (``run_jobs(..., journal=...)`` / ``repro run --resume``);
* :mod:`repro.runner.faults` -- :class:`FaultPlan`, deterministic fault
  injection (worker kills, transient raises, timeout sleeps) for testing
  every recovery path above;
* :mod:`repro.runner.experiments` -- importable job callables and the named
  matrices behind ``repro run``.

Quick start::

    from repro import SystemParameters
    from repro.runner import ResultCache, build_matrix, run_jobs
    from repro.runner.experiments import density_point

    jobs = build_matrix(density_point, SystemParameters(),
                        axes={"sigma": [0.2, 0.5], "c1": [0.1, 0.2, 0.4]},
                        fixed={"t_end": 40.0})
    result = run_jobs(jobs, n_jobs=4, cache=ResultCache())
    print(result.summary())          # e.g. "6 jobs: 0 cache hits, ..."
    for outcome in result:
        print(outcome.spec.label, outcome.value)
"""

from .cache import CacheEntryInfo, ResultCache, default_cache_dir
from .executor import (
    JobOutcome,
    MatrixResult,
    RetryPolicy,
    print_progress,
    run_jobs,
)
from .faults import FaultPlan, InjectedTransientError, corrupt_cache_entry, \
    truncate_journal
from .grid import build_matrix, expand_grid
from .hashing import canonical_json, content_hash
from .journal import JournalRecord, RunJournal
from .spec import JobSpec, function_reference

__all__ = [
    "JobSpec",
    "function_reference",
    "canonical_json",
    "content_hash",
    "expand_grid",
    "build_matrix",
    "run_jobs",
    "JobOutcome",
    "MatrixResult",
    "RetryPolicy",
    "print_progress",
    "ResultCache",
    "CacheEntryInfo",
    "default_cache_dir",
    "RunJournal",
    "JournalRecord",
    "FaultPlan",
    "InjectedTransientError",
    "corrupt_cache_entry",
    "truncate_journal",
]
