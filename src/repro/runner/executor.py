"""Fault-tolerant parallel job execution with caching and checkpointing.

:func:`run_jobs` is the single entry point: it takes a list of
:class:`~repro.runner.JobSpec` objects and returns a
:class:`MatrixResult` whose outcomes are in submission order regardless of
completion order.  Execution is exact-deterministic: a job's result depends
only on its spec (function, params, overrides, seed), so running the same
matrix serially, in parallel, from cache, from a resumed journal -- or
through any schedule of injected faults absorbed by retries -- yields
bit-identical values.

Resilience layers (each optional, all composable):

* **Failure isolation** -- a job that raises is recorded as a failed
  outcome with its traceback; the rest of the matrix still runs.
* **Retries with deterministic backoff** -- ``retries=`` /
  ``retry_policy=`` re-execute jobs that fail *transiently* (killed
  worker, broken pool, timeout, unpicklable transport, or any raised
  :class:`~repro.exceptions.TransientJobError`).  Deterministic failures
  (``StabilityError``, ``ConvergenceError``, plain bugs) are never
  retried: re-running a bit-identical job cannot change the outcome.
* **Per-job timeouts and pool supervision** -- ``timeout=`` arms a
  watchdog that kills wedged workers; a ``BrokenProcessPool`` respawns a
  fresh pool and resubmits the surviving pending jobs instead of
  poisoning the whole matrix.
* **Checkpoint/resume** -- ``journal=`` appends every outcome to a
  crash-safe :class:`~repro.runner.journal.RunJournal`; a rerun with the
  same journal skips journaled successes, so a killed campaign continues
  where it left off.
* **Deterministic chaos** -- ``faults=`` (or the ``REPRO_FAULTS``
  environment variable) threads a
  :class:`~repro.runner.faults.FaultPlan` into every execution so each
  recovery path above is exercisable reproducibly in tests.

Only successful results are written to the cache.
"""

from __future__ import annotations

import heapq
import sys
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import ConfigurationError, SimulationError, TransientJobError
from .cache import ResultCache
from .faults import FaultPlan
from .journal import RunJournal
from .spec import JobSpec

__all__ = ["JobOutcome", "MatrixResult", "RetryPolicy", "run_jobs",
           "print_progress"]

ProgressCallback = Callable[[int, int, "JobOutcome"], None]

#: Supervision-loop tick: how often the watchdog and retry queue are
#: polled while futures are in flight.  Purely an upper bound on reaction
#: latency; never affects results.
_TICK_SECONDS = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How transient job failures are retried.

    The backoff schedule is *deterministic* (capped exponential, no
    jitter): retry ``k`` of a job waits
    ``min(backoff_max, backoff_base * backoff_factor ** (k - 1))``
    seconds, so a campaign's retry behaviour is reproducible run-to-run.

    ``retries`` bounds re-executions after an *observed* transient failure
    (an in-job :class:`~repro.exceptions.TransientJobError`, a timeout, an
    unpicklable transport).  Worker crashes are budgeted separately by
    ``max_crashes`` (default ``retries + 2``): when a pool breaks the
    executor cannot tell the job that killed the worker from innocent
    bystanders that were merely in flight, so crash resubmissions are
    bounded but not charged against the ordinary retry budget.
    """

    retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    max_crashes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("RetryPolicy.retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("RetryPolicy backoff must be >= 0")

    @property
    def crash_budget(self) -> int:
        if self.max_crashes is not None:
            return self.max_crashes
        return self.retries + 2

    def delay(self, failure_count: int) -> float:
        """Backoff before retry number *failure_count* (1-based)."""
        exponent = max(0, failure_count - 1)
        return min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** exponent)


@dataclass
class JobOutcome:
    """Result record of one job: value or error, provenance and timing."""

    spec: JobSpec
    key: str
    value: Any = None
    error: Optional[str] = None
    from_cache: bool = False
    from_journal: bool = False
    attempts: int = 1
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the job produced a value (freshly or from cache)."""
        return self.error is None


@dataclass
class MatrixResult:
    """Outcome of a whole job matrix, in submission order."""

    outcomes: List[JobOutcome] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def values(self) -> List[Any]:
        """Values of all successful jobs, raising if any job failed."""
        self.raise_failures()
        return [outcome.value for outcome in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def journal_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_journal)

    @property
    def computed(self) -> int:
        return sum(1 for outcome in self.outcomes
                   if outcome.ok and not outcome.from_cache
                   and not outcome.from_journal)

    @property
    def retried(self) -> int:
        """Jobs that needed more than one attempt."""
        return sum(1 for outcome in self.outcomes if outcome.attempts > 1)

    @property
    def failures(self) -> List[JobOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def raise_failures(self) -> None:
        """Raise :class:`SimulationError` describing all failed jobs, if any."""
        failed = self.failures
        if failed:
            details = "; ".join(
                f"{outcome.spec.label}: "
                f"{_last_line(outcome.error)}" for outcome in failed)
            raise SimulationError(
                f"{len(failed)} of {len(self.outcomes)} jobs failed: {details}")

    def summary(self) -> str:
        """One-line human-readable account of hits/computed/failures."""
        parts = [f"{len(self.outcomes)} jobs: {self.cache_hits} cache hits"]
        if self.journal_hits:
            parts.append(f"{self.journal_hits} journal hits")
        parts.append(f"{self.computed} computed")
        if self.retried:
            parts.append(f"{self.retried} retried")
        parts.append(f"{len(self.failures)} failed")
        return ", ".join(parts)


def _last_line(error: Optional[str]) -> str:
    """Final line of an error transcript, tolerating empty strings."""
    lines = (error or "").splitlines()
    return lines[-1] if lines else "<no error detail>"


def print_progress(done: int, total: int, outcome: JobOutcome) -> None:
    """Default progress reporter: one stderr line per finished job."""
    if outcome.from_cache:
        status = "cached"
    elif outcome.from_journal:
        status = "journaled"
    elif outcome.ok:
        status = "ok" if outcome.attempts == 1 \
            else f"ok after {outcome.attempts} attempts"
    else:
        status = "FAILED"
    print(f"[runner] {done}/{total} {outcome.spec.label}: {status} "
          f"({outcome.duration:.2f}s)", file=sys.stderr, flush=True)


def _execute_job(spec: JobSpec, attempt: int = 0, faults=None):
    """Worker-side execution: never raises.

    Returns ``(value, error, transient, seconds)`` where *error* is the
    formatted traceback (or ``None`` on success) and *transient* records
    whether the raised exception derived from
    :class:`~repro.exceptions.TransientJobError` -- the worker-side half
    of the retry classification.
    """
    start = time.perf_counter()
    try:
        if faults is not None:
            faults.apply(spec, attempt)
        value = spec.execute()
        return value, None, False, time.perf_counter() - start
    except Exception as error:  # KeyboardInterrupt/SystemExit stay interruptive
        transient = isinstance(error, TransientJobError)
        return None, traceback.format_exc(), transient, \
            time.perf_counter() - start


class _Supervisor:
    """Book-keeping shared by the serial and pooled execution paths."""

    def __init__(self, jobs: Sequence[JobSpec], outcomes: List[
                 Optional[JobOutcome]], done: int, total: int,
                 policy: RetryPolicy, cache: Optional[ResultCache],
                 journal: Optional[RunJournal],
                 progress: Optional[ProgressCallback]):
        self.jobs = jobs
        self.outcomes = outcomes
        self.done = done
        self.total = total
        self.policy = policy
        self.cache = cache
        self.journal = journal
        self.progress = progress
        self.dispatches: Dict[int, int] = {}  # index -> executions started
        self.failures: Dict[int, int] = {}    # index -> retryable failures
        self.crashes: Dict[int, int] = {}     # index -> pool-break charges
        self.durations: Dict[int, float] = {}

    def finish(self, index: int, value: Any, error: Optional[str],
               from_cache: bool = False, from_journal: bool = False) -> None:
        """Record the final outcome of job *index* and run the sinks."""
        spec = self.jobs[index]
        outcome = JobOutcome(
            spec=spec, key=spec.key, value=value, error=error,
            from_cache=from_cache, from_journal=from_journal,
            attempts=max(1, self.dispatches.get(index, 0)),
            duration=self.durations.get(index, 0.0))
        self.outcomes[index] = outcome
        self.done += 1
        if self.cache is not None and outcome.ok and not from_cache \
                and not from_journal:
            self.cache.put(outcome.key, outcome.value, meta={
                "label": spec.label,
                "function": spec.function_ref,
                "seed": spec.seed,
                "duration": outcome.duration,
            })
        if self.journal is not None and not from_journal:
            # Journal-replayed outcomes are already on disk; re-recording
            # them would only grow the journal on every resume.
            self.journal.record(outcome)
        if self.progress is not None:
            self.progress(self.done, self.total, outcome)

    def settle(self, index: int, value: Any, error: Optional[str],
               transient: bool, seconds: float) -> Optional[float]:
        """Fold one execution result; return a backoff delay to retry.

        Returns ``None`` when the job reached a final outcome (success or
        permanent failure), else the deterministic backoff in seconds
        before its next attempt.
        """
        self.durations[index] = self.durations.get(index, 0.0) + seconds
        if error is None:
            self.finish(index, value, None)
            return None
        if transient:
            count = self.failures.get(index, 0) + 1
            self.failures[index] = count
            if count <= self.policy.retries:
                return self.policy.delay(count)
        self.finish(index, None, error)
        return None

    def crash(self, index: int, message: str) -> Optional[float]:
        """Charge a pool-break to job *index*; return a retry delay or None."""
        count = self.crashes.get(index, 0) + 1
        self.crashes[index] = count
        if count <= self.policy.crash_budget:
            return self.policy.delay(count)
        self.finish(index, None, message)
        return None


def _run_serial(supervisor: _Supervisor, pending: Sequence[int],
                faults) -> None:
    for index in pending:
        spec = supervisor.jobs[index]
        while True:
            attempt = supervisor.dispatches.get(index, 0)
            supervisor.dispatches[index] = attempt + 1
            value, error, transient, seconds = _execute_job(
                spec, attempt, faults)
            delay = supervisor.settle(index, value, error, transient, seconds)
            if delay is None:
                break
            if delay > 0.0:
                time.sleep(delay)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's workers and discard it (watchdog / break recovery).

    The shutdown waits: once the workers are dead the pool's manager
    thread sees the break, closes the call queue and joins its feeder
    thread, and only then exits.  A pool discarded without that wait
    leaves both threads running, and at interpreter exit they write into
    pipes that are already closed.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except OSError:
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.join(timeout=2.0)
        except Exception:
            pass


def _run_supervised(supervisor: _Supervisor, pending: Sequence[int],
                    workers: int, timeout: Optional[float], faults) -> None:
    """Pooled execution with watchdog, pool respawn and retry scheduling.

    Jobs are submitted through a sliding window of at most *workers*
    in-flight futures, so every submitted job starts (approximately)
    immediately and the per-job ``timeout`` can be measured from
    submission.  Finished executions are settled -- cache put and journal
    append, both fsync'd -- only after the window has been refilled, so no
    worker idles through the durable writes.  A job already charged for a
    pool break is dispatched only into an empty window and runs alone,
    which makes a repeat break attributable to it.  A timed-out or broken
    pool is killed and respawned; the surviving pending jobs are
    resubmitted.  All scheduling here affects only *when* a job runs, never
    *what* it computes, so results remain bit-identical to the serial path.
    """
    queue = deque(pending)                 # indices ready to dispatch
    delayed: List[Tuple[float, int]] = []  # (eligible_at, index) retry heap
    inflight: Dict[Any, Tuple[int, float]] = {}  # future -> (index, start)
    harvested: List[tuple] = []  # settle() arguments awaiting their writes
    barren_respawns = 0  # consecutive respawns that dispatched nothing
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while queue or delayed or inflight or harvested:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[1])

            # Top up the in-flight window.  A job charged for a pool break
            # runs alone, so a repeat break is attributable to it.
            respawn = False
            isolating = any(supervisor.crashes.get(index, 0)
                            for index, _ in inflight.values())
            while queue and len(inflight) < workers:
                index = queue[0]
                charged = supervisor.crashes.get(index, 0) > 0
                if inflight and (charged or isolating):
                    break
                attempt = supervisor.dispatches.get(index, 0)
                try:
                    future = pool.submit(_execute_job, supervisor.jobs[index],
                                         attempt, faults)
                except BrokenProcessPool:
                    respawn = True
                    break
                queue.popleft()
                supervisor.dispatches[index] = attempt + 1
                inflight[future] = (index, time.monotonic())
                isolating = charged

            # The durable writes of the last harvest run only now, while
            # the refilled window computes.
            for index, *outcome in harvested:
                delay = supervisor.settle(index, *outcome)
                if delay is not None:
                    heapq.heappush(delayed, (time.monotonic() + delay, index))
            harvested.clear()

            if respawn:
                # The pool broke between harvests (worker died while idle
                # or while accepting work); nothing in flight is
                # trustworthy -- charge and reclaim it all, then respawn.
                barren_respawns = 0 if inflight else barren_respawns + 1
                if barren_respawns > 5:
                    raise SimulationError(
                        "worker pool breaks immediately on every respawn; "
                        "giving up (cannot spawn worker processes?)")
                _reclaim_broken(supervisor, inflight, delayed, queue)
                _terminate_pool(pool)
                pool = ProcessPoolExecutor(max_workers=workers)
                continue
            barren_respawns = 0

            if not inflight:
                if delayed:
                    time.sleep(max(0.0, min(_TICK_SECONDS,
                                            delayed[0][0] - now)))
                continue

            done, _ = wait(list(inflight), timeout=_TICK_SECONDS,
                           return_when=FIRST_COMPLETED)
            broke = False
            for future in done:
                index, started = inflight.pop(future)
                try:
                    harvested.append((index, *future.result()))
                except BrokenProcessPool:
                    broke = True
                    delay = supervisor.crash(index, _crash_message(
                        supervisor.jobs[index]))
                    if delay is not None:
                        heapq.heappush(delayed,
                                       (time.monotonic() + delay, index))
                except Exception:
                    # The computation may have finished; its transport did
                    # not (unpicklable result, torn pipe).  Classified
                    # transient per the error taxonomy.
                    message = ("transient result-transport failure "
                               "(ResultTransportError):\n"
                               + traceback.format_exc())
                    harvested.append((index, None, message, True, 0.0))
            if broke:
                _reclaim_broken(supervisor, inflight, delayed, queue)
                _terminate_pool(pool)
                pool = ProcessPoolExecutor(max_workers=workers)
                continue

            # Watchdog: kill the pool when any in-flight job exceeds the
            # deadline.  Stuck workers cannot be reclaimed individually, so
            # expired jobs are charged a timeout (retryable) while innocent
            # co-resident jobs are resubmitted without any charge.
            if timeout is not None and inflight:
                now = time.monotonic()
                expired = {future: meta for future, meta in inflight.items()
                           if now - meta[1] >= timeout}
                if expired:
                    for future, (index, started) in list(inflight.items()):
                        if future in expired:
                            message = (
                                f"job exceeded timeout={timeout:g}s and its "
                                "worker was killed (JobTimeoutError)")
                            delay = supervisor.settle(
                                index, None, message, True, now - started)
                            if delay is not None:
                                heapq.heappush(
                                    delayed,
                                    (time.monotonic() + delay, index))
                        else:
                            # Collateral of the pool kill, not at fault:
                            # resubmit without consuming any budget.
                            supervisor.dispatches[index] = max(
                                0, supervisor.dispatches.get(index, 1) - 1)
                            queue.append(index)
                    inflight.clear()
                    _terminate_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _crash_message(spec: JobSpec) -> str:
    return (f"worker process died while job {spec.label!r} was in flight "
            "(WorkerCrashError: killed worker / broken process pool); "
            "the pool was respawned")


def _reclaim_broken(supervisor: _Supervisor, inflight, delayed, queue) -> None:
    """Charge every in-flight job of a broken pool and requeue survivors."""
    for future, (index, started) in list(inflight.items()):
        delay = supervisor.crash(index,
                                 _crash_message(supervisor.jobs[index]))
        if delay is not None:
            heapq.heappush(delayed, (time.monotonic() + delay, index))
    inflight.clear()


def run_jobs(jobs: Sequence[JobSpec], n_jobs: int = 1,
             cache: Optional[ResultCache] = None,
             progress: Optional[ProgressCallback] = None,
             retries: int = 0,
             retry_policy: Optional[RetryPolicy] = None,
             timeout: Optional[float] = None,
             journal: Union[RunJournal, str, None] = None,
             faults=None) -> MatrixResult:
    """Execute a job matrix, serially or across supervised worker processes.

    Parameters
    ----------
    jobs:
        The job specifications to run.
    n_jobs:
        Number of worker processes; ``1`` runs everything in-process (no
        pool), which is bit-identical to the parallel path because each
        job's randomness is fully determined by its spec.
    cache:
        Optional :class:`~repro.runner.ResultCache`.  Jobs whose key is
        present are served from disk without executing; fresh successful
        results are stored back.
    progress:
        Optional callback invoked after every finished job with
        ``(done_count, total, outcome)``.
    retries:
        Re-execute a job up to this many times after a *transient* failure
        (killed worker, broken pool, timeout, unpicklable transport, or an
        in-job :class:`~repro.exceptions.TransientJobError`), with capped
        deterministic backoff.  Deterministic failures are never retried.
    retry_policy:
        Full :class:`RetryPolicy` (backoff shape, crash budget); overrides
        ``retries`` when given.
    timeout:
        Per-job wall-clock budget in seconds.  Enforced on the pooled path
        (``n_jobs > 1``) by a watchdog that kills and respawns the pool; a
        timed-out job is charged a retryable
        :class:`~repro.exceptions.JobTimeoutError`.  The serial path
        cannot preempt its own process and ignores it.
    journal:
        A :class:`~repro.runner.journal.RunJournal` (or its path).  Every
        outcome is appended as it completes; jobs whose key already has a
        journaled success are served from the journal without executing,
        so an interrupted campaign resumes where it left off.
    faults:
        A :class:`~repro.runner.faults.FaultPlan` of deterministic
        injected faults (tests/chaos drills).  When ``None``, a plan armed
        via the ``REPRO_FAULTS`` environment variable applies.
    """
    jobs = list(jobs)
    if n_jobs < 1:
        raise ConfigurationError("n_jobs must be at least 1")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError("timeout must be positive")
    policy = retry_policy if retry_policy is not None \
        else RetryPolicy(retries=retries)
    if faults is None:
        faults = FaultPlan.from_environment()
    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal(journal)

    total = len(jobs)
    outcomes: List[Optional[JobOutcome]] = [None] * total
    supervisor = _Supervisor(jobs, outcomes, 0, total, policy, cache,
                             journal, progress)

    journaled = journal.successes() if journal is not None else {}

    # Replay/cache pass: satisfied jobs never reach a worker.
    pending: List[int] = []
    for index, spec in enumerate(jobs):
        key = spec.key
        record = journaled.get(key)
        if record is not None:
            supervisor.finish(index, record.value, None, from_journal=True)
            continue
        if cache is not None:
            hit, value = cache.get(key)
            if hit:
                supervisor.finish(index, value, None, from_cache=True)
                continue
        pending.append(index)

    if pending and n_jobs == 1:
        _run_serial(supervisor, pending, faults)
    elif pending:
        workers = min(n_jobs, len(pending))
        _run_supervised(supervisor, pending, workers, timeout, faults)

    return MatrixResult(outcomes=list(outcomes))
