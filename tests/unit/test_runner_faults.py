"""Fault-injection tests for the resilient executor (repro.runner).

Every recovery path -- retry-on-transient, pool respawn after a killed
worker, timeout watchdog, checkpoint/resume from the journal, cache
quarantine -- is exercised here through the deterministic chaos harness
(:class:`repro.runner.FaultPlan`).  The differential gate throughout: any
fault schedule plus retries must yield values bit-identical to a
fault-free serial run.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    SimulationError,
    StabilityError,
)
from repro.runner import (
    FaultPlan,
    JobSpec,
    ResultCache,
    RetryPolicy,
    RunJournal,
    corrupt_cache_entry,
    run_jobs,
    truncate_journal,
)
from repro.runner import executor
from repro.runner.journal import decode_value, encode_value


# -- module-level job callables (specs require importable functions) --------

def compute(x, scale=1.0):
    """Deterministic job with scalar and array payloads."""
    return {"x": x, "value": scale * x * x,
            "arr": np.linspace(0.0, x, 5)}


def slow_value(x, pause=0.3):
    """Deterministic job that takes a while (resume-after-kill tests)."""
    time.sleep(pause)
    return {"x": x, "value": 3.0 * x}


def unstable(x):
    """Deterministic numerical failure: must never be retried."""
    raise StabilityError(f"CFL violated at x={x}")


def _jobs(n=8, scale=1.0):
    return [JobSpec(compute, overrides={"x": float(index), "scale": scale})
            for index in range(n)]


def _resume_jobs():
    """The campaign the SIGKILL-resume test shares with its child process."""
    return [JobSpec(slow_value, overrides={"x": float(index), "pause": 0.3})
            for index in range(8)]


def _assert_values_identical(reference, other):
    for left, right in zip(reference.outcomes, other.outcomes, strict=True):
        assert left.ok and right.ok
        assert left.value["x"] == right.value["x"]
        assert left.value["value"] == right.value["value"]
        if "arr" in left.value:
            np.testing.assert_array_equal(left.value["arr"],
                                          right.value["arr"])


class TestRetryPolicy:
    def test_deterministic_capped_backoff(self):
        policy = RetryPolicy(retries=5, backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.3)
        assert [policy.delay(k) for k in (1, 2, 3, 4)] == \
            [0.1, 0.2, 0.3, 0.3]

    def test_crash_budget_defaults_above_retries(self):
        assert RetryPolicy(retries=0).crash_budget == 2
        assert RetryPolicy(retries=3).crash_budget == 5
        assert RetryPolicy(retries=0, max_crashes=1).crash_budget == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            run_jobs(_jobs(1), timeout=0.0)


class TestTransientRetries:
    def test_serial_transients_absorbed(self):
        plan = FaultPlan(transient_every=1, transient_attempts=1)
        reference = run_jobs(_jobs())
        chaotic = run_jobs(_jobs(), retries=1, faults=plan)
        assert not chaotic.failures
        assert all(outcome.attempts == 2 for outcome in chaotic.outcomes)
        _assert_values_identical(reference, chaotic)

    def test_parallel_chaos_rate_one_in_four_absorbed(self):
        # Acceptance gate: transient faults at rate >= 1-per-4-jobs are
        # fully absorbed by retries=2 with zero user-visible failures.
        jobs = _jobs(12)
        plan = FaultPlan(seed=5, transient_every=4, transient_attempts=2)
        injected = sum(plan.raises_transient(job, 0) for job in jobs)
        assert injected >= 12 // 4  # the schedule really is that hostile
        reference = run_jobs(_jobs(12))
        chaotic = run_jobs(jobs, n_jobs=3, retries=2, faults=plan)
        assert not chaotic.failures
        assert chaotic.retried == injected
        _assert_values_identical(reference, chaotic)

    def test_deterministic_failures_never_retried(self):
        jobs = [JobSpec(unstable, overrides={"x": 1.0}),
                JobSpec(compute, overrides={"x": 2.0})]
        result = run_jobs(jobs, retries=3)
        assert not result.outcomes[0].ok
        assert result.outcomes[0].attempts == 1  # no retry of determinism
        assert "StabilityError" in result.outcomes[0].error
        assert result.outcomes[1].ok

    def test_retry_exhaustion_reports_transient_error(self):
        plan = FaultPlan(transient_every=1, transient_attempts=5)
        result = run_jobs(_jobs(3), retries=1, faults=plan)
        assert len(result.failures) == 3
        assert all(outcome.attempts == 2 for outcome in result.outcomes)
        assert all("injected transient" in outcome.error
                   for outcome in result.failures)
        with pytest.raises(SimulationError):
            result.raise_failures()

    def test_failed_then_clean_rerun_succeeds(self):
        # The fault plan is per-run state, not cache state: a rerun without
        # the plan recomputes cleanly.
        plan = FaultPlan(transient_every=1, transient_attempts=5)
        assert len(run_jobs(_jobs(2), faults=plan).failures) == 2
        assert not run_jobs(_jobs(2)).failures


class TestWorkerCrash:
    def test_broken_pool_recovers_all_pending_jobs(self):
        # Satellite: a single killed worker must not poison the harvest --
        # every job still reaches a clean outcome and the matrix completes.
        jobs = _jobs(6)
        plan = FaultPlan(kill_every=1, kill_attempts=1,
                         match_labels=(jobs[2].label,))
        result = run_jobs(jobs, n_jobs=2, faults=plan)  # note: retries=0
        assert not result.failures  # crash resubmission absorbed the kill
        assert result.outcomes[2].attempts >= 2
        _assert_values_identical(run_jobs(_jobs(6)), result)

    def test_crash_budget_exhaustion_fails_cleanly(self):
        jobs = _jobs(5)
        plan = FaultPlan(kill_every=1, kill_attempts=99,
                         match_labels=(jobs[1].label,))
        policy = RetryPolicy(retries=0, max_crashes=1)
        result = run_jobs(jobs, n_jobs=2, retry_policy=policy, faults=plan)
        assert [outcome.ok for outcome in result.outcomes] == \
            [True, False, True, True, True]
        assert "worker process died" in result.outcomes[1].error
        assert "WorkerCrashError" in result.outcomes[1].error

    def test_kill_chaos_matches_serial(self):
        jobs = _jobs(9)
        plan = FaultPlan(seed=2, kill_every=3, kill_attempts=1)
        assert any(plan.kills(job, 0) for job in jobs)
        chaotic = run_jobs(jobs, n_jobs=2, retries=2, faults=plan)
        assert not chaotic.failures
        _assert_values_identical(run_jobs(_jobs(9)), chaotic)

    def test_serial_kill_degrades_to_transient_raise(self):
        # In-process execution cannot kill a worker; the hook raises
        # WorkerCrashError instead so classification still applies.
        jobs = _jobs(3)
        plan = FaultPlan(kill_every=1, match_labels=(jobs[0].label,))
        result = run_jobs(jobs, retries=1, faults=plan)
        assert not result.failures
        assert result.outcomes[0].attempts == 2


class TestDiscardedPools:
    """A pool discarded after a worker death or a timeout leaves no thread
    behind: left running, its manager and call-queue feeder threads write
    into closed pipes at interpreter exit."""

    PLANS = {
        "worker-kill": dict(kill_every=1, kill_attempts=1),
        "timeout": dict(sleep_every=1, sleep_seconds=20.0, sleep_attempts=1),
    }

    @pytest.mark.parametrize("fault", sorted(PLANS))
    def test_no_thread_of_a_discarded_pool_is_alive(self, monkeypatch, fault):
        discarded, left_running = [], []
        terminate = executor._terminate_pool

        def checked(pool):
            threads = [pool._executor_manager_thread,
                       getattr(pool._call_queue, "_thread", None)]
            terminate(pool)
            discarded.append(pool)
            left_running.extend(thread.name for thread in threads
                                if thread is not None and thread.is_alive())

        monkeypatch.setattr(executor, "_terminate_pool", checked)
        jobs = _jobs(4)
        plan = FaultPlan(match_labels=(jobs[1].label,), **self.PLANS[fault])
        result = run_jobs(jobs, n_jobs=2, retries=1, timeout=0.75,
                          faults=plan)
        assert not result.failures
        assert discarded
        assert left_running == []


class TestTimeouts:
    def test_timed_out_job_killed_and_retried(self):
        jobs = _jobs(4)
        plan = FaultPlan(sleep_every=1, sleep_seconds=20.0, sleep_attempts=1,
                         match_labels=(jobs[1].label,))
        started = time.perf_counter()
        result = run_jobs(jobs, n_jobs=2, retries=1, timeout=0.75,
                          faults=plan)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0  # the watchdog killed the 20s sleep
        assert not result.failures
        assert result.outcomes[1].attempts == 2
        _assert_values_identical(run_jobs(_jobs(4)), result)

    def test_timeout_exhaustion_fails_only_the_wedged_job(self):
        jobs = _jobs(4)
        plan = FaultPlan(sleep_every=1, sleep_seconds=20.0, sleep_attempts=5,
                         match_labels=(jobs[2].label,))
        result = run_jobs(jobs, n_jobs=2, retries=1, timeout=0.6,
                          faults=plan)
        assert [outcome.ok for outcome in result.outcomes] == \
            [True, True, False, True]
        assert "JobTimeoutError" in result.outcomes[2].error
        assert "timeout=0.6" in result.outcomes[2].error

    def test_serial_path_ignores_timeout(self):
        result = run_jobs(_jobs(2), timeout=30.0)
        assert not result.failures


class TestJournalResume:
    def test_record_then_resume_skips_successes(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        first = run_jobs(_jobs(8)[:3], journal=journal_path)
        assert not first.failures
        resumed = run_jobs(_jobs(8), journal=journal_path)
        assert resumed.journal_hits == 3
        assert resumed.computed == 5
        _assert_values_identical(run_jobs(_jobs(8)), resumed)

    def test_journaled_values_bit_identical(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        fresh = run_jobs(_jobs(4), journal=journal_path)
        replayed = run_jobs(_jobs(4), journal=journal_path)
        assert replayed.journal_hits == 4
        _assert_values_identical(fresh, replayed)

    def test_failures_are_journaled_but_not_skipped(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        plan = FaultPlan(transient_every=1, transient_attempts=5)
        failed = run_jobs(_jobs(2), journal=journal_path, faults=plan)
        assert len(failed.failures) == 2
        # Resume without the fault plan: the journaled failures re-run.
        resumed = run_jobs(_jobs(2), journal=journal_path)
        assert resumed.journal_hits == 0
        assert not resumed.failures
        # And a second resume now serves the journaled successes.
        assert run_jobs(_jobs(2), journal=journal_path).journal_hits == 2

    def test_truncated_tail_recovered(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        run_jobs(_jobs(4), journal=journal_path)
        truncate_journal(journal_path, drop_bytes=7)  # crash mid-append
        resumed = run_jobs(_jobs(4), journal=journal_path)
        assert resumed.journal_hits == 3  # the torn record was dropped
        assert resumed.computed == 1
        assert not resumed.failures
        # The journal healed itself and is append-consistent again: every
        # line parses and a fresh replay serves the whole matrix.
        for line in journal_path.read_text(encoding="utf-8").splitlines():
            json.loads(line)
        assert run_jobs(_jobs(4), journal=journal_path).journal_hits == 4

    def test_resume_after_sigkill_bit_identical(self, tmp_path):
        """A campaign SIGKILLed mid-matrix resumes where it left off."""
        journal_path = tmp_path / "killed.jsonl"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import test_runner_faults as tf\n"
            "from repro.runner import run_jobs\n"
            "run_jobs(tf._resume_jobs(), journal=sys.argv[1])\n")
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(journal_path)],
            env=dict(os.environ))
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal_path.is_file() and \
                        journal_path.read_text().count('"ok":true') >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("campaign never journaled 2 successes")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        resumed = run_jobs(_resume_jobs(), journal=journal_path)
        assert resumed.journal_hits >= 2
        assert not resumed.failures
        reference = run_jobs(_resume_jobs())
        _assert_values_identical(reference, resumed)

    def test_value_codec_bit_identical(self):
        values = [
            {"arr": np.linspace(0, 1, 11), "n": 7, "pair": (np.arange(3), "s")},
            {"nested": [1.5, {"deep": np.float64(2.25)}], "flag": True},
            StabilityError("arbitrary object -> pickle fallback"),
        ]
        for value in values:
            decoded = decode_value(json.loads(json.dumps(encode_value(value))))
            if isinstance(value, dict) and "arr" in value:
                np.testing.assert_array_equal(decoded["arr"], value["arr"])
                assert decoded["arr"].dtype == value["arr"].dtype
                np.testing.assert_array_equal(decoded["pair"][0],
                                              value["pair"][0])
            elif isinstance(value, dict):
                assert decoded == value
            else:
                assert isinstance(decoded, StabilityError)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_replay_is_order_insensitive(self, seed, tmp_path_factory):
        """Property: permuting the journal's lines never changes replay."""
        base = tmp_path_factory.mktemp("journal")
        original = base / "original.jsonl"
        # A journal holding failure AND success records for the same keys:
        # replay must let any success win regardless of line order.
        plan = FaultPlan(transient_every=2, transient_attempts=5)
        run_jobs(_jobs(6), journal=original, faults=plan)   # some failures
        run_jobs(_jobs(6), journal=original)                # then successes
        lines = original.read_text(encoding="utf-8").splitlines(keepends=True)
        baseline = RunJournal(original).replay()
        assert all(record.ok for record in baseline.values())
        shuffled_lines = list(lines)
        random.Random(seed).shuffle(shuffled_lines)
        shuffled = base / f"shuffled-{seed}.jsonl"
        shuffled.write_text("".join(shuffled_lines), encoding="utf-8")
        replayed = RunJournal(shuffled).replay()
        assert set(replayed) == set(baseline)
        for key, record in baseline.items():
            other = replayed[key]
            assert other.ok == record.ok
            assert other.value["value"] == record.value["value"]
            np.testing.assert_array_equal(other.value["arr"],
                                          record.value["arr"])


class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_then_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _jobs(2)
        fresh = run_jobs(jobs, cache=cache)
        assert corrupt_cache_entry(cache, jobs[0].key)
        hit, _ = cache.get(jobs[0].key)
        assert not hit
        assert cache.quarantined_count() == 1
        assert (cache.quarantine_dir / jobs[0].key).is_dir()  # evidence kept
        recomputed = run_jobs(jobs, cache=cache)
        assert recomputed.cache_hits == 1  # the undamaged entry still serves
        assert recomputed.computed == 1
        _assert_values_identical(fresh, recomputed)

    def test_clear_removes_quarantine_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _jobs(2)
        run_jobs(jobs, cache=cache)
        corrupt_cache_entry(cache, jobs[0].key)
        cache.get(jobs[0].key)
        assert cache.clear() == 2  # 1 live entry + 1 quarantined
        assert cache.quarantined_count() == 0

    def test_cache_info_reports_quarantined(self, tmp_path, capsys):
        from repro.cli import main
        cache = ResultCache(tmp_path)
        jobs = _jobs(1)
        run_jobs(jobs, cache=cache)
        corrupt_cache_entry(cache, jobs[0].key)
        cache.get(jobs[0].key)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "quarantined (corrupt)" in out
        assert " 1" in out


class TestFaultPlanPlumbing:
    def test_environment_round_trip(self, monkeypatch):
        plan = FaultPlan(seed=9, transient_every=3, kill_every=7,
                         sleep_every=2, sleep_seconds=1.5,
                         match_labels=("a", "b"))
        monkeypatch.setenv("REPRO_FAULTS", plan.to_environment())
        assert FaultPlan.from_environment() == plan

    def test_environment_unset_and_malformed(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_environment() is None
        monkeypatch.setenv("REPRO_FAULTS", "{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_environment()

    def test_environment_plan_applies_to_run_jobs(self, monkeypatch):
        plan = FaultPlan(transient_every=1, transient_attempts=5)
        monkeypatch.setenv("REPRO_FAULTS", plan.to_environment())
        assert len(run_jobs(_jobs(2)).failures) == 2
        # An explicit plan (here: no faults) overrides the environment.
        assert not run_jobs(_jobs(2), faults=FaultPlan()).failures

    def test_selection_is_order_and_schedule_insensitive(self):
        plan = FaultPlan(seed=4, transient_every=3)
        jobs = _jobs(12)
        forward = [plan.raises_transient(job, 0) for job in jobs]
        backward = [plan.raises_transient(job, 0) for job in reversed(jobs)]
        assert forward == list(reversed(backward))
        assert any(forward)


class TestDifferentialGate:
    def test_combined_chaos_schedule_bit_identical_to_serial(self, tmp_path):
        """Kills + transients + a timeout sleeper + cache + journal, at
        once, absorbed by retries=2: bit-identical to fault-free serial."""
        jobs = _jobs(10)
        plan = FaultPlan(seed=1, transient_every=3, transient_attempts=1,
                         kill_every=5, kill_attempts=1)
        # Sleeper chaos is exercised separately, restricted to one job, so
        # the test does not spend wall-clock on repeated watchdog kills.
        sleeper = FaultPlan(sleep_every=1, sleep_seconds=15.0,
                            match_labels=(jobs[4].label,))
        reference = run_jobs(_jobs(10))
        chaotic = run_jobs(jobs, n_jobs=3, retries=2, timeout=1.0,
                           cache=ResultCache(tmp_path / "cache"),
                           journal=tmp_path / "journal.jsonl",
                           faults=plan)
        assert not chaotic.failures
        _assert_values_identical(reference, chaotic)
        # The sleeper plan separately, same gate.
        wedged = run_jobs(jobs, n_jobs=2, retries=1, timeout=0.75,
                          faults=sleeper)
        assert not wedged.failures
        _assert_values_identical(reference, wedged)
