"""The results epoch: cached and journaled values never outlive it.

:data:`repro.runner.spec.RESULTS_EPOCH` is hashed into every job key, so a
value cached or journaled under one epoch is never served under the next.
A change that changes a result edits a pinned reference value and must bump
the epoch with it: :data:`PIN_DIGESTS` records the digest of every pin per
epoch, so an edited pin under an unchanged epoch fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest
from test_fp_golden import SEED_GOLDEN
from test_simulator import SEED_STACK_PINS
from test_stationary_golden import GOLDEN

import repro.cli
from repro.cli import main
from repro.config import SystemParameters
from repro.runner import JobSpec, ResultCache, build_matrix, run_jobs
from repro.runner import spec as spec_module
from repro.runner.experiments import density_point
from repro.runner.spec import RESULTS_EPOCH

REPO = Path(__file__).resolve().parents[2]

#: Files whose bytes pin results.
PIN_FILES = ("perfbench/reference.json", "tests/data/golden_des_trace.npz")

#: Digest of the pinned values under each results epoch.  When a change
#: edits a pin, bump ``RESULTS_EPOCH`` and record the new digest here under
#: the new epoch; never edit an older entry.
PIN_DIGESTS = {
    1: "d0dfa3ba0754ee23698029ebd994971dba56f833ad29dce2d47c8d5ae818cbed",
}


def pin_digest() -> str:
    """SHA-256 over the pin files and the pin tables of the golden tests."""
    digest = hashlib.sha256()
    for name in PIN_FILES:
        digest.update((REPO / name).read_bytes())
    tables = {
        "test_fp_golden.SEED_GOLDEN": SEED_GOLDEN,
        "test_stationary_golden.GOLDEN": GOLDEN,
        "test_simulator.SEED_STACK_PINS": {
            name: [duration, events, trace_digest]
            for name, (_, duration, events, trace_digest)
            in SEED_STACK_PINS.items()},
    }
    digest.update(json.dumps(tables, sort_keys=True).encode())
    return digest.hexdigest()


class TestPinDigest:
    def test_pins_match_the_digest_of_the_epoch(self):
        assert RESULTS_EPOCH in PIN_DIGESTS, (
            f"record the pin digest of epoch {RESULTS_EPOCH}: {pin_digest()}")
        assert pin_digest() == PIN_DIGESTS[RESULTS_EPOCH], (
            "a pinned value changed: bump RESULTS_EPOCH in "
            "src/repro/runner/spec.py and record the new digest "
            f"{pin_digest()} under it in PIN_DIGESTS")

    def test_epochs_only_grow(self):
        assert max(PIN_DIGESTS) == RESULTS_EPOCH


#: What :func:`epoch_probe` returns; the tests change it between runs.
_PROBE = {"value": "first"}


def epoch_probe():
    return _PROBE["value"]


class TestEpochInKey:
    def test_key_carries_the_epoch(self, monkeypatch):
        job = JobSpec(epoch_probe)
        assert job.fingerprint()["epoch"] == RESULTS_EPOCH
        before = job.key
        monkeypatch.setattr(spec_module, "RESULTS_EPOCH", RESULTS_EPOCH + 1)
        assert JobSpec(epoch_probe).key != before

    def test_run_jobs_recomputes_a_value_cached_under_an_older_epoch(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setitem(_PROBE, "value", "first")
        first = run_jobs([JobSpec(epoch_probe)], cache=cache)
        assert (first.computed, first.values) == (1, ["first"])
        monkeypatch.setitem(_PROBE, "value", "second")
        # Under the same epoch the cache serves the stale value ...
        served = run_jobs([JobSpec(epoch_probe)], cache=cache)
        assert (served.cache_hits, served.values) == (1, ["first"])
        # ... and under the next one it is recomputed.
        monkeypatch.setattr(spec_module, "RESULTS_EPOCH", RESULTS_EPOCH + 1)
        fresh = run_jobs([JobSpec(epoch_probe)], cache=cache)
        assert (fresh.cache_hits, fresh.computed) == (0, 1)
        assert fresh.values == ["second"]

    def test_resume_recomputes_values_journaled_under_an_older_epoch(
            self, tmp_path, monkeypatch, capsys):
        run = ["run", "theorem1-grid", "--t-end", "50", "--no-cache",
               "--journal", str(tmp_path / "campaign.jsonl")]
        assert main(run) == 0
        assert "computed       : 4" in capsys.readouterr().out
        assert main(run + ["--resume"]) == 0
        assert "resumed (journal hits) : 4" in capsys.readouterr().out
        monkeypatch.setattr(spec_module, "RESULTS_EPOCH", RESULTS_EPOCH + 1)
        assert main(run + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed (journal hits) : 0" in out
        assert "computed               : 4" in out

    def test_density_command_keys_its_job_like_a_plain_job_spec(
            self, monkeypatch):
        # No command-specific version: ``repro density`` caches under the
        # key any other caller of density_point gets for the same point.
        captured = []

        class Captured(Exception):
            pass

        def capture(jobs, args):
            captured.extend(jobs)
            raise Captured

        monkeypatch.setattr(repro.cli, "_run_matrix", capture)
        with pytest.raises(Captured):
            main(["density", "--t-end", "5", "--nq", "20", "--nv", "16"])
        (job,) = captured
        plain = JobSpec(density_point, params=job.params,
                        overrides={"t_end": 5.0, "nq": 20, "nv": 16})
        assert job.key == plain.key

    def test_build_matrix_keys_a_point_like_a_plain_job_spec(self):
        params = SystemParameters(mu=1.0, q_target=8.0, c0=0.1, c1=0.4,
                                  sigma=0.5)
        jobs = build_matrix(density_point, params, axes={"nq": [20, 30]},
                            fixed={"t_end": 5.0, "nv": 16})
        assert [job.key for job in jobs] == [
            JobSpec(density_point, params=params,
                    overrides={"t_end": 5.0, "nq": nq, "nv": 16}).key
            for nq in (20, 30)]
