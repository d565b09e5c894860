"""Unit tests for the experiment-orchestration subsystem (repro.runner)."""

import json
from types import MappingProxyType

import numpy as np
import pytest

from repro import SystemParameters
from repro.exceptions import ConfigurationError, SimulationError
from repro.queueing.random_streams import derive_child_seed
from repro.runner import (
    JobSpec,
    ResultCache,
    build_matrix,
    canonical_json,
    content_hash,
    expand_grid,
    run_jobs,
)
from repro.runner.experiments import des_scenario_point


# -- module-level job callables (specs require importable functions) --------

def square(x):
    return x * x


def affine(params: SystemParameters, x, scale=1.0):
    return scale * x + params.mu


def seeded_draw(n=3, seed=None):
    return np.random.default_rng(seed).standard_normal(n)


def failing_job(x):
    raise RuntimeError(f"job blew up on x={x}")


def array_result(n):
    return {"values": np.arange(n, dtype=float), "n": n}


def weighted_sum(**kwargs):
    return sum(index * value
               for index, value in enumerate(sorted(kwargs.values()), start=1))


class TestCanonicalHashing:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_numpy_scalars_normalised(self):
        assert content_hash({"x": np.float64(0.5)}) == content_hash({"x": 0.5})
        assert content_hash({"n": np.int64(3)}) == content_hash({"n": 3})

    def test_parameters_hash_via_to_dict(self):
        params = SystemParameters(sigma=0.3)
        assert content_hash(params) == content_hash(params.to_dict())

    def test_non_finite_floats_are_representable(self):
        assert content_hash(float("nan")) != content_hash(float("inf"))

    def test_unserialisable_value_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"bad": object()})


class TestJobSpec:
    def test_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(lambda x: x)

    def test_nested_function_rejected(self):
        def local(x):
            return x

        with pytest.raises(ConfigurationError):
            JobSpec(local)

    def test_key_stable_and_sensitive(self):
        spec = JobSpec(square, overrides={"x": 2.0})
        assert spec.key == JobSpec(square, overrides={"x": 2.0}).key
        assert spec.key != JobSpec(square, overrides={"x": 3.0}).key
        assert spec.key != JobSpec(square, overrides={"x": 2.0}, seed=1).key

    def test_memmap_dir_does_not_split_the_key(self):
        overrides = {"scenario": "dumbbell", "duration": 5.0, "n_sources": 8}
        plain = JobSpec(des_scenario_point, overrides=overrides, seed=3)
        spilled = [JobSpec(des_scenario_point, seed=3,
                           overrides={**overrides, "memmap_dir": path})
                   for path in ("/scratch/a", "/scratch/b")]
        assert spilled[0].key == spilled[1].key == plain.key
        assert "memmap_dir" not in spilled[0].fingerprint()["overrides"]

    def test_key_without_memmap_dir_unchanged(self):
        spec = JobSpec(des_scenario_point, seed=3, overrides={
            "scenario": "dumbbell", "duration": 5.0, "n_sources": 8})
        assert spec.fingerprint()["overrides"] == dict(spec.overrides)
        # The key this spec had before memmap_dir left the fingerprint,
        # when a version salt of 1 stood where the results epoch is now.
        fingerprint = spec.fingerprint()
        del fingerprint["epoch"]
        assert content_hash({**fingerprint, "version": 1}) == (
            "03a622133c60f4955430b33a8200baa9"
            "72e2903c05657d49d5c0cbffedcd4a95")

    def test_key_depends_on_params(self):
        a = JobSpec(affine, params=SystemParameters(mu=1.0), overrides={"x": 1.0})
        b = JobSpec(affine, params=SystemParameters(mu=2.0), overrides={"x": 1.0})
        assert a.key != b.key

    def test_execute_passes_params_and_overrides(self):
        spec = JobSpec(affine, params=SystemParameters(mu=2.0),
                       overrides={"x": 3.0, "scale": 10.0})
        assert spec.execute() == pytest.approx(32.0)

    def test_seed_forwarded_only_when_accepted(self):
        drawn = JobSpec(seeded_draw, overrides={"n": 2}, seed=42).execute()
        again = JobSpec(seeded_draw, overrides={"n": 2}, seed=42).execute()
        np.testing.assert_array_equal(drawn, again)
        # square() takes no seed: the spec must not inject one.
        assert JobSpec(square, overrides={"x": 4.0}, seed=7).execute() == 16.0


class TestGrid:
    def test_expand_grid_row_major_order(self):
        points = expand_grid({"a": [1, 2], "b": [10, 20]})
        assert points == [{"a": 1, "b": 10}, {"a": 1, "b": 20},
                          {"a": 2, "b": 10}, {"a": 2, "b": 20}]

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid({})
        with pytest.raises(ConfigurationError):
            expand_grid({"a": []})

    def test_build_matrix_splits_param_fields_from_kwargs(self):
        jobs = build_matrix(affine, SystemParameters(),
                            axes={"mu": [1.0, 2.0], "x": [0.0, 1.0]},
                            fixed={"scale": 2.0})
        assert len(jobs) == 4
        assert jobs[0].params.mu == 1.0
        assert jobs[-1].params.mu == 2.0
        assert dict(jobs[0].overrides) == {"x": 0.0, "scale": 2.0}

    def test_no_seed_derived_for_seedless_functions(self):
        # square() cannot accept a seed: deriving one would only fragment
        # the cache (the key changes, the computation does not).
        jobs_a = build_matrix(square, None, axes={"x": [1.0, 2.0]},
                              master_seed=1)
        jobs_b = build_matrix(square, None, axes={"x": [1.0, 2.0]},
                              master_seed=2)
        assert all(job.seed is None for job in jobs_a)
        assert [job.key for job in jobs_a] == [job.key for job in jobs_b]

    def test_build_matrix_seed_derivation_deterministic(self):
        jobs_a = build_matrix(seeded_draw, None, axes={"n": [1, 2, 3]},
                              master_seed=99)
        jobs_b = build_matrix(seeded_draw, None, axes={"n": [1, 2, 3]},
                              master_seed=99)
        assert [job.seed for job in jobs_a] == [job.seed for job in jobs_b]
        assert len({job.seed for job in jobs_a}) == 3
        jobs_c = build_matrix(seeded_draw, None, axes={"n": [1, 2, 3]},
                              master_seed=100)
        assert [job.seed for job in jobs_a] != [job.seed for job in jobs_c]

    def test_expand_grid_accepts_read_only_mapping(self):
        points = expand_grid(MappingProxyType({"a": [1.0, 2.0]}))
        assert points == [{"a": 1.0}, {"a": 2.0}]

    def test_build_matrix_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            build_matrix(square, None, axes={})
        with pytest.raises(ConfigurationError):
            build_matrix(square, None, axes={"x": []})

    def test_build_matrix_records_seed_and_overrides(self):
        (job,) = build_matrix(seeded_draw, None, axes={"n": [4]},
                              master_seed=5)
        assert job.seed == derive_child_seed(5, (0,))
        assert dict(job.overrides) == {"n": 4}

    def test_axis_value_overrides_fixed_value(self):
        (job,) = build_matrix(square, None, axes={"x": [3.0]},
                              fixed={"x": 1.0})
        assert dict(job.overrides) == {"x": 3.0}
        assert job.execute() == 9.0

    def test_labels_name_every_coordinate(self):
        jobs = build_matrix(affine, SystemParameters(),
                            axes={"mu": [1.0], "x": [2.0, 3.0]})
        assert [job.label for job in jobs] == ["mu=1.0, x=2.0",
                                               "mu=1.0, x=3.0"]

    @pytest.mark.parametrize("function", [None, [1.0]],
                             ids=["none", "value-list"])
    def test_non_callable_job_rejected(self, function):
        with pytest.raises(ConfigurationError):
            JobSpec(function)


class TestGridMatrixRuns:
    """A grid is ``build_matrix`` over its axes, run by ``run_jobs``."""

    AXES = {"a": [1.0, 2.0, 3.0], "b": [5.0, 7.0]}

    def test_one_axis_results_in_point_order(self):
        jobs = build_matrix(square, None, axes={"x": [1.0, 2.0, 3.0]})
        assert [dict(job.overrides) for job in jobs] == \
            [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]
        assert run_jobs(jobs).values == [1.0, 4.0, 9.0]

    def test_two_axis_results_in_row_major_order(self):
        result = run_jobs(build_matrix(weighted_sum, None, axes=self.AXES))
        assert result.values == [weighted_sum(a=a, b=b)
                                 for a in self.AXES["a"]
                                 for b in self.AXES["b"]]

    def test_parallel_matches_serial(self):
        jobs = build_matrix(weighted_sum, None, axes=self.AXES)
        assert run_jobs(jobs, n_jobs=2).values == run_jobs(jobs).values

    def test_cache_reuses_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = build_matrix(weighted_sum, None,
                            axes={"a": [1.0, 2.0], "b": [4.0]})
        first = run_jobs(jobs, cache=cache)
        second = run_jobs(jobs, cache=cache)
        assert second.values == first.values
        assert (second.cache_hits, second.computed) == (2, 0)
        assert len(cache) == 2


class TestResultCache:
    def test_json_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1.5, "flag": True, "items": [1, 2]})
        hit, value = cache.get("ab" * 32)
        assert hit
        assert value == {"x": 1.5, "flag": True, "items": [1, 2]}

    def test_array_round_trip_uses_npz(self, tmp_path):
        cache = ResultCache(tmp_path)
        stored = {"grid": np.linspace(0, 1, 7), "n": 7,
                  "pair": (np.arange(3), "label")}
        cache.put("cd" * 32, stored)
        hit, value = cache.get("cd" * 32)
        assert hit
        np.testing.assert_array_equal(value["grid"], stored["grid"])
        assert isinstance(value["pair"], tuple)
        np.testing.assert_array_equal(value["pair"][0], np.arange(3))
        entry = cache.entries()[0]
        assert entry.encoding == "json+npz"

    def test_arbitrary_object_falls_back_to_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ef" * 32, SystemParameters(sigma=0.25))
        hit, value = cache.get("ef" * 32)
        assert hit
        assert value == SystemParameters(sigma=0.25)
        assert cache.entries()[0].encoding == "pickle"

    def test_sentinel_key_collision_falls_back_to_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        collisions = [{"__tuple__": [1, 2]}, {"__ndarray__": "x", "n": 1}]
        for index, stored in enumerate(collisions):
            key = f"{index}{index}" * 32
            cache.put(key, stored)
            assert cache.get(key) == (True, stored)
        assert all(entry.encoding == "pickle" for entry in cache.entries())

    def test_miss_on_unknown_key(self, tmp_path):
        hit, value = ResultCache(tmp_path).get("0" * 64)
        assert not hit and value is None

    def test_corrupted_entry_recovered_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "12" * 32
        cache.put(key, {"x": 1})
        # Truncate the metadata file to simulate a crashed writer.
        meta = tmp_path / "objects" / key[:2] / key / "meta.json"
        meta.write_text("{not json", encoding="utf-8")
        hit, value = cache.get(key)
        assert not hit
        assert key not in cache  # the broken entry was purged
        cache.put(key, {"x": 2})  # and the slot is usable again
        assert cache.get(key) == (True, {"x": 2})

    def test_corrupted_payload_recovered_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "34" * 32
        cache.put(key, {"grid": np.arange(4)})
        (tmp_path / "objects" / key[:2] / key / "arrays.npz").write_bytes(b"x")
        hit, _ = cache.get(key)
        assert not hit

    def test_clear_and_sizes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("56" * 32, {"x": 1})
        cache.put("78" * 32, {"y": 2})
        assert len(cache) == 2
        assert cache.size_bytes() > 0
        assert cache.clear() == 2
        assert len(cache) == 0


class TestRunJobs:
    def _jobs(self, values):
        return [JobSpec(square, overrides={"x": value}) for value in values]

    def test_serial_results_in_submission_order(self):
        result = run_jobs(self._jobs([1.0, 2.0, 3.0]))
        assert result.values == [1.0, 4.0, 9.0]
        assert result.cache_hits == 0
        assert result.computed == 3

    def test_parallel_matches_serial(self):
        jobs = [JobSpec(seeded_draw, overrides={"n": 4}, seed=seed)
                for seed in (11, 22, 33, 44)]
        serial = run_jobs(jobs, n_jobs=1)
        parallel = run_jobs(jobs, n_jobs=2)
        for left, right in zip(serial.outcomes, parallel.outcomes,
                               strict=True):
            np.testing.assert_array_equal(left.value, right.value)

    def test_cache_hit_semantics(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = self._jobs([2.0, 4.0])
        first = run_jobs(jobs, cache=cache)
        assert (first.cache_hits, first.computed) == (0, 2)
        second = run_jobs(jobs, cache=cache)
        assert (second.cache_hits, second.computed) == (2, 0)
        assert second.values == first.values
        # A new job joins the matrix: only it is computed.
        third = run_jobs(self._jobs([2.0, 4.0, 5.0]), cache=cache)
        assert (third.cache_hits, third.computed) == (2, 1)

    def test_failure_isolated_serial(self):
        jobs = [JobSpec(square, overrides={"x": 3.0}),
                JobSpec(failing_job, overrides={"x": 1.0}),
                JobSpec(square, overrides={"x": 5.0})]
        result = run_jobs(jobs)
        assert [outcome.ok for outcome in result] == [True, False, True]
        assert result.outcomes[0].value == 9.0
        assert result.outcomes[2].value == 25.0
        assert "job blew up" in result.outcomes[1].error
        with pytest.raises(SimulationError):
            result.raise_failures()

    def test_failure_isolated_parallel(self):
        jobs = [JobSpec(failing_job, overrides={"x": 1.0}),
                JobSpec(square, overrides={"x": 6.0})]
        result = run_jobs(jobs, n_jobs=2)
        assert not result.outcomes[0].ok
        assert result.outcomes[1].value == 36.0

    def test_failed_jobs_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([JobSpec(failing_job, overrides={"x": 1.0})], cache=cache)
        assert len(cache) == 0

    def test_summary_reports_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs(self._jobs([1.0]), cache=cache)
        result = run_jobs(self._jobs([1.0, 2.0]), cache=cache)
        assert "2 jobs: 1 cache hits, 1 computed, 0 failed" == result.summary()

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_jobs(self._jobs([1.0]), n_jobs=0)

    def test_window_refilled_before_durable_writes(self, tmp_path,
                                                   monkeypatch):
        from repro.runner import executor

        events = []

        class LoggingPool(executor.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                events.append("submit")
                return super().submit(*args, **kwargs)

        class LoggingCache(ResultCache):
            def put(self, key, value, meta=None):
                events.append("put")
                super().put(key, value, meta)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", LoggingPool)
        result = run_jobs(self._jobs([1.0, 2.0, 3.0]), n_jobs=2,
                          cache=LoggingCache(tmp_path))
        assert result.values == [1.0, 4.0, 9.0]
        third_submit = [i for i, e in enumerate(events) if e == "submit"][2]
        assert third_submit < events.index("put")

    def test_array_results_cache_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [JobSpec(array_result, overrides={"n": 5})]
        fresh = run_jobs(jobs, cache=cache).outcomes[0].value
        cached = run_jobs(jobs, cache=cache).outcomes[0].value
        np.testing.assert_array_equal(fresh["values"], cached["values"])
        assert fresh["n"] == cached["n"]


class TestRaiseFailures:
    def _failed_result(self, error):
        from repro.runner import JobOutcome, MatrixResult
        spec = JobSpec(square, overrides={"x": 1.0})
        return MatrixResult(outcomes=[
            JobOutcome(spec=spec, key=spec.key, error=error)])

    def test_empty_error_string_reported_with_placeholder(self):
        # Regression: ''.splitlines()[-1] used to raise IndexError and mask
        # the real failure report.
        result = self._failed_result("")
        with pytest.raises(SimulationError, match="no error detail"):
            result.raise_failures()

    def test_multiline_error_reports_last_line(self):
        result = self._failed_result("Traceback ...\nValueError: boom")
        with pytest.raises(SimulationError, match="ValueError: boom"):
            result.raise_failures()


class TestMetaJson:
    def test_meta_records_label_and_function(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec(square, overrides={"x": 2.0}, label="square-2")
        run_jobs([spec], cache=cache)
        meta_path = (tmp_path / "objects" / spec.key[:2] / spec.key
                     / "meta.json")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert meta["label"] == "square-2"
        assert meta["function"].endswith(":square")
        assert meta["key"] == spec.key
