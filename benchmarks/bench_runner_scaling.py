"""Runner scaling: serial versus multi-process wall-clock for a fixed matrix.

Measures how long the same 12-job delayed-feedback matrix takes with the
:mod:`repro.runner` executor at ``n_jobs=1`` and ``n_jobs=N_WORKERS``,
checks that the two executions produce identical results (the runner's
determinism guarantee), and emits a JSON record of the measurement so the
numbers can be scraped from CI logs.  Both legs are timed with
``time.perf_counter`` so the record exists under ``--benchmark-disable``
too; the serial/parallel comparison is recorded in
``benchmark.extra_info`` alongside the printed JSON.

On single-core machines the speedup hovers around (or below) 1x because the
workers share one CPU -- the point of the benchmark is to *record* the
scaling honestly, not to assert a particular speedup.
"""

import json
import time

from repro import JobSpec, run_jobs
from repro.runner.experiments import delay_point

N_WORKERS = 2
DELAYS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
T_END = 200.0


def _matrix(params):
    return [JobSpec(delay_point, params=params,
                    overrides={"delay": delay, "t_end": T_END, "dt": 0.05})
            for delay in DELAYS]


def _run(params, n_jobs):
    return run_jobs(_matrix(params), n_jobs=n_jobs)


def test_runner_scaling(benchmark, canonical_params):
    started = time.perf_counter()
    serial = _run(canonical_params, 1)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = benchmark.pedantic(_run, args=(canonical_params, N_WORKERS),
                                  iterations=1, rounds=1)
    parallel_seconds = time.perf_counter() - started

    # Determinism guarantee: the parallel matrix is bit-identical to serial.
    assert parallel.values == serial.values
    assert len(parallel) == len(DELAYS)
    assert not parallel.failures

    record = {
        "benchmark": "runner_scaling",
        "jobs": len(DELAYS),
        "workers": N_WORKERS,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 3),
    }
    benchmark.extra_info.update(record)
    print()
    print(json.dumps(record))
