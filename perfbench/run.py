#!/usr/bin/env python3
"""End-to-end benchmark of the repro package, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload design-sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from a run whose passes
alternate untraced and traced.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report and the
environment record.  The exit code is 0 only when every correctness check
passed.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"

#: Fresh interpreters whose set-up time is measured per run (median kept).
SETUP_REPEATS = 5
#: Fewest timed passes per run, however long a pass takes.
MIN_PASSES = 3


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: repro was imported from "
                         f"{repro.__file__}, not from {src}")


def metric_table():
    """``(end_to_end, per_layer)`` metric lists from ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def git_commit():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head_path = git / "HEAD"
    if not head_path.is_file():
        return "unknown"
    head = head_path.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment():
    """Backend, BLAS, thread settings, CPU count, versions and commit."""
    import numpy
    from repro.numerics.backend import get_backend, scipy_available

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_version = "absent"
    if scipy_available():
        import scipy
        scipy_version = scipy.__version__
    return {
        "backend": get_backend().name,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{name: os.environ.get(name, "unset")
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "REPRO_BACKEND", "REPRO_HEALTH")},
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def median(values):
    values = sorted(values)
    if not values:
        return 0.0
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return 0.5 * (values[middle - 1] + values[middle])


def percentile(values, q):
    """Nearest-rank percentile of *values* (0 when empty)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


class Tally:
    """Attempted and failed operations, and per-pass wall time and work."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls = []
        self.rates = []
        self.counts = []


def run_one_pass(workload, tally, tracer=None):
    """Run, time and check one pass, traced when *tracer* is given."""
    workload.before_pass()
    if tracer is not None:
        tracer.install(extra_modules=[sys.modules[type(workload).__module__]])
    # Collect the previous pass's garbage first, so each pass starts from
    # the heap a fresh user process would have and neither its time nor the
    # peak memory depends on how many passes ran before it.
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run_pass()
        else:
            output = tracer.run_root(workload.run_pass)
    except Exception as error:  # a pass that raises fails all its operations
        print(f"perfbench: pass raised {type(error).__name__}: {error}",
              file=sys.stderr)
        output = None
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    workload.after_pass()
    tally.attempted += workload.OPS
    if output is None:
        tally.failed += workload.OPS
        return
    failed, work = workload.check(output)
    tally.failed += failed
    tally.walls.append(wall)
    tally.rates.append(work / wall)
    tally.counts.append(workload.pass_counts(output))


def measure_setup(args):
    """Median seconds from interpreter start to "ready to time"."""
    times = []
    for _ in range(SETUP_REPEATS):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--setup-only"]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        # perf_counter is the system-wide monotonic clock on Linux, so the
        # child's reading is comparable with ours.
        ready = float(done.stdout.split()[-1])
        times.append(ready - start)
    return median(times)


def end_to_end(args, workload, tally):
    """Values of every end-to-end metric for a finished untraced run."""
    return {
        "setup_s": measure_setup(args),
        "wall_s": median(tally.walls),
        "work_per_s": median(tally.rates),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(workload, tracer, traced, untraced):
    """Values of every per-layer metric, per traced pass."""
    from tracer import ROOT_SPAN

    passes = len(traced.walls)

    def per_pass(value):
        return value / passes if passes else 0.0

    values = {}
    for name in sorted(set(tracer.calls) | {ROOT_SPAN}):
        values[f"{name}.calls"] = per_pass(tracer.calls.get(name, 0))
        values[f"{name}.s"] = per_pass(tracer.self_s.get(name, 0.0))
    for name, count in tracer.counts.items():
        values[name] = per_pass(count)

    steps = tracer.samples.get("core.advance", [])
    p50 = percentile(steps, 50)
    values["core.advance.p50_ms"] = 1e3 * p50
    values["core.advance.p99_ms"] = 1e3 * percentile(steps, 99)
    values["core.advance.slow"] = per_pass(sum(s > 10.0 * p50 for s in steps))
    values["core.warmup_solve_s"] = getattr(workload, "first_solve_s", 0.0)

    refined = sum(c.get("design.refined", 0) for c in traced.counts)
    attempts = tracer.calls.get("design.solve_stationary", 0)
    values["design.refine_ok_ratio"] = refined / attempts if attempts else 0.0

    durations = [d for c in traced.counts
                 for d in c.get("runner.job_durations", [])]
    values["runner.job_p50_s"] = median(durations)
    run_jobs_wall = tracer.total_s.get("runner.run_jobs", 0.0)
    workers = getattr(workload, "WORKERS", 0)
    values["runner.worker_busy_frac"] = (
        sum(durations) / (workers * run_jobs_wall) if run_jobs_wall else 0.0)
    gets = tracer.calls.get("runner.cache.get", 0)
    values["runner.cache.hit_ratio"] = (
        tracer.counts.get("runner.cache.hits", 0) / gets if gets else 0.0)

    values["trace.remainder_s"] = values[f"{ROOT_SPAN}.s"]
    values["trace.wall_s"] = per_pass(sum(traced.walls))
    values["trace.attributed_frac"] = (
        sum(tracer.self_s.values()) / sum(traced.walls) if passes else 0.0)
    values["trace.overhead_frac"] = (
        median(traced.walls) / median(untraced.walls) - 1.0
        if passes and untraced.walls else 0.0)
    return values


def run_workload(args):
    import_repro()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR)
    if args.setup_only:
        print(f"{time.perf_counter():.9f}")
        return 0
    try:
        return measure(args, workload, workloads)
    finally:
        workload.close()


def measure(args, workload, workloads):
    if args.record_reference:
        return record_reference(workload, workloads)
    env = environment()
    workload.prepare()
    untraced = Tally()
    traced = Tally()
    tracer = None
    warm_up = Tally()  # fills caches; its time is not reported
    run_one_pass(workload, warm_up)
    start = time.perf_counter()
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        # Alternate untraced and traced passes so drift hits both alike.
        while (time.perf_counter() - start < args.seconds
               or len(traced.walls) < 1):
            run_one_pass(workload, untraced)
            run_one_pass(workload, traced, tracer)
    else:
        while (time.perf_counter() - start < args.seconds
               or len(untraced.walls) < MIN_PASSES):
            run_one_pass(workload, untraced)

    attempted = warm_up.attempted + untraced.attempted + traced.attempted
    failed = warm_up.failed + untraced.failed + traced.failed
    end_to_end_spec, per_layer_spec = metric_table()
    if args.trace:
        values = per_layer(workload, tracer, traced, untraced)
        spec = per_layer_spec
    else:
        values = end_to_end(args, workload, untraced)
        spec = end_to_end_spec
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced.walls)}+{len(traced.walls)} traced "
          f"(+1 warm-up); work unit: {workload.WORK_UNIT}")
    print("environment " + json.dumps(env, sort_keys=True))
    wall = values.get("trace.wall_s", 0.0)
    for name, metric in metrics.items():
        share = ""
        if args.trace and name.endswith(".s") and wall:
            share = f"  ({100.0 * metric['value'] / wall:5.1f}% of wall)"
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}"
              f"{share}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def record_reference(workload, workloads):
    """Run one pass and store its outputs as the workload's reference."""
    output = workload.run_pass()
    path = workloads.REFERENCE_PATH
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[workload.name] = workload.record(output)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded the {workload.name} reference in {path.name}")
    return 0


def run_all(args):
    """Run every workload in its own interpreter and combine the results."""
    import_repro()
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with code "
                             f"{done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["design-sweep", "fp-density", "des-dumbbell",
                                 "campaign", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="store one pass's outputs as the reference "
                             "(after an intended change of results)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
