"""The four benchmark workloads, each shaped like a command users run.

Every workload follows the same protocol:

* ``__init__(seed, work_dir)`` builds the inputs and constructs the solver,
  simulator or cache objects -- everything that counts as set-up;
* ``prepare()`` does per-run work that is neither set-up nor timed (the
  campaign's serial reference run);
* ``before_pass()`` and ``after_pass()`` do untimed per-pass work (the
  campaign's fresh, half pre-filled cache and its removal);
* ``run_pass()`` is the timed region; it returns the pass output;
* ``check(output)`` returns ``(failed, work)`` for that pass: how many of
  its ``OPS`` operations failed a correctness check, and how much work it
  did, in ``WORK_UNIT``.

The workloads call the same public functions the CLI commands call, so a
change that speeds up a command speeds up its workload.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import time
from pathlib import Path

import numpy as np

from repro import SystemParameters
from repro.config import GridParameters, TimeParameters
from repro.control.jrj import jrj_from_parameters
from repro.core import solver as fp_solver
from repro.design import tuner
from repro.runner import ResultCache, RunJournal, build_matrix, executor
from repro.runner import experiments

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Seed at which the recorded DES reference applies.
DEFAULT_SEED = 0


def load_reference(name):
    """The recorded reference outputs of workload *name*."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)[name]


def _close(got, want, rel):
    return abs(got - want) <= rel * max(abs(want), 1e-300)


class Workload:
    """No-op defaults of the workload protocol."""

    def prepare(self):
        pass

    def before_pass(self):
        pass

    def after_pass(self):
        pass

    def close(self):
        pass

    def record(self, output):
        """Reference values to store in ``reference.json``."""
        return {}

    def pass_counts(self, output):
        """Per-pass counts that only the workload's output carries."""
        return {}


class DesignSweep(Workload):
    """``repro design sweep --n-c0 40 --n-c1 40 --n-q-target 2 --n-mu 2``."""

    name = "design-sweep"
    WORK_UNIT = "gain points"
    OPS = 1
    TOP_K = 16

    def __init__(self, seed, work_dir):
        self.params = SystemParameters(sigma=0.4)
        self.axes = tuner.default_axes(self.params, n_c0=40, n_c1=40,
                                       n_q_target=2, n_mu=2)
        self.n_points = int(np.prod([len(v) for v in self.axes.values()]))
        self.reference = load_reference(self.name)

    def run_pass(self):
        return tuner.design_gains(self.params, **self.axes, top_k=self.TOP_K,
                                  t_end=150.0, dt=0.1)

    def check(self, result):
        reference = self.reference
        order = [[g.c0, g.c1, g.q_target, g.mu] for g in result.ranked]
        ok = (result.n_refined == self.TOP_K
              and result.n_points == self.n_points
              and order == reference["order"]
              and all(_close(g.stationary_mean_queue, want, 1e-9)
                      for g, want in zip(result.ranked, reference["mean"],
                                         strict=True))
              and all(_close(g.stationary_std_queue, want, 1e-9)
                      for g, want in zip(result.ranked, reference["std"],
                                         strict=True)))
        return (0 if ok else 1), result.n_points

    def record(self, result):
        return {"order": [[g.c0, g.c1, g.q_target, g.mu]
                          for g in result.ranked],
                "mean": [g.stationary_mean_queue for g in result.ranked],
                "std": [g.stationary_std_queue for g in result.ranked]}

    def pass_counts(self, result):
        return {"design.refined": result.n_refined}


class FpDensity(Workload):
    """``repro density`` at nq=200 x nv=101, sigma in {0.5, 2.0}."""

    name = "fp-density"
    WORK_UNIT = "grid cells x simulated time units"
    SIGMAS = (0.5, 2.0)
    OPS = len(SIGMAS)
    T_END = 60.0

    def __init__(self, seed, work_dir):
        grid = GridParameters(q_max=40.0, nq=200, v_min=-1.5, v_max=1.5,
                              nv=101)
        self.solvers = []
        for sigma in self.SIGMAS:
            params = SystemParameters(sigma=sigma)
            self.solvers.append(fp_solver.FokkerPlanckSolver(
                params, jrj_from_parameters(params), grid_params=grid))
        self.time_params = TimeParameters(t_end=self.T_END)
        self.cells = grid.nq * grid.nv
        self.reference = load_reference(self.name)
        #: Wall seconds of the first solve in this process.
        self.first_solve_s = None

    def run_pass(self):
        results = []
        for solver in self.solvers:
            start = time.perf_counter()
            results.append(solver.solve_from_point(0.0, 0.5, self.time_params))
            if self.first_solve_s is None:
                self.first_solve_s = time.perf_counter() - start
        return results

    def _summary(self, solver, result):
        moments = result.final_moments
        return [solver.grid.total_mass(result.final_density),
                moments.mean_q, moments.std_q]

    def check(self, results):
        failed = 0
        for solver, result, want in zip(self.solvers, results,
                                        self.reference["final"], strict=True):
            got = self._summary(solver, result)
            if not all(_close(g, w, 1e-12)
                       for g, w in zip(got, want, strict=True)):
                failed += 1
        return failed, len(results) * self.cells * self.T_END

    def record(self, results):
        return {"final": [self._summary(s, r)
                          for s, r in zip(self.solvers, results, strict=True)]}


class DesDumbbell(Workload):
    """``repro run des-dumbbell``: n_sources in {8, 32, 64}, duration 300."""

    name = "des-dumbbell"
    WORK_UNIT = "DES events"
    SIZES = (8, 32, 64)
    OPS = len(SIZES)

    def __init__(self, seed, work_dir):
        self.seed = int(seed)
        self.reference = load_reference(self.name)
        self.first = None

    def run_pass(self):
        return [experiments.des_scenario_point(
                    "dumbbell", n_sources=n, duration=300.0, seed=self.seed)
                for n in self.SIZES]

    def check(self, values):
        got = [[v["events_executed"], v["total_losses"]] for v in values]
        if self.first is None:
            self.first = got
        want = self.reference["counts"] if self.seed == DEFAULT_SEED \
            else self.first
        failed = sum(g != w for g, w in zip(got, want, strict=True))
        return failed, sum(g[0] for g in got)

    def record(self, values):
        return {"counts": [[v["events_executed"], v["total_losses"]]
                           for v in values]}


class Campaign(Workload):
    """``repro run`` of 48 density jobs, 2 workers, cache and journal on."""

    name = "campaign"
    WORK_UNIT = "jobs"
    WORKERS = 2
    OPS = 48

    def __init__(self, seed, work_dir):
        self.jobs = build_matrix(
            experiments.density_point, SystemParameters(),
            axes={"sigma": [0.2, 0.4, 0.6, 0.8],
                  "c1": [0.1, 0.2, 0.4, 0.8],
                  "c0": [0.025, 0.05, 0.1]},
            fixed={"t_end": 60.0, "nq": 50, "nv": 40},
            master_seed=int(seed))
        rng = np.random.default_rng(int(seed))
        self.prefilled = sorted(int(i) for i in rng.choice(
            len(self.jobs), size=len(self.jobs) // 2, replace=False))
        self.work_dir = Path(work_dir)
        self.passes = 0
        self.cache = None
        self.journal = None
        self.expected = None

    def prepare(self):
        serial = executor.run_jobs(self.jobs, n_jobs=1)
        self.expected = [_canonical(outcome.value) for outcome in serial]

    def before_pass(self):
        self.passes += 1
        root = self.work_dir / f"pass-{self.passes}"
        shutil.rmtree(root, ignore_errors=True)
        self.cache = ResultCache(root / "cache")
        for index in self.prefilled:
            self.cache.put(self.jobs[index].key,
                           json.loads(self.expected[index]))
        self.journal = RunJournal(root / "journal.jsonl")

    def run_pass(self):
        return executor.run_jobs(self.jobs, n_jobs=self.WORKERS,
                                 cache=self.cache, journal=self.journal)

    def after_pass(self):
        self.journal.close()
        shutil.rmtree(self.cache.root.parent, ignore_errors=True)
        # run_jobs shuts its pool down without waiting; wait here, outside
        # the timed region, so no worker outlives its pass.
        for child in multiprocessing.active_children():
            child.join()

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def check(self, result):
        bad = sum(not outcome.ok or _canonical(outcome.value) != want
                  for outcome, want in zip(result.outcomes, self.expected,
                                           strict=True))
        if result.cache_hits != len(self.prefilled):
            bad += 1
        return min(bad, self.OPS), self.OPS

    def pass_counts(self, result):
        computed = [outcome.duration for outcome in result.outcomes
                    if not outcome.from_cache]
        return {"runner.job_durations": computed}


def _canonical(value):
    return json.dumps(value, sort_keys=True, allow_nan=True)


WORKLOADS = {cls.name: cls for cls in (DesignSweep, FpDensity, DesDumbbell,
                                       Campaign)}
