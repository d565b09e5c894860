"""Span tracer that wraps the public functions of each layer from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces each
function or method named in :data:`LAYER_SPANS` with a timing wrapper --
on its class, on its defining module and on every ``repro`` module (or extra
module) that imported the name directly -- and :meth:`Tracer.uninstall` puts
the originals back.  A span's *self time* is its duration minus the time of
the spans it encloses, so the self times of all spans plus the root span's
own self time (the unattributed remainder) add up to the root's wall time.

Spans opened inside worker processes (the campaign's pool) stay in those
processes and are lost; the campaign reports worker time through
``JobOutcome.duration`` instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: (module, attribute path, span name).  Several entries may share a span
#: name; their times and calls add up under that name.
LAYER_SPANS = [
    ("repro.numerics.backend", "NumpyBackend.stationary_null_vector",
     "numerics.stationary_null_vector"),
    ("repro.numerics.backend", "ScipyBackend.stationary_null_vector",
     "numerics.stationary_null_vector"),
    ("repro.numerics.backend", "NumpyBackend.factorize_tridiagonal",
     "numerics.factorize_tridiagonal"),
    ("repro.numerics.backend", "ScipyBackend.factorize_tridiagonal",
     "numerics.factorize_tridiagonal"),
    ("repro.numerics.backend", "NumpyBackend.factorize_sparse",
     "numerics.factorize_sparse"),
    ("repro.numerics.backend", "ScipyBackend.factorize_sparse",
     "numerics.factorize_sparse"),
    ("repro.characteristics.trajectory", "integrate_characteristic_batch",
     "characteristics.integrate_characteristic_batch"),
    ("repro.control.jrj", "JRJControl.drift_batch", "control.drift_batch"),
    ("repro.analysis.oscillations", "oscillation_metrics_batch",
     "analysis.oscillation_metrics_batch"),
    ("repro.design.objectives", "score_gain_grid", "design.score_gain_grid"),
    ("repro.design.stationary", "solve_stationary", "design.solve_stationary"),
    ("repro.core.generator", "assemble_generator", "core.generator"),
    ("repro.core.generator", "DiscreteGenerator.splitting_matrix",
     "core.generator"),
    ("repro.core.generator", "DiscreteGenerator.generator", "core.generator"),
    ("repro.core.solver", "FokkerPlanckSolver.solve", "core.solve"),
    ("repro.core.stepper", "AxisSplitStepper.advance", "core.advance"),
    ("repro.core.stepper", "ADIStepper.advance", "core.advance"),
    ("repro.core.diffusion", "CrankNicolsonDiffusion.step", "core.diffusion"),
    ("repro.core.advection", "UpwindAdvection.advect_q", "core.advection"),
    ("repro.core.advection", "UpwindAdvection.advect_v", "core.advection"),
    ("repro.queueing.events", "EventQueue.run_until", "queueing.run_until"),
    ("repro.queueing.trace", "TimeSeriesTrace.time_average",
     "queueing.time_average"),
    ("repro.dataplane.sink", "MomentsTraceSink.time_average",
     "queueing.time_average"),
    ("repro.dataplane.sink", "NullTraceSink.time_average",
     "queueing.time_average"),
    ("repro.runner.executor", "run_jobs", "runner.run_jobs"),
    ("repro.runner.cache", "ResultCache.get", "runner.cache.get"),
    ("repro.runner.cache", "ResultCache.put", "runner.cache.put"),
    ("repro.runner.journal", "RunJournal.record", "runner.journal.append"),
] + [
    ("repro.health.monitors", f"HealthMonitor.{method}", "health.checks")
    for method in ("check_fp_density", "check_fp_half_step",
                   "check_finite_block", "check_step_size", "check_min_step",
                   "check_queue_value", "check_event_budget",
                   "check_sim_time", "check_residual")
]

#: Spans whose every duration is kept, for percentiles.
SAMPLED_SPANS = {"core.advance"}

#: Name of the root span that encloses one traced workload pass.
ROOT_SPAN = "trace.remainder"


class Tracer:
    """Self-time, total-time and call accounting for named spans."""

    def __init__(self):
        self._stack = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._patches = []

    def span(self, name, function, on_result=None):
        """Wrap *function* so every call records a span called *name*."""
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        samples = self.samples[name] if name in SAMPLED_SPANS else None

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if on_result is not None:
                on_result(self, function, args, kwargs, result)
            return result

        return wrapper

    def run_root(self, function):
        """Call *function* under the root span; returns its result."""
        return self.span(ROOT_SPAN, function)()

    def install(self, extra_modules=()):
        """Wrap every layer function in :data:`LAYER_SPANS`."""
        for module_name, path, name in LAYER_SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            wrapped = self.span(name, original, _ON_RESULT.get(name))
            self._patch(owner, attribute, wrapped)
            if owner_name:
                continue
            # Module-level functions are also bound in every consumer
            # module that imported them by name.
            consumers = [m for key, m in list(sys.modules.items())
                         if key == "repro" or key.startswith("repro.")]
            for consumer in consumers + list(extra_modules):
                if consumer is module:
                    continue
                for key, value in list(vars(consumer).items()):
                    if value is original:
                        self._patch(consumer, key, wrapped)

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self):
        """Restore every original function (in reverse patch order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _count_null_solve(tracer, function, args, kwargs, result):
    bound = inspect.signature(function).bind(*args, **kwargs)
    tracer.counts["numerics.null_unknowns"] += int(bound.arguments["n"])
    tracer.counts["numerics.null_iterations"] += int(result[1]["iterations"])


def _count_trajectories(tracer, function, args, kwargs, result):
    tracer.counts["characteristics.trajectories"] += result.batch_size


def _count_events(tracer, function, args, kwargs, result):
    tracer.counts["queueing.events"] += int(result)


def _count_cache_hit(tracer, function, args, kwargs, result):
    tracer.counts["runner.cache.hits"] += bool(result[0])


_ON_RESULT = {
    "numerics.stationary_null_vector": _count_null_solve,
    "characteristics.integrate_characteristic_batch": _count_trajectories,
    "queueing.run_until": _count_events,
    "runner.cache.get": _count_cache_hit,
}
