"""Ensemble summaries and comparison against the Fokker-Planck density.

Large ensembles can be *sharded*: passing ``seed=`` (instead of ``rng=``)
to :func:`run_ensemble` splits the particle population into independently
seeded shards whose seeds come from the spawn-key derivation in
:mod:`repro.queueing.random_streams`.  Shard ``i`` depends only on
``(seed, i, its particle count)``, and the shards run in process in
shard-index order, so a sharded result is reproducible for each
``(seed, n_paths)``.  The parallel form of an ensemble is a
runner matrix whose jobs are whole ensembles
(``repro run ensemble-grid --jobs N``).

Sharded ensembles also take a ``retention`` policy.  Under
``retention="full"`` every sample path is kept (optionally spilled to a
``numpy.memmap`` via ``memmap_dir``).  Under ``"moments"`` each shard's
paths are folded, in shard-index order, into streaming
per-snapshot-time Welford moments plus the final particle states, and the
shard's history is discarded -- the working set is one shard, not the
ensemble.  Under ``"none"`` even the final states are streamed, into an
exact overflow counter at ``2·q̂``.  Because shard streams depend
only on ``(seed, shard index, shard size)``, a moments-mode run integrates
exactly the same sample paths as the full-mode run it summarises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemParameters
from ..control.base import RateControl
from ..core.moments import marginal_q
from ..core.solver import FokkerPlanckResult
from ..dataplane import StreamingHistogram, StreamingMoments, validate_retention
from ..exceptions import AnalysisError, ConfigurationError
from ..health import HealthMonitor, resolve_health
from ..health.report import HealthLog
from ..numerics.sde import SDEPaths
from ..queueing.random_streams import child_seed_sequences
from .langevin import LangevinModel

__all__ = ["EnsembleResult", "EnsembleStats", "run_ensemble",
           "compare_with_density", "shard_sizes"]

#: Shard count of a seeded ensemble.  A fixed constant, so a sharded result
#: depends only on ``(seed, n_paths)``.
DEFAULT_SHARDS = 8


@dataclass
class EnsembleStats:
    """Streamed summary of an ensemble (what survives discarding paths).

    Attributes
    ----------
    times:
        Snapshot times, shape ``(n_times,)``.
    n_paths:
        Total particle count folded in.
    moments:
        Per-snapshot-time, per-component Welford moments with state shape
        ``(n_times, dim)``; particles are the sample axis.
    final_states:
        Particle states at the final time, shape ``(n_paths, dim)``; kept
        under ``retention="moments"`` (so overflow probabilities and
        empirical densities stay exact), ``None`` under ``"none"``.
    overflow_counts:
        Exact count of final queues strictly above ``2·q̂``
        (``retention="none"``), keyed by that threshold.
    """

    times: np.ndarray
    n_paths: int
    moments: StreamingMoments
    final_states: Optional[np.ndarray] = None
    overflow_counts: Dict[float, int] = field(default_factory=dict)


@dataclass
class EnsembleResult:
    """Summary of one Langevin Monte-Carlo ensemble run.

    Exactly one of :attr:`paths` (``retention="full"``) and :attr:`stats`
    (streamed retention) carries the data; the series accessors
    (:attr:`mean_queue_series` and friends) work for both.

    Attributes
    ----------
    mu:
        Service rate used, kept so rate-vs-growth conversions need no
        extra argument.
    retention:
        The retention policy the run used.
    paths:
        The raw sample paths (``retention="full"`` only).
    stats:
        The streamed summary (``retention="moments"``/``"none"`` only).
    """

    mu: float
    retention: str = "full"
    paths: Optional[SDEPaths] = None
    stats: Optional[EnsembleStats] = None
    #: Merged per-shard health log (``None`` when the run was unmonitored).
    health: Optional[HealthLog] = None

    def __post_init__(self) -> None:
        validate_retention(self.retention)
        if (self.paths is None) == (self.stats is None):
            raise ConfigurationError(
                "EnsembleResult needs exactly one of paths= or stats=")

    @property
    def n_paths(self) -> int:
        """Total particle count."""
        if self.paths is not None:
            return self.paths.n_paths
        return self.stats.n_paths

    @property
    def times(self) -> np.ndarray:
        """Snapshot times of the ensemble."""
        if self.paths is not None:
            return self.paths.times
        return self.stats.times

    def _moment_series(self, component: int, kind: str) -> np.ndarray:
        if self.paths is not None:
            if kind == "mean":
                return self.paths.mean(component)
            return np.sqrt(self.paths.variance(component))
        moments = self.stats.moments
        if kind == "mean":
            return moments.mean[:, component]
        return moments.std[:, component]

    @property
    def mean_queue_series(self) -> np.ndarray:
        """Ensemble-mean queue length over time."""
        return self._moment_series(0, "mean")

    @property
    def std_queue_series(self) -> np.ndarray:
        """Ensemble standard deviation of the queue length over time."""
        return self._moment_series(0, "std")

    # -- final-time statistics ---------------------------------------------

    def final_queue_samples(self) -> np.ndarray:
        """Queue lengths of all particles at the final time.

        Available under ``retention="full"`` and ``"moments"``; under
        ``"none"`` the per-particle samples were not retained.
        """
        if self.paths is not None:
            return self.paths.final_states[:, 0]
        if self.stats.final_states is not None:
            return self.stats.final_states[:, 0]
        raise AnalysisError(
            "final particle states are unavailable under retention='none'; "
            "rerun with retention='moments'")

    def final_queue_density(self, edges: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Empirical queue-length density at the final time on the given bins."""
        histogram = StreamingHistogram(edges)
        histogram.update(self.final_queue_samples())
        return histogram.density()

    def overflow_probability(self, threshold: float) -> float:
        """Fraction of particles whose final queue exceeds *threshold*."""
        if self.paths is None and self.stats.final_states is None:
            for configured, count in self.stats.overflow_counts.items():
                if abs(configured - threshold) <= 1e-12 * max(
                        1.0, abs(configured)):
                    return count / self.stats.n_paths
            raise AnalysisError(
                f"overflow threshold {threshold:g} was not streamed "
                "(retention='none' counts only 2*q_target); use "
                "retention='moments'")
        samples = self.final_queue_samples()
        return float(np.mean(samples > threshold))


def shard_sizes(n_paths: int, n_shards: int) -> List[int]:
    """Split *n_paths* into *n_shards* near-equal, deterministic shard sizes.

    The first ``n_paths % n_shards`` shards carry one extra particle, so the
    split depends only on the two counts -- never on execution order.
    """
    if n_paths < 1:
        raise ConfigurationError("n_paths must be at least 1")
    if n_shards < 1:
        raise ConfigurationError("n_shards must be at least 1")
    if n_shards > n_paths:
        n_shards = n_paths
    base, extra = divmod(n_paths, n_shards)
    return [base + (1 if index < extra else 0) for index in range(n_shards)]


def _simulate_shard(control: RateControl, params: SystemParameters,
                    q0: float, rate0: float, t_end: float, dt: float,
                    n_paths: int, feedback_delay: float,
                    seed_sequence: np.random.SeedSequence,
                    health_mode: str = "off",
                    shard_index: int = 0
                    ) -> Tuple[SDEPaths, Optional[dict]]:
    """Run one shard of an ensemble.

    Returns the shard's paths plus its health-log summary (``None`` when
    unmonitored), which :func:`_merged_health` folds in shard-index order.
    """
    monitor = HealthMonitor.create(
        health_mode, where=f"stochastic.ensemble/shard{shard_index}")
    model = LangevinModel(control, params, feedback_delay=feedback_delay)
    paths = model.simulate(q0=q0, rate0=rate0, t_end=t_end, dt=dt,
                           n_paths=n_paths,
                           rng=np.random.default_rng(seed_sequence),
                           health=monitor)
    return paths, (monitor.log.summary() if monitor is not None else None)


def _fold_shard(stats: Optional[EnsembleStats], shard: SDEPaths,
                retention: str, overflow_threshold: float) -> EnsembleStats:
    """Fold one shard's paths into the streamed summary, then drop them."""
    n_times, n_paths, dim = shard.paths.shape
    if stats is None:
        stats = EnsembleStats(times=shard.times.copy(), n_paths=0,
                              moments=StreamingMoments((n_times, dim)))
        if retention == "moments":
            stats.final_states = np.empty((0, dim), dtype=float)
        stats.overflow_counts = ({float(overflow_threshold): 0}
                                 if retention == "none" else {})
    stats.moments.update_batch(shard.paths, axis=1)
    stats.n_paths += n_paths
    final = shard.final_states
    if stats.final_states is not None:
        stats.final_states = np.concatenate([stats.final_states, final],
                                            axis=0)
    else:
        final_queues = final[:, 0]
        for threshold in stats.overflow_counts:
            stats.overflow_counts[threshold] += int(
                np.count_nonzero(final_queues > threshold))
    return stats


def _combine_full(shards: List[SDEPaths],
                  memmap_dir: Optional[str]) -> SDEPaths:
    """Concatenate shard paths along the particle axis (optionally memmapped)."""
    if memmap_dir is None:
        return SDEPaths(times=shards[0].times,
                        paths=np.concatenate(
                            [shard.paths for shard in shards], axis=1))
    import os
    import tempfile
    n_times, _, dim = shards[0].paths.shape
    n_paths = sum(shard.paths.shape[1] for shard in shards)
    fd, path = tempfile.mkstemp(suffix=".paths", dir=memmap_dir)
    try:
        os.ftruncate(fd, n_times * n_paths * dim * 8)
        combined = np.memmap(path, dtype=np.float64, mode="r+",
                             shape=(n_times, n_paths, dim))
    finally:
        os.close(fd)
    os.unlink(path)
    offset = 0
    for shard in shards:
        width = shard.paths.shape[1]
        combined[:, offset:offset + width, :] = shard.paths
        offset += width
    return SDEPaths(times=shards[0].times, paths=combined)


def _merged_health(summaries: Sequence[Optional[dict]],
                   mode: str) -> Optional[HealthLog]:
    """Fold per-shard health summaries (shard-index order) into one log."""
    logs = [HealthLog.from_summary(s) for s in summaries if s is not None]
    if not logs:
        return None
    merged = HealthLog(mode=mode, where="stochastic.ensemble")
    for log in logs:
        merged.merge(log)
    return merged


def run_ensemble(control: RateControl, params: SystemParameters, q0: float,
                 rate0: float, t_end: float, dt: float = 0.02,
                 n_paths: int = 2000, feedback_delay: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None,
                 retention: str = "full",
                 memmap_dir: Optional[str] = None
                 ) -> EnsembleResult:
    """Run a Langevin ensemble with the given control law and parameters.

    Two execution modes:

    * **single-stream** (default, backwards compatible): all particles share
      one generator, supplied via *rng* (or a fixed default);
    * **sharded** (``seed`` given): particles are split into
      :data:`DEFAULT_SHARDS` shards, each with its own spawn-key-derived
      child stream, simulated in process in shard-index order.  The
      combined paths depend only on ``(seed, n_paths)``.

    The ``retention`` policy bounds memory for sharded runs: ``"full"``
    keeps every path (``memmap_dir`` spills the combined array to disk),
    ``"moments"`` streams per-snapshot Welford moments plus the final
    particle states and discards each shard after folding, ``"none"``
    additionally replaces the final states with an exact overflow counter
    at ``2 * params.q_target``.  Moments-mode runs integrate exactly the
    same sample paths as the full-mode run with the same
    ``(seed, n_paths)``.

    ``params.health`` selects the numerical-health policy (falling back to
    the ``REPRO_HEALTH`` environment / the ``observe`` default): each shard
    runs under its own monitor, and the per-shard logs are merged in
    shard-index order into :attr:`EnsembleResult.health`.  ``"off"`` is
    bit-identical to the unmonitored engine.
    """
    validate_retention(retention)
    health_mode = resolve_health(params.health or None)
    if seed is not None and rng is not None:
        raise ConfigurationError("pass either rng= or seed=, not both")
    if retention != "full" and seed is None:
        raise ConfigurationError(
            "streamed retention folds per-shard summaries, so it needs the "
            "sharded mode: pass seed=")

    if seed is None:
        monitor = HealthMonitor.create(health_mode,
                                       where="stochastic.ensemble")
        model = LangevinModel(control, params, feedback_delay=feedback_delay)
        paths = model.simulate(q0=q0, rate0=rate0, t_end=t_end, dt=dt,
                               n_paths=n_paths, rng=rng, health=monitor)
        return EnsembleResult(paths=paths, mu=params.mu,
                              health=monitor.log if monitor else None)

    sizes = shard_sizes(n_paths, DEFAULT_SHARDS)
    seeds = child_seed_sequences(seed, len(sizes), key=("ensemble",))

    # Shards run and combine in shard-index order; the streamed fold order
    # is part of the reproducibility contract.  Streamed retention folds
    # each shard and drops it, so its working set is a shard, not the
    # ensemble.
    shards: List[SDEPaths] = []
    stats: Optional[EnsembleStats] = None
    summaries: List[Optional[dict]] = []
    for index, (size, shard_seed) in enumerate(
            zip(sizes, seeds, strict=True)):
        shard, summary = _simulate_shard(control, params, q0, rate0, t_end,
                                         dt, size, feedback_delay,
                                         shard_seed, health_mode, index)
        summaries.append(summary)
        if retention == "full":
            shards.append(shard)
        else:
            stats = _fold_shard(stats, shard, retention,
                                2.0 * params.q_target)
    health_log = _merged_health(summaries, health_mode)
    if retention == "full":
        return EnsembleResult(paths=_combine_full(shards, memmap_dir),
                              mu=params.mu, health=health_log)
    return EnsembleResult(mu=params.mu, retention=retention, stats=stats,
                          health=health_log)


def compare_with_density(ensemble: EnsembleResult,
                         fp_result: FokkerPlanckResult) -> dict:
    """Compare an ensemble against a Fokker-Planck result at the final time.

    Returns a dictionary with the absolute differences of the final mean and
    standard deviation of the queue, and the L1 distance between the FP
    queue marginal and the empirical particle density binned on the same
    grid.  The two runs must cover (approximately) the same horizon.
    """
    if abs(ensemble.times[-1] - fp_result.times[-1]) > 1.0:
        raise AnalysisError(
            "ensemble and Fokker-Planck runs cover different horizons")

    fp_moments = fp_result.final_moments
    mean_difference = abs(float(ensemble.mean_queue_series[-1])
                          - fp_moments.mean_q)
    std_difference = abs(float(ensemble.std_queue_series[-1])
                         - fp_moments.std_q)

    grid = fp_result.grid
    edges = grid.q_grid.edges
    _, empirical = ensemble.final_queue_density(edges)
    fp_marginal = marginal_q(fp_result.final_density, grid)
    fp_marginal = fp_marginal / max(float(np.sum(fp_marginal) * grid.dq), 1e-300)
    l1_distance = float(np.sum(np.abs(empirical - fp_marginal)) * grid.dq)

    return {
        "mean_queue_difference": mean_difference,
        "std_queue_difference": std_difference,
        "marginal_l1_distance": l1_distance,
    }
