"""Coarse-to-fine controller gain design.

The tuner sweeps a grid of ``(c0, c1, q_target, mu)`` gain choices in two
stages:

1. **Coarse** — every point is scored from a batched characteristic
   trajectory (:func:`repro.design.objectives.score_gain_grid`), processed
   in the fewest equal chunks whose recorded queue series fit
   :data:`CHUNK_QUEUE_BYTES`, so a ≥10⁴-point grid streams through the
   2-state RK4 engine in a bounded working set.
2. **Refine** — the best ``top_k`` points are re-examined with direct
   stationary Fokker-Planck solves (:func:`repro.design.stationary
   .solve_stationary`) when ``σ > 0``: the stationary mean queue replaces
   the trajectory-window mean in the queue-error axis and the combined
   score is recomputed, so the final ranking reflects the full stochastic
   operating point rather than the noiseless characteristics.

The result carries the ranked gains and the Pareto front of the
oscillation-amplitude / relaxation-time trade-off — the DEC-TR-506 style
design view (responsiveness versus smoothness) — and is exposed through
``repro design sweep`` and the ``design-gain-grid`` runner matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import GridParameters, ParameterDictMixin, SystemParameters
from ..dataplane import StreamingMoments, validate_retention
from ..exceptions import ConfigurationError, ConvergenceError
from ..health import HealthMonitor
from ..health.report import HealthLog
from .objectives import (GainGridScores, ObjectiveWeights, OperatingPointScore,
                         _validate_gain_axes, score_gain_grid, combine_score)
from .stationary import solve_stationary

__all__ = [
    "RankedGain",
    "GainSweepResult",
    "default_axes",
    "design_gains",
    "pareto_front_indices",
]

#: Byte budget of one coarse chunk's recorded queue series (float64, one
#: sample per step per point).  A scoring call peaks at its queue block
#: plus ~2.5 MiB of fixed analysis blocks (``tracemalloc``), so a chunk at
#: this budget peaks at ~42.5 MiB: below the 47.0 MiB that a 1,024-point
#: chunk peaked at when the rate series was recorded too and the analyses
#: built full ``(n, batch)`` temporaries.
CHUNK_QUEUE_BYTES = 40 << 20


@dataclass(frozen=True)
class RankedGain(ParameterDictMixin):
    """One ranked gain choice from a design sweep (JSON/cache friendly).

    ``stationary_mean_queue`` / ``stationary_std_queue`` are NaN unless the
    point went through the stationary refinement stage.  ``healthy`` is
    ``False`` when the refinement stage could not converge a stationary
    solve for the point even on the widened retry grid — the entry then
    carries the coarse-stage score, flagged as numerically unhealthy
    instead of silently blending in.
    """

    rank: int
    c0: float
    c1: float
    q_target: float
    mu: float
    score: float
    oscillation_amplitude: float
    oscillation_period: float
    relaxation_time: float
    queue_error: float
    unfairness: float
    stationary_mean_queue: float = float("nan")
    stationary_std_queue: float = float("nan")
    refined: bool = False
    healthy: bool = True


@dataclass
class GainSweepResult:
    """Outcome of one coarse-to-fine gain sweep.

    ``score_stats`` summarises the finite combined scores of the whole
    grid (count/mean/std/min/max from a streaming fold -- identical under
    every retention policy; the mean and std are folded chunk by chunk, so
    they can change in their last bits when the chunking changes, while
    count, min and max cannot); ``retention`` records the policy the sweep
    ran under (``"moments"``/``"none"`` never materialise the full score
    columns, so their working set is O(top_k + front) instead of
    O(n_points)).
    """

    ranked: List[RankedGain]
    pareto: List[RankedGain]
    n_points: int
    n_refined: int
    t_end: float
    dt: float
    weights: ObjectiveWeights
    chunks: int = field(default=0)
    retention: str = "full"
    score_stats: Optional[dict] = None
    #: Health log of the refinement stage (``None`` when the monitor is off).
    health: Optional[HealthLog] = None

    @property
    def best(self) -> RankedGain:
        """The top-ranked gain choice."""
        return self.ranked[0]


def default_axes(params: SystemParameters, n_c0: int = 10, n_c1: int = 10,
                 n_q_target: int = 10, n_mu: int = 10) -> dict:
    """Default sweep axes bracketing the configured operating point.

    Gains span a factor of four either side of the configured values
    (geometric spacing, matching their multiplicative role); target queue
    and service rate span moderate linear ranges.  The default sizes give
    the 10⁴-point grid the acceptance benchmark runs.
    """
    return {
        "c0_values": np.geomspace(params.c0 / 4.0, params.c0 * 4.0, n_c0),
        "c1_values": np.geomspace(params.c1 / 4.0, params.c1 * 4.0, n_c1),
        "q_target_values": np.linspace(max(params.q_target / 2.0, 1.0),
                                       params.q_target * 1.5, n_q_target),
        "mu_values": np.linspace(0.6 * params.mu, 1.4 * params.mu, n_mu),
    }


def pareto_front_indices(amplitude: np.ndarray, relaxation: np.ndarray
                         ) -> np.ndarray:
    """Indices of the non-dominated points minimising both axes.

    A point is on the front when no other point has both a smaller (or
    equal, with one strictly smaller) amplitude and relaxation time.
    Returned in increasing-amplitude order.
    """
    amplitude = np.asarray(amplitude, dtype=float)
    relaxation = np.asarray(relaxation, dtype=float)
    order = np.lexsort((relaxation, amplitude))
    front = []
    best_relaxation = np.inf
    for index in order:
        if relaxation[index] < best_relaxation:
            front.append(index)
            best_relaxation = relaxation[index]
    return np.asarray(front, dtype=int)


def _chunk_bounds(n_points: int, n_rows: int,
                  chunk_size: Optional[int]) -> List[int]:
    """Boundaries of the fewest equal chunks (sizes differ by at most one)
    whose queue series fit :data:`CHUNK_QUEUE_BYTES`, or of at most
    *chunk_size* points each when that is given.

    Equal chunks matter beyond the count: a large chunk followed by a small
    tail raised the sweep's peak RSS through allocator placement, with no
    gain in speed.
    """
    if chunk_size is None:
        n_chunks = -(-n_points * n_rows * 8 // CHUNK_QUEUE_BYTES)
    else:
        n_chunks = -(-n_points // chunk_size)
    n_chunks = min(max(n_chunks, 1), n_points)
    return [index * n_points // n_chunks for index in range(n_chunks + 1)]


def _ranked_from_point(point: OperatingPointScore, rank: int) -> RankedGain:
    return RankedGain(rank=rank, c0=point.c0, c1=point.c1,
                      q_target=point.q_target, mu=point.mu,
                      score=point.score,
                      oscillation_amplitude=point.oscillation_amplitude,
                      oscillation_period=point.oscillation_period,
                      relaxation_time=point.relaxation_time,
                      queue_error=point.queue_error,
                      unfairness=point.unfairness)


def _concatenate_column(chunks: Sequence[np.ndarray],
                        memmap_dir: Optional[str]) -> np.ndarray:
    if memmap_dir is None:
        return np.concatenate(chunks)
    import os
    import tempfile
    total = sum(chunk.size for chunk in chunks)
    fd, path = tempfile.mkstemp(suffix=".col", dir=memmap_dir)
    try:
        os.ftruncate(fd, max(total, 1) * 8)
        column = np.memmap(path, dtype=np.float64, mode="r+", shape=(total,))
    finally:
        os.close(fd)
    os.unlink(path)
    offset = 0
    for chunk in chunks:
        column[offset:offset + chunk.size] = chunk
        offset += chunk.size
    return column


def _concatenate_scores(chunks: Sequence[GainGridScores],
                        memmap_dir: Optional[str] = None) -> GainGridScores:
    def cat(name: str) -> np.ndarray:
        return _concatenate_column([getattr(c, name) for c in chunks],
                                   memmap_dir)
    return GainGridScores(
        c0=cat("c0"), c1=cat("c1"), q_target=cat("q_target"), mu=cat("mu"),
        oscillation_amplitude=cat("oscillation_amplitude"),
        oscillation_period=cat("oscillation_period"),
        relaxation_time=cat("relaxation_time"),
        queue_error=cat("queue_error"), unfairness=cat("unfairness"),
        score=cat("score"))


def _score_sort_key(candidate: Tuple[int, OperatingPointScore]):
    """Sort key matching a stable argsort over scores (NaN last)."""
    index, point = candidate
    if math.isnan(point.score):
        return (1, 0.0, index)
    return (0, point.score, index)


def _refine_grid(q_target: float, spread: float = 0.0) -> GridParameters:
    """Stationary-solve grid sized to the point's target queue.

    *spread* (the coarse stage's oscillation amplitude) widens the queue
    extent: weakly damped gains carry long density tails, and a truncated
    domain leaks mass through the outflow boundary until no normalizable
    stationary state exists on it.
    """
    return GridParameters(q_max=max(3.0 * (q_target + 2.0 * spread), 15.0),
                          nq=48, v_min=-1.5, v_max=1.5, nv=36)


def _widened(grid: GridParameters) -> GridParameters:
    """Double the queue extent at the same resolution (retry grid)."""
    return GridParameters(q_max=2.0 * grid.q_max, nq=2 * grid.nq,
                          v_min=grid.v_min, v_max=grid.v_max, nv=grid.nv)


def design_gains(params: SystemParameters,
                 c0_values=None, c1_values=None, q_target_values=None,
                 mu_values=None,
                 *,
                 weights: Optional[ObjectiveWeights] = None,
                 top_k: int = 16,
                 chunk_size: Optional[int] = None,
                 t_end: float = 150.0,
                 dt: float = 0.1,
                 refine: Optional[bool] = None,
                 refine_grid: Optional[GridParameters] = None,
                 refine_dt: Optional[float] = None,
                 backend: Optional[str] = None,
                 retention: str = "full",
                 memmap_dir: Optional[str] = None,
                 health: Optional[str] = None) -> GainSweepResult:
    """Run a coarse-to-fine gain-design sweep.

    Parameters
    ----------
    params:
        Base system parameters (``sigma`` drives the refinement stage; the
        configured gains are the fairness reference deployment).
    c0_values, c1_values, q_target_values, mu_values:
        Axis values; the sweep covers their Cartesian product (row-major).
        Missing axes default to :func:`default_axes`.
    weights:
        Objective weights (equal by default).
    top_k:
        Number of leading points carried into the refinement stage.
    chunk_size:
        Most points per batched-trajectory call of the coarse stage.  The
        default, ``None``, splits the grid into the fewest equal chunks
        whose recorded queue series (8 bytes per point and step) fit
        :data:`CHUNK_QUEUE_BYTES`; an explicit value caps the chunk size
        instead, and those chunks are split evenly too.  Every score is
        the same under any chunking; only the ``score_stats`` mean and
        std, folded chunk by chunk, can change in their last bits.
    t_end, dt:
        Coarse-stage trajectory horizon and step.
    refine:
        Force the refinement stage on/off; the default refines exactly when
        ``params.sigma > 0`` (with ``σ = 0`` the stationary density is the
        degenerate point mass the characteristics already resolve).
    refine_grid, refine_dt, backend:
        Stationary-solve discretisation overrides for the refinement stage.
    retention:
        ``"full"`` keeps the whole grid's score columns (today's
        behaviour; O(n_points) memory).  ``"moments"`` streams each chunk
        into a running top-k, a running Pareto front (the union of chunk
        fronts, compacted each chunk, provably equals the full front) and
        streaming score moments -- the working set no longer grows with
        the grid.  ``"none"`` additionally skips the Pareto front.  The
        ranked/pareto outputs are identical between ``"full"`` and
        ``"moments"``.
    memmap_dir:
        Under ``retention="full"``, back the concatenated score columns
        with ``numpy.memmap`` files in this directory.
    health:
        Numerical health policy for the refinement stage (falls back to
        ``params.health``, then the environment / the ``observe``
        default).  A gain point whose stationary solve fails even on the
        widened retry grid is flagged ``healthy=False`` and scored from
        the coarse entry instead of returning garbage; under ``strict``
        that double failure aborts the sweep with a typed
        :class:`~repro.exceptions.ResidualHealthError`, and under
        ``repair`` the widened-grid retry is counted as a repair.

    Raises
    ------
    ConfigurationError
        On empty axes, non-positive sizes, a non-positive horizon or step,
        or an axis value out of range (``c0``, ``c1`` and ``mu`` must be
        finite and positive, ``q_target`` finite and non-negative) -- all
        before the first trajectory runs.
    """
    validate_retention(retention)
    if top_k < 1:
        raise ConfigurationError("top_k must be at least 1")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError("chunk_size must be at least 1")
    if not (t_end > 0.0 and dt > 0.0):
        raise ConfigurationError("t_end and dt must be positive")
    defaults = default_axes(params)
    axes = {
        "c0": np.asarray(c0_values if c0_values is not None
                         else defaults["c0_values"], dtype=float),
        "c1": np.asarray(c1_values if c1_values is not None
                         else defaults["c1_values"], dtype=float),
        "q_target": np.asarray(q_target_values if q_target_values is not None
                               else defaults["q_target_values"], dtype=float),
        "mu": np.asarray(mu_values if mu_values is not None
                         else defaults["mu_values"], dtype=float),
    }
    for name, values in axes.items():
        if values.ndim != 1 or values.size == 0:
            raise ConfigurationError(
                f"axis {name} must be a non-empty 1-D array")
    _validate_gain_axes(**axes)

    mesh = np.meshgrid(axes["c0"], axes["c1"], axes["q_target"], axes["mu"],
                       indexing="ij")
    c0_flat, c1_flat, q_target_flat, mu_flat = (m.ravel() for m in mesh)
    n_points = c0_flat.size
    weights = weights if weights is not None else ObjectiveWeights()

    keep_columns = retention == "full"
    track_pareto = retention != "none"
    score_moments = StreamingMoments()
    chunk_scores: List[GainGridScores] = []
    top_candidates: List[Tuple[int, OperatingPointScore]] = []
    pareto_candidates: List[Tuple[int, OperatingPointScore]] = []
    bounds = _chunk_bounds(n_points, math.ceil(t_end / dt) + 1, chunk_size)
    for start, stop in zip(bounds[:-1], bounds[1:], strict=True):
        chunk = score_gain_grid(
            params, c0_flat[start:stop], c1_flat[start:stop],
            q_target_flat[start:stop], mu_flat[start:stop],
            weights=weights, t_end=t_end, dt=dt)
        chunk.fold_score_moments(score_moments)
        if keep_columns:
            chunk_scores.append(chunk)
            continue
        # Streamed retention: merge this chunk's leaders into the running
        # top-k (the global top-k is a subset of the union of chunk
        # top-ks) and its Pareto front into the running front (a globally
        # non-dominated point is non-dominated in its own chunk, so the
        # union of chunk fronts contains the global front).  The sort key
        # mirrors a stable argsort over global indices, so ties resolve
        # exactly as in the full-retention path.
        for local in chunk.ranking()[:min(top_k, chunk.size)]:
            top_candidates.append((start + int(local),
                                   chunk.point(int(local))))
        top_candidates.sort(key=_score_sort_key)
        del top_candidates[top_k:]
        if track_pareto:
            local_front = pareto_front_indices(chunk.oscillation_amplitude,
                                               chunk.relaxation_time)
            pareto_candidates.extend(
                (start + int(local), chunk.point(int(local)))
                for local in local_front)
            amplitude = np.array([p.oscillation_amplitude
                                  for _, p in pareto_candidates])
            relaxation = np.array([p.relaxation_time
                                   for _, p in pareto_candidates])
            keep = pareto_front_indices(amplitude, relaxation)
            pareto_candidates = [pareto_candidates[int(i)] for i in keep]

    if keep_columns:
        scores = _concatenate_scores(chunk_scores, memmap_dir)
        ranking = scores.ranking()
        top = [(int(index), scores.point(int(index)))
               for index in ranking[:min(top_k, n_points)]]
        front_points = [scores.point(int(index)) for index in
                        pareto_front_indices(scores.oscillation_amplitude,
                                             scores.relaxation_time)]
    else:
        top = top_candidates
        # After the final compaction the candidates already sit in the
        # front's canonical increasing-amplitude order.
        front_points = [point for _, point in pareto_candidates]

    do_refine = params.sigma > 0.0 if refine is None else bool(refine)
    monitor = HealthMonitor.create(health or params.health or None,
                                   where="design.tuner")

    ranked: List[RankedGain] = []
    n_refined = 0
    if do_refine:
        for _, point in top:
            point_params = replace(params, c0=point.c0, c1=point.c1,
                                   q_target=point.q_target, mu=point.mu)
            grid = (refine_grid if refine_grid is not None
                    else _refine_grid(point.q_target,
                                      point.oscillation_amplitude))
            point_label = (f"gain point (c0={point.c0:.4g}, c1={point.c1:.4g}, "
                           f"q_target={point.q_target:.4g}, mu={point.mu:.4g})")
            # The inner solves run with health="off": the tuner is the
            # monitor here, and its policy must see the first failure
            # before the widened-grid retry (a strict inner monitor would
            # abort before the retry could run).
            try:
                stationary = solve_stationary(point_params, grid_params=grid,
                                              dt=refine_dt, backend=backend,
                                              health="off")
            except ConvergenceError:
                # Mass is probably leaking through a too-small domain;
                # retry once on a doubled queue extent, then fall back to
                # the coarse entry rather than abort the whole sweep.
                if monitor is not None and monitor.mode != "strict":
                    # Counted as a repair in repair mode, recorded in
                    # observe; strict only aborts on the double failure.
                    monitor.check_residual(
                        float("inf"), 1e-9, repair=lambda: None,
                        label=f"{point_label}: widened-grid retry")
                try:
                    stationary = solve_stationary(
                        point_params, grid_params=_widened(grid),
                        dt=refine_dt, backend=backend, health="off")
                except ConvergenceError:
                    if monitor is not None:
                        monitor.check_residual(
                            float("inf"), 1e-9,
                            label=(f"{point_label}: stationary refine failed "
                                   f"on the widened grid too"))
                    ranked.append(replace(_ranked_from_point(point, 0),
                                          healthy=False))
                    continue
            n_refined += 1
            queue_error = abs(stationary.moments.mean_q - point.q_target)
            q_scale = max(point.q_target, 1.0)
            score = float(combine_score(
                weights, point.oscillation_amplitude, point.relaxation_time,
                queue_error, point.unfairness, q_scale, t_end))
            ranked.append(RankedGain(
                rank=0, c0=point.c0, c1=point.c1, q_target=point.q_target,
                mu=point.mu, score=score,
                oscillation_amplitude=point.oscillation_amplitude,
                oscillation_period=point.oscillation_period,
                relaxation_time=point.relaxation_time,
                queue_error=queue_error, unfairness=point.unfairness,
                stationary_mean_queue=stationary.moments.mean_q,
                stationary_std_queue=stationary.moments.std_q,
                refined=True))
        ranked.sort(key=lambda gain: gain.score)
        ranked = [replace(gain, rank=position)
                  for position, gain in enumerate(ranked)]
    else:
        ranked = [_ranked_from_point(point, position)
                  for position, (_, point) in enumerate(top)]

    front = [_ranked_from_point(point, position)
             for position, point in enumerate(front_points)]

    score_stats = {
        "count": int(score_moments.count),
        "mean": float(score_moments.mean) if score_moments.count else None,
        "std": float(score_moments.std) if score_moments.count else None,
        "min": float(score_moments.minimum) if score_moments.count else None,
        "max": float(score_moments.maximum) if score_moments.count else None,
    }
    return GainSweepResult(ranked=ranked, pareto=front, n_points=n_points,
                           n_refined=n_refined, t_end=t_end, dt=dt,
                           weights=weights, chunks=len(bounds) - 1,
                           retention=retention, score_stats=score_stats,
                           health=monitor.log if monitor else None)
