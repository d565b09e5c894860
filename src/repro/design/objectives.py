"""Objective scoring of controller operating points.

A gain choice ``(c0, c1, q_target, mu)`` is scored on four axes, all drawn
from quantities the rest of the library already measures:

* **oscillation amplitude** of the queue trajectory's steady-state window
  (:func:`repro.analysis.oscillations.oscillation_metrics`) — the paper's
  Section 5 limit-cycle behaviour; the window's dominant period is
  reported beside it but not scored,
* **relaxation** — how quickly the characteristic settles near its final
  queue (:meth:`repro.characteristics.CharacteristicBatch.settling_times`),
* **queue error** — distance of the steady-window mean queue from the
  configured target, and
* **deployment unfairness** — how badly a source with these gains shares a
  bottleneck against a reference deployment, via the Section 6 equilibrium
  shares ``shareᵢ ∝ C0ᵢ/C1ᵢ`` and Jain's index
  (:mod:`repro.analysis.fairness`).

The combined score is a weighted sum of the normalised axes (lower is
better).  Scoring is vectorised over gain grids through
:func:`repro.characteristics.integrate_characteristic_batch`; the scalar
path (:func:`score_operating_point`) produces bit-identical numbers for any
single point, which the unit tests pin.  The period takes one spectrum per
point, so a grid caller that reports only a few points can ask
:func:`score_gain_grid` for those periods alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from ..analysis.oscillations import (oscillation_envelope_batch,
                                     oscillation_metrics_batch)
from ..config import ParameterDictMixin, SystemParameters
from ..control.jrj import JRJControl
from ..characteristics.trajectory import integrate_characteristic_batch
from ..dataplane import StreamingMoments
from ..exceptions import ConfigurationError

__all__ = [
    "ObjectiveWeights",
    "OperatingPointScore",
    "GainGridScores",
    "combine_score",
    "deployment_unfairness",
    "score_gain_grid",
    "score_operating_point",
]


@dataclass(frozen=True)
class ObjectiveWeights(ParameterDictMixin):
    """Relative weights of the four scoring axes (all non-negative)."""

    oscillation: float = 1.0
    relaxation: float = 1.0
    queue_error: float = 1.0
    unfairness: float = 1.0

    def __post_init__(self) -> None:
        for name in ("oscillation", "relaxation", "queue_error",
                     "unfairness"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(
                    f"objective weight {name} must be non-negative")


@dataclass(frozen=True)
class OperatingPointScore(ParameterDictMixin):
    """Scalar scorecard of one gain choice (JSON/cache friendly)."""

    c0: float
    c1: float
    q_target: float
    mu: float
    oscillation_amplitude: float
    oscillation_period: float
    relaxation_time: float
    queue_error: float
    unfairness: float
    score: float


@dataclass
class GainGridScores:
    """Vectorised scorecards of a whole gain grid (one entry per point).

    ``oscillation_period`` is NaN for a point without a sustained
    oscillation, and for a point that a ``score_gain_grid(period_points=)``
    selector left out.
    """

    c0: np.ndarray
    c1: np.ndarray
    q_target: np.ndarray
    mu: np.ndarray
    oscillation_amplitude: np.ndarray
    oscillation_period: np.ndarray
    relaxation_time: np.ndarray
    queue_error: np.ndarray
    unfairness: np.ndarray
    score: np.ndarray

    @property
    def size(self) -> int:
        """Number of scored points."""
        return int(self.score.size)

    def point(self, index: int) -> OperatingPointScore:
        """Extract one point as a scalar :class:`OperatingPointScore`."""
        return OperatingPointScore(
            c0=float(self.c0[index]), c1=float(self.c1[index]),
            q_target=float(self.q_target[index]), mu=float(self.mu[index]),
            oscillation_amplitude=float(self.oscillation_amplitude[index]),
            oscillation_period=float(self.oscillation_period[index]),
            relaxation_time=float(self.relaxation_time[index]),
            queue_error=float(self.queue_error[index]),
            unfairness=float(self.unfairness[index]),
            score=float(self.score[index]))

    def ranking(self) -> np.ndarray:
        """Point indices from best (lowest score) to worst."""
        return np.argsort(self.score, kind="stable")

    def fold_score_moments(self, moments: StreamingMoments
                           ) -> StreamingMoments:
        """Fold this chunk's finite combined scores into *moments*.

        The streamed-retention design sweep keeps these running statistics
        instead of the concatenated score columns; non-finite scores
        (degenerate gain points) are excluded so they cannot poison the
        mean/variance.
        """
        finite = self.score[np.isfinite(self.score)]
        if finite.size:
            moments.update_batch(finite, axis=0)
        return moments


def deployment_unfairness(c0, c1, reference_c0: float, reference_c1: float):
    """Unfairness of deploying gains ``(c0, c1)`` against a reference source.

    Both sources share a bottleneck at the Section 6 sliding equilibrium, so
    their shares are proportional to ``C0/C1``; the returned value is
    ``1 − Jain(shares)`` — zero when the deployment matches the reference
    ratio, approaching ``1/2`` as one source starves the other.  Vectorised
    over ``c0``/``c1``.
    """
    if reference_c0 <= 0.0 or reference_c1 <= 0.0:
        raise ConfigurationError("reference gains must be positive")
    ratio = (np.asarray(c0, dtype=float) / np.asarray(c1, dtype=float)) / (
        reference_c0 / reference_c1)
    # Jain's index of [x, 1]: (x + 1)^2 / (2 (x^2 + 1)).
    jain = (ratio + 1.0) ** 2 / (2.0 * (ratio * ratio + 1.0))
    return 1.0 - jain


def _validate_gain_axes(c0, c1, q_target, mu) -> None:
    """Reject a non-finite or out-of-range gain coordinate before any
    trajectory runs: ``c0``, ``c1`` and ``mu`` must be finite and positive,
    ``q_target`` finite and non-negative."""
    for name, values, positive in (("c0", c0, True), ("c1", c1, True),
                                   ("q_target", q_target, False),
                                   ("mu", mu, True)):
        values = np.asarray(values, dtype=float).reshape(-1)
        bad = ~np.isfinite(values) | ((values <= 0.0) if positive
                                      else (values < 0.0))
        if bad.any():
            raise ConfigurationError(
                f"axis {name} must be finite and "
                f"{'> 0' if positive else '>= 0'}; got "
                f"{float(values[np.argmax(bad)])!r}")


def combine_score(weights: ObjectiveWeights, amplitude, relaxation,
                  queue_error, unfairness, q_scale, t_end: float):
    """Weighted sum of the normalised axes (lower is better)."""
    return (weights.oscillation * amplitude / q_scale
            + weights.relaxation * relaxation / t_end
            + weights.queue_error * queue_error / q_scale
            + weights.unfairness * unfairness)


def score_gain_grid(params: SystemParameters, c0, c1, q_target, mu,
                    *,
                    weights: Optional[ObjectiveWeights] = None,
                    reference: Optional[Tuple[float, float]] = None,
                    t_end: float = 150.0,
                    dt: float = 0.1,
                    q0: float = 0.0,
                    rate0: float = 0.0,
                    steady_fraction: float = 0.5,
                    tolerance: float = 0.1,
                    period_points: Optional[
                        Callable[[GainGridScores], np.ndarray]] = None
                    ) -> GainGridScores:
    """Score a family of gain choices with one batched trajectory run.

    Parameters
    ----------
    params:
        Base system parameters (the fallback gains also serve as the default
        fairness reference deployment).
    c0, c1, q_target, mu:
        Gain-point coordinates; scalars or 1-D arrays that broadcast to a
        common batch size.
    weights:
        Axis weights (defaults to equal weights).
    reference:
        Reference ``(c0, c1)`` deployment for the unfairness axis; defaults
        to the gains in *params*.
    t_end, dt, q0, rate0:
        Trajectory horizon, step and shared start point (the canonical
        empty-queue, zero-rate startup by default).
    steady_fraction, tolerance:
        Analysis-window fraction for the oscillation metrics and the band
        tolerance for the settling times.
    period_points:
        Which points get an oscillation period.  The default, ``None``,
        computes every period.  A callable is given the scores with every
        period NaN and returns the indices of the points that need one;
        only those run the spectrum and the peak fallback.  A point's
        period does not depend on which others are analysed, and no score
        reads it, so every column is the same either way.

    Every axis reads the queue series alone, so the trajectories record no
    arrival rate: a point's working set is its queue series plus the fixed
    blocks of the analyses.

    Raises
    ------
    ConfigurationError
        When a ``c0``, ``c1`` or ``mu`` entry is not finite and positive, or
        a ``q_target`` entry not finite and non-negative.
    """
    _validate_gain_axes(c0, c1, q_target, mu)
    weights = weights if weights is not None else ObjectiveWeights()
    reference_c0, reference_c1 = (reference if reference is not None
                                  else (params.c0, params.c1))
    control = JRJControl(c0=params.c0, c1=params.c1,
                         q_target=params.q_target)
    batch = integrate_characteristic_batch(
        control, params, q0, rate0, t_end=t_end, dt=dt,
        columns={"c0": c0, "c1": c1, "q_target": q_target, "mu": mu},
        record_rate=False)
    amplitude, mean_value = oscillation_envelope_batch(
        batch.times, batch.queue, steady_fraction=steady_fraction)
    period = np.full(amplitude.shape, np.nan)
    relaxation = batch.settling_times(tolerance)
    queue_error = np.abs(mean_value - batch.q_target)
    unfairness = deployment_unfairness(
        np.broadcast_to(np.asarray(c0, dtype=float), batch.q_target.shape),
        np.broadcast_to(np.asarray(c1, dtype=float), batch.q_target.shape),
        reference_c0, reference_c1)
    q_scale = np.maximum(batch.q_target, 1.0)
    score = combine_score(weights, amplitude, relaxation,
                          queue_error, unfairness, q_scale, t_end)
    size = batch.q_target.shape
    scores = GainGridScores(
        c0=np.broadcast_to(np.asarray(c0, dtype=float), size).copy(),
        c1=np.broadcast_to(np.asarray(c1, dtype=float), size).copy(),
        q_target=batch.q_target, mu=batch.mu,
        oscillation_amplitude=amplitude, oscillation_period=period,
        relaxation_time=relaxation, queue_error=queue_error,
        unfairness=unfairness, score=score)
    members = (slice(None) if period_points is None
               else np.asarray(period_points(scores), dtype=np.intp))
    period[members] = oscillation_metrics_batch(
        batch.times, batch.queue[:, members],
        steady_fraction=steady_fraction).period
    return scores


def score_operating_point(params: SystemParameters, c0: float, c1: float,
                          q_target: float, mu: float,
                          *,
                          weights: Optional[ObjectiveWeights] = None,
                          reference: Optional[Tuple[float, float]] = None,
                          t_end: float = 150.0,
                          dt: float = 0.1,
                          q0: float = 0.0,
                          rate0: float = 0.0,
                          steady_fraction: float = 0.5,
                          tolerance: float = 0.1) -> OperatingPointScore:
    """Score one gain choice through the scalar trajectory path.

    Runs the non-batched integrator and analysis routines end to end;
    because the batched engine is member-wise bit-identical to the scalar
    one, the result equals the corresponding :func:`score_gain_grid` entry
    exactly — a parity the unit tests pin.
    """
    from ..analysis.oscillations import oscillation_metrics
    from ..characteristics.trajectory import integrate_characteristic
    weights = weights if weights is not None else ObjectiveWeights()
    reference_c0, reference_c1 = (reference if reference is not None
                                  else (params.c0, params.c1))
    point_params = replace(params, mu=float(mu))
    control = JRJControl(c0=float(c0), c1=float(c1),
                         q_target=float(q_target))
    trajectory = integrate_characteristic(control, point_params, q0, rate0,
                                          t_end=t_end, dt=dt)
    oscillation = oscillation_metrics(trajectory.times, trajectory.queue,
                                      steady_fraction=steady_fraction)
    relaxation = trajectory.settling_time(tolerance)
    queue_error = abs(oscillation.mean_value - float(q_target))
    unfairness = float(deployment_unfairness(float(c0), float(c1),
                                             reference_c0, reference_c1))
    q_scale = max(float(q_target), 1.0)
    score = float(combine_score(weights, oscillation.amplitude, relaxation,
                                queue_error, unfairness, q_scale, t_end))
    return OperatingPointScore(
        c0=float(c0), c1=float(c1), q_target=float(q_target), mu=float(mu),
        oscillation_amplitude=oscillation.amplitude,
        oscillation_period=oscillation.period,
        relaxation_time=relaxation, queue_error=queue_error,
        unfairness=unfairness, score=score)
