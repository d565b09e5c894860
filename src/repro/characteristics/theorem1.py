"""Numerical verification of Theorem 1.

Theorem 1 of the paper states: *if σ² = 0, the JRJ algorithm converges in the
limit; the limit point is ``Q = q̂``, ``λ = μ``.*  The proof follows the
characteristic piecewise through the four quadrants (parabolic arcs below
the target, exponential-decay arcs above it) and shows each successive
excursion is strictly smaller than the previous one.

:func:`verify_theorem1` reproduces the statement numerically for arbitrary
parameters and initial conditions: it integrates the characteristic, checks
that successive queue peaks contract, and reports the distance of the final
state from the predicted limit point.  The analytical building block of the
proof -- the first parabolic arc below the target, ``d²q/dt² = C0`` -- is
also exposed so tests can compare the integrator against the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

import numpy as np

from ..config import SystemParameters
from ..control.jrj import JRJControl
from ..exceptions import AnalysisError
from .limit_cycle import analyze_spiral
from .trajectory import (
    CharacteristicTrajectory,
    integrate_characteristic,
    integrate_characteristic_batch,
)

__all__ = ["Theorem1Verification", "verify_theorem1", "verify_theorem1_batch"]


@dataclass(frozen=True)
class Theorem1Verification:
    """Outcome of a numerical check of Theorem 1 for one parameter set.

    Attributes
    ----------
    converges:
        Whether the trajectory's queue peaks contract (the theorem's claim).
    final_queue_error:
        ``|q(T) − q̂|`` at the end of the run.
    final_rate_error:
        ``|λ(T) − μ|`` at the end of the run.
    mean_contraction_ratio:
        Mean ratio of successive peak amplitudes (< 1 for convergence).
    n_oscillations:
        Number of overshoot peaks observed before settling.
    trajectory:
        The underlying characteristic trajectory, kept for plotting/benches.
    """

    converges: bool
    final_queue_error: float
    final_rate_error: float
    mean_contraction_ratio: float
    n_oscillations: int
    trajectory: CharacteristicTrajectory

    @property
    def limit_point_reached(self) -> bool:
        """True when the final state is close to ``(q̂, μ)`` in relative terms."""
        q_scale = max(self.trajectory.q_target, 1.0)
        return (self.final_queue_error <= 0.15 * q_scale
                and self.final_rate_error <= 0.15 * self.trajectory.mu)


def _default_horizon(q_target: float, c0: float) -> float:
    """Parameter-scaled default horizon: many increase/decrease sweeps."""
    # One increase sweep takes about sqrt(2 q_target / C0); allow many.
    return 60.0 * float(np.sqrt(max(2.0 * q_target / c0, 1.0)))


def _verification_from_trajectory(trajectory: CharacteristicTrajectory
                                  ) -> Theorem1Verification:
    """Analyse one characteristic and package the Theorem 1 verdict.

    Shared by the scalar and batched verifiers so both produce literally the
    same analysis for the same trajectory.
    """
    try:
        analysis = analyze_spiral(trajectory)
        converges = analysis.converges
        mean_ratio = analysis.mean_contraction
        n_oscillations = analysis.n_oscillations
    except AnalysisError:
        # No peaks at all: monotone settling, which satisfies the theorem.
        converges = True
        mean_ratio = 0.0
        n_oscillations = 0

    return Theorem1Verification(
        converges=converges,
        final_queue_error=abs(trajectory.final_queue - trajectory.q_target),
        final_rate_error=abs(trajectory.final_rate - trajectory.mu),
        mean_contraction_ratio=float(mean_ratio) if np.isfinite(mean_ratio)
        else 0.0,
        n_oscillations=n_oscillations,
        trajectory=trajectory)


def verify_theorem1(params: SystemParameters, q0: float = 0.0,
                    rate0: Optional[float] = None,
                    t_end: Optional[float] = None,
                    dt: float = 0.02) -> Theorem1Verification:
    """Numerically verify Theorem 1 for the given parameters.

    Parameters
    ----------
    params:
        System parameters; ``sigma`` is ignored (the theorem is about the
        reduced system).
    q0, rate0:
        Initial queue and rate.  The default starting rate is half the
        service rate, matching the "λ0 less than μ" setting used in the
        paper's proof sketch.
    t_end:
        Integration horizon; the default scales with the natural time the
        spiral needs (several increase/decrease cycles).
    """
    if rate0 is None:
        rate0 = 0.5 * params.mu
    if t_end is None:
        t_end = _default_horizon(params.q_target, params.c0)

    control = JRJControl(c0=params.c0, c1=params.c1, q_target=params.q_target)
    trajectory = integrate_characteristic(control, params, q0=q0, rate0=rate0,
                                          t_end=t_end, dt=dt)
    return _verification_from_trajectory(trajectory)


def verify_theorem1_batch(params: SystemParameters,
                          t_end: Optional[float] = None, dt: float = 0.02,
                          columns: Optional[Mapping[str, object]] = None
                          ) -> List[Theorem1Verification]:
    """Verify Theorem 1 for a whole parameter/initial-condition family at once.

    The family is integrated as **one** batched characteristic run (see
    :func:`~repro.characteristics.trajectory.integrate_characteristic_batch`)
    and each member is then analysed with exactly the scalar verifier's
    logic, so for any member the returned verification carries the same
    verdict -- and a bit-identical trajectory -- as
    :func:`verify_theorem1` called with that member's point parameters.

    Parameters
    ----------
    params:
        Base system parameters; ``sigma`` is ignored as in the scalar form.
        Every member starts from an empty queue at half its service rate,
        the scalar form's default start.
    t_end:
        Shared horizon.  ``None`` picks the *largest* of the members'
        parameter-scaled default horizons -- every member integrates at
        least as long as its scalar default, but members with smaller
        defaults see a longer run than scalar ``verify_theorem1`` would
        give them; pass an explicit ``t_end`` for strict scalar parity.
    dt:
        Shared step size.
    columns:
        Per-trajectory :class:`~repro.config.SystemParameters` columns:
        any of ``"c0"``, ``"c1"``, ``"q_target"``, ``"mu"``.
    """
    columns = {name: np.atleast_1d(np.asarray(value, dtype=float))
               for name, value in dict(columns or {}).items()}
    unknown = sorted(set(columns) - {"c0", "c1", "q_target", "mu"})
    if unknown:
        raise AnalysisError(
            f"verify_theorem1_batch accepts columns c0/c1/q_target/mu, "
            f"got {unknown}")

    mu_values = columns.get("mu", np.asarray([params.mu]))
    rate0 = 0.5 * mu_values
    if t_end is None:
        q_target_values = columns.get("q_target",
                                      np.asarray([params.q_target]))
        c0_values = columns.get("c0", np.asarray([params.c0]))
        pairs = np.broadcast_arrays(q_target_values, c0_values)
        t_end = max(_default_horizon(float(q_target), float(c0))
                    for q_target, c0 in zip(*pairs, strict=True))

    control = JRJControl(c0=params.c0, c1=params.c1, q_target=params.q_target)
    batch = integrate_characteristic_batch(control, params, q0=0.0,
                                           rate0=rate0, t_end=t_end, dt=dt,
                                           columns=columns)
    return [_verification_from_trajectory(batch.trajectory(index))
            for index in range(batch.batch_size)]
