"""Characteristic trajectories of the reduced system.

A characteristic is the path a 'particle' obeying both the control law and
the queue dynamics traces in the ``(q, ν)`` phase plane:

    dq/dt = λ − μ  (= ν),      dλ/dt = g(q, λ).

The paper's stability and fairness arguments all follow the geometry of
these curves; :func:`integrate_characteristic` produces them and
:class:`CharacteristicTrajectory` provides the derived series (growth rate,
distance to the limit point, crossings of the target line) that the later
analyses consume.

:func:`integrate_characteristic_batch` is the vectorized form: it runs a
whole family of characteristics -- a grid of initial conditions and/or
per-trajectory parameter columns (``c0``/``c1``/``q_target``/``mu``) -- as a
single batched RK4 integration, and :class:`CharacteristicBatch` exposes the
family with vectorized derived series.  Every member of the batch is bit-
identical to the scalar :func:`integrate_characteristic` run with the same
point parameters, so the sweeps built on top (Theorem 1 grids, gain
scoring, the fluid model) keep their scalar-era results exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

import numpy as np

from ..config import SystemParameters
from ..control.base import RateControl
from ..exceptions import AnalysisError, ConfigurationError
from ..numerics.ode import BatchODEResult, integrate_fixed, integrate_fixed_batch

__all__ = [
    "CharacteristicTrajectory",
    "CharacteristicBatch",
    "integrate_characteristic",
    "integrate_characteristic_batch",
]

#: Elements per row block of :meth:`CharacteristicBatch.settling_times`
#: (512 KiB of float64): its temporaries stay this size whatever the batch.
_SCAN_ELEMENTS = 1 << 16


@dataclass
class CharacteristicTrajectory:
    """A single characteristic path in the ``(q, λ)`` plane.

    Attributes
    ----------
    times:
        Sample times.
    queue:
        Queue length ``q(t)`` along the path.
    rate:
        Arrival rate ``λ(t)`` along the path.
    mu:
        Service rate, kept so growth-rate and distance computations need no
        extra argument.
    q_target:
        Target queue length ``q̂`` of the control law.
    """

    times: np.ndarray
    queue: np.ndarray
    rate: np.ndarray
    mu: float
    q_target: float

    @property
    def growth_rate(self) -> np.ndarray:
        """Queue growth rate ``ν(t) = λ(t) − μ``."""
        return self.rate - self.mu

    @property
    def final_queue(self) -> float:
        """Queue length at the end of the run."""
        return float(self.queue[-1])

    @property
    def final_rate(self) -> float:
        """Arrival rate at the end of the run."""
        return float(self.rate[-1])

    def time_average_rate(self, skip_fraction: float = 0.2) -> float:
        """Time-average arrival rate over the trajectory tail.

        The first *skip_fraction* of the run is discarded as transient; the
        remainder is averaged with trapezoidal weights, giving the long-run
        throughput the source obtains -- the quantity used in the fairness
        analyses.
        """
        start = int(skip_fraction * self.times.size)
        start = min(max(start, 0), self.times.size - 2)
        times = self.times[start:]
        rates = self.rate[start:]
        duration = times[-1] - times[0]
        if duration <= 0.0:
            return float(rates[-1])
        return float(np.trapezoid(rates, times) / duration)


def integrate_characteristic(control: RateControl, params: SystemParameters,
                             q0: float, rate0: float, t_end: float,
                             dt: float = 0.02) -> CharacteristicTrajectory:
    """Integrate one characteristic of the reduced system.

    The physical constraints ``q ≥ 0`` and ``λ ≥ 0`` are enforced by
    projection after every step, and the queue drift is pinned to zero when
    the queue is empty and the arrival rate is below the service rate
    (the paper's convention for ν at the boundary).
    """

    def rhs(_t: float, state: np.ndarray) -> np.ndarray:
        q, lam = state
        dq = lam - params.mu
        if q <= 0.0 and dq < 0.0:
            dq = 0.0
        dlam = control.drift(q, lam)
        return np.array([dq, dlam])

    def project(state: np.ndarray) -> np.ndarray:
        return np.array([max(state[0], 0.0), max(state[1], 0.0)])

    result = integrate_fixed(rhs, [q0, rate0], t_end=t_end, dt=dt,
                             projection=project)
    q_target = getattr(control, "q_target", params.q_target)
    return CharacteristicTrajectory(times=result.times,
                                    queue=result.states[:, 0],
                                    rate=result.states[:, 1],
                                    mu=params.mu, q_target=q_target)


@dataclass
class CharacteristicBatch:
    """A family of characteristics integrated as one state block.

    Attributes
    ----------
    times:
        Shared sample times, shape ``(n,)``.
    queue, rate:
        Queue lengths and arrival rates along every path, shape
        ``(n, batch)``.  ``rate`` is ``None`` when the family was integrated
        with ``record_rate=False``; the members derived from it then raise
        :class:`~repro.exceptions.AnalysisError`.
    mu, q_target:
        Per-trajectory service rate and control target, shape ``(batch,)``.
    """

    times: np.ndarray
    queue: np.ndarray
    rate: Optional[np.ndarray]
    mu: np.ndarray
    q_target: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of characteristics in the family."""
        return self.queue.shape[1]

    def _recorded_rate(self) -> np.ndarray:
        if self.rate is None:
            raise AnalysisError(
                "this characteristic family recorded the queue only "
                "(record_rate=False); its rate series is not available")
        return self.rate

    @property
    def growth_rate(self) -> np.ndarray:
        """Queue growth rates ``ν(t) = λ(t) − μ``, shape ``(n, batch)``."""
        return self._recorded_rate() - self.mu[None, :]

    @property
    def final_queues(self) -> np.ndarray:
        """Queue length of every path at the horizon."""
        return self.queue[-1]

    @property
    def final_rates(self) -> np.ndarray:
        """Arrival rate of every path at the horizon."""
        return self._recorded_rate()[-1]

    def settling_times(self, tolerance: float = 0.1) -> np.ndarray:
        """Per-trajectory settling times, shape ``(batch,)``.

        Agrees with :meth:`CharacteristicTrajectory.settling_time` for every
        member: a path settles one sample after its last sample outside the
        band, and a path outside its band at the horizon (a non-finite
        final queue) reports index 0, as that method's all-false settled
        mask does.

        The scan walks row blocks of at most ``_SCAN_ELEMENTS`` elements
        backwards from the horizon and drops each member as soon as its
        last outside sample is found, so no ``(n, batch)`` temporary is
        built and the rows before a member's settling time are never read.
        """
        final = self.final_queues
        band = np.maximum(tolerance * np.abs(final), tolerance)
        n_rows = self.times.size
        settled = np.zeros(self.batch_size, dtype=np.intp)
        pending = np.arange(self.batch_size)
        stop = n_rows
        while pending.size and stop > 0:
            start = max(stop - max(_SCAN_ELEMENTS // pending.size, 1), 0)
            outside = ~(np.abs(self.queue[start:stop, pending] - final[pending])
                        <= band[pending])
            found = outside.any(axis=0)
            if found.any():
                last = stop - 1 - np.argmax(outside[::-1, found], axis=0)
                settled[pending[found]] = last + 1
                pending = pending[~found]
            stop = start
        settled[settled == n_rows] = 0
        return self.times[settled]

    def time_average_rates(self, skip_fraction: float = 0.2) -> np.ndarray:
        """Per-trajectory tail-averaged throughput, shape ``(batch,)``."""
        return np.array([self.trajectory(i).time_average_rate(skip_fraction)
                         for i in range(self.batch_size)])

    def trajectory(self, index: int) -> CharacteristicTrajectory:
        """Extract one member as a scalar :class:`CharacteristicTrajectory`.

        Bit-identical to :func:`integrate_characteristic` run with the
        member's initial conditions and parameter column values.
        """
        return CharacteristicTrajectory(times=self.times,
                                        queue=self.queue[:, index],
                                        rate=self._recorded_rate()[:, index],
                                        mu=float(self.mu[index]),
                                        q_target=float(self.q_target[index]))

    def trajectories(self) -> List[CharacteristicTrajectory]:
        """All members as scalar trajectories."""
        return [self.trajectory(i) for i in range(self.batch_size)]


def _broadcast_columns(arrays: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """Broadcast 1-D per-trajectory columns to their common batch length."""
    shapes = [value.shape for value in arrays.values()]
    try:
        (batch,) = np.broadcast_shapes(*shapes)
    except ValueError as error:
        raise ConfigurationError(
            f"per-trajectory columns do not broadcast: {error}") from None
    return {name: np.ascontiguousarray(np.broadcast_to(value, (batch,)))
            for name, value in arrays.items()}


def integrate_characteristic_batch(
        control: RateControl, params: SystemParameters,
        q0, rate0, t_end: float, dt: float = 0.02,
        columns: Optional[Mapping[str, object]] = None,
        record_rate: bool = True,
        ) -> CharacteristicBatch:
    """Integrate a family of characteristics as one batched RK4 run.

    Parameters
    ----------
    control, params:
        Control law and base system parameters shared by the family.
    q0, rate0:
        Initial queue lengths and arrival rates; scalars or 1-D arrays that
        broadcast against each other (and the columns) to the batch size.
    t_end, dt:
        Shared integration horizon and step size.
    columns:
        Optional per-trajectory parameter columns.  ``"mu"`` overrides the
        service rate of the queue dynamics; every other name is forwarded to
        ``control.drift_batch`` as a per-trajectory gain column (for
        :class:`~repro.control.jrj.JRJControl`: ``c0``, ``c1``,
        ``q_target``).  Scalars and length-``batch`` arrays both work.
    record_rate:
        Record the arrival-rate series (default).  ``False`` records the
        queue alone, half the stored block, for callers that read nothing
        else; the returned family then has ``rate=None``.

    Every member of the returned family is bit-identical to
    :func:`integrate_characteristic` run scalar with the same point values.
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    rate0 = np.atleast_1d(np.asarray(rate0, dtype=float))
    raw_columns = {name: np.atleast_1d(np.asarray(value, dtype=float))
                   for name, value in dict(columns or {}).items()}
    reserved = sorted(set(raw_columns) & {"q0", "rate0"})
    if reserved:
        raise ConfigurationError(
            f"initial conditions are arguments, not columns: pass "
            f"{', '.join(reserved)} directly to "
            f"integrate_characteristic_batch")
    broadcast = _broadcast_columns({"q0": q0, "rate0": rate0, **raw_columns})
    q0 = broadcast.pop("q0")
    rate0 = broadcast.pop("rate0")
    mu_column = broadcast.pop("mu", None)
    gain_columns = dict(broadcast)

    batch = q0.shape[0]
    mu = (mu_column if mu_column is not None
          else np.full(batch, float(params.mu)))

    # Fail fast on unsupported gain columns (rather than on step one).
    if gain_columns:
        probe = {name: value[:1] for name, value in gain_columns.items()}
        try:
            control.drift_batch(q0[:1], rate0[:1], **probe)
        except TypeError:
            names = ", ".join(sorted(gain_columns))
            raise ConfigurationError(
                f"{control.name} does not accept per-trajectory columns "
                f"{names}") from None

    rhs_mu = float(params.mu) if mu_column is None else mu_column

    def rhs(_t: float, states: np.ndarray) -> np.ndarray:
        q = states[:, 0]
        lam = states[:, 1]
        # ``empty_like`` keeps the engine's component-major layout, so the
        # queue drift is computed in place in a contiguous column.
        derivative = np.empty_like(states)
        dq = np.subtract(lam, rhs_mu, out=derivative[:, 0])
        dq[(q <= 0.0) & (dq < 0.0)] = 0.0
        if gain_columns:
            derivative[:, 1] = control.drift_batch(q, lam, **gain_columns)
        else:
            derivative[:, 1] = control.drift(q, lam)
        return derivative

    def project(states: np.ndarray) -> np.ndarray:
        return np.maximum(states, 0.0)

    result: BatchODEResult = integrate_fixed_batch(
        rhs, np.column_stack([q0, rate0]), t_end=t_end, dt=dt,
        projection=project, record=None if record_rate else (0,))

    if "q_target" in gain_columns:
        q_target = gain_columns["q_target"]
    else:
        q_target = np.full(batch, float(getattr(control, "q_target",
                                                params.q_target)))
    return CharacteristicBatch(times=result.times,
                               queue=result.states[:, :, 0],
                               rate=result.states[:, :, 1] if record_rate
                               else None,
                               mu=mu, q_target=q_target)
