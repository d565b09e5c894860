"""Delayed feedback and its consequences (Section 7 of the paper).

When the controller adjusts its rate using queue information that is ``τ``
time units old, the characteristic system becomes a delay differential
equation,

    dq/dt = λ(t) − μ,        dλ/dt = g(q(t − τ), λ(t)).

Section 7's findings, all reproduced here, are:

* any positive delay turns the convergent spiral of Theorem 1 into a
  sustained oscillation (a limit cycle) of every individual user's rate and
  of the queue, with amplitude and period growing with the delay;
* when different sources see the queue after *different* delays, the
  algorithm also becomes unfair -- the source with the longer feedback path
  obtains less throughput -- which explains the observations of Jacobson
  [Jac 88] and Zhang [Zha 89] about long-haul connections.
"""

from .delayed_model import DelayedSystem, DelayedTrajectory
from .oscillation import OscillationSummary, measure_oscillation, delay_sweep
from .heterogeneous import (
    HeterogeneousDelayResult,
    heterogeneous_delay_experiment,
)
from .round_trip import RoundTripUpdateModel, predicted_round_trip_shares

__all__ = [
    "RoundTripUpdateModel",
    "predicted_round_trip_shares",
    "DelayedSystem",
    "DelayedTrajectory",
    "OscillationSummary",
    "measure_oscillation",
    "delay_sweep",
    "HeterogeneousDelayResult",
    "heterogeneous_delay_experiment",
]
