"""Streaming statistics and trace sinks (the data plane).

This package is the memory-bounded data plane under the simulators, the
Langevin ensembles and the design sweep: constant-memory streaming
accumulators (:class:`StreamingMoments`, :class:`StreamingHistogram`,
:class:`TimeWeightedMoments`), the streaming trace sinks
(:class:`MomentsTraceSink`, :class:`NullTraceSink`), and the ``retention``
policy vocabulary threaded through ``repro run`` / ``repro ensemble`` /
``repro design sweep``.  The full-history sink, with its columnar
storage, is :class:`repro.queueing.trace.TimeSeriesTrace`.  See
``docs/dataplane.md``.
"""

from .accumulators import (
    StreamingHistogram,
    StreamingMoments,
    TimeWeightedMoments,
)
from .retention import RETENTION_POLICIES, validate_retention
from .sink import MomentsTraceSink, NullTraceSink

__all__ = [
    "StreamingMoments",
    "StreamingHistogram",
    "TimeWeightedMoments",
    "NullTraceSink",
    "MomentsTraceSink",
    "RETENTION_POLICIES",
    "validate_retention",
]
