"""Streaming statistics and trace sinks (the data plane).

This package is the memory-bounded data plane under the simulators, the
Langevin ensembles and the design sweep: constant-memory streaming
accumulators (:class:`StreamingMoments`, :class:`StreamingHistogram`,
:class:`TimeWeightedMoments`), the unified :class:`TraceSink` protocol
with its streaming implementations, and the ``retention`` policy
vocabulary threaded through ``repro run`` / ``repro ensemble`` /
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
from .sink import MomentsTraceSink, NullTraceSink, TraceSink

__all__ = [
    "StreamingMoments",
    "StreamingHistogram",
    "TimeWeightedMoments",
    "TraceSink",
    "NullTraceSink",
    "MomentsTraceSink",
    "RETENTION_POLICIES",
    "validate_retention",
]
