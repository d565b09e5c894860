"""Columnar trace storage and streaming statistics (the data plane).

This package is the memory-bounded data plane under the simulators, the
Langevin ensembles and the design sweep: columnar trace storage
(:class:`ColumnarTrace`), constant-memory streaming accumulators
(:class:`StreamingMoments`, :class:`StreamingHistogram`,
:class:`TimeWeightedMoments`), the unified :class:`TraceSink` protocol
with its streaming implementations, and the ``retention`` policy
vocabulary threaded through ``repro run`` / ``repro ensemble`` /
``repro design sweep``.  See ``docs/dataplane.md``.
"""

from .accumulators import (
    StreamingHistogram,
    StreamingMoments,
    TimeWeightedMoments,
)
from .columnar import ColumnarTrace
from .retention import RETENTION_POLICIES, validate_retention
from .sink import MomentsTraceSink, NullTraceSink, TraceSink

__all__ = [
    "ColumnarTrace",
    "StreamingMoments",
    "StreamingHistogram",
    "TimeWeightedMoments",
    "TraceSink",
    "NullTraceSink",
    "MomentsTraceSink",
    "RETENTION_POLICIES",
    "validate_retention",
]
