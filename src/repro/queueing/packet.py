"""Packet records exchanged between sources and the bottleneck."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Packet"]


@dataclass(slots=True)
class Packet:
    """A data packet travelling from a source through the bottleneck.

    Attributes
    ----------
    source_id:
        Index of the originating source.
    sequence_number:
        Per-source sequence number (used by window-based sources to match
        acknowledgements to outstanding packets).
    creation_time:
        Simulated time at which the source emitted the packet.
    size:
        Packet size in service units (a size of 1.0 means the bottleneck
        serves one such packet per ``1/μ`` time units).
    congestion_marked:
        Set by the bottleneck when the queue exceeded the marking threshold
        at arrival -- the explicit feedback bit of the DECbit scheme.
    """

    source_id: int
    sequence_number: int
    creation_time: float
    size: float = 1.0
    congestion_marked: bool = False
