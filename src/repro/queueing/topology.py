"""Multi-hop topology descriptions for the packet-level simulator.

Zhang's simulation study and Jacobson's measurements -- both cited by the
paper as the empirical observations its analysis explains -- were made on
*paths*, not single queues: a connection traverses several store-and-forward
nodes and its feedback (acknowledgement) returns over the same number of
hops.  Two consequences follow, and both are reproduced by the multi-hop
simulator built from these descriptions:

* the feedback delay of a connection grows with its hop count, and
* connections with more hops obtain a poorer share of a shared intermediate
  resource than connections with fewer hops (the unfairness of Section 7).

A topology is a set of named nodes (each a single-server FIFO queue) plus a
set of routes; a route is an ordered list of node names with a propagation
delay per traversed link and for the acknowledgement return path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..exceptions import ConfigurationError

__all__ = ["NodeConfig", "Route", "MultiHopConfig"]


@dataclass(frozen=True)
class NodeConfig:
    """One store-and-forward node (a single-server FIFO queue).

    Attributes
    ----------
    name:
        Unique node name referenced by routes.
    service_rate:
        Service rate in packets per unit time.
    buffer_size:
        Buffer in packets (``None`` = infinite).
    marking_threshold:
        Queue length at which arriving packets are congestion-marked
        (``None`` disables marking; used by DECbit sources).
    """

    name: str
    service_rate: float
    buffer_size: Optional[int] = None
    marking_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node name must be non-empty")
        if self.service_rate <= 0.0:
            raise ConfigurationError("service_rate must be positive")
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ConfigurationError("buffer_size must be at least 1")


@dataclass(frozen=True)
class Route:
    """The path one connection's packets take through the topology.

    Attributes
    ----------
    source_name:
        Label of the connection (used in traces and reports).
    hops:
        Ordered node names the packets traverse.
    hop_delay:
        Propagation delay of each traversed link (applied before every hop
        and once more on the acknowledgement return path per hop).
    window_scheme:
        ``"jacobson"`` (implicit loss feedback) or ``"decbit"`` (explicit
        congestion bit).
    initial_window:
        Starting window in packets.
    """

    source_name: str
    hops: Sequence[str]
    hop_delay: float = 0.1
    window_scheme: str = "jacobson"
    initial_window: float = 2.0

    def __post_init__(self) -> None:
        if not self.hops:
            raise ConfigurationError("a route needs at least one hop")
        if self.hop_delay < 0.0:
            raise ConfigurationError("hop_delay must be non-negative")
        if self.window_scheme.lower() not in ("jacobson", "tcp", "decbit"):
            raise ConfigurationError(
                f"unknown window scheme '{self.window_scheme}'")
        if self.initial_window < 1.0:
            raise ConfigurationError("initial_window must be at least 1")

    @property
    def hop_count(self) -> int:
        """Number of nodes the route traverses."""
        return len(self.hops)

    @property
    def round_trip_propagation(self) -> float:
        """Total propagation delay of data path plus acknowledgement path."""
        return 2.0 * self.hop_count * self.hop_delay


@dataclass(frozen=True)
class MultiHopConfig:
    """A full multi-hop scenario: nodes, routes and the random seed.

    Raises
    ------
    ConfigurationError
        If a route references a node that is not defined, or if names
        collide.
    """

    nodes: Sequence[NodeConfig] = field(default_factory=list)
    routes: Sequence[Route] = field(default_factory=list)
    seed: int = 1234

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("need at least one node")
        if not self.routes:
            raise ConfigurationError("need at least one route")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("node names must be unique")
        known = set(names)
        for route in self.routes:
            missing = [hop for hop in route.hops if hop not in known]
            if missing:
                raise ConfigurationError(
                    f"route '{route.source_name}' references unknown nodes "
                    f"{missing}")
        labels = [route.source_name for route in self.routes]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("route source names must be unique")
