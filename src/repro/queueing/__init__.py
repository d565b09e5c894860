"""Packet-level discrete-event simulation substrate.

The paper explains phenomena observed in packet-level systems -- Jacobson's
BSD TCP measurements and Zhang's protocol simulations -- with a continuous
Fokker-Planck model.  To close the loop this subpackage provides a
self-contained discrete-event simulator of the same setting:

* a bottleneck node with a FIFO queue and (optionally finite) buffer,
* rate-based sources running any :class:`repro.control.RateControl` law,
* window-based sources running any :class:`repro.control.WindowControl` law
  (Jacobson TCP-style with implicit loss feedback, DECbit with explicit
  congestion bits),
* feedback/acknowledgement channels with per-source propagation delay, and
* a trace/metrics layer recording queue length, per-source throughput and
  loss over time.

The simulator validates the continuous models: the fairness, oscillation and
delay-unfairness experiments all have a packet-level counterpart.
"""

from .events import EventQueue, PeriodicTimer
from .packet import Packet
from .random_streams import (
    BufferedJitter,
    RandomStreams,
    child_seed_sequence,
    child_seed_sequences,
    derive_child_seed,
)
from .trace import TimeSeriesTrace, SimulationTrace
from .queue_node import BottleneckQueue
from .feedback import FeedbackChannel
from .source import RateSource, WindowSource
from .network import NetworkConfig, SourceConfig
from .simulator import Simulator, SimulationResult
from .topology import MultiHopConfig, NodeConfig, Route
from .multihop import MultiHopResult, MultiHopSimulator, parking_lot_scenario
from .scenarios import (
    ScenarioSpec,
    chain_scenario,
    dumbbell_scenario,
    get_scenario,
    random_mesh_scenario,
    register_scenario,
)

__all__ = [
    "NodeConfig",
    "Route",
    "MultiHopConfig",
    "MultiHopSimulator",
    "MultiHopResult",
    "parking_lot_scenario",
    "EventQueue",
    "PeriodicTimer",
    "Packet",
    "BufferedJitter",
    "RandomStreams",
    "child_seed_sequence",
    "child_seed_sequences",
    "derive_child_seed",
    "TimeSeriesTrace",
    "SimulationTrace",
    "BottleneckQueue",
    "FeedbackChannel",
    "RateSource",
    "WindowSource",
    "NetworkConfig",
    "SourceConfig",
    "Simulator",
    "SimulationResult",
    "ScenarioSpec",
    "chain_scenario",
    "dumbbell_scenario",
    "get_scenario",
    "random_mesh_scenario",
    "register_scenario",
]
