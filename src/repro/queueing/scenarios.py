"""Declarative scenario builders and the network-scenario registry.

A *scenario* is a named, parameterised recipe for a simulation
configuration: single-bottleneck scenarios build a
:class:`~repro.queueing.NetworkConfig` (run through
:class:`~repro.queueing.Simulator`), multi-hop scenarios build a
:class:`~repro.queueing.MultiHopConfig` (run through
:class:`~repro.queueing.MultiHopSimulator`).  The registry gives every
scenario a stable name so the experiment-matrix layer and the CLI
(``repro run des-<scenario>``) can address them declaratively, and so new
topologies plug in without touching the runner:

>>> from repro.queueing.scenarios import get_scenario
>>> config = get_scenario("dumbbell").build(n_sources=64, seed=3)

Built-in scenarios:

* ``dumbbell`` -- N adaptive rate sources (the paper's JRJ law) sharing one
  bottleneck; the canonical many-sources setting of Section 6 at packet
  level.
* ``parking-lot`` -- one long window-controlled connection crossing several
  hops against a one-hop connection at the shared node (Section 7's
  hop-count unfairness).
* ``chain`` -- an N-hop chain with one end-to-end connection and optional
  per-hop cross traffic.
* ``mesh`` -- a randomised set of routes over a node pool, for scale and
  robustness testing; construction is deterministic in the seed via the
  spawn-key scheme of :mod:`repro.queueing.random_streams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from .multihop import parking_lot_scenario
from .network import NetworkConfig, SourceConfig
from .random_streams import child_seed_sequence
from .topology import MultiHopConfig, NodeConfig, Route

__all__ = [
    "ScenarioSpec",
    "chain_scenario",
    "dumbbell_scenario",
    "get_scenario",
    "random_mesh_scenario",
    "register_scenario",
]

ScenarioConfig = Union[NetworkConfig, MultiHopConfig]


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: name, simulator kind and builder.

    Attributes
    ----------
    name:
        Registry key (also the ``des-<name>`` matrix suffix).
    kind:
        ``"single"`` (one bottleneck, :class:`NetworkConfig`) or
        ``"multihop"`` (:class:`MultiHopConfig`).
    description:
        One line for listings.
    build:
        Keyword-only builder returning the configuration object.
    """

    name: str
    kind: str
    description: str
    build: Callable[..., ScenarioConfig]


_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str,
    kind: str,
    description: str,
    build: Callable[..., ScenarioConfig],
) -> ScenarioSpec:
    """Register a scenario builder under *name* and return its spec."""
    if kind not in ("single", "multihop"):
        raise ConfigurationError(
            f"scenario kind must be 'single' or 'multihop', got {kind!r}"
        )
    if name in _SCENARIOS:
        raise ConfigurationError(f"scenario {name!r} is already registered")
    spec = ScenarioSpec(name=name, kind=kind, description=description, build=build)
    _SCENARIOS[name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario spec by name."""
    if name not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise ConfigurationError(f"unknown scenario {name!r} (available: {known})")
    return _SCENARIOS[name]


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def dumbbell_scenario(
    n_sources: int = 16,
    per_source_rate: float = 5.0,
    q_target: float = 10.0,
    c1: float = 0.2,
    control_interval: float = 0.25,
    jitter_fraction: float = 0.1,
    buffer_size: Optional[int] = None,
    seed: int = 7,
) -> NetworkConfig:
    """N homogeneous JRJ rate sources sharing one bottleneck.

    The bottleneck capacity scales with the population
    (``μ = n_sources · per_source_rate``) so per-source dynamics stay
    comparable across sizes, and the aggregate linear-increase gain is held
    at the canonical ``0.05·μ`` by giving each source ``C0 = 0.05·μ/N`` --
    the Section 6 equal-shares setting.  This is the workhorse scaling
    scenario: event counts grow linearly in ``n_sources``.
    """
    if n_sources < 1:
        raise ConfigurationError("n_sources must be at least 1")
    if per_source_rate <= 0.0:
        raise ConfigurationError("per_source_rate must be positive")
    service_rate = per_source_rate * n_sources
    c0 = 0.05 * service_rate / n_sources
    sources = [
        SourceConfig(
            kind="rate",
            control_name="jrj",
            control_kwargs={"c0": c0, "c1": c1, "q_target": q_target},
            initial_rate=service_rate / (2.0 * n_sources),
            control_interval=control_interval,
            jitter_fraction=jitter_fraction,
            name=f"jrj-{index}",
        )
        for index in range(n_sources)
    ]
    return NetworkConfig(
        service_rate=service_rate,
        buffer_size=buffer_size,
        sources=sources,
        seed=seed,
    )


def chain_scenario(
    n_hops: int = 4,
    cross_traffic: bool = True,
    service_rate: float = 10.0,
    buffer_size: int = 20,
    hop_delay: float = 0.1,
    scheme: str = "jacobson",
    initial_window: float = 2.0,
    seed: int = 9,
) -> MultiHopConfig:
    """An N-hop chain: one end-to-end connection, optional per-hop cross flows.

    With cross traffic every node is shared between the long connection and
    one single-hop connection, so the end-to-end flow pays the full
    compounding of per-hop queueing and feedback delay -- the generalised
    parking lot.
    """
    if n_hops < 1:
        raise ConfigurationError("n_hops must be at least 1")
    marking = buffer_size / 2.0 if scheme.lower() == "decbit" else None
    names = [f"chain-{index}" for index in range(n_hops)]
    nodes = [
        NodeConfig(
            name=name,
            service_rate=service_rate,
            buffer_size=buffer_size,
            marking_threshold=marking,
        )
        for name in names
    ]
    routes = [
        Route(
            source_name=f"end-to-end-{n_hops}-hops",
            hops=names,
            hop_delay=hop_delay,
            window_scheme=scheme,
            initial_window=initial_window,
        )
    ]
    if cross_traffic:
        routes.extend(
            Route(
                source_name=f"cross-{index}",
                hops=[name],
                hop_delay=hop_delay,
                window_scheme=scheme,
                initial_window=initial_window,
            )
            for index, name in enumerate(names)
        )
    return MultiHopConfig(nodes=nodes, routes=routes, seed=seed)


def random_mesh_scenario(
    n_nodes: int = 8,
    n_routes: int = 12,
    max_hops: int = 4,
    service_rate: float = 10.0,
    buffer_size: int = 20,
    hop_delay: float = 0.05,
    scheme: str = "jacobson",
    seed: int = 21,
) -> MultiHopConfig:
    """A randomised mesh: *n_routes* window flows over *n_nodes* queues.

    Each route traverses a uniformly drawn simple path of 1..``max_hops``
    distinct nodes.  The draw uses the project's spawn-key seed derivation,
    so a given seed produces the identical topology in every process, and
    the topology seed is decoupled from the traffic seed (the
    :class:`MultiHopConfig` keeps *seed* for the simulation itself).
    """
    if n_nodes < 1:
        raise ConfigurationError("n_nodes must be at least 1")
    if n_routes < 1:
        raise ConfigurationError("n_routes must be at least 1")
    if not 1 <= max_hops <= n_nodes:
        raise ConfigurationError(f"max_hops must be in [1, n_nodes], got {max_hops}")
    marking = buffer_size / 2.0 if scheme.lower() == "decbit" else None
    names = [f"mesh-{index}" for index in range(n_nodes)]
    nodes = [
        NodeConfig(
            name=name,
            service_rate=service_rate,
            buffer_size=buffer_size,
            marking_threshold=marking,
        )
        for name in names
    ]
    rng = np.random.default_rng(child_seed_sequence(seed, ("mesh-topology",)))
    routes = []
    for index in range(n_routes):
        length = int(rng.integers(1, max_hops + 1))
        hops = [names[node] for node in rng.permutation(n_nodes)[:length]]
        routes.append(
            Route(
                source_name=f"flow-{index}",
                hops=hops,
                hop_delay=hop_delay,
                window_scheme=scheme,
            )
        )
    return MultiHopConfig(nodes=nodes, routes=routes, seed=seed)


register_scenario(
    "dumbbell",
    "single",
    "N homogeneous JRJ rate sources on one bottleneck (Section 6 at scale)",
    dumbbell_scenario,
)
register_scenario(
    "parking-lot",
    "multihop",
    "long multi-hop connection vs one-hop connection at a shared node",
    parking_lot_scenario,
)
register_scenario(
    "chain",
    "multihop",
    "N-hop chain with an end-to-end flow and per-hop cross traffic",
    chain_scenario,
)
register_scenario(
    "mesh",
    "multihop",
    "randomised routes over a node pool (deterministic in the seed)",
    random_mesh_scenario,
)
