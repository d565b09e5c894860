"""Scenario builders: the parameter sets the experiments run on.

The paper does not publish a parameter table, so the scenarios below pick a
representative operating point (service rate 1 packet per unit time, target
queue of 10 packets, gentle increase C0 = 0.05 and decrease C1 = 0.2) and
scale everything else off it.  All experiments that compare algorithms or
substrates share these builders so they stay mutually consistent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..config import SourceParameters, SystemParameters
from ..control.jrj import JRJControl
from ..queueing.network import NetworkConfig, SourceConfig

__all__ = [
    "single_source_scenario",
    "homogeneous_sources_scenario",
    "heterogeneous_parameters_scenario",
    "packet_level_jrj_scenario",
    "packet_level_window_scenario",
]


def single_source_scenario(sigma: float = 0.0
                           ) -> Tuple[SystemParameters, JRJControl]:
    """The canonical single-source JRJ setting (Sections 4 and 5).

    Returns the system parameters (``μ = 1``, ``q̂ = 10``, ``C0 = 0.05``,
    ``C1 = 0.2``) and the matching JRJ control law.
    """
    params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                              sigma=sigma)
    control = JRJControl(c0=0.05, c1=0.2, q_target=10.0)
    return params, control


def homogeneous_sources_scenario(n_sources: int = 4, mu: float = 1.0,
                                 q_target: float = 10.0, c0: float = 0.05,
                                 c1: float = 0.2
                                 ) -> Tuple[SystemParameters, List[SourceParameters]]:
    """N identical sources sharing the bottleneck (the Section 6 fairness case)."""
    params = SystemParameters(mu=mu, q_target=q_target, c0=c0, c1=c1)
    sources = [
        SourceParameters(c0=c0, c1=c1, initial_rate=mu / (2.0 * n_sources),
                         name=f"source-{index}")
        for index in range(n_sources)
    ]
    return params, sources


def heterogeneous_parameters_scenario(ratios: Sequence[float] = (1.0, 2.0, 4.0)
                                      ) -> Tuple[SystemParameters, List[SourceParameters]]:
    """Sources with different increase rates (the exact-share case of Section 6).

    Source ``i`` uses ``C0 = 0.05 · ratios[i]`` and the common ``C1 = 0.2``
    (``μ = 1``, ``q̂ = 10``), so its predicted share is proportional to
    ``ratios[i]``.
    """
    params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2)
    sources = [
        SourceParameters(c0=0.05 * ratio, c1=0.2,
                         initial_rate=1.0 / (2.0 * len(ratios)),
                         name=f"c0x{ratio:g}")
        for ratio in ratios
    ]
    return params, sources


def packet_level_jrj_scenario(n_sources: int = 2, service_rate: float = 10.0,
                              q_target: float = 10.0,
                              seed: int = 7) -> NetworkConfig:
    """Packet-level scenario with rate-based JRJ sources.

    ``C0`` and ``C1`` are scaled with the service rate so the relative
    dynamics match the continuous single-source scenario.  Feedback is
    undelayed and the buffer unbounded.
    """
    c0 = 0.05 * service_rate
    c1 = 0.2
    sources = [
        SourceConfig(kind="rate", control_name="jrj",
                     control_kwargs={"c0": c0, "c1": c1, "q_target": q_target},
                     feedback_delay=0.0,
                     initial_rate=service_rate / (2.0 * n_sources),
                     control_interval=0.25,
                     name=f"jrj-{index}")
        for index in range(n_sources)
    ]
    return NetworkConfig(service_rate=service_rate, buffer_size=None,
                         sources=sources, seed=seed)


def packet_level_window_scenario(n_sources: int = 2, service_rate: float = 10.0,
                                 buffer_size: int = 30,
                                 round_trip_delays: Optional[Sequence[float]] = None,
                                 scheme: str = "jacobson") -> NetworkConfig:
    """Packet-level scenario with window-based sources (Jacobson or DECbit).

    The Jacobson variant uses a finite buffer and implicit loss feedback; the
    DECbit variant enables explicit marking at half the buffer size.
    """
    if round_trip_delays is None:
        round_trip_delays = [0.5] * n_sources
    if len(round_trip_delays) != n_sources:
        raise ValueError("round_trip_delays must have one entry per source")
    marking = buffer_size / 2.0 if scheme.lower() == "decbit" else None
    sources = [
        SourceConfig(kind="window", control_name=scheme,
                     feedback_delay=float(round_trip_delays[index]) / 2.0,
                     initial_window=2.0,
                     name=f"{scheme}-{index}")
        for index in range(n_sources)
    ]
    return NetworkConfig(service_rate=service_rate, buffer_size=buffer_size,
                         marking_threshold=marking, sources=sources, seed=11)
