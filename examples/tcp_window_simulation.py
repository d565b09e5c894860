#!/usr/bin/env python
"""Packet-level simulation of the window-based algorithms the paper models.

The paper analyses the *rate analogue* of the Jacobson and Ramakrishnan-Jain
window algorithms.  This example runs the packet-level discrete-event
simulator with the original window formulations:

* Jacobson-style congestion avoidance with implicit (loss) feedback and a
  finite bottleneck buffer, and
* the DECbit scheme with explicit congestion marking,

and contrasts queue behaviour, losses and fairness.  A third run gives the
two connections different round-trip times, reproducing the unfairness
against long-haul connections reported in the measurements the paper cites.

Run with:  python examples/tcp_window_simulation.py
"""

from repro.analysis import format_key_values, format_table
from repro.queueing import Simulator
from repro.workloads import packet_level_window_scenario


def run_and_report(title: str, config, duration: float = 300.0) -> None:
    result = Simulator(config).run(duration=duration)
    rows = [
        {
            "source": name,
            "throughput": result.throughputs[index],
            "losses": result.trace.losses.get(index, 0),
        }
        for index, name in enumerate(config.source_names())
    ]
    print(format_table(rows, title=title))
    print(format_key_values("  summary", {
        "mean queue length": result.mean_queue,
        "utilization": result.utilization(),
        "Jain fairness index": result.fairness_index(),
        "total losses": result.total_losses,
    }))
    print()


def main() -> None:
    run_and_report(
        "Jacobson windows, equal round-trip times, buffer = 30",
        packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                     buffer_size=30,
                                     round_trip_delays=[0.5, 0.5],
                                     scheme="jacobson"))

    run_and_report(
        "DECbit windows (explicit marking), equal round-trip times",
        packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                     buffer_size=30,
                                     round_trip_delays=[0.5, 0.5],
                                     scheme="decbit"))

    run_and_report(
        "Jacobson windows, round-trip times 1.0 versus 8.0 (long path penalised)",
        packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                     buffer_size=15,
                                     round_trip_delays=[1.0, 8.0],
                                     scheme="jacobson"))


if __name__ == "__main__":
    main()
