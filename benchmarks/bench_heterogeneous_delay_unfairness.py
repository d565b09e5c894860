"""Experiment E7 (Section 7): heterogeneous feedback delays cause unfairness.

Two mechanisms are quantified, following the discussion in the docstring
of :mod:`repro.delay.round_trip`:

* per-round-trip rate updates (the rate analogue of window adjustment once
  per RTT): the source with the longer feedback path applies its additive
  increase less often and its share drops towards tau_short / tau_long;
* the packet-level window simulation with different round-trip times, which
  shows the same penalty for the long-haul connection that Jacobson's
  measurements and Zhang's simulations reported;
* for contrast, the pure phase-lag continuous model, where the shares stay
  nearly equal -- isolating *which* aspect of delay causes the unfairness.
"""

import numpy as np

from repro import JobSpec, SourceParameters, heterogeneous_delay_experiment
from repro import run_jobs
from repro.analysis import format_table
from repro.delay.round_trip import RoundTripUpdateModel
from repro.queueing import Simulator
from repro.workloads import packet_level_window_scenario

LONG_DELAYS = [1.0, 2.0, 4.0]
SHORT_DELAY = 0.5
N_WORKERS = 2


def round_trip_point(params, long_delay):
    """Runner job: one short-vs-long round-trip-update comparison."""
    sources = [
        SourceParameters(c0=0.05, c1=0.2, delay=SHORT_DELAY,
                         initial_rate=0.3, name=f"delay-{SHORT_DELAY}"),
        SourceParameters(c0=0.05, c1=0.2, delay=long_delay,
                         initial_rate=0.3, name=f"delay-{long_delay}"),
    ]
    return RoundTripUpdateModel(sources, params).run(t_end=1500.0, dt=0.05)


def _round_trip_sweep(params):
    # One job per long-path delay, executed through the parallel runner.
    jobs = [JobSpec(round_trip_point, params=params,
                    overrides={"long_delay": long_delay})
            for long_delay in LONG_DELAYS]
    return run_jobs(jobs, n_jobs=N_WORKERS).values


def test_heterogeneous_delay_unfairness(benchmark, canonical_params):
    results = benchmark.pedantic(_round_trip_sweep, args=(canonical_params,),
                                 iterations=1, rounds=1)

    rows = [
        {
            "delay ratio (long/short)": long_delay / SHORT_DELAY,
            "observed share (long)": float(result.shares[1]),
            "predicted share (long)": float(result.predicted_shares[1]),
            "throughput ratio long/short":
                result.throughput_ratio_long_to_short,
            "Jain index": result.jain_index,
        }
        for long_delay, result in zip(LONG_DELAYS, results, strict=True)
    ]
    print()
    print(format_table(rows,
                       title="E7: per-round-trip updates -- long path "
                             "penalised in proportion to its delay"))

    # Packet-level window confirmation.
    config = packet_level_window_scenario(n_sources=2, service_rate=10.0,
                                          buffer_size=15,
                                          round_trip_delays=[1.0, 8.0],
                                          scheme="jacobson")
    packet = Simulator(config).run(duration=300.0)
    packet_rows = [
        {"source": name, "throughput": packet.throughputs[index]}
        for index, name in enumerate(config.source_names())
    ]
    print(format_table(packet_rows,
                       title="E7: packet-level Jacobson windows, "
                             "rtt 1.0 vs 8.0"))

    # Pure phase-lag contrast (continuous model): near-equal shares.
    phase_lag = heterogeneous_delay_experiment(canonical_params,
                                               delays=[SHORT_DELAY, 4.0],
                                               t_end=600.0, dt=0.05)
    print(format_table([{
        "model": "pure phase-lag (continuous)",
        "share short": float(phase_lag.shares[0]),
        "share long": float(phase_lag.shares[1]),
        "Jain index": phase_lag.jain_index,
    }], title="E7: phase lag alone does not reproduce the unfairness"))

    # Claims: the long path gets less, increasingly so as its delay grows,
    # and the observed shares track the 1/delay prediction.
    ratios = [result.throughput_ratio_long_to_short for result in results]
    assert all(ratio < 0.8 for ratio in ratios)
    assert ratios == sorted(ratios, reverse=True)
    for result in results:
        assert np.allclose(result.shares, result.predicted_shares, atol=0.06)
    assert packet.throughputs[1] < packet.throughputs[0]
