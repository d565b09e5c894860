"""Bitwise-equivalence tests for the vectorized small loops.

Each test pins the vectorized replacement against an inline copy of the
original per-element Python loop, so the speedups cannot drift the numbers.
"""

from typing import List

import numpy as np

from repro.numerics.sde import euler_maruyama
from repro.numerics.spectral import detect_peaks


def _loop_detect_peaks(signal: np.ndarray) -> List[int]:
    peaks: List[int] = []
    for i in range(1, signal.size - 1):
        if signal[i] > signal[i - 1] and signal[i] >= signal[i + 1]:
            peaks.append(i)
    return peaks


class TestDetectPeaksFastPath:
    def test_matches_loop_reference(self, rng):
        for _ in range(10):
            signal = rng.normal(size=300)
            assert detect_peaks(signal) == _loop_detect_peaks(signal)

    def test_plateaus_report_first_index(self):
        signal = np.array([0.0, 1.0, 1.0, 0.5, 2.0, 2.0, 2.0, 0.0])
        assert detect_peaks(signal) == _loop_detect_peaks(signal)
        assert detect_peaks(signal) == [1, 4]


class TestSDEPreallocatedRecording:
    @staticmethod
    def _reference_simulate(drift, diffusion, initial, t_end, dt, n_paths,
                            rng, projection, record_every):
        """Inline copy of the pre-preallocation list-append recording."""
        initial = np.asarray(initial, dtype=float)
        dim = initial.shape[-1]
        states = np.broadcast_to(initial, (n_paths, dim)).astype(float).copy()
        n_steps = int(np.ceil(t_end / dt))
        times = [0.0]
        snapshots = [states.copy()]
        sqrt_dt = np.sqrt(dt)
        t = 0.0
        for step_index in range(1, n_steps + 1):
            noise = rng.standard_normal(states.shape) * sqrt_dt
            increment = drift(t, states) * dt + diffusion(t, states) * noise
            states = states + increment
            if projection is not None:
                states = projection(states)
            t += dt
            if step_index % record_every == 0 or step_index == n_steps:
                times.append(t)
                snapshots.append(states.copy())
        return np.asarray(times), np.asarray(snapshots)

    def test_bit_identical_paths(self):
        def drift(t, states):
            return -0.5 * states

        def diffusion(t, states):
            return 0.3 * np.ones_like(states)

        def project(states):
            return np.maximum(states, -5.0)

        for record_every, t_end in [(1, 2.0), (3, 2.0), (7, 1.55), (100, 0.5)]:
            reference_times, reference_paths = self._reference_simulate(
                drift, diffusion, np.array([1.0, 2.0]), t_end, 0.01, 5,
                np.random.default_rng(77), project, record_every)
            paths = euler_maruyama(drift, diffusion, np.array([1.0, 2.0]),
                                   t_end=t_end, dt=0.01, n_paths=5,
                                   rng=np.random.default_rng(77),
                                   projection=project,
                                   record_every=record_every)
            assert np.array_equal(reference_times, paths.times)
            assert np.array_equal(reference_paths, paths.paths)
