"""Unit tests of the batched fixed-step RK4 engine."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, StabilityError
from repro.numerics.interpolate import interp_columns
from repro.numerics.ode import (
    BatchODEResult,
    ODEResult,
    integrate_fixed,
    integrate_fixed_batch,
)


def scalar_oscillator(t, state):
    return np.array([state[1], -np.sin(state[0]) - 0.1 * state[1]])


def batch_oscillator(t, states):
    return np.column_stack([states[:, 1],
                            -np.sin(states[:, 0]) - 0.1 * states[:, 1]])


INITIALS = [[0.3, 0.0], [1.2, -0.4], [2.5, 0.7], [0.05, 1.3]]


class TestIntegrateFixedBatch:
    def test_bitwise_identical_to_scalar(self):
        batch = integrate_fixed_batch(batch_oscillator, INITIALS,
                                      t_end=10.0, dt=0.037)
        for index, initial in enumerate(INITIALS):
            reference = integrate_fixed(scalar_oscillator, initial,
                                        t_end=10.0, dt=0.037)
            member = batch.trajectory(index)
            assert np.array_equal(reference.times, member.times)
            assert np.array_equal(reference.states, member.states)

    def test_batch_of_one_degenerate_case(self):
        batch = integrate_fixed_batch(batch_oscillator, [INITIALS[0]],
                                      t_end=6.0, dt=0.05)
        reference = integrate_fixed(scalar_oscillator, INITIALS[0],
                                    t_end=6.0, dt=0.05)
        assert batch.batch_size == 1
        member = batch.trajectory(0)
        assert np.array_equal(reference.times, member.times)
        assert np.array_equal(reference.states, member.states)

    def test_single_vector_initial_treated_as_batch_of_one(self):
        batch = integrate_fixed_batch(batch_oscillator, np.array([0.3, 0.0]),
                                      t_end=1.0, dt=0.1)
        assert batch.batch_size == 1
        assert batch.dim == 2

    def test_projection_applied_per_step(self):
        def rhs(t, states):
            return np.full_like(states, -1.0)

        batch = integrate_fixed_batch(rhs, [[0.5, 0.5]], t_end=2.0, dt=0.1,
                                      projection=lambda s: np.maximum(s, 0.0))
        assert np.all(batch.states >= 0.0)

    def test_nonfinite_raises_by_default(self):
        def rhs(t, states):
            return states ** 3

        with pytest.raises(StabilityError), np.errstate(over="ignore"):
            integrate_fixed_batch(rhs, [[5.0], [0.0]], t_end=10.0, dt=0.5)

    @pytest.mark.parametrize("record", [(0,), (1,), (1, 0)])
    def test_recorded_components_equal_full_recording(self, record):
        """``record=`` keeps exactly the selected columns of the full
        recording."""
        full = integrate_fixed_batch(batch_oscillator, INITIALS, t_end=5.0,
                                     dt=0.25)
        kept = integrate_fixed_batch(batch_oscillator, INITIALS, t_end=5.0,
                                     dt=0.25, record=record)
        assert kept.dim == len(record)
        assert kept.times.tobytes() == full.times.tobytes()
        for position, component in enumerate(record):
            assert (kept.component(position).tobytes()
                    == full.component(component).tobytes())

    def test_component_rows_are_contiguous(self):
        batch = integrate_fixed_batch(batch_oscillator, INITIALS,
                                      t_end=2.0, dt=0.1)
        assert batch.states.shape == (21, len(INITIALS), 2)
        for index in range(batch.dim):
            component = batch.component(index)
            assert component.strides[1] == component.itemsize

    def test_validates_inputs(self):
        with pytest.raises(ConvergenceError):
            integrate_fixed_batch(batch_oscillator, INITIALS, t_end=1.0,
                                  dt=-0.1)
        with pytest.raises(ConvergenceError):
            integrate_fixed_batch(batch_oscillator, INITIALS, t_end=0.0,
                                  dt=0.1)
        for record in ((), (2,), (-1,)):
            with pytest.raises(ConvergenceError, match="record"):
                integrate_fixed_batch(batch_oscillator, INITIALS, t_end=1.0,
                                      dt=0.1, record=record)

    def test_result_helpers(self):
        batch = integrate_fixed_batch(batch_oscillator, INITIALS,
                                      t_end=2.0, dt=0.1)
        assert isinstance(batch, BatchODEResult)
        assert batch.batch_size == len(INITIALS)
        assert batch.component(0).shape == (batch.times.size, len(INITIALS))
        assert isinstance(batch.trajectory(0), ODEResult)


class TestResampleVectorized:
    def test_matches_per_component_interp_loop(self, rng):
        times = np.sort(rng.uniform(0.0, 10.0, 80))
        states = rng.normal(size=(80, 3))
        result = ODEResult(times, states)
        query = np.concatenate([rng.uniform(-1.0, 11.0, 100), times[:5]])
        resampled = result.resample(query)
        for component in range(3):
            expected = np.interp(query, times, states[:, component])
            assert np.array_equal(resampled[:, component], expected)

    def test_interp_columns_matches_np_interp_bitwise(self, rng):
        xp = np.sort(rng.uniform(-5.0, 5.0, 64))
        fp = rng.normal(size=(64, 4))
        x = np.concatenate([rng.uniform(-6.0, 6.0, 500), xp,
                            [xp[0], xp[-1], -100.0, 100.0]])
        got = interp_columns(x, xp, fp)
        for column in range(fp.shape[1]):
            expected = np.interp(x, xp, fp[:, column])
            assert np.array_equal(got[:, column], expected)

    def test_resample_accepts_scalar_time(self):
        result = ODEResult(np.array([0.0, 1.0, 2.0]),
                           np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]))
        resampled = result.resample(1.5)
        assert resampled.shape == (1, 2)
        assert np.array_equal(resampled, [[1.5, 2.5]])

    def test_interp_columns_nan_query_stays_nan(self):
        xp = np.array([0.0, 1.0, 2.0])
        constant = np.full((3, 1), 7.0)
        got = interp_columns(np.array([np.nan, 0.5]), xp, constant)
        expected = np.interp(np.array([np.nan, 0.5]), xp, constant[:, 0])
        assert np.array_equal(got[:, 0], expected, equal_nan=True)

    def test_interp_columns_repeated_nodes_match_np_interp(self, rng):
        # Equal neighbouring abscissae make the slope 0/0 or x/0; the result
        # then comes from np.interp's fallback branches, which interp_columns
        # mirrors.
        xp = np.repeat(np.sort(rng.uniform(0.0, 4.0, 12)), 2)
        fp = rng.normal(size=(24, 3))
        fp[6:8] = 5.0
        x = np.concatenate([rng.uniform(-1.0, 5.0, 200), xp])
        got = interp_columns(x, xp, fp)
        for column in range(fp.shape[1]):
            expected = np.interp(x, xp, fp[:, column])
            assert np.array_equal(got[:, column], expected, equal_nan=True)

    def test_interp_columns_infinite_values_match_np_interp(self):
        # An infinite sample makes inf - inf appear inside the slope formula;
        # the right-anchored retry and the equal-endpoint fallback decide
        # what comes out, as in np.interp.
        xp = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        fp = np.array([[0.0, np.inf, 1.0],
                       [np.inf, np.inf, 2.0],
                       [1.0, np.inf, -np.inf],
                       [2.0, 3.0, -np.inf],
                       [3.0, 4.0, 5.0]])
        x = np.linspace(-0.5, 4.5, 41)
        got = interp_columns(x, xp, fp)
        for column in range(fp.shape[1]):
            expected = np.interp(x, xp, fp[:, column])
            assert np.array_equal(got[:, column], expected, equal_nan=True)

    def test_interp_columns_single_sample(self):
        got = interp_columns(np.array([0.0, 5.0]), np.array([1.0]),
                             np.array([[2.0, 3.0]]))
        assert np.array_equal(got, [[2.0, 3.0], [2.0, 3.0]])

    def test_interp_columns_validates(self):
        with pytest.raises(ValueError):
            interp_columns(np.array([0.0]), np.array([]), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            interp_columns(np.array([0.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            interp_columns(np.array([0.0]), np.array([0.0, 1.0]),
                           np.zeros((3, 2)))
