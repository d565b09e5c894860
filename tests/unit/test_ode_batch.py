"""Unit tests of the batched fixed-step RK4 engine."""

import numpy as np
import pytest

from repro.exceptions import (
    ConvergenceError,
    NonFiniteStateError,
    StabilityError,
)
from repro.health import HealthMonitor
from repro.numerics.interpolate import interp_columns
from repro.numerics.ode import (
    BatchODEResult,
    ODEResult,
    integrate_fixed,
    integrate_fixed_batch,
)


def scalar_oscillator(t, state):
    return np.array([state[1], -np.sin(state[0]) - 0.1 * state[1]])


def batch_oscillator(t, states, indices):
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
        def rhs(t, states, indices):
            return np.full_like(states, -1.0)

        batch = integrate_fixed_batch(rhs, [[0.5, 0.5]], t_end=2.0, dt=0.1,
                                      projection=lambda s: np.maximum(s, 0.0))
        assert np.all(batch.states >= 0.0)

    def test_per_trajectory_events_match_scalar(self):
        def scalar_event(t, state):
            return state[0] - 1.0

        def batch_event(t, states, indices):
            return states[:, 0] - 1.0

        batch = integrate_fixed_batch(batch_oscillator, INITIALS,
                                      t_end=10.0, dt=0.037,
                                      event=batch_event)
        fired_any = False
        for index, initial in enumerate(INITIALS):
            reference = integrate_fixed(scalar_oscillator, initial,
                                        t_end=10.0, dt=0.037,
                                        event=scalar_event)
            member = batch.trajectory(index)
            assert np.array_equal(reference.times, member.times)
            assert np.array_equal(reference.states, member.states)
            assert (reference.event_time is None) == (member.event_time is None)
            if reference.event_time is not None:
                fired_any = True
                assert reference.event_time == member.event_time
        assert fired_any  # the fixture must actually exercise termination

    def test_event_freezes_tail_and_truncates_storage(self):
        def batch_event(t, states, indices):
            return states[:, 0] - 1.0

        batch = integrate_fixed_batch(batch_oscillator, INITIALS,
                                      t_end=10.0, dt=0.037,
                                      event=batch_event)
        terminated = np.isfinite(batch.event_times)
        assert terminated.any()
        index = int(np.nonzero(terminated)[0][0])
        last = int(batch.n_samples[index]) - 1
        # Frozen tail: every row past the event repeats the terminal state.
        tail = batch.states[last:, index]
        assert np.all(tail == tail[0])

    def test_per_trajectory_indices_forwarded(self):
        rates = np.array([1.0, 2.0, 3.0])

        def rhs(t, states, indices):
            return -rates[indices][:, None] * states

        def event(t, states, indices):
            return states[:, 0] - 0.5

        batch = integrate_fixed_batch(rhs, [[1.0], [1.0], [1.0]],
                                      t_end=3.0, dt=0.01, event=event)
        # Faster decay must terminate earlier despite compaction reindexing.
        events = batch.event_times
        assert events[2] < events[1] < events[0]

    def test_nonfinite_raises_by_default(self):
        def rhs(t, states, indices):
            return states ** 3

        with pytest.raises(StabilityError), np.errstate(over="ignore"):
            integrate_fixed_batch(rhs, [[5.0], [0.0]], t_end=10.0, dt=0.5)

    def test_nonfinite_mask_mode_stops_only_offender(self):
        def rhs(t, states, indices):
            return states ** 3

        with np.errstate(over="ignore", invalid="ignore"):
            batch = integrate_fixed_batch(rhs, [[5.0], [0.0]], t_end=10.0,
                                          dt=0.5, on_nonfinite="mask")
        assert bool(batch.failed[0]) is True
        assert bool(batch.failed[1]) is False
        assert batch.n_samples[1] == batch.times.size
        assert np.isfinite(batch.trajectory(0).states).all()

    def test_three_exits_in_one_run(self):
        """One family where a member goes non-finite (masked), one stops on
        its event and one reaches ``t_end``."""
        initials = [[5.0, -3.0], [0.5, 0.0], [0.5, 2.0]]

        def scalar_rhs(t, state):
            return np.array([state[0] ** 3 - state[0], np.cos(state[1])])

        def batch_rhs(t, states, indices):
            return np.column_stack([states[:, 0] ** 3 - states[:, 0],
                                    np.cos(states[:, 1])])

        with np.errstate(over="ignore", invalid="ignore"):
            batch = integrate_fixed_batch(
                batch_rhs, initials, t_end=5.0, dt=0.25,
                event=lambda t, states, indices: states[:, 1] - 1.0,
                on_nonfinite="mask")

        assert batch.times.size == 21
        assert batch.n_samples.tolist() == [2, 6, 21]
        assert batch.failed.tolist() == [True, False, False]
        assert np.isnan(batch.event_times[[0, 2]]).all()
        assert batch.event_times[1] == 1.25
        # Frozen tails repeat each stopped member's last valid sample.
        for index in (0, 1):
            last = int(batch.n_samples[index]) - 1
            tail = batch.states[last:, index]
            assert np.isfinite(tail).all()
            assert np.all(tail == tail[0])

        for index in (1, 2):
            reference = integrate_fixed(
                scalar_rhs, initials[index], t_end=5.0, dt=0.25,
                event=lambda t, state: state[1] - 1.0)
            member = batch.trajectory(index)
            assert np.array_equal(reference.times, member.times)
            assert np.array_equal(reference.states, member.states)
            assert reference.event_time == member.event_time
        with pytest.raises(StabilityError), \
                np.errstate(over="ignore", invalid="ignore"):
            integrate_fixed(scalar_rhs, initials[0], t_end=5.0, dt=0.25)

    @pytest.mark.parametrize("record", [(0,), (1,), (1, 0)])
    def test_recorded_components_equal_full_recording(self, record):
        """``record=`` keeps exactly the selected columns of the full
        recording, through a masked blow-up and an event stop."""
        initials = [[5.0, -3.0], [0.5, 0.0], [0.5, 2.0]]

        def batch_rhs(t, states, indices):
            return np.column_stack([states[:, 0] ** 3 - states[:, 0],
                                    np.cos(states[:, 1])])

        def run(**options):
            with np.errstate(over="ignore", invalid="ignore"):
                return integrate_fixed_batch(
                    batch_rhs, initials, t_end=5.0, dt=0.25,
                    event=lambda t, states, indices: states[:, 1] - 1.0,
                    on_nonfinite="mask", **options)

        full = run()
        kept = run(record=record)
        assert kept.dim == len(record)
        assert kept.n_samples.tolist() == full.n_samples.tolist() == [2, 6, 21]
        assert kept.failed.tolist() == full.failed.tolist()
        assert kept.times.tobytes() == full.times.tobytes()
        assert kept.event_times.tobytes() == full.event_times.tobytes()
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
        with pytest.raises(ConvergenceError):
            integrate_fixed_batch(batch_oscillator, INITIALS, t_end=1.0,
                                  dt=0.1, on_nonfinite="explode")
        for record in ((), (2,), (-1,)):
            with pytest.raises(ConvergenceError, match="record"):
                integrate_fixed_batch(batch_oscillator, INITIALS, t_end=1.0,
                                      dt=0.1, record=record)

    def test_result_helpers(self):
        batch = integrate_fixed_batch(batch_oscillator, INITIALS,
                                      t_end=2.0, dt=0.1)
        assert isinstance(batch, BatchODEResult)
        assert batch.batch_size == len(INITIALS)
        assert batch.final_states.shape == (len(INITIALS), 2)
        assert batch.component(0).shape == (batch.times.size, len(INITIALS))
        members = batch.trajectories()
        assert len(members) == len(INITIALS)
        assert all(isinstance(member, ODEResult) for member in members)


class TestIntegrateFixedBatchHealth:
    """The ``health=`` paths: member 1 of ``[[0.0], [5.0]]`` under
    ``dx/dt = x**3`` goes non-finite at t=1."""

    #: Action each (mode, on_nonfinite) pair takes on the blow-up.
    ACTIONS = {
        ("strict", "raise"): "abort", ("strict", "mask"): "abort",
        ("repair", "raise"): "repair", ("repair", "mask"): "repair",
        ("observe", "raise"): "abort", ("observe", "mask"): "observe",
    }

    @pytest.mark.parametrize("on_nonfinite", ["raise", "mask"])
    @pytest.mark.parametrize("mode", ["strict", "repair", "observe"])
    def test_nonfinite_member(self, mode, on_nonfinite):
        def rhs(t, states, indices):
            return states ** 3

        action = self.ACTIONS[mode, on_nonfinite]
        monitor = HealthMonitor(mode)

        def run():
            with np.errstate(over="ignore", invalid="ignore"):
                return integrate_fixed_batch(rhs, [[0.0], [5.0]], t_end=10.0,
                                             dt=0.5, on_nonfinite=on_nonfinite,
                                             health=monitor)

        if action == "abort":
            with pytest.raises(NonFiniteStateError,
                               match=r"at t=1, first at index \(1, 0\)"):
                run()
        else:
            batch = run()
            assert batch.failed.tolist() == [False, True]
            assert batch.n_samples.tolist() == [21, 2]
            assert np.all(batch.states[:, 0] == 0.0)
            assert np.isfinite(batch.states[:, 1]).all()
            assert np.all(batch.states[1:, 1] == batch.states[1, 1])
        log = monitor.log
        assert log.n_reports == 1
        report = log.reports[0]
        assert (report.invariant, report.action) == ("finiteness", action)
        assert report.cell == (1, 0)
        assert report.time == 1.0
        assert log.repairs == ({"finiteness": 1} if action == "repair"
                               else {})


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
