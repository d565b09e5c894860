"""Batched characteristic stack: bitwise equivalence with the scalar path."""

from dataclasses import replace

import numpy as np
import pytest

from repro import SystemParameters
from repro.analysis import render_batch_portrait
from repro.characteristics import (
    analyze_spiral,
    analyze_spiral_batch,
    compute_poincare_section,
    compute_poincare_sections,
    integrate_characteristic,
    integrate_characteristic_batch,
    verify_theorem1,
    verify_theorem1_batch,
)
from repro.control.jrj import JRJControl
from repro.control.registry import create_control
from repro.exceptions import AnalysisError, ConfigurationError
from repro.fluid import FluidModel
from repro.runner.experiments import theorem1_batch_point, theorem1_point

Q0S = [0.0, 5.0, 20.0, 0.0]
RATE0S = [0.5, 1.5, 0.2, 1.0]

LAW_KWARGS = {
    "jrj": dict(c0=0.05, c1=0.2, q_target=10.0),
    "linear-exponential": dict(c0=0.05, c1=0.2, q_target=10.0),
    "linear": dict(c0=0.05, d0=0.05, q_target=10.0),
    "linear-linear": dict(c0=0.05, d0=0.05, q_target=10.0),
    "aiad": dict(c0=0.05, d0=0.05, q_target=10.0),
    "mimd": dict(increase_gain=0.05, decrease_gain=0.2, q_target=10.0),
    "capped-jrj": dict(c0=0.05, c1=0.2, q_target=10.0, max_decrease=0.1),
}


class TestBatchedCharacteristics:
    @pytest.mark.parametrize("law_name", sorted(LAW_KWARGS))
    def test_all_registered_laws_bitwise_equal_scalar(self, law_name,
                                                      canonical_params):
        control = create_control(law_name, **LAW_KWARGS[law_name])
        batch = integrate_characteristic_batch(control, canonical_params,
                                               Q0S, RATE0S, t_end=100.0,
                                               dt=0.02)
        for index in range(len(Q0S)):
            reference = integrate_characteristic(control, canonical_params,
                                                 Q0S[index], RATE0S[index],
                                                 t_end=100.0, dt=0.02)
            member = batch.trajectory(index)
            assert np.array_equal(reference.times, member.times)
            assert np.array_equal(reference.queue, member.queue)
            assert np.array_equal(reference.rate, member.rate)

    def test_batch_of_one_degenerate_case(self, jrj_control,
                                          canonical_params):
        batch = integrate_characteristic_batch(jrj_control, canonical_params,
                                               0.0, 0.5, t_end=200.0)
        reference = integrate_characteristic(jrj_control, canonical_params,
                                             0.0, 0.5, t_end=200.0)
        assert batch.batch_size == 1
        member = batch.trajectory(0)
        assert np.array_equal(reference.queue, member.queue)
        assert np.array_equal(reference.rate, member.rate)

    def test_heterogeneous_parameter_columns(self, canonical_params):
        c0s = np.array([0.025, 0.05, 0.1, 0.2])
        c1s = np.array([0.1, 0.2, 0.4, 0.3])
        q_targets = np.array([5.0, 10.0, 15.0, 10.0])
        mus = np.array([0.8, 1.0, 1.2, 1.0])
        control = JRJControl(c0=canonical_params.c0, c1=canonical_params.c1,
                             q_target=canonical_params.q_target)
        batch = integrate_characteristic_batch(
            control, canonical_params, 0.0, 0.5, t_end=150.0,
            columns={"c0": c0s, "c1": c1s, "q_target": q_targets, "mu": mus})
        for index in range(4):
            point = replace(canonical_params, c0=float(c0s[index]),
                            c1=float(c1s[index]),
                            q_target=float(q_targets[index]),
                            mu=float(mus[index]))
            point_control = JRJControl(c0=point.c0, c1=point.c1,
                                       q_target=point.q_target)
            reference = integrate_characteristic(point_control, point,
                                                 0.0, 0.5, t_end=150.0)
            member = batch.trajectory(index)
            assert np.array_equal(reference.queue, member.queue)
            assert np.array_equal(reference.rate, member.rate)
            assert member.mu == point.mu
            assert member.q_target == point.q_target

    def test_scalar_column_broadcasts(self, jrj_control, canonical_params):
        batch = integrate_characteristic_batch(
            jrj_control, canonical_params, Q0S, RATE0S, t_end=50.0,
            columns={"c1": 0.3})
        assert batch.batch_size == len(Q0S)

    def test_unsupported_column_rejected(self, canonical_params):
        control = create_control("mimd", **LAW_KWARGS["mimd"])
        with pytest.raises(ConfigurationError):
            integrate_characteristic_batch(control, canonical_params,
                                           0.0, 0.5, t_end=10.0,
                                           columns={"c0": [0.1]})

    def test_initial_condition_columns_rejected(self, jrj_control,
                                                canonical_params):
        with pytest.raises(ConfigurationError):
            integrate_characteristic_batch(jrj_control, canonical_params,
                                           [1.0, 2.0], 0.5, t_end=10.0,
                                           columns={"q0": [9.0, 9.0]})

    def test_event_termination(self, jrj_control, canonical_params):
        def event(t, states, indices):
            return states[:, 0] - 15.0

        # Both starters drain from above the q = 15 section; each must stop
        # at its own crossing instead of running the full horizon.
        batch = integrate_characteristic_batch(
            jrj_control, canonical_params, [25.0, 30.0], [0.2, 0.3],
            t_end=300.0, event=event)
        assert np.isfinite(batch.event_times).all()
        assert batch.times[-1] < 300.0
        assert batch.event_time(0) < batch.event_time(1)

    def test_event_termination_with_columns(self, canonical_params):
        # Members stop at different times, so the active set shrinks while
        # the others keep integrating; each survivor must keep its own
        # parameter columns through every compaction.
        c0s = np.array([0.2, 0.025, 0.1, 0.05, 0.4])
        c1s = np.array([0.1, 0.3, 0.2, 0.4, 0.15])
        q_targets = np.array([5.0, 12.0, 8.0, 10.0, 6.0])
        mus = np.array([1.2, 0.8, 1.0, 0.9, 1.1])
        # The last member's threshold is out of reach: it never stops.
        thresholds = np.array([4.0, 9.0, 6.0, 8.0, 1e9])

        def event(t, states, indices):
            return states[:, 0] - thresholds[indices]

        control = JRJControl(c0=canonical_params.c0, c1=canonical_params.c1,
                             q_target=canonical_params.q_target)
        batch = integrate_characteristic_batch(
            control, canonical_params, 0.0, 0.5, t_end=150.0, event=event,
            columns={"c0": c0s, "c1": c1s, "q_target": q_targets, "mu": mus})
        stops = batch.event_times[:-1]
        assert np.isfinite(stops).all() and np.isnan(batch.event_times[-1])
        assert np.unique(stops).size == stops.size
        for index in range(c0s.size):
            point = replace(canonical_params, c0=float(c0s[index]),
                            c1=float(c1s[index]),
                            q_target=float(q_targets[index]),
                            mu=float(mus[index]))
            reference = integrate_characteristic(
                JRJControl(c0=point.c0, c1=point.c1,
                           q_target=point.q_target),
                point, 0.0, 0.5, t_end=150.0)
            member = batch.trajectory(index)
            count = member.times.size
            assert np.array_equal(reference.times[:count], member.times)
            assert np.array_equal(reference.queue[:count], member.queue)
            assert np.array_equal(reference.rate[:count], member.rate)

    def test_derived_series_match_scalar(self, jrj_control, canonical_params):
        batch = integrate_characteristic_batch(jrj_control, canonical_params,
                                               Q0S, RATE0S, t_end=200.0)
        counts = batch.target_crossing_counts()
        distances = batch.distance_to_limit_point()
        growth = batch.growth_rate
        for index in range(batch.batch_size):
            member = batch.trajectory(index)
            assert counts[index] == len(member.target_crossings())
            assert np.array_equal(distances[:, index],
                                  member.distance_to_limit_point())
            assert np.array_equal(growth[:, index], member.growth_rate)
        assert np.array_equal(batch.final_queues,
                              [batch.trajectory(i).final_queue
                               for i in range(batch.batch_size)])


class TestVerifyTheorem1Batch:
    def test_verdicts_bitwise_equal_scalar(self, canonical_params):
        families = [
            ({"c0": [0.025, 0.05, 0.1, 0.2]}, 400.0, 0.02),
            # A 4 x 4 (c0, c1) gain grid: both columns vary per member.
            ({"c0": np.repeat(np.linspace(0.02, 0.2, 4), 4),
              "c1": np.tile(np.linspace(0.1, 0.6, 4), 4)}, 40.0, 0.05),
        ]
        for columns, t_end, dt in families:
            batch = verify_theorem1_batch(canonical_params, t_end=t_end,
                                          dt=dt, columns=columns)
            assert len(batch) == len(columns["c0"])
            for index, batched in enumerate(batch):
                point = {name: float(values[index])
                         for name, values in columns.items()}
                scalar = verify_theorem1(replace(canonical_params, **point),
                                         t_end=t_end, dt=dt)
                assert scalar.converges == batched.converges, point
                assert scalar.final_queue_error == batched.final_queue_error
                assert scalar.final_rate_error == batched.final_rate_error
                assert scalar.mean_contraction_ratio == \
                    batched.mean_contraction_ratio
                assert scalar.n_oscillations == batched.n_oscillations
                assert np.array_equal(scalar.trajectory.queue,
                                      batched.trajectory.queue)
                assert np.array_equal(scalar.trajectory.rate,
                                      batched.trajectory.rate)

    def test_default_horizon_covers_every_member(self, canonical_params):
        batch = verify_theorem1_batch(canonical_params,
                                      columns={"c0": [0.05, 0.2]})
        # Shared horizon is the max of the members' scalar defaults, so the
        # homogeneous-c0 member integrates exactly its scalar default span.
        scalar = verify_theorem1(canonical_params)
        assert batch[0].trajectory.times[-1] >= scalar.trajectory.times[-1]

    def test_unknown_column_rejected(self, canonical_params):
        with pytest.raises(AnalysisError):
            verify_theorem1_batch(canonical_params, columns={"sigma": [0.1]})

    def test_runner_chunk_matches_per_point_jobs(self, canonical_params):
        c0_values = [0.05, 0.1]
        c1_values = [0.1, 0.4]
        chunk = theorem1_batch_point(canonical_params, c0_values=c0_values,
                                     c1_values=c1_values, t_end=300.0)
        assert chunk["n_points"] == 4
        for point in chunk["points"]:
            scalar = theorem1_point(
                replace(canonical_params, c0=point["c0"], c1=point["c1"]),
                t_end=300.0)
            assert scalar["converges"] == point["converges"]
            assert scalar["final_queue_error"] == point["final_queue_error"]
            assert scalar["final_rate_error"] == point["final_rate_error"]
            assert scalar["mean_contraction_ratio"] == \
                point["mean_contraction_ratio"]
        assert chunk["n_converged"] == \
            sum(point["converges"] for point in chunk["points"])


class TestBatchedSectionsAndPortraits:
    def test_poincare_sections_match_scalar(self, jrj_control,
                                            canonical_params):
        batch = integrate_characteristic_batch(jrj_control, canonical_params,
                                               Q0S, RATE0S, t_end=200.0)
        sections = compute_poincare_sections(batch, direction="down",
                                             missing="none")
        for index, section in enumerate(sections):
            try:
                reference = compute_poincare_section(batch.trajectory(index),
                                                     direction="down")
            except AnalysisError:
                assert section is None
                continue
            assert np.array_equal(reference.crossing_times,
                                  section.crossing_times)
            assert np.array_equal(reference.crossing_rates,
                                  section.crossing_rates)

    def test_poincare_sections_missing_raise(self, jrj_control,
                                             canonical_params):
        # An underloaded starter never reaches the section on a short run.
        batch = integrate_characteristic_batch(jrj_control, canonical_params,
                                               [0.0], [0.5], t_end=5.0)
        with pytest.raises(AnalysisError):
            compute_poincare_sections(batch, direction="down")
        assert compute_poincare_sections(batch, direction="down",
                                         missing="none") == [None]

    def test_spiral_batch_matches_scalar(self, jrj_control, canonical_params):
        batch = integrate_characteristic_batch(jrj_control, canonical_params,
                                               Q0S, RATE0S, t_end=400.0)
        analyses = analyze_spiral_batch(batch)
        for index, analysis in enumerate(analyses):
            try:
                reference = analyze_spiral(batch.trajectory(index))
            except AnalysisError:
                assert analysis is None
                continue
            assert reference.converges == analysis.converges
            assert np.array_equal(reference.peak_amplitudes,
                                  analysis.peak_amplitudes)
            assert np.array_equal(reference.contraction_ratios,
                                  analysis.contraction_ratios)

    def test_render_batch_portrait(self, jrj_control, canonical_params):
        batch = integrate_characteristic_batch(jrj_control, canonical_params,
                                               Q0S[:2], RATE0S[:2],
                                               t_end=100.0)
        text = render_batch_portrait(batch)
        assert "a" in text and "b" in text
        assert "q = q_target" in text

    def test_render_batch_portrait_rejects_mixed_targets(self, jrj_control,
                                                         canonical_params):
        batch = integrate_characteristic_batch(
            jrj_control, canonical_params, 0.0, 0.5, t_end=10.0,
            columns={"q_target": [5.0, 10.0]})
        with pytest.raises(AnalysisError):
            render_batch_portrait(batch)


class TestFluidBatch:
    def test_solve_batch_bitwise_equal_solve(self, jrj_control,
                                             canonical_params):
        model = FluidModel(jrj_control, canonical_params)
        family = model.solve_batch([0.0, 4.0], [0.5, 1.2], t_end=80.0)
        for (q0, rate0), member in zip([(0.0, 0.5), (4.0, 1.2)], family,
                                       strict=True):
            reference = model.solve(q0=q0, rate0=rate0, t_end=80.0)
            assert np.array_equal(reference.times, member.times)
            assert np.array_equal(reference.queue, member.queue)
            assert np.array_equal(reference.rate, member.rate)

    def test_solve_batch_requires_undelayed_model(self, jrj_control,
                                                  canonical_params):
        delayed = FluidModel(jrj_control, canonical_params,
                             feedback_delay=1.0)
        with pytest.raises(ValueError):
            delayed.solve_batch([0.0], [0.5], t_end=10.0)
