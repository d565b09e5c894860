"""Unit tests for the FPStepper seam (axis split and 2-D ADI)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    SystemParameters,
    TimeParameters,
)
from repro.core.diffusion import DENSE_NQ_LIMIT
from repro.core.generator import assemble_generator
from repro.core.stepper import (
    ADIStepper,
    AxisSplitStepper,
    available_steppers,
    get_stepper,
    is_known_stepper,
)
from repro.design import solve_stationary
from repro.exceptions import (ConfigurationError, NegativeDensityError,
                              ReproError)
from repro.health.monitors import HealthMonitor
from repro.numerics.backend import available_backends, get_backend, scipy_available
from repro.numerics.grids import PhaseGrid2D

GRID = GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)
TIME = TimeParameters(t_end=20.0, dt=0.5, snapshot_every=4)
CONTROL_KW = dict(c0=0.05, c1=0.2, q_target=10.0)

needs_scipy = pytest.mark.skipif(not scipy_available(),
                                 reason="scipy not installed")


def _march(params, control, time=TIME, grid=GRID):
    solver = FokkerPlanckSolver(params, control, grid_params=grid)
    return solver.solve_from_point(2.0, 0.6, time)


class TestRegistry:
    def test_default_is_axis(self):
        assert get_stepper("") is AxisSplitStepper
        assert get_stepper(None) is AxisSplitStepper
        assert get_stepper("axis") is AxisSplitStepper
        assert get_stepper("adi") is ADIStepper

    def test_available_steppers(self):
        assert available_steppers() == ["adi", "axis"] or \
            sorted(available_steppers()) == ["adi", "axis"]

    def test_is_known_stepper(self):
        assert is_known_stepper("")
        assert is_known_stepper("axis")
        assert is_known_stepper("adi")
        assert not is_known_stepper("no-such-stepper")

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ConfigurationError) as err:
            get_stepper("no-such-stepper")
        for name in available_steppers():
            assert name in str(err.value)

    def test_system_parameters_stepper_field(self):
        params = SystemParameters(stepper="adi")
        assert params.stepper == "adi"
        assert replace(params, stepper="axis").stepper == "axis"
        data = params.to_dict()
        assert data["stepper"] == "adi"
        assert SystemParameters.from_dict(data) == params

    def test_system_parameters_rejects_unknown_stepper(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(stepper="no-such-stepper")


class TestAxisStepperExtraction:
    """stepper='axis' must be the refactored default, not a reimplementation."""

    @pytest.mark.parametrize("sigma", [0.0, 0.4, 2.0])
    def test_explicit_axis_is_bitwise_default(self, jrj_control, sigma):
        default = _march(SystemParameters(mu=1.0, sigma=sigma, **CONTROL_KW),
                         jrj_control)
        explicit = _march(SystemParameters(mu=1.0, sigma=sigma,
                                           stepper="axis", **CONTROL_KW),
                          jrj_control)
        assert np.array_equal(default.final_density, explicit.final_density)


class TestADIStepper:
    def test_stationary_moments_match_generator_null(self, jrj_control):
        # The ADI fixed point satisfies (A_q + A_v) f = 0 exactly, so the
        # marched tail must land on the continuous generator's null vector
        # (not on the axis-split fixed point, which differs at O(dt)).
        params = SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                  **CONTROL_KW)
        marched = _march(params, jrj_control,
                         time=TimeParameters(t_end=400.0, dt=0.5,
                                             snapshot_every=100))
        reference = solve_stationary(params, grid_params=GRID,
                                     method="generator")
        moments = marched.final_moments
        assert moments.mean_q == pytest.approx(
            reference.estimate.mean_queue, abs=1e-6)
        assert moments.mean_v == pytest.approx(
            reference.estimate.mean_growth_rate, abs=1e-6)
        assert np.sqrt(moments.var_q) == pytest.approx(
            reference.estimate.std_queue, abs=1e-6)
        assert np.sqrt(moments.var_v) == pytest.approx(
            reference.estimate.std_growth_rate, abs=1e-6)

    def test_mass_conserved_and_nonnegative(self, jrj_control):
        params = SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                  **CONTROL_KW)
        result = _march(params, jrj_control)
        assert result.final_moments.mass == pytest.approx(1.0, abs=1e-10)
        assert np.min(result.final_density) >= 0.0

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_backends_agree(self, jrj_control, backend_name):
        reference = _march(SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                            backend="numpy", **CONTROL_KW),
                           jrj_control)
        other = _march(SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                        backend=backend_name, **CONTROL_KW),
                       jrj_control)
        assert np.allclose(other.final_density, reference.final_density,
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_transient_tracks_axis(self, jrj_control, sigma):
        # Both steppers discretize the same PDE, so their mean queues must
        # track each other over a short transient.
        grid = GridParameters(q_max=40.0, nq=120, v_min=-1.5, v_max=1.5,
                              nv=61)
        time = TimeParameters(t_end=3.0, dt=0.75, snapshot_every=4)

        def final_moments(stepper):
            params = SystemParameters(mu=1.0, sigma=sigma, stepper=stepper,
                                      **CONTROL_KW)
            return _march(params, jrj_control, time=time,
                          grid=grid).final_moments

        axis, adi = final_moments("axis"), final_moments("adi")
        assert abs(adi.mean_q - axis.mean_q) <= 0.1 * abs(axis.mean_q)
        for moments in (axis, adi):
            assert moments.mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("stepper", ["axis", "adi"])
    def test_above_dense_operator_limit(self, jrj_control, stepper):
        # Past DENSE_NQ_LIMIT the axis stepper's Crank-Nicolson step falls
        # back to subcycled tridiagonal solves.
        grid = GridParameters(q_max=40.0, nq=DENSE_NQ_LIMIT + 8, v_min=-1.5,
                              v_max=1.5, nv=8)
        params = SystemParameters(mu=1.0, sigma=2.0, stepper=stepper,
                                  **CONTROL_KW)
        moments = _march(params, jrj_control, grid=grid,
                         time=TimeParameters(t_end=1.0, dt=0.25,
                                             snapshot_every=4)).final_moments
        assert np.isfinite(moments.mean_q)
        assert moments.mass == pytest.approx(1.0, abs=1e-8)

    def test_free_running_step_doubles_axis_cfl(self, jrj_control):
        params = SystemParameters(mu=1.0, sigma=0.4, **CONTROL_KW)
        backend = get_backend("numpy")
        grid = PhaseGrid2D.from_bounds(q_max=GRID.q_max, nq=GRID.nq,
                                       v_min=GRID.v_min, v_max=GRID.v_max,
                                       nv=GRID.nv)
        q_mesh, v_mesh = grid.meshgrid()
        drift = jrj_control.drift_in_growth_coordinates(q_mesh, v_mesh,
                                                        params.mu)
        axis = AxisSplitStepper(grid, params.sigma, drift, backend)
        adi = ADIStepper(grid, params.sigma, drift, backend)
        assert adi.free_running_dt(0.8) == pytest.approx(
            2.0 * axis.free_running_dt(0.8))


class TestSolverReuse:
    """One solver runs many solves; its stepper's operator caches survive
    between them and must never change a result."""

    OTHER_TIME = TimeParameters(t_end=7.0, dt=0.35, cfl=0.6,
                                snapshot_every=3)

    @staticmethod
    def _assert_identical(got, want):
        assert len(got.snapshots) == len(want.snapshots)
        for ours, theirs in zip(got.snapshots, want.snapshots, strict=True):
            assert ours.time == theirs.time
            assert np.array_equal(ours.density, theirs.density)
            assert ours.moments == theirs.moments

    @pytest.mark.parametrize("stepper", ["axis", "adi"])
    def test_same_time_parameters_twice(self, jrj_control, stepper):
        params = SystemParameters(mu=1.0, sigma=0.4, stepper=stepper,
                                  **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        first = solver.solve_from_point(2.0, 0.6, TIME)
        second = solver.solve_from_point(2.0, 0.6, TIME)
        self._assert_identical(second, first)

    @pytest.mark.parametrize("stepper", ["axis", "adi"])
    def test_different_time_parameters(self, jrj_control, stepper):
        # A solve with other step sizes between two equal solves leaves the
        # second one unchanged, and itself matches a fresh solver's.
        params = SystemParameters(mu=1.0, sigma=0.4, stepper=stepper,
                                  **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        first = solver.solve_from_point(2.0, 0.6, TIME)
        other = solver.solve_from_point(2.0, 0.6, self.OTHER_TIME)
        again = solver.solve_from_point(2.0, 0.6, TIME)
        fresh = FokkerPlanckSolver(params, jrj_control, grid_params=GRID
                                   ).solve_from_point(2.0, 0.6,
                                                      self.OTHER_TIME)
        self._assert_identical(other, fresh)
        self._assert_identical(again, first)

    @pytest.mark.parametrize("stepper", ["axis", "adi"])
    def test_monitored_solves_keep_their_own_health_logs(self, jrj_control,
                                                         stepper):
        # Each solve gets a fresh monitor (and, on ADI, a fresh stash of the
        # half-step intermediate), and monitoring never changes a result.
        params = SystemParameters(mu=1.0, sigma=0.4, stepper=stepper,
                                  health="strict", **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        first = solver.solve_from_point(2.0, 0.6, TIME)
        second = solver.solve_from_point(2.0, 0.6, TIME)
        assert first.health is not None and second.health is not None
        assert second.health is not first.health
        assert first.health.n_reports == second.health.n_reports == 0
        self._assert_identical(second, first)
        unmonitored = FokkerPlanckSolver(
            replace(params, health="off"), jrj_control, grid_params=GRID
        ).solve_from_point(2.0, 0.6, TIME)
        assert unmonitored.health is None
        self._assert_identical(first, unmonitored)

    def test_adi_factorizations_serve_the_next_solve(self, jrj_control,
                                                     monkeypatch):
        # The per-half-step operators are factorized on first use; a later
        # solve that takes the same substeps factorizes nothing.  (This
        # schedule has four half-step sizes per direction, within the
        # cache's eight entries.)
        params = SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                  **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        factorize = solver.backend.factorize_sparse
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return factorize(*args, **kwargs)

        monkeypatch.setattr(solver.backend, "factorize_sparse", counting)
        solver.solve_from_point(2.0, 0.6, TIME)
        assert calls and set(calls) == {solver.grid.shape[0]
                                        * solver.grid.shape[1]}
        calls.clear()
        solver.solve_from_point(2.0, 0.6, TIME)
        assert calls == []


class TestStepperDrift:
    """Each stepper takes the static ν-drift once, when it is built."""

    @staticmethod
    def _grid_and_drift(control, params):
        grid = PhaseGrid2D.from_bounds(q_max=GRID.q_max, nq=GRID.nq,
                                       v_min=GRID.v_min, v_max=GRID.v_max,
                                       nv=GRID.nv)
        q_mesh, v_mesh = grid.meshgrid()
        drift = control.drift_in_growth_coordinates(q_mesh, v_mesh,
                                                    params.mu)
        return grid, drift

    @pytest.mark.parametrize("stepper", ["axis", "adi"])
    def test_solver_hands_its_drift_to_the_stepper(self, jrj_control,
                                                   stepper):
        # A stepper built by hand from the control's drift marches bit for
        # bit like the one the solver built.
        params = SystemParameters(mu=1.0, sigma=0.4, stepper=stepper,
                                  **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        _, drift = self._grid_and_drift(jrj_control, params)
        built = get_stepper(stepper)(solver.grid, params.sigma, drift,
                                     solver.backend)
        dt = solver.stepper.free_running_dt(TIME.cfl)
        assert built.free_running_dt(TIME.cfl) == dt
        start = solver.default_initial_density(2.0, 0.6)
        marched = []
        for each in (solver.stepper, built):
            each.begin(False)
            density, work = start.copy(), np.empty_like(start)
            for _ in range(3):
                density, work = each.advance(density, dt, work)
            marched.append(density)
        assert np.array_equal(marched[0], marched[1])

    @pytest.mark.parametrize("stepper,factor", [("axis", 1.0), ("adi", 2.0)])
    def test_free_running_dt_follows_the_drift(self, jrj_control, stepper,
                                               factor):
        # Without drift only the q-speed bounds the step; with the control's
        # drift the axis step is the generator's largest stable step, the
        # one its splitting matrix assumes, and ADI's is twice that.
        params = SystemParameters(mu=1.0, sigma=0.4, **CONTROL_KW)
        grid, drift = self._grid_and_drift(jrj_control, params)
        backend = get_backend("numpy")
        cls = get_stepper(stepper)
        still = cls(grid, params.sigma, np.zeros(grid.shape), backend)
        driven = cls(grid, params.sigma, drift, backend)
        cfl = 0.8
        assert still.free_running_dt(cfl) == factor * (
            cfl * grid.dq / grid.max_abs_v)
        generator = assemble_generator(params, jrj_control, grid_params=GRID)
        assert driven.free_running_dt(cfl) == factor * \
            generator.max_stable_dt()
        assert driven.free_running_dt(cfl) < still.free_running_dt(cfl)

    @pytest.mark.parametrize("stepper", ["axis", "adi"])
    def test_drift_of_another_grid_is_rejected(self, jrj_control, stepper):
        params = SystemParameters(mu=1.0, sigma=0.4, **CONTROL_KW)
        grid, drift = self._grid_and_drift(jrj_control, params)
        with pytest.raises(ReproError, match="shape"):
            get_stepper(stepper)(grid, params.sigma, drift[:, :-1],
                                 get_backend("numpy"))

    def test_direction_bands_sum_to_the_generator(self, jrj_control):
        # ADI's two direction operators, A₁ (q transport and diffusion, in
        # ν-major order) and A₂ (ν transport, row-major), add up to the
        # continuous generator L of the stationary solver.
        params = SystemParameters(mu=1.0, sigma=0.4, **CONTROL_KW)
        small = GridParameters(q_max=30.0, nq=12, v_min=-1.2, v_max=1.2,
                               nv=10)
        generator = assemble_generator(params, jrj_control,
                                       grid_params=small)
        nq, nv = generator.grid.shape
        n = generator.n

        def dense(bands):
            lower, diag, upper = bands
            return (np.diag(diag) + np.diag(lower[1:], -1)
                    + np.diag(upper[:-1], 1))

        # Position j·nq + i of the ν-major order is cell i·nv + j.
        order = np.arange(n).reshape(nq, nv).T.reshape(-1)
        a1 = np.empty((n, n))
        a1[np.ix_(order, order)] = dense(generator.q_direction_bands())
        a2 = dense(generator.v_direction_bands())
        operator = generator.generator()
        reference = np.zeros((n, n))
        np.add.at(reference, (operator.rows, operator.cols), operator.values)
        np.testing.assert_allclose(a1 + a2, reference, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(reference)))


class TestHalfStepHealth:
    def test_half_step_check_fires_on_negative_intermediate(self, phase_grid):
        monitor = HealthMonitor("strict")
        intermediate = phase_grid.gaussian_density(8.0, 0.0, 1.5, 0.3)
        intermediate.flat[3] = -1e-6
        with pytest.raises(NegativeDensityError):
            monitor.check_fp_half_step(intermediate, phase_grid, 1.0)

    def test_half_step_check_observes_without_mutating(self, phase_grid):
        monitor = HealthMonitor("observe")
        intermediate = phase_grid.gaussian_density(8.0, 0.0, 1.5, 0.3)
        intermediate.flat[3] = -1e-6
        stash = intermediate.copy()
        monitor.check_fp_half_step(intermediate, phase_grid, 1.0)
        assert np.array_equal(intermediate, stash)
        assert any(report.invariant == "positivity"
                   for report in monitor.log.reports)

    def test_adi_march_records_half_step_reports_cleanly(self, jrj_control):
        # A healthy ADI march under strict monitoring must not trip the
        # half-step invariants (the intermediate stays finite and
        # non-negative by the M-matrix structure of the implicit factors).
        params = SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                  health="strict", **CONTROL_KW)
        result = _march(params, jrj_control)
        assert result.final_moments.mass == pytest.approx(1.0, abs=1e-10)
