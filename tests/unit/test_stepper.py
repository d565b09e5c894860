"""Unit tests for the FPStepper seam (axis split and 2-D ADI)."""

import numpy as np
import pytest

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    SystemParameters,
    TimeParameters,
)
from repro.core.boundary import BoundaryConditions
from repro.core.stepper import (
    ADIStepper,
    AxisSplitStepper,
    available_steppers,
    get_stepper,
    is_known_stepper,
)
from repro.delay.fokker_planck_delay import DelayedFokkerPlanckSolver
from repro.design import solve_stationary
from repro.exceptions import ConfigurationError, NegativeDensityError
from repro.health.monitors import HealthMonitor
from repro.numerics.backend import available_backends, get_backend, scipy_available

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
        assert params.with_stepper("axis").stepper == "axis"
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

    def test_free_running_step_doubles_axis_cfl(self, jrj_control):
        params = SystemParameters(mu=1.0, sigma=0.4, **CONTROL_KW)
        backend = get_backend("numpy")
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        axis = AxisSplitStepper(solver.grid, params.sigma, backend,
                                solver.boundary)
        adi = ADIStepper(solver.grid, params.sigma, backend, solver.boundary)
        drift = solver._static_drift
        for stepper in (axis, adi):
            stepper.begin(False)
            stepper.set_drift(drift)
        assert adi.free_running_dt(0.8) == pytest.approx(
            2.0 * axis.free_running_dt(0.8))

    def test_rejects_non_reflecting_boundary(self, jrj_control):
        params = SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                  **CONTROL_KW)
        with pytest.raises(ConfigurationError):
            FokkerPlanckSolver(params, jrj_control, grid_params=GRID,
                               boundary=BoundaryConditions(
                                   reflect_q_zero=False))

    def test_delayed_feedback_smoke(self, jrj_control):
        # Time-dependent drift: the v-operator cache is rebuilt per substep.
        params = SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                  **CONTROL_KW)
        solver = DelayedFokkerPlanckSolver(params, jrj_control, delay=2.0,
                                           grid_params=GRID)
        result = solver.solve_from_point(2.0, 0.6, TIME)
        # The delay-driven oscillation pushes a thin tail through the open
        # q_max edge, so exact unit mass is not expected -- only a tiny,
        # strictly one-sided leak.
        assert 0.999999 <= result.final_moments.mass <= 1.0 + 1e-12
        assert np.isfinite(result.final_moments.mean_q)

    def test_multisource_smoke(self):
        from repro.config import SourceParameters
        from repro.multisource.fokker_planck_ms import MultiSourceFokkerPlanck

        sources = [SourceParameters(c0=0.05, c1=0.2, name=f"s{i}")
                   for i in range(3)]
        params = SystemParameters(mu=1.0, sigma=0.4, stepper="adi",
                                  **CONTROL_KW)
        model = MultiSourceFokkerPlanck(sources, params)
        result = model.solve(time_params=TimeParameters(
            t_end=10.0, dt=0.5, snapshot_every=5))
        assert result.aggregate.final_moments.mass == pytest.approx(
            1.0, abs=1e-9)


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
