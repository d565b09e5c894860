"""Unit tests for the numerical-health subsystem (monitors + policies).

Covers every monitor/policy pair at the :class:`~repro.health.HealthMonitor`
level, the engine integrations (Fokker-Planck solver, DES, SDE integrator),
the differential gates (``off`` and ``observe`` bit-identical to the
pre-health paths on healthy runs), the armed numerical-fault registry and
its :class:`~repro.runner.FaultPlan` hooks, and the ``repro health``
journal-replay CLI.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EventBudgetError,
    FokkerPlanckSolver,
    GridParameters,
    HealthLog,
    HealthMonitor,
    HealthReport,
    JRJControl,
    MassConservationError,
    NegativeDensityError,
    NonFiniteStateError,
    NumericalHealthError,
    QueueInvariantError,
    ResidualHealthError,
    SimTimeError,
    Simulator,
    StabilityError,
    StepSizeError,
    SystemParameters,
    TimeParameters,
    resolve_health,
)
from repro.cli import main
from repro.exceptions import ConfigurationError, TransientJobError
from repro.health import (
    KNOWN_NUMERICAL_FAULTS,
    arm_numerical_fault,
    armed_numerical_faults,
    consume_numerical_fault,
    reset_numerical_faults,
)
from repro.health.monitors import MASS_TOLERANCE
from repro.health.policy import HEALTH_ENV_VAR
from repro.health.report import MAX_STORED_REPORTS, TREND_WINDOW
from repro.core import compute_moments
from repro.numerics.grids import PhaseGrid2D
from repro.numerics.sde import euler_maruyama
from repro.queueing.scenarios import dumbbell_scenario
from repro.runner.faults import FaultPlan
from repro.runner.journal import RunJournal
from repro.runner.spec import JobSpec
from repro.workloads import packet_level_jrj_scenario

CONTROL_KW = dict(c0=0.05, c1=0.2, q_target=10.0)


def _noop_job(x: float = 0.0) -> float:
    return x

#: Small, fast FP configuration for the engine-integration tests.
SMALL_GRID = GridParameters(q_max=20.0, nq=24, v_min=-1.0, v_max=1.0, nv=16)
SMALL_TIME = TimeParameters(t_end=4.0, dt=0.5, snapshot_every=2)


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    reset_numerical_faults()
    yield
    reset_numerical_faults()


def _solver(health, sigma=0.4):
    params = SystemParameters(mu=1.0, sigma=sigma, health=health,
                              **CONTROL_KW)
    control = JRJControl(c0=params.c0, c1=params.c1,
                         q_target=params.q_target)
    return FokkerPlanckSolver(params, control, grid_params=SMALL_GRID)


def _grid():
    return PhaseGrid2D.from_bounds(q_max=20.0, nq=10, v_min=-1.0,
                                   v_max=1.0, nv=8)


def _healthy_density(grid, rng=None):
    rng = rng or np.random.default_rng(7)
    density = rng.random(grid.shape) + 0.1
    return grid.normalize(density)


# ---------------------------------------------------------------------------
# Mode resolution and parameter plumbing.
# ---------------------------------------------------------------------------

class TestPolicyResolution:
    def test_default_is_observe(self, monkeypatch):
        monkeypatch.delenv(HEALTH_ENV_VAR, raising=False)
        assert resolve_health(None) == "observe"
        assert resolve_health("") == "observe"

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(HEALTH_ENV_VAR, "repair")
        assert resolve_health(None) == "repair"
        # An explicit name still wins over the environment.
        assert resolve_health("strict") == "strict"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_health("lenient")

    def test_create_returns_none_for_off(self):
        assert HealthMonitor.create("off") is None
        monitor = HealthMonitor.create("strict", where="here")
        assert monitor is not None
        assert monitor.mode == "strict"
        assert monitor.where == "here"

    def test_system_parameters_validate_health(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(mu=1.0, health="bogus", **CONTROL_KW)
        params = SystemParameters(mu=1.0, **CONTROL_KW)
        assert params.health == ""
        assert params.with_health("strict").health == "strict"

    def test_health_errors_are_stability_errors(self):
        # Typed aborts slot into the existing retry taxonomy: permanent
        # (StabilityError), never transient.
        assert issubclass(NumericalHealthError, StabilityError)
        assert not issubclass(NumericalHealthError, TransientJobError)
        for cls in (NonFiniteStateError, MassConservationError,
                    NegativeDensityError, QueueInvariantError,
                    EventBudgetError, SimTimeError, StepSizeError,
                    ResidualHealthError):
            assert issubclass(cls, NumericalHealthError)


# ---------------------------------------------------------------------------
# Reports and the log.
# ---------------------------------------------------------------------------

class TestReportAndLog:
    def _report(self, **overrides):
        base = dict(where="core.solver", invariant="mass", time=2.0,
                    magnitude=1e-6, threshold=1e-8, action="observe",
                    cell=(3, 4), trend=(1e-7, 1e-6), message="drift")
        base.update(overrides)
        return HealthReport(**base)

    def test_report_dict_round_trip(self):
        report = self._report()
        assert HealthReport.from_dict(report.to_dict()) == report

    def test_report_round_trip_without_cell(self):
        report = self._report(cell=None)
        assert HealthReport.from_dict(report.to_dict()).cell is None

    def test_log_counts_and_caps(self):
        log = HealthLog(mode="observe")
        for _ in range(MAX_STORED_REPORTS + 10):
            log.record(self._report())
        assert log.n_reports == MAX_STORED_REPORTS + 10
        assert len(log.reports) == MAX_STORED_REPORTS

    def test_log_counts_repairs_per_invariant(self):
        log = HealthLog(mode="repair")
        log.record(self._report(action="repair"))
        log.record(self._report(action="repair", invariant="positivity"))
        log.record(self._report(action="observe"))
        assert log.repairs == {"mass": 1, "positivity": 1}
        assert log.n_repairs == 2

    def test_trend_window_is_capped(self):
        log = HealthLog(mode="observe")
        for i in range(TREND_WINDOW + 3):
            trend = log.trend("mass", float(i))
        assert len(trend) == TREND_WINDOW
        assert trend[-1] == float(TREND_WINDOW + 2)

    def test_merge_folds_counters(self):
        left = HealthLog(mode="repair", where="ensemble")
        right = HealthLog(mode="repair", where="shard1")
        right.record(self._report(action="repair"))
        right.record(self._report(action="observe"))
        left.merge(right)
        assert left.n_reports == 2
        assert left.repairs == {"mass": 1}

    def test_summary_round_trip(self):
        log = HealthLog(mode="repair", where="core.solver")
        log.record(self._report(action="repair"))
        revived = HealthLog.from_summary(
            json.loads(json.dumps(log.summary())))
        assert revived.mode == "repair"
        assert revived.where == "core.solver"
        assert revived.n_reports == 1
        assert revived.repairs == {"mass": 1}
        assert revived.reports == log.reports


# ---------------------------------------------------------------------------
# Monitor checks: every invariant under every policy.
# ---------------------------------------------------------------------------

class TestFpDensityMonitor:
    def test_healthy_density_records_nothing(self):
        grid = _grid()
        monitor = HealthMonitor.create("strict")
        monitor.check_fp_density(_healthy_density(grid), grid, t=1.0)
        assert monitor.log.n_reports == 0

    def test_mass_drift_strict_aborts_typed(self):
        grid = _grid()
        density = _healthy_density(grid) * (1.0 + 1e-6)
        monitor = HealthMonitor.create("strict")
        with pytest.raises(MassConservationError) as excinfo:
            monitor.check_fp_density(density, grid, t=3.0)
        report = excinfo.value.report
        assert report.invariant == "mass"
        assert report.action == "abort"
        assert report.time == 3.0
        assert report.magnitude == pytest.approx(1e-6, rel=1e-3)

    def test_mass_drift_repair_renormalizes(self):
        grid = _grid()
        density = _healthy_density(grid) * (1.0 + 1e-6)
        monitor = HealthMonitor.create("repair")
        monitor.check_fp_density(density, grid, t=3.0)
        assert grid.total_mass(density) == pytest.approx(1.0, abs=1e-14)
        assert monitor.log.repairs == {"mass": 1}

    def test_mass_drift_observe_records_only(self):
        grid = _grid()
        density = _healthy_density(grid) * (1.0 + 1e-6)
        before = density.copy()
        monitor = HealthMonitor.create("observe")
        monitor.check_fp_density(density, grid, t=3.0)
        assert np.array_equal(density, before)
        assert monitor.log.n_reports == 1
        assert monitor.log.n_repairs == 0

    def test_absorbed_mass_shifts_conservation_target(self):
        grid = _grid()
        density = _healthy_density(grid) * 0.75
        monitor = HealthMonitor.create("strict")
        monitor.check_fp_density(density, grid, t=1.0, absorbed=0.25)
        assert monitor.log.n_reports == 0

    def test_negative_cell_strict_reports_index(self):
        grid = _grid()
        density = _healthy_density(grid)
        density[4, 5] = -1e-6
        monitor = HealthMonitor.create("strict")
        with pytest.raises(NegativeDensityError) as excinfo:
            monitor.check_fp_density(density, grid, t=2.0)
        assert excinfo.value.report.cell == (4, 5)

    def test_negative_cell_repair_clamps_then_renormalizes(self):
        grid = _grid()
        density = _healthy_density(grid)
        density[4, 5] = -0.5
        monitor = HealthMonitor.create("repair")
        monitor.check_fp_density(density, grid, t=2.0)
        assert density.min() >= 0.0
        assert grid.total_mass(density) == pytest.approx(1.0, abs=1e-12)
        assert monitor.log.repairs.get("positivity") == 1
        # Clamping changed the mass, so the mass invariant repaired too.
        assert monitor.log.repairs.get("mass") == 1

    def test_non_finite_cell_reports_first_index_and_time(self):
        # Satellite: the finiteness check names the first offending cell
        # and the simulation time in the structured report.
        grid = _grid()
        density = _healthy_density(grid)
        density[2, 3] = np.nan
        density[7, 1] = np.inf
        monitor = HealthMonitor.create("strict")
        with pytest.raises(NonFiniteStateError) as excinfo:
            monitor.check_fp_density(density, grid, t=4.5)
        report = excinfo.value.report
        assert report.invariant == "finiteness"
        assert report.cell == (2, 3)
        assert report.time == 4.5
        assert report.magnitude == 2.0

    def test_non_finite_is_fatal_under_observe(self):
        # A non-finite density cannot be integrated further; observe must
        # abort exactly as the pre-health code did, just with a typed error.
        grid = _grid()
        density = _healthy_density(grid)
        density[0, 0] = np.nan
        monitor = HealthMonitor.create("observe")
        with pytest.raises(NonFiniteStateError):
            monitor.check_fp_density(density, grid, t=1.0)

    def test_non_finite_repair_scrubs_and_renormalizes(self):
        grid = _grid()
        density = _healthy_density(grid)
        density[2, 3] = np.nan
        monitor = HealthMonitor.create("repair")
        monitor.check_fp_density(density, grid, t=1.0)
        assert np.isfinite(density).all()
        assert grid.total_mass(density) == pytest.approx(1.0, abs=1e-12)
        assert monitor.log.repairs.get("finiteness") == 1

    def test_non_finite_repair_unrecoverable_raises(self):
        grid = _grid()
        density = np.full(grid.shape, np.nan)
        monitor = HealthMonitor.create("repair")
        with pytest.raises(NonFiniteStateError):
            monitor.check_fp_density(density, grid, t=1.0)


class TestBlockAndStepMonitors:
    def test_finite_block_clean_returns_false(self):
        monitor = HealthMonitor.create("strict")
        assert monitor.check_finite_block(np.zeros((3, 2)), 1.0) is False
        assert monitor.log.n_reports == 0

    def test_finite_block_strict_aborts_with_index(self):
        states = np.zeros((4, 2))
        states[2, 1] = np.inf
        monitor = HealthMonitor.create("strict")
        with pytest.raises(NonFiniteStateError) as excinfo:
            monitor.check_finite_block(states, 2.5, label="paths")
        assert excinfo.value.report.cell == (2, 1)

    def test_finite_block_repair_runs_callable(self):
        states = np.zeros((4, 2))
        states[2, 1] = np.nan
        monitor = HealthMonitor.create("repair")
        repaired = monitor.check_finite_block(
            states, 2.5, repair=lambda: np.nan_to_num(states, copy=False))
        assert repaired is True
        assert np.isfinite(states).all()
        assert monitor.log.repairs == {"finiteness": 1}

    def test_finite_block_observe_records_only(self):
        states = np.zeros((4, 2))
        states[0, 0] = np.nan
        monitor = HealthMonitor.create("observe")
        assert monitor.check_finite_block(states, 1.0) is False
        assert monitor.log.n_reports == 1
        assert np.isnan(states[0, 0])

    def test_step_size_strict_aborts(self):
        monitor = HealthMonitor.create("strict")
        with pytest.raises(StepSizeError):
            monitor.check_step_size(2.0, 1.0)
        assert monitor.check_step_size(0.5, 1.0) is False

    def test_min_step_observe_records(self):
        monitor = HealthMonitor.create("observe")
        assert monitor.check_min_step(1e-14, 1e-12, 3.0) is False
        assert monitor.log.reports[0].invariant == "step-size"


class TestQueueMonitors:
    def test_queue_value_strict_aborts(self):
        monitor = HealthMonitor.create("strict")
        with pytest.raises(QueueInvariantError):
            monitor.check_queue_value("bottleneck", -1.0, 5.0)
        assert monitor.check_queue_value("bottleneck", 0.0, 5.0) is False

    def test_queue_value_repair_runs_callable(self):
        fixed = []
        monitor = HealthMonitor.create("repair")
        assert monitor.check_queue_value("sample", -1.0, 5.0,
                                         repair=lambda: fixed.append(1))
        assert fixed == [1]
        assert monitor.log.repairs == {"queue": 1}

    def test_event_budget_fires_once(self):
        monitor = HealthMonitor.create("observe")
        assert monitor.check_event_budget(10, None, 1.0) is False
        monitor.check_event_budget(10, 5, 1.0)
        monitor.check_event_budget(20, 5, 2.0)
        assert monitor.log.n_reports == 1

    def test_event_budget_strict_aborts(self):
        monitor = HealthMonitor.create("strict")
        with pytest.raises(EventBudgetError):
            monitor.check_event_budget(10, 5, 1.0)

    def test_sim_time_strict_aborts(self):
        monitor = HealthMonitor.create("strict")
        with pytest.raises(SimTimeError):
            monitor.check_sim_time(3.0, 10.0)
        assert monitor.check_sim_time(10.0, 10.0) is False


class TestResidualMonitor:
    def test_converged_residual_records_nothing(self):
        monitor = HealthMonitor.create("strict")
        assert monitor.check_residual(1e-12, 1e-9) is False
        assert monitor.log.n_reports == 0

    def test_residual_strict_aborts(self):
        monitor = HealthMonitor.create("strict")
        with pytest.raises(ResidualHealthError):
            monitor.check_residual(1e-3, 1e-9, label="refine")

    def test_residual_repair_counts(self):
        monitor = HealthMonitor.create("repair")
        assert monitor.check_residual(float("inf"), 1e-9,
                                      repair=lambda: None)
        assert monitor.log.repairs == {"residual": 1}


# ---------------------------------------------------------------------------
# Engine integration: the Fokker-Planck solver.
# ---------------------------------------------------------------------------

class TestFpSolverIntegration:
    def test_off_and_observe_bitwise_identical(self):
        off = _solver("off").solve_from_point(2.0, 0.6, SMALL_TIME)
        observed = _solver("observe").solve_from_point(2.0, 0.6, SMALL_TIME)
        assert off.health is None
        assert observed.health is not None
        assert observed.health.n_reports == 0
        for a, b in zip(off.snapshots, observed.snapshots, strict=True):
            assert a.time == b.time
            assert np.array_equal(a.density, b.density)

    def test_strict_nan_density_fault_aborts_typed(self):
        arm_numerical_fault("nan-density")
        with pytest.raises(NonFiniteStateError) as excinfo:
            _solver("strict").solve_from_point(2.0, 0.6, SMALL_TIME)
        report = excinfo.value.report
        assert report.invariant == "finiteness"
        assert report.where == "core.solver"
        assert report.time > 0.0
        assert report.cell is not None
        assert report.magnitude >= 1.0

    def test_repair_nan_density_fault_recovers(self):
        arm_numerical_fault("nan-density")
        result = _solver("repair").solve_from_point(2.0, 0.6, SMALL_TIME)
        assert result.health.repairs.get("finiteness", 0) >= 1
        final = result.snapshots[-1]
        assert np.isfinite(final.density).all()
        assert final.moments.mass == pytest.approx(1.0, abs=1e-8)

    def test_off_matches_seed_golden_bitwise(self):
        # Differential gate: under --health=off the σ = 0 hot path must
        # still reproduce the seed implementation's pinned golden values
        # exactly (same config as test_fp_golden.py::test_sigma_zero...).
        from tests.unit.test_fp_golden import (
            CONTROL_KW as GOLDEN_CONTROL, GRID, SEED_GOLDEN, TIME,
            _moment_tuple)
        for health in ("off", "observe"):
            params = SystemParameters(mu=1.0, sigma=0.0, health=health,
                                      **GOLDEN_CONTROL)
            control = JRJControl(c0=params.c0, c1=params.c1,
                                 q_target=params.q_target)
            result = FokkerPlanckSolver(params, control, grid_params=GRID
                                        ).solve_from_point(2.0, 0.6, TIME)
            assert _moment_tuple(result.final_moments) \
                == SEED_GOLDEN["sigma0"], health

    def test_off_mode_keeps_untyped_stability_error(self):
        # The pre-health path must survive untouched: a poisoned density
        # under off still dies, with the original plain StabilityError.
        arm_numerical_fault("nan-density")
        with pytest.raises(StabilityError) as excinfo:
            _solver("off").solve_from_point(2.0, 0.6, SMALL_TIME)
        assert not isinstance(excinfo.value, NumericalHealthError)


# ---------------------------------------------------------------------------
# Engine integration: the packet-level DES.
# ---------------------------------------------------------------------------

class TestDesIntegration:
    DURATION = 60.0

    def _config(self):
        return packet_level_jrj_scenario(n_sources=2, service_rate=10.0,
                                         seed=11)

    def test_off_and_observe_bitwise_identical(self):
        runs = [(self._config(), self.DURATION),
                (dumbbell_scenario(n_sources=64, seed=11), 40.0)]
        for config, duration in runs:
            off = Simulator(config, health="off").run(duration)
            observed = Simulator(config, health="observe").run(duration)
            assert off.health is None
            assert observed.health is not None
            assert observed.health.n_reports == 0
            assert off.throughputs == observed.throughputs
            assert off.events_executed == observed.events_executed
            assert np.array_equal(off.trace.queue_length.times,
                                  observed.trace.queue_length.times)
            assert np.array_equal(off.trace.queue_length.values,
                                  observed.trace.queue_length.values)

    def test_strict_negative_queue_fault_aborts_typed(self):
        arm_numerical_fault("negative-queue")
        simulator = Simulator(self._config(), health="strict")
        with pytest.raises(QueueInvariantError) as excinfo:
            simulator.run(self.DURATION)
        assert excinfo.value.report.where == "queueing.simulator"

    def test_repair_negative_queue_fault_recovers(self):
        arm_numerical_fault("negative-queue")
        result = Simulator(self._config(), health="repair").run(self.DURATION)
        assert result.health.repairs.get("queue", 0) >= 1
        # The corrective sample zeroes the negative interval's width.
        values = result.trace.queue_length.values
        times = result.trace.queue_length.times
        bad = np.flatnonzero(values < 0.0)
        assert bad.size == 1
        assert times[bad[0] + 1] == times[bad[0]]
        assert values[bad[0] + 1] == 0.0

    def test_event_budget_strict_aborts(self):
        simulator = Simulator(self._config(), health="strict", max_events=50)
        with pytest.raises(EventBudgetError):
            simulator.run(self.DURATION)

    def test_event_budget_observe_completes_with_report(self):
        simulator = Simulator(self._config(), health="observe", max_events=50)
        result = simulator.run(self.DURATION)
        assert result.health.n_reports >= 1
        assert result.health.reports[0].invariant == "event-budget"


# ---------------------------------------------------------------------------
# Engine integration: the SDE batch integrator.
# ---------------------------------------------------------------------------

class TestSdeIntegration:
    def test_step_size_sanity_strict(self):
        monitor = HealthMonitor.create("strict")
        with pytest.raises(StepSizeError):
            euler_maruyama(lambda t, x: -x, lambda t, x: 0.1 * np.ones_like(x),
                           np.array([1.0]), t_end=1.0, dt=2.0, n_paths=3,
                           rng=np.random.default_rng(0), health=monitor)

    def test_divergent_paths_repaired_by_holding_last(self):
        # An explosive drift overflows to inf; repair holds the previous
        # recorded snapshot so the ensemble stays finite.
        monitor = HealthMonitor.create("repair")
        with np.errstate(over="ignore", invalid="ignore"):
            paths = euler_maruyama(
                lambda t, x: x ** 3, lambda t, x: np.zeros_like(x),
                np.array([5.0]), t_end=4.0, dt=0.1, n_paths=2,
                rng=np.random.default_rng(0), health=monitor)
        assert np.isfinite(paths.paths).all()
        assert monitor.log.repairs.get("finiteness", 0) >= 1

    def test_divergent_paths_observe_keeps_values(self):
        monitor = HealthMonitor.create("observe")
        with np.errstate(over="ignore", invalid="ignore"):
            paths = euler_maruyama(
                lambda t, x: x ** 3, lambda t, x: np.zeros_like(x),
                np.array([5.0]), t_end=4.0, dt=0.1, n_paths=2,
                rng=np.random.default_rng(0), health=monitor)
        assert monitor.log.n_reports >= 1
        assert not np.isfinite(paths.paths).all()


# ---------------------------------------------------------------------------
# Hypothesis property: the mass repair is moment-preserving.
# ---------------------------------------------------------------------------

class TestMassRepairProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           drift=st.floats(min_value=3e-8, max_value=1e-4),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_renormalization_preserves_normalized_moments(self, seed, drift,
                                                          sign):
        grid = _grid()
        density = _healthy_density(grid, np.random.default_rng(seed))
        density *= 1.0 + sign * drift
        before = compute_moments(density, grid)

        monitor = HealthMonitor.create("repair")
        monitor.check_fp_density(density, grid, t=1.0)

        assert monitor.log.repairs == {"mass": 1}
        after = compute_moments(density, grid)
        assert after.mass == pytest.approx(1.0, abs=1e-12)
        assert after.mean_q == pytest.approx(before.mean_q, abs=1e-12)
        assert after.var_q == pytest.approx(before.var_q, abs=1e-12)
        assert after.mean_v == pytest.approx(before.mean_v, abs=1e-12)
        assert after.var_v == pytest.approx(before.var_v, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_healthy_mass_never_fires(self, seed):
        grid = _grid()
        density = _healthy_density(grid, np.random.default_rng(seed))
        monitor = HealthMonitor.create("repair")
        monitor.check_fp_density(density, grid, t=1.0)
        assert monitor.log.n_reports == 0

    def test_tolerance_boundary_does_not_fire(self):
        grid = _grid()
        density = _healthy_density(grid)
        density *= 1.0 + 0.5 * MASS_TOLERANCE
        monitor = HealthMonitor.create("strict")
        monitor.check_fp_density(density, grid, t=1.0)
        assert monitor.log.n_reports == 0


# ---------------------------------------------------------------------------
# The armed numerical-fault registry and FaultPlan hooks.
# ---------------------------------------------------------------------------

class TestNumericalFaults:
    def test_arm_and_consume(self):
        arm_numerical_fault("nan-density")
        assert armed_numerical_faults() == ("nan-density",)
        assert consume_numerical_fault("nan-density") is True
        assert consume_numerical_fault("nan-density") is False
        assert armed_numerical_faults() == ()

    def test_arm_counts_accumulate(self):
        arm_numerical_fault("negative-queue", count=2)
        assert consume_numerical_fault("negative-queue")
        assert consume_numerical_fault("negative-queue")
        assert not consume_numerical_fault("negative-queue")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            arm_numerical_fault("cosmic-ray")

    def test_reset_disarms_everything(self):
        for kind in KNOWN_NUMERICAL_FAULTS:
            arm_numerical_fault(kind)
        reset_numerical_faults()
        assert armed_numerical_faults() == ()

    def _spec(self, label="job-a"):
        return JobSpec(_noop_job, overrides={"x": 1.0}, label=label)

    def test_plan_selection_is_deterministic(self):
        plan = FaultPlan(seed=3, nan_density_every=1,
                         negative_queue_every=1)
        spec = self._spec()
        assert plan.poisons_density(spec, 0)
        assert plan.poisons_queue(spec, 0)
        # Beyond the attempt budget the hook disarms (retries run clean).
        assert not plan.poisons_density(spec, 1)
        assert not plan.poisons_queue(spec, 1)

    def test_plan_apply_arms_registry(self):
        plan = FaultPlan(seed=3, nan_density_every=1, negative_queue_every=1)
        plan.apply(self._spec(), 0)
        assert armed_numerical_faults() == ("nan-density", "negative-queue")
        # An unselected job on the same worker clears the poison.
        FaultPlan(seed=3).apply(self._spec(), 0)
        assert armed_numerical_faults() == ()

    def test_plan_environment_round_trip(self, monkeypatch):
        plan = FaultPlan(seed=5, nan_density_every=2, nan_density_attempts=3,
                         negative_queue_every=4)
        monkeypatch.setenv("REPRO_FAULTS", plan.to_environment())
        assert FaultPlan.from_environment() == plan

    def test_plan_validates_new_every_fields(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(nan_density_every=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(negative_queue_every=-1)


# ---------------------------------------------------------------------------
# The `repro health` journal-replay CLI.
# ---------------------------------------------------------------------------

def _outcome(key, label, ok=True, value=None, error=None, attempts=1):
    return SimpleNamespace(key=key, spec=SimpleNamespace(label=label),
                           ok=ok, value=value, error=error,
                           attempts=attempts, duration=0.25)


def _write_journal(path):
    log = HealthLog(mode="repair", where="core.solver")
    log.record(HealthReport(where="core.solver", invariant="mass", time=2.0,
                            magnitude=1e-6, threshold=1e-8, action="repair",
                            message="drift"))
    journal = RunJournal(path, fsync=False)
    try:
        journal.record(_outcome("k1", "density/healthy",
                                value={"mean_q": 5.0}))
        journal.record(_outcome("k2", "density/repaired",
                                value={"mean_q": 5.0,
                                       "health": log.summary()}))
        journal.record(_outcome("k3", "density/failed", ok=False,
                                error="NonFiniteStateError: boom",
                                attempts=2))
    finally:
        journal.close()
    return path


class TestHealthCli:
    def test_health_parser_registered(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["health", "run.jsonl", "--json"])
        assert args.command == "health"
        assert args.journal == "run.jsonl"
        assert args.as_json is True

    def test_health_option_on_subcommands(self):
        from repro.cli import build_parser
        for argv in (["density"], ["multihop"], ["ensemble"], ["run"],
                     ["design", "stationary"]):
            args = build_parser().parse_args(argv + ["--health", "repair"])
            assert args.health == "repair"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["density", "--health", "sometimes"])

    def test_missing_journal_fails(self, tmp_path, capsys):
        exit_code = main(["health", str(tmp_path / "nope.jsonl")])
        assert exit_code != 0

    def test_health_summarizes_journal(self, tmp_path, capsys):
        path = _write_journal(tmp_path / "run.jsonl")
        exit_code = main(["health", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "density/repaired" in output
        assert "mass" in output
        assert "density/failed" in output

    def test_health_json_output(self, tmp_path, capsys):
        path = _write_journal(tmp_path / "run.jsonl")
        exit_code = main(["health", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["totals"]["jobs"] == 3
        assert payload["totals"]["monitored"] == 1
        assert payload["totals"]["repairs"] == 1
        assert payload["totals"]["failed"] == 1
        assert payload["by_invariant"]["mass"]["repairs"] == 1

    def test_density_cli_accepts_health_off(self, capsys):
        exit_code = main(["density", "--health", "off", "--t-end", "2",
                          "--no-cache"])
        assert exit_code == 0
