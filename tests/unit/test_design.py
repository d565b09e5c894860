"""Unit tests for the gain-design subsystem (:mod:`repro.design`).

Covers the assembled discrete operators against the marching kernels, the
backend null-space solves, the objective scoring (scalar versus batched
parity), the coarse-to-fine tuner, the delayed-drift closure, the runner
matrix, cache pruning and the CLI surface.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import score_operating_point, settling_time
from repro.analysis import oscillations
from repro.analysis.oscillations import (oscillation_envelope_batch,
                                         oscillation_metrics,
                                         oscillation_metrics_batch)
from repro.characteristics import (CharacteristicBatch,
                                   integrate_characteristic,
                                   integrate_characteristic_batch)
from repro.characteristics import trajectory as trajectory_module
from repro.config import GridParameters, SystemParameters
from repro.control.jrj import JRJControl, jrj_from_parameters
from repro.core.generator import assemble_generator
from repro.core.initial import gaussian_initial_density
from repro.core.advection import UpwindAdvection
from repro.core.diffusion import CrankNicolsonDiffusion
from repro.design import objectives, tuner
from repro.design import (
    DelayShiftedControl,
    ObjectiveWeights,
    RankedGain,
    StationaryEstimate,
    default_axes,
    deployment_unfairness,
    design_gains,
    pareto_front_indices,
    score_gain_grid,
    solve_stationary,
)
from repro.exceptions import (AnalysisError, ConfigurationError,
                              ConvergenceError)
from repro.multisource.fairness import (jain_fairness_index,
                                        predicted_equilibrium_shares)
from repro.numerics import available_backends
from repro.numerics.spectral import detect_peaks, dominant_period
from repro.runner.cache import ResultCache
from repro.runner.experiments import design_chunk_point, get_matrix

GRID = GridParameters(q_max=30.0, nq=48, v_min=-1.2, v_max=1.2, nv=36)
PARAMS = SystemParameters(mu=1.0, q_target=8.0, c0=0.1, c1=0.4, sigma=0.5)


#: The per-point columns of :class:`~repro.design.GainGridScores`.
SCORE_COLUMNS = ("c0", "c1", "q_target", "mu", "oscillation_amplitude",
                 "oscillation_period", "relaxation_time", "queue_error",
                 "unfairness", "score")


def _matvec(operator, vector):
    """``M @ vector`` for a COO :class:`~repro.core.generator.SparseOperator`."""
    return np.bincount(operator.rows,
                       weights=operator.values * vector[operator.cols],
                       minlength=operator.n)


def _approx_equal_scores(scalar, batch_point) -> None:
    """Field-wise equality that treats NaN == NaN (oscillation period)."""
    for name in SCORE_COLUMNS:
        a, b = getattr(scalar, name), getattr(batch_point, name)
        if math.isnan(a) and math.isnan(b):
            continue
        assert a == b, name


class TestGeneratorKernelParity:
    """The assembled operators reproduce the marching kernels exactly."""

    def setup_method(self):
        self.generator = assemble_generator(PARAMS, grid_params=GRID)
        self.grid = self.generator.grid
        self.density = gaussian_initial_density(
            self.grid, q0=PARAMS.q_target, v0=0.0, q_std=2.0, v_std=0.2)
        self.flat = self.density.ravel()
        self.advection = UpwindAdvection(self.grid)
        self.advection.set_drift(self.generator.drift)

    def test_generator_matches_kernels(self):
        # L = G_q + G_v + diffusion, and each explicit kernel step is
        # A(dt) p = p + dt G p, so dt L p is the sum of both kernel
        # increments plus dt times the diffusion generator's action.
        dt = 0.05
        q_step = self.advection.advect_q(self.density, dt).ravel() - self.flat
        v_step = self.advection.advect_v(self.density, dt).ravel() - self.flat
        via_operator = dt * _matvec(self.generator.generator(), self.flat)
        via_kernels = (q_step + v_step
                       + dt * _matvec(self.generator.diffusion(), self.flat))
        np.testing.assert_allclose(via_operator, via_kernels,
                                   rtol=0, atol=1e-14)

    def test_splitting_matrix_annihilates_split_fixed_point(self):
        # One full split step applied through the kernels; the splitting
        # matrix must vanish exactly on any density the step leaves fixed,
        # and more generally S p = (I - r Ltilde)(step(p) - p) up to
        # round-off.  Verify the latter identity on a generic density.
        dt = 0.05
        advected = self.advection.advect_v(
            self.advection.advect_q(self.density, dt), dt)
        stepped = CrankNicolsonDiffusion(self.grid, PARAMS.sigma).step(
            advected, dt)
        r_number = self.generator.diffusion_number(dt)
        # S p = (I + r Ltilde) A p - (I - r Ltilde) p, and the step is
        # stepped = (I - r Ltilde)^{-1} (I + r Ltilde) A p, so
        # S p = (I - r Ltilde)(stepped - p).  Recover the Ltilde action
        # from diffusion() = (sigma^2/2)/dq^2 * Ltilde.
        operator = self.generator.splitting_matrix(dt)
        left = _matvec(operator, self.flat)
        difference = stepped.ravel() - self.flat
        diffusion = self.generator.diffusion()
        scale = (PARAMS.sigma ** 2 / 2.0) / self.grid.dq ** 2
        ltilde_diff = _matvec(diffusion, difference) / scale
        right = difference - r_number * ltilde_diff
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-13)

    def test_generator_rows_conserve_mass(self):
        # Columns of L sum to zero wherever no mass leaves the domain; the
        # q_max outflow for nu > 0 is the only leak.  Check total mass
        # change of the continuous generator acting on a density supported
        # away from the outflow boundary equals zero to round-off.
        derivative = _matvec(self.generator.generator(), self.flat)
        assert abs(derivative.sum() * self.grid.cell_area) < 1e-12

    def test_splitting_matrix_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            self.generator.splitting_matrix(0.0)
        with pytest.raises(ConfigurationError):
            self.generator.splitting_matrix(1e6)


class TestStationaryBackends:
    def test_numpy_and_scipy_agree(self):
        backends = available_backends()
        if "scipy" not in backends:
            pytest.skip("scipy backend unavailable")
        banded = solve_stationary(PARAMS, grid_params=GRID, dt=0.05,
                                  backend="numpy")
        sparse = solve_stationary(PARAMS, grid_params=GRID, dt=0.05,
                                  backend="scipy")
        np.testing.assert_allclose(sparse.density, banded.density,
                                   rtol=0, atol=1e-12)
        for name in ("mean_queue", "std_queue", "mean_growth_rate",
                     "std_growth_rate"):
            assert getattr(sparse.estimate, name) == pytest.approx(
                getattr(banded.estimate, name), rel=1e-12), name

    def test_generator_method_is_order_dt_from_splitting(self):
        split = solve_stationary(PARAMS, grid_params=GRID, dt=0.05)
        continuous = solve_stationary(PARAMS, grid_params=GRID, dt=0.05,
                                      method="generator")
        difference = abs(continuous.estimate.mean_queue
                         - split.estimate.mean_queue)
        assert 0.0 < difference < 0.1
        assert continuous.estimate.method == "generator"

    @pytest.mark.parametrize("method", ["adi", "marching"])
    def test_unknown_method_rejected_with_the_choices(self, method):
        # "adi" is not a second name for "generator": the one stationary
        # solve has one name and one cache key.
        with pytest.raises(ConfigurationError) as excinfo:
            solve_stationary(PARAMS, grid_params=GRID, dt=0.05, method=method)
        assert "'splitting' or 'generator'" in str(excinfo.value)

    def test_density_is_normalised_and_nonnegative(self):
        density = solve_stationary(PARAMS, grid_params=GRID, dt=0.05)
        assert density.density.min() >= 0.0
        assert density.grid.total_mass(density.density) == pytest.approx(
            1.0, rel=1e-12)

    def test_estimate_round_trips_through_dict(self):
        estimate = solve_stationary(PARAMS, grid_params=GRID,
                                    dt=0.05).estimate
        assert StationaryEstimate.from_dict(estimate.to_dict()) == estimate

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_residual_floor_from_q_max_outflow(self, backend_name):
        # On 20 x 16 cells up to q_max = 30 the density reaches the open
        # q = q_max edge, so no vector meets the 1e-9 tolerance.  The error
        # reports the best residual reached (the inverse iteration's
        # ~1.8e-9, not the ~1e-7 of the row-replacement fallback) and
        # names the knob; with q_max = 40 the same cells solve.
        params = SystemParameters(sigma=0.4)
        coarse = GridParameters(q_max=30.0, nq=20, v_min=-1.2, v_max=1.2,
                                nv=16)
        with pytest.raises(ConvergenceError) as failure:
            solve_stationary(params, grid_params=coarse,
                             backend=backend_name)
        best = failure.value.residual
        assert 1e-9 < best < 1e-8
        message = str(failure.value)
        assert f"best residual of {best:.3e}" in message
        assert "q = q_max" in message and "--q-max" in message
        wider = solve_stationary(params, grid_params=replace(coarse,
                                                             q_max=40.0),
                                 backend=backend_name)
        assert wider.estimate.residual <= 1e-9


class TestDelayShiftedControl:
    def test_zero_delay_is_identity(self):
        inner = jrj_from_parameters(PARAMS)
        shifted = DelayShiftedControl(inner, 0.0, PARAMS.mu)
        queue = np.linspace(0.0, 20.0, 7)
        rate = np.linspace(0.2, 1.8, 7)
        np.testing.assert_array_equal(shifted.drift(queue, rate),
                                      inner.drift(queue, rate))

    def test_shift_clamps_at_empty_queue(self):
        inner = JRJControl(c0=0.1, c1=0.4, q_target=8.0)
        shifted = DelayShiftedControl(inner, 4.0, 1.0)
        # rate far above mu shifts the effective queue to zero, where the
        # JRJ law always increases.
        assert shifted.drift(1.0, 2.0) == inner.drift(0.0, 2.0)

    def test_positive_delay_changes_stationary_density(self):
        plain = solve_stationary(PARAMS, grid_params=GRID, dt=0.05)
        delayed = solve_stationary(PARAMS, grid_params=GRID, dt=0.05,
                                   delay=2.0)
        assert abs(delayed.estimate.mean_queue
                   - plain.estimate.mean_queue) > 0.1
        assert delayed.estimate.std_queue > plain.estimate.std_queue


class TestObjectives:
    def test_scalar_batch_parity(self):
        c0 = np.array([0.05, 0.1, 0.2, 0.4])
        c1 = np.array([0.2, 0.4, 0.1, 0.8])
        q_target = np.array([8.0, 8.0, 12.0, 4.0])
        mu = np.array([1.0, 0.8, 1.2, 1.0])
        grid_scores = score_gain_grid(PARAMS, c0, c1, q_target, mu,
                                      t_end=80.0)
        for index in range(c0.size):
            scalar = score_operating_point(
                PARAMS, c0[index], c1[index], q_target[index], mu[index],
                t_end=80.0)
            _approx_equal_scores(scalar, grid_scores.point(index))

    def test_unfairness_matches_jain_of_shares(self):
        from repro.config import SourceParameters
        sources = [SourceParameters(c0=0.1, c1=0.4),
                   SourceParameters(c0=PARAMS.c0, c1=PARAMS.c1)]
        shares = predicted_equilibrium_shares(sources)
        closed_form = deployment_unfairness(0.1, 0.4, PARAMS.c0, PARAMS.c1)
        assert closed_form == pytest.approx(1.0 - jain_fairness_index(shares),
                                            abs=1e-15)
        assert deployment_unfairness(PARAMS.c0, PARAMS.c1,
                                     PARAMS.c0, PARAMS.c1) == 0.0

    def test_unfairness_rejects_bad_reference(self):
        with pytest.raises(ConfigurationError):
            deployment_unfairness(0.1, 0.4, 0.0, 0.2)

    def test_weights_reject_negative(self):
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(oscillation=-1.0)

    def test_weights_round_trip(self):
        weights = ObjectiveWeights(oscillation=2.0, queue_error=0.5)
        assert ObjectiveWeights.from_dict(weights.to_dict()) == weights

    def test_split_batch_scores_like_the_whole(self):
        axes = default_axes(PARAMS, n_c0=3, n_c1=3, n_q_target=2, n_mu=2)
        grids = np.meshgrid(*axes.values(), indexing="ij")
        c0, c1, q_target, mu = (grid.ravel() for grid in grids)
        whole = score_gain_grid(PARAMS, c0, c1, q_target, mu, t_end=60.0)
        parts = [score_gain_grid(PARAMS, c0[part], c1[part],
                                 q_target[part], mu[part], t_end=60.0)
                 for part in (slice(0, 13), slice(13, 14), slice(14, None))]
        for name in SCORE_COLUMNS:
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name

    def test_peak_memory_stays_near_the_queue_block(self):
        # The sweep's horizon and step: each point records 1,501 queue
        # samples and no rate, and the analyses work in fixed-size blocks,
        # so the call's peak is its queue block plus a constant.
        axes = default_axes(PARAMS, n_c0=16, n_c1=16, n_q_target=2, n_mu=1)
        grids = np.meshgrid(*axes.values(), indexing="ij")
        c0, c1, q_target, mu = (grid.ravel() for grid in grids)
        assert c0.size == 512
        tracemalloc.start()
        try:
            score_gain_grid(PARAMS, c0, c1, q_target, mu, t_end=150.0,
                            dt=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        queue_block = c0.size * 1501 * 8
        assert peak <= 1.5 * queue_block + 2 * 2 ** 20

    def test_ranking_orders_by_score(self):
        scores = score_gain_grid(PARAMS, np.array([0.05, 0.4, 0.1]),
                                 np.array([0.2, 1.6, 0.4]),
                                 np.array([8.0, 8.0, 8.0]),
                                 np.array([1.0, 1.0, 1.0]), t_end=60.0)
        ranking = scores.ranking()
        ordered = scores.score[ranking]
        assert np.all(np.diff(ordered) >= 0.0)


class TestSettlingTimes:
    def test_scalar_batch_parity(self):
        control = jrj_from_parameters(PARAMS)
        batch = integrate_characteristic_batch(
            control, PARAMS, 0.0, 0.0, t_end=80.0, dt=0.1,
            columns={"c1": np.array([0.1, 0.4, 0.8])})
        batch_times = batch.settling_times(0.1)
        for index, c1 in enumerate((0.1, 0.4, 0.8)):
            member = integrate_characteristic(
                JRJControl(c0=PARAMS.c0, c1=c1, q_target=PARAMS.q_target),
                PARAMS, 0.0, 0.0, t_end=80.0, dt=0.1)
            assert settling_time(member, 0.1) == batch_times[index]

    def test_scan_matches_accumulate_oracle(self):
        times = np.linspace(0.0, 150.0, 1501)
        n_rows = times.size
        edges = np.empty((n_rows, 8))
        edges[:, 0] = 8.0 + 2.0 * np.sin(times)          # never settles
        edges[:, 1] = 5.0                                # flat from t=0
        edges[:, 2] = np.linspace(0.0, 9.0, n_rows)      # NaN final sample
        edges[-1, 2] = np.nan
        edges[:, 3] = 4.0                                # infinite final
        edges[-1, 3] = np.inf
        edges[:, 4] = 10.0 + 10.0 * np.exp(-times / 10.0)  # settles midway
        edges[:, 5] = 6.0                                # outside at t=0 only
        edges[0, 5] = 0.0
        edges[:, 6] = 6.0                                # outside just before
        edges[-2, 6] = 0.0                               # the horizon
        edges[:, 7] = 0.0                                # jumps at the horizon
        edges[-1, 7] = 9.0
        # Wide enough that the scan walks several row blocks, with last
        # outside samples spread over the whole horizon.
        rng = np.random.default_rng(11)
        settle = rng.integers(0, n_rows, 400)
        noise = 8.0 + rng.uniform(1.0, 3.0, (n_rows, 400))
        noise[np.arange(n_rows)[:, None] >= settle[None, :]] = 8.0
        queue = np.ascontiguousarray(np.hstack([edges, noise]))
        batch_size = queue.shape[1]
        assert n_rows > 3 * (trajectory_module._SCAN_ELEMENTS // batch_size)
        batch = CharacteristicBatch(
            times=times, queue=queue, rate=None, mu=np.ones(batch_size),
            q_target=np.full(batch_size, 8.0))
        with np.errstate(invalid="ignore"):
            got = batch.settling_times(0.1)
            want = _settling_times_oracle(batch, 0.1)
        assert got.tobytes() == want.tobytes()
        assert got[1] == got[2] == got[3] == 0.0
        assert got[5] == times[1] and got[6] == got[7] == times[-1]

    def test_settling_time_is_finite_and_bounded(self):
        control = jrj_from_parameters(PARAMS)
        trajectory = integrate_characteristic(control, PARAMS, 0.0, 0.0,
                                              t_end=80.0, dt=0.1)
        settle = settling_time(trajectory, 0.1)
        assert 0.0 <= settle <= 80.0

    def test_oscillation_batch_matches_scalar(self):
        # A chunk of the design sweep's own trajectories (gain grid of
        # `repro design sweep`, t_end 150, dt 0.1).
        axes = default_axes(PARAMS, n_c0=8, n_c1=8, n_q_target=2, n_mu=2)
        grids = np.meshgrid(*axes.values(), indexing="ij")
        c0, c1, q_target, mu = (grid.ravel() for grid in grids)
        batch = integrate_characteristic_batch(
            jrj_from_parameters(PARAMS), PARAMS, 0.0, 0.0, t_end=150.0,
            dt=0.1, columns={"c0": c0, "c1": c1, "q_target": q_target,
                             "mu": mu})
        _assert_oscillation_oracle(batch.times, batch.queue)

    def test_oscillation_batch_matches_scalar_on_edge_columns(self):
        times = np.linspace(0.0, 60.0, 601)
        window = times >= 30.0
        step = np.where(times >= 45.0, 6.0, 5.0)
        spike = np.zeros_like(times)
        spike[500] = 1.0
        columns = {
            "constant": np.full_like(times, 5.0),
            "below floor": 4.0 + 0.01 * np.cos(2.0 * times),
            "decaying": 8.0 + 4.0 * np.exp(-times / 8.0) * np.sin(times),
            "white noise": np.random.default_rng(7).normal(size=times.size),
            "step": step,
            "single spike": spike,
            # Below the floor, with ~1e-14 of spectral power.
            "faint": 3.0 + 1e-9 * np.sin(times),
            "sine": 8.0 + np.sin(times),
        }
        values = np.column_stack(list(columns.values()))
        _assert_oscillation_oracle(times, values)
        faint = values[window, list(columns).index("faint")]
        with pytest.raises(AnalysisError):
            dominant_period(faint, 0.1)


def _settling_times_oracle(batch, tolerance):
    """The whole-block form of ``CharacteristicBatch.settling_times``: a
    reverse cumulative AND over the ``(n, batch)`` in-band mask."""
    final = batch.final_queues
    band = np.maximum(tolerance * np.abs(final), tolerance)
    inside = np.abs(batch.queue - final[None, :]) <= band[None, :]
    settled = np.logical_and.accumulate(inside[::-1], axis=0)[::-1]
    return batch.times[np.argmax(settled, axis=0)]


def _oscillation_metrics_oracle(times, values, steady_fraction=0.5,
                                amplitude_floor=0.05):
    """One column analysed on its own: the former scalar routine."""
    start = int((1.0 - steady_fraction) * values.size)
    window_times = times[start:]
    window_values = values[start:]
    amplitude = 0.5 * float(np.max(window_values) - np.min(window_values))
    sustained = amplitude > amplitude_floor
    peaks = detect_peaks(window_values)
    period = float("nan")
    if sustained and window_values.size >= 8:
        dt = float(np.mean(np.diff(window_times)))
        try:
            period = dominant_period(window_values, dt)
        except AnalysisError:
            if len(peaks) >= 2:
                period = float(np.mean(np.diff(window_times[peaks])))
    return (np.float64(amplitude), np.float64(period), np.bool_(sustained),
            np.float64(np.mean(window_values)), np.int64(len(peaks)))


def _assert_oscillation_oracle(times, values, **options):
    """Batch and scalar metrics equal the oracle's, bit for bit, and so
    does a batch of tiled copies wider than one column block."""
    batch = oscillation_metrics_batch(times, values, **options)
    amplitude, mean_value = oscillation_envelope_batch(
        times, values, steady_fraction=options.get("steady_fraction", 0.5))
    assert amplitude.tobytes() == batch.amplitude.tobytes()
    assert mean_value.tobytes() == batch.mean_value.tobytes()
    fields = ("amplitude", "period", "sustained", "mean_value", "n_peaks")
    for index in range(values.shape[1]):
        want = _oscillation_metrics_oracle(times, values[:, index], **options)
        scalar = oscillation_metrics(times, np.ascontiguousarray(
            values[:, index]), **options)
        for name, expected in zip(fields, want):
            got_batch = getattr(batch, name)[index]
            got_scalar = type(expected)(getattr(scalar, name))
            assert got_batch.tobytes() == expected.tobytes(), (index, name)
            assert got_scalar.tobytes() == expected.tobytes(), (index, name)

    steady_fraction = options.get("steady_fraction", 0.5)
    width = times.size - int((1.0 - steady_fraction) * times.size)
    block_columns = oscillations._BLOCK_ELEMENTS // width
    copies = block_columns // values.shape[1] + 2
    wide = oscillation_metrics_batch(times, np.tile(values, (1, copies)),
                                     **options)
    assert wide.batch_size > block_columns
    for name in fields:
        assert (getattr(wide, name).tobytes()
                == np.tile(getattr(batch, name), copies).tobytes()), name


class TestTuner:
    def test_small_sweep_end_to_end(self):
        axes = default_axes(PARAMS, n_c0=3, n_c1=3, n_q_target=2, n_mu=2)
        result = design_gains(PARAMS, axes["c0_values"], axes["c1_values"],
                              axes["q_target_values"], axes["mu_values"],
                              top_k=4, chunk_size=10, t_end=60.0)
        assert result.n_points == 36
        assert result.chunks == 4
        assert len(result.ranked) == 4
        assert result.n_refined == 4
        assert all(gain.refined for gain in result.ranked)
        assert all(np.isfinite(gain.stationary_mean_queue)
                   for gain in result.ranked)
        scores = [gain.score for gain in result.ranked]
        assert scores == sorted(scores)
        assert result.best is result.ranked[0]

    def test_sigma_zero_skips_refinement(self):
        params = SystemParameters(mu=1.0, q_target=8.0, c0=0.1, c1=0.4,
                                  sigma=0.0)
        result = design_gains(params, [0.05, 0.1], [0.2, 0.4], [8.0], [1.0],
                              top_k=2, t_end=60.0)
        assert result.n_refined == 0
        assert not any(gain.refined for gain in result.ranked)
        assert all(math.isnan(gain.stationary_mean_queue)
                   for gain in result.ranked)

    def test_pareto_front_is_non_dominated(self):
        rng = np.random.default_rng(7)
        amplitude = rng.uniform(0.0, 1.0, 60)
        relaxation = rng.uniform(0.0, 100.0, 60)
        front = pareto_front_indices(amplitude, relaxation)
        assert front.size >= 1
        for index in front:
            dominated = ((amplitude <= amplitude[index])
                         & (relaxation <= relaxation[index])
                         & ((amplitude < amplitude[index])
                            | (relaxation < relaxation[index])))
            assert not dominated.any()

    def test_refinement_survives_underresolved_grid(self):
        # A queue extent far below the operating point starves the
        # stationary solve of mass; the sweep must widen-retry or fall
        # back to the coarse entry instead of raising.
        tiny = GridParameters(q_max=4.0, nq=12, v_min=-1.2, v_max=1.2,
                              nv=12)
        result = design_gains(PARAMS, [0.4], [0.1], [8.0], [1.0],
                              top_k=1, t_end=60.0, refine_grid=tiny)
        assert len(result.ranked) == 1
        gain = result.ranked[0]
        assert gain.refined == (result.n_refined == 1)
        if not gain.refined:
            assert math.isnan(gain.stationary_mean_queue)

    def test_ranked_gain_round_trips(self):
        gain = RankedGain(rank=0, c0=0.1, c1=0.4, q_target=8.0, mu=1.0,
                          score=0.5, oscillation_amplitude=0.1,
                          oscillation_period=12.0, relaxation_time=20.0,
                          queue_error=0.3, unfairness=0.0,
                          stationary_mean_queue=6.4,
                          stationary_std_queue=2.3, refined=True)
        assert RankedGain.from_dict(gain.to_dict()) == gain

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            design_gains(PARAMS, top_k=0)
        with pytest.raises(ConfigurationError):
            design_gains(PARAMS, c0_values=[])
        with pytest.raises(ConfigurationError):
            design_gains(PARAMS, chunk_size=0)
        with pytest.raises(ConfigurationError):
            design_gains(PARAMS, dt=0.0)

    def test_chunking_leaves_results_unchanged(self, monkeypatch):
        axes = default_axes(PARAMS, n_c0=3, n_c1=3, n_q_target=2, n_mu=2)

        def sweep(chunk_size):
            return design_gains(PARAMS, **axes, top_k=4, t_end=60.0,
                                refine=False, chunk_size=chunk_size)

        sizes = []
        original = objectives.score_gain_grid

        def counted(params, c0, *args, **kwargs):
            sizes.append(c0.size)
            return original(params, c0, *args, **kwargs)

        monkeypatch.setattr(tuner, "score_gain_grid", counted)
        whole = sweep(None)
        assert (whole.chunks, sizes) == (1, [36])

        def assert_same(chunk_size, chunk_sizes):
            sizes.clear()
            result = sweep(chunk_size)
            assert (result.chunks, sizes) == (len(chunk_sizes), chunk_sizes)
            # repr() compares floats bit for bit and NaN equal to NaN.
            assert repr(result.ranked) == repr(whole.ranked)
            assert repr(result.pareto) == repr(whole.pareto)

        assert_same(7, [6] * 6)
        assert_same(36, [36])
        # The automatic rule: the fewest equal chunks whose 601-sample
        # queue series fit the byte budget.
        monkeypatch.setattr(tuner, "CHUNK_QUEUE_BYTES", 10 * 601 * 8)
        assert_same(None, [9] * 4)


#: A 120-point sweep grid whose ranked and Pareto points each include both
#: finite and NaN oscillation periods under the horizon, ``top_k`` and
#: weights of :class:`TestReportedPeriods`.  A fast-settling point swings
#: little, so most fronts hold NaN periods alone; this one's large gains and
#: wide target range put a sustained oscillation on the front too, and the
#: weights rank by queue error and unfairness alone, so that point is on its
#: chunk's front but not in the chunk's top 3.
PERIOD_AXES = {"c0_values": np.geomspace(0.05, 2.0, 6),
               "c1_values": np.geomspace(0.5, 8.0, 5),
               "q_target_values": np.array([4.0, 30.0]),
               "mu_values": np.array([0.8, 1.2])}


def _flat_grid(axes):
    """The sweep's row-major ``(c0, c1, q_target, mu)`` point columns."""
    mesh = np.meshgrid(*axes.values(), indexing="ij")
    return tuple(m.ravel() for m in mesh)


class TestReportedPeriods:
    """The coarse stage computes an oscillation period only for the points
    a chunk can report -- its top_k and its Pareto front -- and every
    period the sweep reports is the scalar path's."""

    TOP_K = 3
    T_END = 80.0
    WEIGHTS = ObjectiveWeights(oscillation=0.0, relaxation=0.0)

    def _sweep(self, retention="full", chunk_size=None):
        return design_gains(PARAMS, **PERIOD_AXES, weights=self.WEIGHTS,
                            top_k=self.TOP_K, t_end=self.T_END, refine=False,
                            retention=retention, chunk_size=chunk_size)

    @pytest.mark.parametrize("retention", ["full", "moments", "none"])
    def test_chunked_sweep_reports_the_scalar_periods(self, retention):
        whole = self._sweep()
        chunked = self._sweep(retention, chunk_size=25)
        assert (whole.chunks, chunked.chunks) == (1, 5)
        # repr() compares floats bit for bit and NaN equal to NaN.
        assert repr(chunked.ranked) == repr(whole.ranked)
        if retention == "none":
            assert chunked.pareto == []
        else:
            assert repr(chunked.pareto) == repr(whole.pareto)
        for gain in chunked.ranked + chunked.pareto:
            scalar = score_operating_point(PARAMS, gain.c0, gain.c1,
                                           gain.q_target, gain.mu,
                                           t_end=self.T_END)
            assert (repr(gain.oscillation_period)
                    == repr(scalar.oscillation_period)), gain
        for gains in (chunked.ranked, chunked.pareto or whole.pareto):
            periods = [gain.oscillation_period for gain in gains]
            assert any(math.isnan(period) for period in periods)
            assert any(math.isfinite(period) for period in periods)

    @pytest.mark.parametrize("retention", ["full", "moments", "none"])
    def test_sweep_analyses_only_reportable_points(self, monkeypatch,
                                                   retention):
        analysed = []
        original = objectives.oscillation_metrics_batch

        def counted(times, values, **kwargs):
            analysed.append(values.shape[1])
            return original(times, values, **kwargs)

        monkeypatch.setattr(objectives, "oscillation_metrics_batch", counted)
        result = self._sweep(retention, chunk_size=25)
        # One spectrum call per 24-point chunk, over its top_k and, unless
        # the sweep keeps no front, the chunk's front.
        assert len(analysed) == result.chunks == 5
        if retention == "none":
            assert analysed == [self.TOP_K] * 5
        else:
            assert all(self.TOP_K <= count < 24 for count in analysed)
            assert max(analysed) > self.TOP_K

    def test_default_grid_call_computes_every_period(self):
        c0, c1, q_target, mu = _flat_grid(PERIOD_AXES)
        every = score_gain_grid(PARAMS, c0, c1, q_target, mu,
                                t_end=self.T_END)
        batch = integrate_characteristic_batch(
            jrj_from_parameters(PARAMS), PARAMS, 0.0, 0.0, t_end=self.T_END,
            dt=0.1, columns={"c0": c0, "c1": c1, "q_target": q_target,
                             "mu": mu})
        want = oscillation_metrics_batch(batch.times, batch.queue).period
        assert every.oscillation_period.tobytes() == want.tobytes()
        assert 0 < np.isnan(want).sum() < want.size

        # A selector is given the scores with every period NaN; only its
        # points get one, and no other column changes.
        chosen = np.flatnonzero(np.isfinite(want))[::7]
        offered = []

        def select(scores):
            offered.append(scores.oscillation_period.copy())
            return chosen

        picked = score_gain_grid(PARAMS, c0, c1, q_target, mu,
                                 t_end=self.T_END, period_points=select)
        assert len(offered) == 1 and np.isnan(offered[0]).all()
        for name in SCORE_COLUMNS:
            if name != "oscillation_period":
                assert (getattr(picked, name).tobytes()
                        == getattr(every, name).tobytes()), name
        period = picked.oscillation_period
        assert period[chosen].tobytes() == want[chosen].tobytes()
        assert np.isnan(np.delete(period, chosen)).all()

    def test_design_chunk_point_computes_no_spectrum(self, monkeypatch):
        c0_values, c1_values = (0.05, 0.1, 0.4), (0.2, 0.4)
        c0 = np.repeat(c0_values, 2)
        c1 = np.tile(c1_values, 3)
        scores = score_gain_grid(PARAMS, c0, c1, np.full(6, 8.0),
                                 np.full(6, 1.0), t_end=60.0)

        analysed = []
        original = objectives.oscillation_metrics_batch

        def counted(times, values, **kwargs):
            analysed.append(values.shape[1])
            return original(times, values, **kwargs)

        monkeypatch.setattr(objectives, "oscillation_metrics_batch", counted)
        value = design_chunk_point(PARAMS, c0_values=c0_values,
                                   c1_values=c1_values, q_target=8.0,
                                   mu=1.0, t_end=60.0, top_k=3)
        want = [scores.point(int(index)) for index in scores.ranking()[:3]]
        assert [(entry["c0"], entry["c1"], entry["score"],
                 entry["oscillation_amplitude"], entry["relaxation_time"],
                 entry["queue_error"], entry["unfairness"])
                for entry in value["top"]] == [
            (point.c0, point.c1, point.score, point.oscillation_amplitude,
             point.relaxation_time, point.queue_error, point.unfairness)
            for point in want]
        assert analysed == [0]


class TestGainAxisValidation:
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    @pytest.mark.parametrize("axis, values, first_bad", [
        ("c0", [0.1, float("nan")], float("nan")),
        ("c1", [0.0, 0.4], 0.0),
        ("q_target", [8.0, -1.0], -1.0),
        ("mu", [-1.0], -1.0),
        ("mu", [1.0, float("inf")], float("inf")),
    ])
    def test_bad_axis_rejected_before_any_trajectory(
            self, monkeypatch, sigma, axis, values, first_bad):
        integrated = []

        def no_trajectory(*args, **kwargs):
            integrated.append(args)
            raise AssertionError("a trajectory was integrated")

        monkeypatch.setattr(objectives, "integrate_characteristic_batch",
                            no_trajectory)
        params = replace(PARAMS, sigma=sigma)
        axes = {"c0": [0.1], "c1": [0.4], "q_target": [8.0], "mu": [1.0],
                axis: values}
        message = rf"axis {axis} .*got {re.escape(repr(first_bad))}"
        with pytest.raises(ConfigurationError, match=message):
            design_gains(params, axes["c0"], axes["c1"], axes["q_target"],
                         axes["mu"], top_k=1, t_end=60.0)
        with pytest.raises(ConfigurationError, match=message):
            score_gain_grid(params, *(np.repeat(axes[name], 2) for name in
                                      ("c0", "c1", "q_target", "mu")),
                            t_end=60.0)
        assert integrated == []


class TestRunnerIntegration:
    def test_design_matrix_is_registered(self):
        definition = get_matrix("design-gain-grid")
        jobs = definition.build(PARAMS, None, None)
        assert len(jobs) == 16
        assert all(dict(spec.overrides)["c0_values"] for spec in jobs)
        # Overrides must stay hashable for the frozen JobSpec.
        assert all(isinstance(hash(spec), int) for spec in jobs)

    def test_design_chunk_point_orders_top_entries(self):
        value = design_chunk_point(PARAMS, c0_values=(0.05, 0.1, 0.4),
                                   c1_values=(0.2, 0.4), q_target=8.0,
                                   mu=1.0, t_end=60.0, top_k=3)
        assert value["n_points"] == 6
        scores = [entry["score"] for entry in value["top"]]
        assert scores == sorted(scores)
        assert value["best_score"] == scores[0]


class TestCachePrune:
    def test_prune_removes_only_old_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"x": 1})
        cache.put("b" * 64, {"x": 2})
        now = 1_000_000_000.0
        # Rewrite one entry's creation stamp to look a week stale.
        import json
        meta = tmp_path / "objects" / "aa" / ("a" * 64) / "meta.json"
        data = json.loads(meta.read_text())
        data["created"] = now - 8 * 86400
        meta.write_text(json.dumps(data))
        other = tmp_path / "objects" / "bb" / ("b" * 64) / "meta.json"
        data = json.loads(other.read_text())
        data["created"] = now - 3600
        other.write_text(json.dumps(data))

        removed = cache.prune(7 * 86400, now=now)
        assert removed == 1
        assert ("a" * 64) not in cache
        assert ("b" * 64) in cache

    def test_prune_drops_corrupt_metadata(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("c" * 64, {"x": 3})
        meta = tmp_path / "objects" / "cc" / ("c" * 64) / "meta.json"
        meta.write_text("{not json")
        assert cache.prune(86400, now=1_000_000_000.0) == 1
        assert len(cache) == 0


class TestDesignCli:
    def test_design_stationary_smoke(self, capsys):
        from repro.cli import main
        code = main(["design", "stationary", "--sigma", "0.5",
                     "--c0", "0.1", "--c1", "0.4", "--q-target", "8",
                     "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stationary density" in out
        assert "residual" in out

    def test_design_sweep_smoke(self, capsys):
        from repro.cli import main
        code = main(["design", "sweep", "--sigma", "0.5",
                     "--c0", "0.1", "--c1", "0.4", "--q-target", "8",
                     "--n-c0", "2", "--n-c1", "2", "--n-q-target", "1",
                     "--n-mu", "1", "--top-k", "2", "--t-end", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ranked gains" in out
        assert "Pareto front" in out

    def test_cache_prune_requires_age(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "7"]) == 0
        out = capsys.readouterr().out
        assert "pruned 0 cache entries" in out
