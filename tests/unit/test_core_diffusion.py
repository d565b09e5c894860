"""Unit tests for the Crank-Nicolson diffusion step."""

import numpy as np
import pytest

from repro.core import diffusion
from repro.core.diffusion import CrankNicolsonDiffusion
from repro.exceptions import ConfigurationError
from repro.numerics.backend import NumpyBackend
from repro.numerics.grids import PhaseGrid2D, UniformGrid1D

#: A tile keeps every entry of at least this fraction of max|M|.
BAND_THRESHOLD = 2.0 ** -64
#: Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0 ** -53


@pytest.fixture
def grid():
    return PhaseGrid2D(UniformGrid1D(0.0, 20.0, 100), UniformGrid1D(-1.0, 1.0, 4))


def _diffuse(density, grid, sigma, dt):
    return CrankNicolsonDiffusion(grid, sigma).step(density, dt)


def _laplacian(nq):
    laplacian = (np.diag(np.full(nq - 1, 1.0), 1)
                 + np.diag(np.full(nq - 1, 1.0), -1)
                 - 2.0 * np.eye(nq))
    laplacian[0, 0] = laplacian[-1, -1] = -1.0  # Neumann (no-flux) rows
    return laplacian


def _full_operator(nq, r):
    """The full combined operator ``M``, flushed below 1e-150 like the step's."""
    laplacian = _laplacian(nq)
    identity = np.eye(nq)
    combined = np.linalg.solve(identity - r * laplacian,
                               identity + r * laplacian)
    combined[np.abs(combined) < 1e-150] = 0.0
    return combined


def _reference_diffuse(density, grid, sigma, dt):
    """Per-call Crank-Nicolson step: dense solve of (I - rL) f = (I + rL) d."""
    nq = grid.shape[0]
    r = 0.5 * sigma * sigma * dt / (2.0 * grid.dq * grid.dq)
    laplacian = _laplacian(nq)
    identity = np.eye(nq)
    updated = np.linalg.solve(identity - r * laplacian,
                              (identity + r * laplacian) @ density)
    return np.maximum(updated, 0.0)


class TestCrankNicolsonDiffusion:
    def test_zero_sigma_is_identity(self, grid):
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        updated = _diffuse(density, grid, sigma=0.0, dt=0.1)
        assert np.array_equal(updated, density)

    def test_conserves_mass(self, grid):
        operator = CrankNicolsonDiffusion(grid, sigma=0.5)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        updated = density.copy()
        for _ in range(50):
            updated = operator.step(updated, 0.1)
        assert grid.total_mass(updated) == pytest.approx(1.0, rel=1e-10)

    def test_variance_grows_at_sigma_squared_rate(self, grid):
        # For pure diffusion Var[Q](t) = Var[Q](0) + sigma^2 * t.
        sigma = 0.4
        dt = 0.05
        n_steps = 200
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        q_mesh, _ = grid.meshgrid()

        def variance(d):
            weight = d * grid.cell_area
            weight = weight / np.sum(weight)
            mean = np.sum(q_mesh * weight)
            return np.sum((q_mesh - mean) ** 2 * weight)

        initial_variance = variance(density)
        operator = CrankNicolsonDiffusion(grid, sigma)
        updated = density.copy()
        for _ in range(n_steps):
            updated = operator.step(updated, dt)
        expected = initial_variance + sigma ** 2 * n_steps * dt
        assert variance(updated) == pytest.approx(expected, rel=0.05)

    def test_mean_preserved_in_interior(self, grid):
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        q_mesh, _ = grid.meshgrid()
        operator = CrankNicolsonDiffusion(grid, 0.3)
        updated = density.copy()
        for _ in range(20):
            updated = operator.step(updated, 0.1)
        mean_before = np.sum(q_mesh * density) / np.sum(density)
        mean_after = np.sum(q_mesh * updated) / np.sum(updated)
        assert mean_after == pytest.approx(mean_before, abs=0.05)

    def test_smooths_sharp_peak(self, grid):
        density = np.zeros(grid.shape)
        density[50, :] = 1.0
        density = grid.normalize(density)
        updated = _diffuse(density, grid, sigma=1.0, dt=0.5)
        assert np.max(updated) < np.max(density)
        assert np.all(updated >= 0.0)

    def test_large_dt_remains_stable(self, grid):
        # Crank-Nicolson is unconditionally stable; a huge step must not blow up.
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        updated = _diffuse(density, grid, sigma=1.0, dt=50.0)
        assert np.all(np.isfinite(updated))
        assert grid.total_mass(updated) == pytest.approx(1.0, rel=1e-8)


class TestCrankNicolsonDiffusionOperator:
    def test_mass_conserved_under_cached_operator(self, grid):
        # Many steps with the same dt all hit one cached operator; the mass
        # must stay exactly conserved throughout.
        operator = CrankNicolsonDiffusion(grid, sigma=0.5)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        for _ in range(100):
            density = operator.step(density, 0.1)
        assert grid.total_mass(density) == pytest.approx(1.0, rel=1e-10)
        assert len(operator._steps) == 1  # single cached diffusion number

    def test_operator_matches_stateless_function(self, grid):
        # Both the first and the repeated use of one diffusion number match
        # the per-call solve.
        operator = CrankNicolsonDiffusion(grid, sigma=0.4)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        via_function = _reference_diffuse(density, grid, 0.4, 0.2)
        for _ in range(2):
            via_operator = operator.step(density, 0.2)
            assert np.allclose(via_operator, via_function, rtol=0.0,
                               atol=1e-13)

    def test_first_step_of_new_r_is_dense_without_factorization(self, grid):
        factorizations = []

        class CountingBackend(NumpyBackend):
            def factorize_tridiagonal(self, *bands):
                factorizations.append(bands)
                return super().factorize_tridiagonal(*bands)

        operator = CrankNicolsonDiffusion(grid, sigma=0.4,
                                          backend=CountingBackend())
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        for dt in (0.2, 0.13):
            assert np.allclose(operator.step(density, dt),
                               _reference_diffuse(density, grid, 0.4, dt),
                               rtol=0.0, atol=1e-13)
        assert factorizations == []

    def test_repeated_r_reuses_its_entry(self, grid):
        operator = CrankNicolsonDiffusion(grid, sigma=0.5)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        operator.step(density, 0.1)
        (entry,) = operator._steps.values()
        operator.step(density, 0.2)
        operator.step(density, 0.1)
        assert len(operator._steps) == 2
        assert next(reversed(operator._steps.values())) is entry

    def test_operator_cache_is_bounded(self, grid):
        operator = CrankNicolsonDiffusion(grid, sigma=0.5)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        for dt in np.linspace(0.01, 0.2, 20):
            operator.step(density, dt)
        assert len(operator._steps) == 16

    def test_dense_and_factorized_paths_agree(self, grid, monkeypatch):
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        dense = CrankNicolsonDiffusion(grid, sigma=0.5)
        monkeypatch.setattr(diffusion, "DENSE_NQ_LIMIT", 0)
        factorized = CrankNicolsonDiffusion(grid, sigma=0.5)
        a = density
        b = density
        for _ in range(10):
            a = dense.step(a, 0.1)
            b = factorized.step(b, 0.1)
        assert np.allclose(a, b, rtol=0.0, atol=1e-13)

    def test_preallocated_out(self, grid):
        operator = CrankNicolsonDiffusion(grid, sigma=0.5)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        operator.step(density, 0.1)  # warm the operator cache
        out = np.empty_like(density)
        returned = operator.step(density, 0.1, out=out)
        assert returned is out
        assert np.array_equal(out, operator.step(density, 0.1))

    def test_sigma_zero_step_copies_into_out(self, grid):
        operator = CrankNicolsonDiffusion(grid, sigma=0.0)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        out = np.empty_like(density)
        operator.step(density, 0.1, out=out)
        assert np.array_equal(out, density)

    def test_subcycled_large_diffusion_number(self, grid):
        # r > 2 triggers the iterative sub-cycling; mass and positivity hold.
        operator = CrankNicolsonDiffusion(grid, sigma=1.0)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        updated = operator.step(density, 50.0)
        assert np.all(updated >= 0.0)
        assert grid.total_mass(updated) == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_out_sharing_memory_with_density_is_rejected(self, grid, sigma):
        operator = CrankNicolsonDiffusion(grid, sigma=sigma)
        nq, nv = grid.shape
        buffer = np.zeros((nq + 1, nv))
        buffer[:nq] = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        before = buffer.copy()
        density = buffer[:nq]
        with pytest.raises(ConfigurationError, match="share memory"):
            operator.step(density, 0.1, out=density)
        # An overlapping view, shifted by one row.
        with pytest.raises(ConfigurationError, match="share memory"):
            operator.step(density, 0.1, out=buffer[1:])
        assert np.array_equal(buffer, before)  # nothing was written


def _grid(nq):
    """A queue axis of *nq* cells of width 0.2, as on the fp-density grid
    (200 × 101, q_max 40): there σ = 0.5 gives r ≈ 0.075 on a free-running
    CFL substep and r ≈ 0.0034 on a sliver, σ = 2.0 gives r ≈ 1.2 and
    0.055."""
    return PhaseGrid2D(UniformGrid1D(0.0, 0.2 * nq, nq),
                       UniformGrid1D(-1.5, 1.5, 101))


def _dt_for(grid, sigma, r):
    return r * 2.0 * grid.dq * grid.dq / (0.5 * sigma * sigma)


def _cached_step(operator):
    """The one cached ``(r, step)`` of *operator*."""
    ((r, step),) = operator._steps.items()
    return r, step


def _product_bound(combined, density):
    """Largest gap between the tiled and the full ``max(M @ f, 0)``.

    The dropped entries contribute at most ``nq · 2⁻⁶⁴ · max|M| · max f``
    to any cell; each of the two products rounds by at most
    ``γ_nq · (|M| @ |f|)``, with ``γ_n = n·u / (1 − n·u)``.
    """
    nq = combined.shape[0]
    dropped = nq * BAND_THRESHOLD * np.abs(combined).max() * np.abs(
        density).max()
    gamma = nq * UNIT_ROUNDOFF / (1.0 - nq * UNIT_ROUNDOFF)
    rounding = 2.0 * gamma * (np.abs(combined) @ np.abs(density)).max()
    return dropped + rounding


class TestBandTiles:
    """The dense operator stored as 32-row tiles of its numerical band."""

    @pytest.mark.parametrize("sigma, r", [(0.5, 0.0034), (2.0, 0.055),
                                          (0.5, 0.075), (2.0, 1.2),
                                          (2.0, 0.3)])
    def test_step_matches_full_operator(self, sigma, r):
        grid = _grid(200)
        operator = CrankNicolsonDiffusion(grid, sigma)
        # Mass in every cell, so every dropped entry meets a full-size value.
        density = np.random.default_rng(3).uniform(0.5, 1.0, grid.shape)
        got = operator.step(density, _dt_for(grid, sigma, r))
        r_used, _ = _cached_step(operator)
        assert r_used == pytest.approx(r, rel=1e-12)
        combined = _full_operator(200, r_used)
        want = np.maximum(combined @ density, 0.0)
        assert np.abs(got - want).max() <= _product_bound(combined, density)

    @pytest.mark.parametrize("nq, n_tiles", [(200, 7), (400, 13)])
    def test_subcycled_step_matches_full_operator(self, nq, n_tiles):
        # r = 3 runs two substeps of r = 1.5.
        grid = _grid(nq)
        operator = CrankNicolsonDiffusion(grid, 2.0)
        density = np.random.default_rng(4).uniform(0.5, 1.0, grid.shape)
        got = operator.step(density, _dt_for(grid, 2.0, 3.0))
        sub_r, step = _cached_step(operator)
        assert sub_r == pytest.approx(1.5, rel=1e-12)
        assert len(step.tiles) == n_tiles
        combined = _full_operator(nq, sub_r)
        norm = np.abs(combined).sum(axis=1).max()
        want, bound = density, 0.0
        for _ in range(2):
            bound = norm * bound + _product_bound(combined, want)
            want = np.maximum(combined @ want, 0.0)
        assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("nq, r, n_tiles, max_share", [
        (50, 0.0034, 2, 0.7), (50, 0.075, 2, 0.9), (120, 0.034, 4, 0.45),
        (200, 0.0034, 7, 0.25), (200, 0.055, 7, 0.3), (200, 0.075, 7, 0.3),
        (200, 1.2, 7, 0.6), (400, 1.5, 13, 0.35)])
    def test_tiles_hold_exactly_the_band(self, nq, r, n_tiles, max_share):
        grid = _grid(nq)
        operator = CrankNicolsonDiffusion(grid, 0.5)
        operator.step(np.ones(grid.shape), _dt_for(grid, 0.5, r))
        r_used, step = _cached_step(operator)
        combined = _full_operator(nq, r_used)
        assert len(step.tiles) == n_tiles
        # The tiles store at most this share of M's nq² entries.
        stored = sum(block.size for _, _, block in step.tiles)
        assert stored <= max_share * nq * nq
        significant = np.abs(combined) >= (
            BAND_THRESHOLD * np.abs(combined).max())
        next_row = 0
        for rows, cols, block in step.tiles:
            # The tiles partition the rows, in order, 32 at a time.
            assert rows == slice(next_row, min(next_row + 32, nq))
            next_row = rows.stop
            assert np.array_equal(block, combined[rows, cols])
            # Nothing significant lies outside the column range, and its
            # first and last columns each hold a significant entry.
            band = significant[rows]
            assert not band[:, :cols.start].any()
            assert not band[:, cols.stop:].any()
            assert band[:, cols.start].any()
            assert band[:, cols.stop - 1].any()
        assert next_row == nq

    def test_tiled_steps_conserve_mass(self):
        # 2,400 substeps alternating a free-running and a sliver step, as
        # in one fp-density solve at σ = 0.5.
        grid = _grid(200)
        operator = CrankNicolsonDiffusion(grid, 0.5)
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        other = np.empty_like(density)
        steps = [_dt_for(grid, 0.5, r) for r in (0.075, 0.0034)]
        for index in range(2400):
            operator.step(density, steps[index % 2], out=other)
            density, other = other, density
        assert all(len(step.tiles) > 1 for step in operator._steps.values())
        assert abs(grid.total_mass(density) - 1.0) <= 1e-12
