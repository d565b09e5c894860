"""Unit tests for the Crank-Nicolson diffusion step."""

import numpy as np
import pytest

from repro.core.diffusion import CrankNicolsonDiffusion
from repro.numerics.backend import NumpyBackend
from repro.numerics.grids import PhaseGrid2D, UniformGrid1D


@pytest.fixture
def grid():
    return PhaseGrid2D(UniformGrid1D(0.0, 20.0, 100), UniformGrid1D(-1.0, 1.0, 4))


def _diffuse(density, grid, sigma, dt):
    return CrankNicolsonDiffusion(grid, sigma).step(density, dt)


def _reference_diffuse(density, grid, sigma, dt):
    """Per-call Crank-Nicolson step: dense solve of (I - rL) f = (I + rL) d."""
    nq = grid.shape[0]
    r = 0.5 * sigma * sigma * dt / (2.0 * grid.dq * grid.dq)
    laplacian = (np.diag(np.full(nq - 1, 1.0), 1)
                 + np.diag(np.full(nq - 1, 1.0), -1)
                 - 2.0 * np.eye(nq))
    laplacian[0, 0] = laplacian[-1, -1] = -1.0  # Neumann (no-flux) rows
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

    def test_dense_and_factorized_paths_agree(self, grid):
        density = grid.gaussian_density(10.0, 0.0, 1.0, 0.3)
        dense = CrankNicolsonDiffusion(grid, sigma=0.5)
        factorized = CrankNicolsonDiffusion(grid, sigma=0.5, dense_limit=0)
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
