"""Golden stationary-solve values and marching cross-checks.

The direct stationary solver (:mod:`repro.design.stationary`) claims the
null vector of the one-step splitting matrix reproduces the time-marched
density's limit exactly.  These tests pin that claim on two golden
configurations -- plain diffusion and delayed feedback through the
shifted-drift closure -- at 1e-6 relative against long marches, plus the absolute moment values so that silent
numerical drift in either path is caught.  The pinned moments are also
checked, without the marches, on every backend.  A property test checks the
null-space solve is invariant to the COO triplet ordering on every
backend.
"""

import numpy as np
import pytest

from repro.config import GridParameters, SystemParameters
from repro.core.generator import assemble_generator
from repro.design import compare_with_marching, solve_stationary
from repro.numerics import available_backends, get_backend

# Canonical golden discretisation: coarse enough to march far, fine enough
# that the density is well resolved; dt=0.05 stays below the free-running
# CFL step so marching takes uniform substeps (the splitting fixed point
# then matches the march exactly, not just to O(dt)).
GRID = GridParameters(q_max=30.0, nq=48, v_min=-1.2, v_max=1.2, nv=36)
PARAMS = SystemParameters(mu=1.0, q_target=8.0, c0=0.1, c1=0.4, sigma=0.5)
DT = 0.05
DELAY = 2.0

# Pinned moments of the two stationary solves (numpy backend, dt=0.05).
GOLDEN = {
    "plain": {
        "mean_queue": 6.427279399627013,
        "std_queue": 2.2984533957494473,
        "mean_growth_rate": -0.004804439822954624,
        "std_growth_rate": 0.508222023362039,
    },
    "delayed": {
        "mean_queue": 5.741326347814511,
        "std_queue": 3.5573805246233037,
        "mean_growth_rate": -0.027327672112228283,
        "std_growth_rate": 0.6764878850356499,
    },
}

MOMENT_TOL = 1e-9          # pinned-value drift guard (relative)
MARCH_TOL = 1e-6           # acceptance: stationary vs marched tail
RESIDUAL_TOL = 1e-9


def _assert_estimate(estimate, golden: dict) -> None:
    for name, want in golden.items():
        got = getattr(estimate, name)
        assert got == pytest.approx(want, rel=MOMENT_TOL), name
    assert estimate.residual <= RESIDUAL_TOL
    assert estimate.dt == DT


def _assert_marching(relative: dict) -> None:
    for name, value in relative.items():
        assert value <= MARCH_TOL, f"{name}: {value:.3e}"


class TestGoldenStationary:
    def test_plain_moments_and_marching(self):
        density = solve_stationary(PARAMS, grid_params=GRID, dt=DT)
        _assert_estimate(density.estimate, GOLDEN["plain"])
        comparison = compare_with_marching(density, PARAMS, grid_params=GRID,
                                           t_end=400.0)
        _assert_marching(comparison["relative"])

    def test_delayed_moments_and_marching(self):
        density = solve_stationary(PARAMS, grid_params=GRID, dt=DT,
                                   delay=DELAY)
        _assert_estimate(density.estimate, GOLDEN["delayed"])
        # The tilted drift relaxes slowly; t=800 is needed for 1e-6.
        comparison = compare_with_marching(density, PARAMS, grid_params=GRID,
                                           t_end=800.0, delay=DELAY)
        _assert_marching(comparison["relative"])


@pytest.mark.parametrize("backend_name", available_backends())
class TestGoldenStationaryEveryBackend:
    """The pinned moments hold on every backend, not only the default."""

    def test_plain(self, backend_name):
        density = solve_stationary(PARAMS, grid_params=GRID, dt=DT,
                                   backend=backend_name)
        _assert_estimate(density.estimate, GOLDEN["plain"])

    def test_delayed(self, backend_name):
        density = solve_stationary(PARAMS, grid_params=GRID, dt=DT,
                                   delay=DELAY, backend=backend_name)
        _assert_estimate(density.estimate, GOLDEN["delayed"])


class TestTripletPermutationInvariance:
    """The null solve must not depend on the COO storage order."""

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_permuted_triplets_give_identical_density(self, backend_name):
        generator = assemble_generator(PARAMS, grid_params=GRID)
        operator = generator.splitting_matrix(DT)
        backend = get_backend(backend_name)
        weights = generator.mass_weights

        reference, _ = backend.stationary_null_vector(
            operator.rows, operator.cols, operator.values, operator.n,
            weights=weights)

        rng = np.random.default_rng(1991)
        order = rng.permutation(operator.values.size)
        permuted, info = backend.stationary_null_vector(
            operator.rows[order], operator.cols[order],
            operator.values[order], operator.n, weights=weights)

        np.testing.assert_array_equal(permuted, reference)
        assert info["residual"] <= RESIDUAL_TOL
