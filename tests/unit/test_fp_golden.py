"""Golden-value regression tests for the Fokker-Planck hot path.

The pinned numbers below were produced by the seed implementation (commit
``c0f79ee``, pure per-call Thomas solve and allocating kernels) on the
canonical small test configs.  The optimized hot path must reproduce them:
bit-for-bit where the operation order is unchanged (the σ = 0 purely
hyperbolic path) and to ≤ 1e-12 where cached/reordered kernels are used
(the dense combined Crank-Nicolson operator, pre-scaled advection).

Every test runs once per registered numerics backend, so the golden pins
gate the scipy kernels (when installed) exactly as hard as the pure-numpy
ones.
"""

import numpy as np
import pytest

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    SystemParameters,
    TimeParameters,
)
from repro.numerics.backend import available_backends

#: (mass, mean_q, var_q, mean_v, var_v, covariance) at the final snapshot,
#: computed with the seed implementation.
SEED_GOLDEN = {
    "noisy": (1.000000000000006, 5.0646349142869935, 7.959629990369998,
              0.5608506597917168, 0.054725986671031054, 0.1949394760669374),
    "sigma0": (1.0, 4.573574451663091, 7.371550731665107,
               0.5755212114835607, 0.0502239132599258, 0.3054008878349241),
    "highsigma": (0.9999999999998861, 4.796532807903856, 12.58468646800706,
                  0.041429428582635715, 0.048955174714521286,
                  -0.2733250825247134),
    # The E4 density-evolution scale: E4_GRID, E4_TIME, σ = 0.5, start at
    # (0, 0.5).
    "e4": (1.000000000000064, 6.974821743261868, 9.551925516828446,
           0.11082912972718366, 0.12315971829619338, -0.08615347860750913),
}

GRID = GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)
TIME = TimeParameters(t_end=20.0, dt=0.5, snapshot_every=4)
E4_GRID = GridParameters(q_max=40.0, nq=200, v_min=-1.5, v_max=1.5, nv=101)
E4_TIME = TimeParameters(t_end=60.0, dt=0.5, snapshot_every=10)
CONTROL_KW = dict(c0=0.05, c1=0.2, q_target=10.0)


def _moment_tuple(moments):
    return (moments.mass, moments.mean_q, moments.var_q,
            moments.mean_v, moments.var_v, moments.covariance)


def _assert_close(actual, expected, tol):
    for got, want in zip(actual, expected, strict=True):
        assert got == pytest.approx(want, abs=tol)


@pytest.fixture(params=available_backends())
def backend_name(request):
    return request.param


class TestSeedGoldenValues:
    def test_noisy_canonical(self, jrj_control, backend_name):
        params = SystemParameters(mu=1.0, sigma=0.4, backend=backend_name,
                                  **CONTROL_KW)
        result = FokkerPlanckSolver(params, jrj_control, grid_params=GRID
                                    ).solve_from_point(2.0, 0.6, TIME)
        _assert_close(_moment_tuple(result.final_moments),
                      SEED_GOLDEN["noisy"], tol=1e-12)

    def test_sigma_zero_is_bitwise_identical(self, jrj_control, backend_name):
        # No diffusion -> the whole substep chain keeps the seed's exact
        # floating-point operation order, so the agreement must be exact.
        params = SystemParameters(mu=1.0, sigma=0.0, backend=backend_name,
                                  **CONTROL_KW)
        result = FokkerPlanckSolver(params, jrj_control, grid_params=GRID
                                    ).solve_from_point(2.0, 0.6, TIME)
        assert _moment_tuple(result.final_moments) == SEED_GOLDEN["sigma0"]

    def test_high_sigma_subcycled_diffusion(self, jrj_control, backend_name):
        params = SystemParameters(mu=1.0, sigma=2.0, backend=backend_name,
                                  **CONTROL_KW)
        result = FokkerPlanckSolver(params, jrj_control, grid_params=GRID
                                    ).solve_from_point(
            2.0, 0.6, TimeParameters(t_end=10.0, dt=0.5, snapshot_every=4))
        _assert_close(_moment_tuple(result.final_moments),
                      SEED_GOLDEN["highsigma"], tol=1e-12)

    def test_e4_scale_canonical(self, jrj_control, backend_name):
        params = SystemParameters(mu=1.0, sigma=0.5, backend=backend_name,
                                  **CONTROL_KW)
        result = FokkerPlanckSolver(params, jrj_control, grid_params=E4_GRID
                                    ).solve_from_point(0.0, 0.5, E4_TIME)
        assert len(result.snapshots) == 13
        _assert_close(_moment_tuple(result.final_moments),
                      SEED_GOLDEN["e4"], tol=1e-12)

    @pytest.mark.parametrize("case, sigma, grid", [
        ("e4", 0.5, E4_GRID),
        ("noisy", 0.4, GRID),
        ("highsigma", 2.0, GRID),
    ])
    def test_pins_run_band_tiles(self, jrj_control, backend_name, case,
                                 sigma, grid):
        # The Crank-Nicolson operator runs as band tiles narrower than the
        # grid on every pinned configuration, so the pins above guard the
        # tiled product.  The first two output steps request the
        # free-running and the interval-final diffusion numbers.
        params = SystemParameters(mu=1.0, sigma=sigma, backend=backend_name,
                                  **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=grid)
        solver.solve_from_point(2.0, 0.6,
                                TimeParameters(t_end=1.0, dt=0.5))
        steps = list(solver.stepper.diffusion._steps.values())
        assert len(steps) >= 2, case
        nq = grid.nq
        for step in steps:
            assert len(step.tiles) > 1, case
            assert sum(block.size for _, _, block in step.tiles) < nq * nq

    def test_repeated_solves_are_deterministic(self, jrj_control,
                                               backend_name):
        # The cached operators and reused scratch buffers must not leak
        # state between solves on the same instance.
        # CrankNicolsonDiffusion._step_for builds each diffusion number's
        # step once, on its first use, and every later use applies that same
        # step, so the first solve of a fresh solver is exactly reproducible
        # too.
        params = SystemParameters(mu=1.0, sigma=0.4, backend=backend_name,
                                  **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        first = solver.solve_from_point(2.0, 0.6, TIME)
        for _ in range(2):
            again = solver.solve_from_point(2.0, 0.6, TIME)
            assert np.array_equal(again.final_density, first.final_density)
            assert _moment_tuple(again.final_moments) == _moment_tuple(
                first.final_moments)
