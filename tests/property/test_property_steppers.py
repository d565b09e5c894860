"""Property-based tests of the FP stepper invariants (hypothesis).

Both marching schemes — the per-axis split and the 2-D Peaceman-Rachford
ADI — must conserve probability mass and
keep the density non-negative beyond rounding noise on any stable
configuration, with the health monitor in pure ``observe`` mode so nothing
is silently repaired.  The configuration space (grid shape, diffusion
strength, snapshot step, start point) is sampled; the grid is kept wide
enough that no probability reaches the open ``q_max`` edge, so exact
conservation is the correct expectation for both schemes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    SystemParameters,
    TimeParameters,
)
from repro.core.stepper import available_steppers

#: Rounding-noise allowance: the axis split's Crank-Nicolson half is not
#: strictly positivity-preserving, but on resolved densities its
#: undershoots stay at rounding level; the ADI stepper clamps exactly.
NEGATIVE_ROUNDING = 1e-10

stable_configs = st.fixed_dictionaries({
    "sigma": st.floats(min_value=0.0, max_value=0.8),
    "nq": st.integers(min_value=24, max_value=64),
    "nv": st.integers(min_value=16, max_value=48),
    "dt": st.floats(min_value=0.2, max_value=1.0),
    "q0": st.floats(min_value=0.0, max_value=10.0),
    "rate0": st.floats(min_value=0.2, max_value=1.4),
})


@pytest.mark.parametrize("stepper", available_steppers())
class TestStepperInvariants:
    @given(config=stable_configs)
    @settings(max_examples=12, deadline=None)
    def test_mass_conserved_and_density_nonnegative(self, stepper, config):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=config["sigma"], health="observe",
                                  stepper=stepper)
        control = JRJControl(c0=0.05, c1=0.2, q_target=10.0)
        grid = GridParameters(q_max=40.0, nq=config["nq"], v_min=-1.5,
                              v_max=1.5, nv=config["nv"])
        time = TimeParameters(t_end=8.0, dt=config["dt"], snapshot_every=4)
        solver = FokkerPlanckSolver(params, control, grid_params=grid)
        result = solver.solve_from_point(config["q0"], config["rate0"], time)

        moments = result.final_moments
        assert np.isfinite(moments.mean_q)
        assert moments.mass == pytest.approx(1.0, abs=1e-8)
        assert float(result.final_density.min()) >= -NEGATIVE_ROUNDING
