"""High-level Fokker-Planck solver for Equation 14.

:class:`FokkerPlanckSolver` time-integrates the joint density ``f(t, q, ν)``
of queue length and queue growth rate under

    f_t + ν f_q + (g f)_ν = (σ²/2) f_qq

using a pluggable marching scheme (see :mod:`repro.core.stepper`):

* ``stepper="axis"`` (the default) is the historical per-axis splitting —
  explicit upwind advection along ``q``, explicit upwind advection along
  ``ν``, Crank-Nicolson diffusion along ``q`` — kept bit-identical to the
  pre-seam solver;
* ``stepper="adi"`` is the Peaceman-Rachford 2-D operator-split scheme
  whose implicit half-steps run on the sparse-operator backend kernels and
  which scales to grids the dense per-axis path cannot reach.

The solver automatically sub-cycles the requested output step so the
explicit sub-steps respect the CFL condition, records snapshots of the full
density plus its moments.  The ``q = 0`` edge reflects (the paper's
convention); mass that reaches the open ``q = q_max`` edge leaves the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import GridParameters, SystemParameters, TimeParameters
from ..control.base import RateControl
from ..exceptions import StabilityError
from ..health import HealthMonitor, consume_numerical_fault
from ..health.report import HealthLog
from ..numerics.backend import get_backend
from ..numerics.grids import PhaseGrid2D
from .initial import gaussian_initial_density
from .stepper import get_stepper
from .moments import DensityMoments, compute_moments, tail_probability

__all__ = ["FokkerPlanckSolver", "FokkerPlanckResult", "DensitySnapshot"]


@dataclass
class DensitySnapshot:
    """The joint density and its moments at one output time."""

    time: float
    density: np.ndarray
    moments: DensityMoments


@dataclass
class FokkerPlanckResult:
    """Full output of a Fokker-Planck integration.

    Attributes
    ----------
    grid:
        The phase grid the densities live on.
    snapshots:
        Density snapshots at the requested output interval (always includes
        the initial and the final time).
    health:
        The :class:`~repro.health.HealthLog` of the run when health
        monitoring was active, else ``None``.
    """

    grid: PhaseGrid2D
    snapshots: List[DensitySnapshot] = field(default_factory=list)
    health: Optional[HealthLog] = None

    @property
    def times(self) -> np.ndarray:
        """Array of snapshot times."""
        return np.asarray([snap.time for snap in self.snapshots])

    @property
    def mean_queue(self) -> np.ndarray:
        """Mean queue length at every snapshot."""
        return np.asarray([snap.moments.mean_q for snap in self.snapshots])

    @property
    def std_queue(self) -> np.ndarray:
        """Queue-length standard deviation at every snapshot."""
        return np.asarray([snap.moments.std_q for snap in self.snapshots])

    @property
    def mean_growth_rate(self) -> np.ndarray:
        """Mean queue growth rate ``E[ν]`` at every snapshot."""
        return np.asarray([snap.moments.mean_v for snap in self.snapshots])

    def mean_rate(self, mu: float) -> np.ndarray:
        """Mean arrival rate ``E[λ] = E[ν] + μ`` at every snapshot."""
        return self.mean_growth_rate + mu

    @property
    def final_density(self) -> np.ndarray:
        """The joint density at the final snapshot."""
        return self.snapshots[-1].density

    @property
    def final_moments(self) -> DensityMoments:
        """Moments at the final snapshot."""
        return self.snapshots[-1].moments

    def overflow_probability(self, buffer_size: float) -> float:
        """``P(Q > buffer_size)`` at the final time."""
        return tail_probability(self.final_density, self.grid, buffer_size)


class FokkerPlanckSolver:
    """Operator-splitting integrator for the controlled-queue Fokker-Planck PDE.

    Parameters
    ----------
    params:
        Physical system parameters (service rate, σ, ...).
    control:
        Rate-control law supplying the drift ``g(q, λ)``.
    grid_params:
        Phase-plane discretisation.

    The ν-drift ``g(q, λ)`` is evaluated on the grid once, here, and handed
    to the stepper, so one solver can run any number of solves.
    """

    def __init__(self, params: SystemParameters, control: RateControl,
                 grid_params: Optional[GridParameters] = None):
        self.params = params
        self.control = control
        self.grid_params = grid_params if grid_params is not None else GridParameters()
        self.grid = PhaseGrid2D.from_bounds(
            q_max=self.grid_params.q_max, nq=self.grid_params.nq,
            v_min=self.grid_params.v_min, v_max=self.grid_params.v_max,
            nv=self.grid_params.nv)
        q_mesh, v_mesh = self.grid.meshgrid()
        drift = np.asarray(
            control.drift_in_growth_coordinates(q_mesh, v_mesh, params.mu),
            dtype=float)
        # Kernel backend plus the marching stepper, which owns all reusable
        # hot-loop machinery (scratch buffers, preallocated kernel
        # workspaces, cached implicit operators); the solver keeps only the
        # ping-pong work buffer shared by every solve() on this instance.
        self.backend = get_backend(params.backend or None)
        self.stepper = get_stepper(params.stepper or None)(
            self.grid, params.sigma, drift, self.backend)
        self._work_a = np.empty(self.grid.shape)

    def default_initial_density(self, q0: float, rate0: float) -> np.ndarray:
        """A narrow Gaussian around the starting point ``(q0, λ0)``.

        The widths are tied to the grid spacing so the initial condition is
        always resolvable.
        """
        return gaussian_initial_density(
            self.grid, q0, rate0 - self.params.mu,
            q_std=max(1.5 * self.grid.dq, 0.5),
            v_std=max(1.5 * self.grid.dv, 0.02))

    def solve(self, initial_density: np.ndarray,
              time_params: Optional[TimeParameters] = None) -> FokkerPlanckResult:
        """Integrate the PDE from *initial_density* over the configured horizon.

        The output step is ``time_params.dt``; each output step is internally
        sub-cycled so the explicit advection sub-steps respect the CFL limit
        ``time_params.cfl``.
        """
        time_params = time_params if time_params is not None else TimeParameters()
        density = np.asarray(initial_density, dtype=float).copy()
        if density.shape != self.grid.shape:
            raise StabilityError(
                f"initial density shape {density.shape} does not match grid "
                f"{self.grid.shape}")
        density = self.grid.normalize(np.maximum(density, 0.0))
        if consume_numerical_fault("nan-density"):
            # Deterministic chaos hook: poison the centre cell so the
            # per-interval finiteness check (and its policies) can be
            # exercised end to end by the fault-injection suite.
            density[density.shape[0] // 2, density.shape[1] // 2] = np.nan

        monitor = HealthMonitor.create(self.params.health, where="core.solver")

        result = FokkerPlanckResult(grid=self.grid)
        result.snapshots.append(DensitySnapshot(
            time=0.0, density=density.copy(),
            moments=compute_moments(density, self.grid)))

        t = 0.0
        output_dt = time_params.dt
        steps_between_snapshots = time_params.snapshot_every
        n_outputs = time_params.n_steps

        # Hoist the per-substep invariants.  The drift is static, so its
        # interface decomposition, max |g| and therefore the free-running
        # CFL step are constant over the whole integration -- and, because
        # the substep dt repeats, every implicit substep hits the stepper's
        # cached operator for its step size.
        grid = self.grid
        stepper = self.stepper
        stepper.begin(monitor is not None)
        free_dt = stepper.free_running_dt(time_params.cfl)
        work = self._work_a
        advance = stepper.advance

        for output_index in range(1, n_outputs + 1):
            target_time = min(output_index * output_dt, time_params.t_end)
            while t < target_time - 1e-12:
                dt = min(target_time - t, free_dt)
                density, work = advance(density, dt, work)
                t += dt

            # density >= 0, so a plain sum is finite iff every cell is (no
            # cancellation can hide an inf or a NaN, and a non-finite value
            # can never become finite again) -- checking once per output
            # interval therefore catches every blow-up before a snapshot is
            # recorded.  With monitoring active the same cadence also covers
            # positivity and mass conservation, and a blow-up reports the
            # first offending cell index instead of just aborting.
            if monitor is None:
                if not (density.sum() < np.inf):
                    raise StabilityError(
                        f"Fokker-Planck density became non-finite at t={t:.4g}")
            else:
                monitor.check_fp_density(density, grid, t)
                # Steppers with internal intermediates (the ADI half-step
                # state) surface them to the monitor at the same cadence.
                stepper.record_health(monitor, t)

            if (output_index % steps_between_snapshots == 0
                    or output_index == n_outputs):
                result.snapshots.append(DensitySnapshot(
                    time=t, density=density.copy(),
                    moments=compute_moments(density, grid)))

        if monitor is not None:
            result.health = monitor.log
        return result

    def solve_from_point(self, q0: float, rate0: float,
                         time_params: Optional[TimeParameters] = None
                         ) -> FokkerPlanckResult:
        """Convenience wrapper: start from the default Gaussian around a point."""
        return self.solve(self.default_initial_density(q0, rate0), time_params)
