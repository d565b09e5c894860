"""Sparse assembly of the discrete Fokker-Planck generator.

The time-marching solver advances the density with the operator split

    f^{n+1} = CN(dt) · A_ν(dt) · A_q(dt) · f^n

where ``A_q`` / ``A_ν`` are the explicit upwind advection steps of
:mod:`repro.core.advection` and ``CN`` is the Crank-Nicolson diffusion step
of :mod:`repro.core.diffusion`.  Each factor is *linear* in the density, so
the whole substep is one sparse matrix -- and the stationary density the
marching converges to is exactly the null vector of

    S(dt) = (I + r L̃) (I + dt G_ν) (I + dt G_q) − (I − r L̃),

with ``G_q`` / ``G_ν`` the advection generators (``A = I + dt G`` holds
exactly because one forward-Euler step is affine in ``dt``), ``L̃`` the
Neumann second difference along ``q`` and ``r = (σ²/2) dt / (2 dq²)`` the
Crank-Nicolson diffusion number.  Solving ``S(dt) p = 0`` therefore
reproduces the time-marched tail to solver tolerance instead of to the
``O(dt)`` splitting error a naive continuous-generator solve would carry.

:func:`assemble_generator` builds the pieces with the *same* coefficient
conventions as the kernels (sign-split full-width velocity rows, neighbour-
averaged and direction-split interface drift, Neumann boundary rows), so the
assembled matrices agree with the kernel applications to rounding error; the
parity is pinned by the unit tests.  The continuous-time generator

    L = G_q + G_ν + (σ²/2) / dq² · L̃

(the ``dt → 0`` limit of ``S(dt)/dt``) is also exposed for analyses that
want the textbook operator.

Everything here is plain numpy: the matrices are assembled in a tiny
diagonal-storage format and exported as COO triplets, which the
:mod:`repro.numerics.backend` registry consumes (block-banded on the numpy
backend, ``scipy.sparse`` on the scipy one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..config import GridParameters, SystemParameters
from ..control.base import RateControl
from ..exceptions import ConfigurationError
from ..numerics.grids import PhaseGrid2D

__all__ = ["SparseOperator", "DiscreteGenerator", "assemble_generator"]


@dataclass(frozen=True)
class SparseOperator:
    """A square sparse matrix in COO triplet form.

    Attributes
    ----------
    rows, cols:
        Integer index arrays of the stored entries.
    values:
        Entry values (exact zeros are dropped at construction).
    n:
        Matrix dimension (the operator acts on length-``n`` vectors).
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    n: int


class _DiaMatrix:
    """Square matrix stored as diagonals: ``data[offset][k] = M[k, k+offset]``.

    Every operator assembled here is banded with a handful of offsets, and
    products of banded matrices stay banded, so diagonal storage makes the
    sparse triple product of the splitting matrix a few dozen vector
    multiply-adds -- no scipy needed at assembly time.  Entries whose column
    index ``k + offset`` falls outside the matrix are kept as zeros.
    """

    def __init__(self, n: int, data: Optional[Dict[int, np.ndarray]] = None):
        self.n = n
        self.data: Dict[int, np.ndarray] = {}
        for offset, diag in (data or {}).items():
            self._set(offset, np.asarray(diag, dtype=float))

    def _set(self, offset: int, diag: np.ndarray) -> None:
        if diag.shape != (self.n,):
            raise ConfigurationError("diagonal length must equal the dimension")
        diag = diag.copy()
        # Zero the rows whose column index would fall outside the matrix.
        if offset > 0:
            diag[self.n - offset:] = 0.0
        elif offset < 0:
            diag[:-offset] = 0.0
        self.data[offset] = diag

    @classmethod
    def identity(cls, n: int) -> "_DiaMatrix":
        return cls(n, {0: np.ones(n)})

    def scaled(self, factor: float) -> "_DiaMatrix":
        return _DiaMatrix(self.n, {offset: diag * factor
                                   for offset, diag in self.data.items()})

    def plus(self, other: "_DiaMatrix") -> "_DiaMatrix":
        result = _DiaMatrix(self.n)
        for offset, diag in self.data.items():
            result._set(offset, diag)
        for offset, diag in other.data.items():
            if offset in result.data:
                result.data[offset] = result.data[offset] + diag
            else:
                result._set(offset, diag)
        return result

    def matmul(self, other: "_DiaMatrix") -> "_DiaMatrix":
        """Exact product of two diagonal-stored matrices.

        ``C[k, k+oa+ob] += A[k, k+oa] · B[k+oa, k+oa+ob]``: for each offset
        pair the contribution is an elementwise product of one diagonal with
        a shifted view of the other.
        """
        n = self.n
        result = _DiaMatrix(n)
        for oa, da in self.data.items():
            for ob, db in other.data.items():
                shifted = np.zeros(n)
                if oa >= 0:
                    shifted[:n - oa] = db[oa:]
                else:
                    shifted[-oa:] = db[:n + oa]
                contribution = da * shifted
                offset = oa + ob
                if offset in result.data:
                    result.data[offset] += contribution
                else:
                    result._set(offset, contribution)
        return result

    def to_operator(self) -> SparseOperator:
        """Export as COO triplets, dropping exact zeros."""
        rows_parts = []
        cols_parts = []
        values_parts = []
        indices = np.arange(self.n)
        for offset in sorted(self.data):
            diag = self.data[offset]
            if offset >= 0:
                rows = indices[:self.n - offset]
            else:
                rows = indices[-offset:]
            cols = rows + offset
            values = diag[rows]
            keep = values != 0.0
            rows_parts.append(rows[keep])
            cols_parts.append(cols[keep])
            values_parts.append(values[keep])
        return SparseOperator(rows=np.concatenate(rows_parts),
                              cols=np.concatenate(cols_parts),
                              values=np.concatenate(values_parts),
                              n=self.n)


def _q_advection_generator(grid: PhaseGrid2D) -> _DiaMatrix:
    """``G_q`` with the kernel's sign-split upwind coefficients.

    Row-major flattening ``k = i·nv + j``: the q-neighbour couplings sit on
    the ``±nv`` diagonals.  The ``q = 0`` boundary reflects (zero boundary
    flux, so the first q-row keeps its ``ν < 0`` mass); the ``q = q_max``
    boundary is outflow for ``ν > 0`` columns, exactly as ``advect_q``.
    """
    nq, nv = grid.shape
    v = grid.v_centers
    dq = grid.dq
    v_pos = np.where(v > 0.0, v, 0.0)
    v_neg = np.where(v < 0.0, v, 0.0)
    diag = np.tile(-(v_pos - v_neg) / dq, nq)
    diag[:nv] = -v_pos / dq  # reflecting: no flux out through q = 0
    upper = np.tile(-v_neg / dq, nq)   # coupling to (i+1, j)
    lower = np.tile(v_pos / dq, nq)    # coupling to (i-1, j)
    n = nq * nv
    return _DiaMatrix(n, {0: diag, nv: upper, -nv: lower})


def _v_advection_generator(grid: PhaseGrid2D, drift: np.ndarray) -> _DiaMatrix:
    """``G_ν`` from the neighbour-averaged, direction-split interface drift.

    Both ν-walls are no-flux, matching ``advect_v``; the ``±1`` diagonals
    are zeroed at the column edges so no coupling crosses a q-row boundary
    in the flattened index.
    """
    nq, nv = grid.shape
    dv = grid.dv
    interface = 0.5 * (drift[:, :-1] + drift[:, 1:])
    from_left = np.where(interface > 0.0, interface, 0.0)
    from_right = interface - from_left
    diag = np.zeros((nq, nv))
    diag[:, :-1] -= from_left
    diag[:, 1:] += from_right
    upper = np.zeros((nq, nv))
    upper[:, :-1] = -from_right
    lower = np.zeros((nq, nv))
    lower[:, 1:] = from_left
    n = nq * nv
    return _DiaMatrix(n, {0: diag.ravel() / dv, 1: upper.ravel() / dv,
                          -1: lower.ravel() / dv})


def _neumann_laplacian(grid: PhaseGrid2D) -> _DiaMatrix:
    """Unscaled Neumann second difference along ``q`` (per ν-column)."""
    nq, nv = grid.shape
    n = nq * nv
    diag = np.full(n, -2.0)
    diag[:nv] = -1.0
    diag[(nq - 1) * nv:] = -1.0
    ones = np.ones(n)
    return _DiaMatrix(n, {0: diag, nv: ones, -nv: ones})


class DiscreteGenerator:
    """The assembled discrete Fokker-Planck operator pieces on one grid.

    Built by :func:`assemble_generator`; holds the advection generators, the
    diffusion Laplacian and the grid, and combines them into either the
    continuous-time generator ``L`` or the one-step splitting fixed-point
    matrix ``S(dt)`` (see the module docstring).
    """

    def __init__(self, grid: PhaseGrid2D, sigma: float, drift: np.ndarray):
        self.grid = grid
        self.sigma = float(sigma)
        self.drift = np.asarray(drift, dtype=float)
        if self.drift.shape != grid.shape:
            raise ConfigurationError(
                f"drift shape {self.drift.shape} does not match grid "
                f"{grid.shape}")
        self.n = grid.shape[0] * grid.shape[1]
        self._diffusivity = 0.5 * self.sigma * self.sigma
        self._g_q = _q_advection_generator(grid)
        self._g_v = _v_advection_generator(grid, self.drift)
        self._laplacian = _neumann_laplacian(grid)

    @property
    def mass_weights(self) -> np.ndarray:
        """Cell quadrature weights: ``w · p`` is the total probability mass."""
        return np.full(self.n, self.grid.cell_area)

    def diffusion(self) -> SparseOperator:
        """The diffusion generator ``(σ²/2)/dq² · L̃`` (zero when σ = 0)."""
        return self._laplacian.scaled(
            self._diffusivity / (self.grid.dq * self.grid.dq)).to_operator()

    def generator(self) -> SparseOperator:
        """The continuous-time generator ``L = G_q + G_ν + diffusion``."""
        combined = self._g_q.plus(self._g_v)
        if self._diffusivity > 0.0:
            combined = combined.plus(self._laplacian.scaled(
                self._diffusivity / (self.grid.dq * self.grid.dq)))
        return combined.to_operator()

    def q_direction_bands(self):
        """Bands of ``A₁ = G_q + diffusion`` in ν-major ordering.

        Returns ``(lower, diag, upper)`` length-``n`` arrays of the
        q-direction transport operator under the *transposed* flattening
        ``k' = j·nq + i``.  In that ordering the ``±nv`` couplings of the
        row-major matrix become ``±1`` couplings that vanish at every
        ``nq``-block boundary — one independent tridiagonal system per
        ν-column, the implicit half of the Peaceman-Rachford step.
        """
        combined = self._g_q
        if self._diffusivity > 0.0:
            combined = combined.plus(self._laplacian.scaled(
                self._diffusivity / (self.grid.dq * self.grid.dq)))
        nq, nv = self.grid.shape
        zeros = np.zeros(self.n)

        def permute(diag: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(diag.reshape(nq, nv).T).ravel()

        return (permute(combined.data.get(-nv, zeros)),
                permute(combined.data.get(0, zeros)),
                permute(combined.data.get(nv, zeros)))

    def v_direction_bands(self):
        """Bands of ``A₂ = G_ν`` in the native row-major ordering.

        Returns ``(lower, diag, upper)`` length-``n`` arrays; the ``±1``
        couplings already vanish at every ``nv``-block boundary (no-flux
        ν-walls), so the flat matrix is one independent tridiagonal system
        per q-row.
        """
        bands = self._g_v.data
        zeros = np.zeros(self.n)
        return (bands.get(-1, zeros).copy(), bands.get(0, zeros).copy(),
                bands.get(1, zeros).copy())

    def diffusion_number(self, dt: float) -> float:
        """The Crank-Nicolson diffusion number ``r`` for step *dt*.

        Computed with the same operation order as
        :class:`repro.core.diffusion.CrankNicolsonDiffusion` so ``r`` (and
        hence the assembled Crank-Nicolson factors) rounds identically.
        """
        two_dq2 = 2.0 * self.grid.dq * self.grid.dq
        return self._diffusivity * dt / two_dq2

    def max_stable_dt(self) -> float:
        """Largest ``dt`` for which the explicit advection factors are stable
        (at the default CFL number 0.8)."""
        cfl = 0.8
        limits = []
        if self.grid.max_abs_v > 0.0:
            limits.append(cfl * self.grid.dq / self.grid.max_abs_v)
        max_drift = float(np.max(np.abs(self.drift))) if self.drift.size else 0.0
        if max_drift > 0.0:
            limits.append(cfl * self.grid.dv / max_drift)
        return min(limits) if limits else np.inf

    def splitting_matrix(self, dt: float) -> SparseOperator:
        """The fixed-point matrix ``S(dt)`` of one marching substep.

        ``S(dt) p = 0`` (with unit mass) characterises the stationary
        density of the split scheme run with uniform substeps ``dt``; the
        marching solver takes exactly those substeps whenever its output
        step ``TimeParameters.dt`` does not exceed the free-running CFL
        step.
        """
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        r = self.diffusion_number(dt)
        if r > 2.0:
            raise ConfigurationError(
                f"diffusion number r={r:.3g} exceeds 2: the marching solver "
                f"sub-cycles such steps, so S(dt) would not match it; reduce "
                f"dt")
        transport = _DiaMatrix.identity(self.n).plus(
            self._g_v.scaled(dt)).matmul(
            _DiaMatrix.identity(self.n).plus(self._g_q.scaled(dt)))
        if r == 0.0:
            return transport.plus(
                _DiaMatrix.identity(self.n).scaled(-1.0)).to_operator()
        explicit = _DiaMatrix.identity(self.n).plus(self._laplacian.scaled(r))
        implicit = _DiaMatrix.identity(self.n).plus(self._laplacian.scaled(-r))
        return explicit.matmul(transport).plus(
            implicit.scaled(-1.0)).to_operator()


def assemble_generator(params: SystemParameters,
                       control: Optional[RateControl] = None,
                       grid_params: Optional[GridParameters] = None
                       ) -> DiscreteGenerator:
    """Assemble the discrete Fokker-Planck operator pieces for one config.

    Parameters
    ----------
    params:
        System parameters (``sigma`` selects the diffusion strength; ``mu``
        shifts the control law into growth-rate coordinates).
    control:
        Rate-control law supplying the ν-drift ``g``; defaults to the JRJ
        law built from *params*.
    grid_params:
        Phase-grid discretisation (defaults to :class:`GridParameters`).

    Returns
    -------
    DiscreteGenerator
        The assembled operator pieces, row-major flattened (``k = i·nv + j``
        matching ``density.ravel()``).
    """
    grid_params = grid_params if grid_params is not None else GridParameters()
    grid = PhaseGrid2D.from_bounds(q_max=grid_params.q_max, nq=grid_params.nq,
                                   v_min=grid_params.v_min,
                                   v_max=grid_params.v_max, nv=grid_params.nv)
    if control is None:
        from ..control.jrj import jrj_from_parameters
        control = jrj_from_parameters(params)
    q_mesh, v_mesh = grid.meshgrid()
    drift = np.asarray(control.drift_in_growth_coordinates(
        q_mesh, v_mesh, params.mu), dtype=float)
    return DiscreteGenerator(grid, params.sigma, drift)
