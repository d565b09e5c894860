"""Pluggable kernel backends for the numerical hot paths.

The Fokker-Planck solver spends nearly all of its time in a small set of
kernels (tridiagonal solves for the Crank-Nicolson diffusion step above
all).  This module provides two interchangeable implementations of those
kernels, selected by name without touching the physics code:

* the ``"numpy"`` backend is the pure-numpy reference implementation
  (:class:`repro.numerics.tridiag.TridiagonalFactorization`) and is always
  available;
* the ``"scipy"`` backend uses LAPACK's tridiagonal factorization
  (``dgttrf`` / ``dgttrs`` via :mod:`scipy.linalg`) when scipy is
  importable, falling back to ``scipy.linalg.solve_banded`` if the low-level
  wrappers are missing.

Besides the tridiagonal kernels, every backend supplies a *sparse-operator*
kernel family used by the 2-D ADI stepper and the direct stationary solves:

* :meth:`NumericsBackend.factorize_sparse` turns a COO matrix into a
  reusable factorization with a ``solve(rhs, out=None)`` method.  The scipy
  backend routes through ``scipy.sparse.linalg.splu`` (any sparsity
  pattern); the numpy backend stays self-contained with a pure-numpy banded
  path -- tridiagonal patterns run on the Thomas kernels (vectorized across
  independent blocks when the caller supplies ``block_size``), and every
  other pattern on a block-tridiagonal LU whose block size is the
  bandwidth.
* :meth:`NumericsBackend.stationary_null_vector` solves ``M p = 0`` for the
  mass-normalised stationary density.  Both backends run the same shifted
  inverse iteration over their own factorization: block-banded shifted
  inverse iteration with a dense row-replacement fallback on numpy,
  ``splu`` shifted inverse iteration with a sparse row-replacement
  fallback on scipy.

Both backends must agree to tight tolerances; the parity is enforced by the
unit tests.  Backend selection order:

1. an explicit name passed to :func:`get_backend`,
2. the :data:`BACKEND_ENV_VAR` environment variable (``REPRO_BACKEND``),
3. the default, ``"numpy"``.

The special name ``"auto"`` resolves to ``"scipy"`` when scipy is
available and ``"numpy"`` otherwise.  :class:`repro.config.SystemParameters`
carries an optional ``backend`` field that the solvers feed into
:func:`get_backend`, so a backend can also be pinned per experiment (and
therefore participates in the runner's content-addressed job hashes).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError, ConvergenceError
from .tridiag import BatchedTridiagonalFactorization, TridiagonalFactorization

__all__ = [
    "BACKEND_ENV_VAR",
    "NumericsBackend",
    "NumpyBackend",
    "ScipyBackend",
    "available_backends",
    "get_backend",
    "is_known_backend",
    "scipy_available",
]

#: Environment variable consulted when no explicit backend name is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def scipy_available() -> bool:
    """Return ``True`` when :mod:`scipy.linalg` is importable."""
    try:
        import scipy.linalg  # noqa: F401
    except ImportError:
        return False
    return True


def _coo_matvec(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                n: int, vector: np.ndarray) -> np.ndarray:
    """``M @ vector`` for a COO matrix, without scipy."""
    return np.bincount(rows, weights=values * vector[cols], minlength=n)


def _coo_scale(values: np.ndarray) -> float:
    """``max|M|`` of a COO matrix (1 for an empty one)."""
    return float(np.max(np.abs(values))) if values.size else 1.0


def _relative_residual(rows: np.ndarray, cols: np.ndarray,
                       values: np.ndarray, n: int, vector: np.ndarray
                       ) -> float:
    """``max|M v| / (max|M| · max|v|)``, the null solves' residual measure."""
    residual = float(np.max(np.abs(_coo_matvec(rows, cols, values, n,
                                               vector))))
    return residual / (_coo_scale(values) * float(np.max(np.abs(vector))))


def _null_inputs(rows, cols, values, n: int, weights):
    """Coerce the COO triplets and default the mass weights to uniform."""
    weights = (np.ones(n) if weights is None
               else np.asarray(weights, dtype=float))
    return (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp),
            np.asarray(values, dtype=float), weights)


def _pivot_row(guess: Optional[np.ndarray]) -> int:
    """Row the row-replacement fallbacks overwrite: the seed's peak cell.

    That cell lies well inside the support, so its balance equation is the
    one the mass-normalisation row can best stand in for.
    """
    return 0 if guess is None else int(np.argmax(np.asarray(guess)))


def _shifted_inverse_iteration(factorize: Callable[[float], object],
                               rows: np.ndarray, cols: np.ndarray,
                               values: np.ndarray, n: int,
                               guess: Optional[np.ndarray], tol: float,
                               max_iterations: int):
    """Drive a seed vector into the null space of the COO matrix ``M``.

    ``factorize(shift)`` returns a factorization of ``M − shift·I`` with a
    ``solve`` method; the tiny shift keeps the LU of the numerically
    singular operator well posed, and each solve multiplies the unwanted
    spectral components by ``shift / |λ|``.  After the first iterate whose
    :func:`_relative_residual` meets *tol*, one more solve runs and the
    better of the two iterates is kept: the first one typically sits near
    1e-11, which leaves the density's moments ~1e-9 off, and the extra
    solve takes them to rounding level.

    Returns ``(vector, residual, iterations)``: the iterate with the
    smallest residual, scaled to ``max|v| = 1``, and that residual.
    *vector* is ``None`` (residual ``inf``) when the factorization failed.
    :func:`_finish_null_solve` answers a residual above *tol* with the
    backend's row-replacement fallback.
    """
    if guess is None:
        vector = np.ones(n)
    else:
        vector = np.asarray(guess, dtype=float).ravel().copy()
        if float(np.max(np.abs(vector))) == 0.0:
            vector = np.ones(n)
    best = None
    best_residual = np.inf
    iterations = 0
    converged = False
    try:
        solve = factorize(1e-12 * _coo_scale(values)).solve
        for iterations in range(1, max_iterations + 1):
            vector = solve(vector)
            peak = float(np.max(np.abs(vector)))
            if not np.isfinite(peak) or peak == 0.0:
                break
            vector /= peak
            relative = _relative_residual(rows, cols, values, n, vector)
            if relative < best_residual:
                best = vector
                best_residual = relative
            if converged:
                break
            converged = relative <= tol
    except ConvergenceError:
        pass
    return best, best_residual, iterations


def _finish_null_solve(rows: np.ndarray, cols: np.ndarray,
                       values: np.ndarray, n: int, weights: np.ndarray,
                       tol: float, iterated, iteration_method: str,
                       fallback: Callable[[], np.ndarray],
                       fallback_method: str):
    """Return the inverse iterate if it met *tol*, else the fallback's.

    *iterated* is the result of :func:`_shifted_inverse_iteration`;
    ``fallback()`` returns the raw row-replacement solution, or raises
    :class:`ConvergenceError` when its own factorization fails.  When
    neither meets *tol*, the error reports the smaller of the two
    residuals and how much one application of the operator changes the
    mass of that vector: a stationary vector loses none, so a material
    change shows that the operator leaks mass where the vector sits.
    """
    vector, residual, iterations = iterated
    if residual <= tol:
        return _normalize_null_vector(vector, weights), {
            "residual": residual, "iterations": iterations,
            "method": iteration_method}
    method = iteration_method
    try:
        solution = _normalize_null_vector(np.asarray(fallback()), weights)
    except ConvergenceError:
        if vector is None:
            raise
    else:
        relative = _relative_residual(rows, cols, values, n, solution)
        if relative <= tol:
            return solution, {"residual": relative, "iterations": iterations,
                              "method": fallback_method}
        if vector is None or relative < residual:
            vector, residual, method = solution, relative, fallback_method
    mass = float(weights @ vector)
    change = (float(weights @ _coo_matvec(rows, cols, values, n, vector))
              / mass if mass else float("nan"))
    raise ConvergenceError(
        f"stationary null solve reached a best residual of {residual:.3e} "
        f"({method}), above tol {tol:.3e}; one application of the operator "
        f"changes that vector's mass by {change:.2e} of itself",
        iterations=iterations, residual=residual)


def _normalize_null_vector(vector: np.ndarray, weights: np.ndarray
                           ) -> np.ndarray:
    """Orient, clamp and mass-normalise a raw null-vector iterate.

    A stationary density is non-negative with unit mass ``weights · p = 1``;
    the raw algebraic null vector is defined only up to scale and may carry
    rounding-level negative cells.  The clamp removes those before the final
    normalisation.
    """
    total = float(weights @ vector)
    if total < 0.0:
        vector = -vector
        total = -total
    vector = np.maximum(vector, 0.0)
    total = float(weights @ vector)
    if not total > 0.0:
        raise ConvergenceError(
            "null-vector solve produced a non-positive density")
    return vector / total


class NumericsBackend:
    """Base class for kernel backends.

    A backend supplies factorized tridiagonal solvers, reusable sparse
    factorizations and a sparse stationary null-vector solve; everything
    else in the PDE pipeline is backend-independent numpy.  Subclasses must
    set :attr:`name` and implement :meth:`factorize_tridiagonal`; the
    sparse-operator kernels are optional (the ADI stepper and the design
    subsystem check for them).
    """

    #: Registry name of the backend.
    name: str = ""

    def is_available(self) -> bool:
        """Whether the backend can run in this environment."""
        return True

    def factorize_tridiagonal(self, lower: np.ndarray, diag: np.ndarray,
                              upper: np.ndarray):
        """Return an object with ``solve(rhs, out=None)`` for this matrix."""
        raise NotImplementedError

    def factorize_sparse(self, rows: np.ndarray, cols: np.ndarray,
                         values: np.ndarray, n: int,
                         block_size: Optional[int] = None):
        """Factorize a COO matrix into an object with ``solve(rhs, out=None)``.

        The returned factorization is reusable: callers cache it keyed by
        the operator identity (the ADI stepper keys its cache per time step,
        like the PR 2 Crank-Nicolson operator cache) and call ``solve``
        against length-``n`` vectors every substep.

        Parameters
        ----------
        rows, cols, values, n:
            The matrix in COO triplet form (duplicate entries sum).
        block_size:
            Structure hint: when given, the matrix is expected to decouple
            into ``n // block_size`` independent tridiagonal blocks of that
            size (the shape of the ADI half-step operators in their
            direction-contiguous orderings).  Backends with a general sparse
            factorization may ignore it; the pure-numpy fallback uses it to
            run all blocks through one vectorized batched Thomas solve.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not implement sparse factorizations")

    def stationary_null_vector(self, rows: np.ndarray, cols: np.ndarray,
                               values: np.ndarray, n: int,
                               guess: Optional[np.ndarray] = None,
                               weights: Optional[np.ndarray] = None):
        """Solve ``M p = 0`` for the mass-normalised stationary vector.

        Parameters
        ----------
        rows, cols, values, n:
            The matrix in COO triplet form.  The operators assembled by
            :func:`repro.core.generator.assemble_generator` have (near-)
            dependent rows -- probability conservation makes the column
            sums vanish wherever the density lives -- so the null space is
            one-dimensional up to boundary outflow at rounding level.
        guess:
            Optional seed vector (a coarse steady-state estimate); used to
            start the inverse iteration and to pick the pivot row of the
            row-replacement fallback.
        weights:
            Quadrature weights defining the mass normalisation
            ``weights · p = 1`` (defaults to uniform).

        The relative residual target ``max|M p| / (max|M| · max|p|)`` is
        :data:`NULL_TOL`, and iterative methods stop after
        :data:`NULL_MAX_ITERATIONS` iterations (both read at call time).

        Returns
        -------
        (p, info):
            The non-negative, mass-normalised stationary vector and a
            dictionary with ``residual``, ``iterations`` and ``method``.

        Raises
        ------
        ConvergenceError
            When the residual target cannot be met.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not implement a stationary "
            f"null-vector solve")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


#: Largest dimension for which the numpy backend runs its dense
#: row-replacement fallback of the stationary null solve (n² floats of
#: memory, O(n³) work; 20000² doubles is ~3.2 GB).  The same 20000² doubles
#: bound the block storage of its block-banded factorization.  Larger
#: problems need the scipy backend's sparse factorization.
DENSE_NULL_LIMIT = 20000

#: Relative residual target of every stationary null solve.
NULL_TOL = 1e-9
#: Iteration cap of the null solves' shifted inverse iteration.
NULL_MAX_ITERATIONS = 50


def _coo_tridiagonal_bands(rows: np.ndarray, cols: np.ndarray,
                           values: np.ndarray, n: int):
    """``(lower, diag, upper)`` when all entries sit on offsets −1/0/+1.

    Returns ``None`` for any other sparsity pattern.  Duplicate COO entries
    sum, matching the dense materialisation semantics of
    :class:`repro.core.generator.SparseOperator`.
    """
    offsets = cols - rows
    if offsets.size and (int(offsets.min()) < -1 or int(offsets.max()) > 1):
        return None
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    for offset, band in ((-1, lower), (0, diag), (1, upper)):
        mask = offsets == offset
        np.add.at(band, rows[mask], values[mask])
    return lower, diag, upper


class _FlatTridiagonalFactorization:
    """Length-``n`` vector interface over one Thomas factorization."""

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        self._factorization = TridiagonalFactorization(lower, diag, upper)
        self.n = int(np.asarray(diag).shape[0])

    def solve(self, rhs: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        return self._factorization.solve(rhs, out=out)


class _BlockTridiagonalFactorization:
    """Vectorized solve of a tridiagonal matrix made of independent blocks.

    The ADI half-step operators are tridiagonal in their direction-contiguous
    orderings *and* their off-diagonals vanish at every block boundary (no
    physical coupling crosses a grid line of the other axis), so the flat
    system splits into ``n // block_size`` independent systems solved as one
    batched Thomas sweep -- the pure-numpy banded fallback that keeps the
    numpy backend self-contained at production grid sizes.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray, block_size: int):
        n = diag.shape[0]
        blocks = n // block_size
        self._batched = BatchedTridiagonalFactorization(
            lower.reshape(blocks, block_size),
            diag.reshape(blocks, block_size),
            upper.reshape(blocks, block_size))
        self.n = n
        self._blocks = blocks
        self._block_size = block_size

    def solve(self, rhs: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs must have shape ({self.n},), got {rhs.shape}")
        if out is None:
            out = np.empty(self.n)
        stacked = out.reshape(self._blocks, self._block_size)
        if stacked.base is None:
            raise ValueError("out must be a contiguous length-n vector")
        self._batched.solve(rhs.reshape(self._blocks, self._block_size),
                            out=stacked)
        return out


def _block_layout(rows: np.ndarray, cols: np.ndarray, n: int):
    """``(size, count)`` of the block-tridiagonal view of a banded matrix.

    The block size is the bandwidth ``max|col − row|``.  The three block
    bands take ``3·count·size²`` doubles; when that exceeds
    ``DENSE_NULL_LIMIT²`` doubles (~3.2 GB, the most the dense fallback
    may use) this raises :class:`ConfigurationError` before anything is
    allocated.
    """
    bandwidth = int(np.max(np.abs(cols - rows))) if rows.size else 0
    size = max(bandwidth, 1)
    count = -(-n // size)
    if 3 * count * size * size > DENSE_NULL_LIMIT ** 2:
        raise ConfigurationError(
            f"the numpy backend's block-banded factorization of this n={n} "
            f"matrix with bandwidth {bandwidth} needs "
            f"{3 * count * size * size * 8 / 2**30:.1f} GiB, more than the "
            f"{DENSE_NULL_LIMIT}² doubles it may use; select the 'scipy' "
            f"backend, whose sparse LU does not depend on the bandwidth")
    return size, count


class _BlockBandedFactorization:
    """Block-tridiagonal LU of a banded COO matrix (numpy backend).

    With the block size equal to the bandwidth every entry falls in a
    diagonal block or one of its two neighbours, so the matrix -- its last
    block padded with identity rows -- is block tridiagonal.  Block
    elimination keeps, per block row, the inverse of the Schur complement
    and that inverse times the upper block, and a solve is one forward and
    one backward sweep of small matvecs: O(n·b²) work and O(n·b) memory for
    bandwidth ``b``, where a dense LU costs O(n³) and O(n²).

    Only the inversion of each block pivots; the blocks are eliminated in
    order.  That is stable for the operators :mod:`repro.core.generator`
    assembles: with a CFL-stable ``dt`` and ``r ≤ 1/2``, ``−S(dt)`` (and
    ``−L``) is a column-diagonally-dominant Z-matrix, whose Schur
    complements stay well conditioned.  *shift* is subtracted from the
    diagonal, for the shifted inverse iteration of the null solve.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray, n: int, shift: float = 0.0):
        size, count = _block_layout(rows, cols, n)
        bands = np.zeros((3, count, size, size))
        block_rows = rows // size
        np.add.at(bands, (cols // size - block_rows + 1, block_rows,
                          rows % size, cols % size), values)
        lower, diagonal, upper = bands
        local = np.arange(size)
        diagonal[:, local, local] -= shift
        padding = np.arange(n - (count - 1) * size, size)
        diagonal[-1, padding, padding] = 1.0
        try:
            for k in range(count):
                if k:
                    diagonal[k] -= lower[k] @ upper[k - 1]
                diagonal[k] = np.linalg.inv(diagonal[k])
                if k + 1 < count:
                    upper[k] = diagonal[k] @ upper[k]
        except np.linalg.LinAlgError as error:
            raise ConvergenceError(
                f"block-banded factorization failed: {error}") from error
        self.n = n
        self._bands = bands

    def solve(self, rhs: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs must have shape ({self.n},), got {rhs.shape}")
        lower, inverse, upper = self._bands
        count, size = inverse.shape[:2]
        work = np.zeros(count * size)
        work[:self.n] = rhs
        blocks = work.reshape(count, size)
        for k in range(count):
            if k:
                blocks[k] -= lower[k] @ blocks[k - 1]
            blocks[k] = inverse[k] @ blocks[k]
        for k in range(count - 2, -1, -1):
            blocks[k] -= upper[k] @ blocks[k + 1]
        if out is None:
            return work[:self.n]
        np.copyto(out, work[:self.n])
        return out


def _dense_row_replacement(rows: np.ndarray, cols: np.ndarray,
                           values: np.ndarray, n: int,
                           guess: Optional[np.ndarray], weights: np.ndarray
                           ) -> np.ndarray:
    """Dense null solve by row replacement (numpy fallback).

    The matrix rows are linearly dependent (mass conservation), so the
    :func:`_pivot_row` is replaced by the mass-normalisation row and the
    system solved directly, with one step of iterative refinement.
    Returns the raw solution.
    """
    if n > DENSE_NULL_LIMIT:
        raise ConfigurationError(
            f"the numpy backend's dense row-replacement fallback needs an "
            f"n x n matrix (n={n} exceeds the {DENSE_NULL_LIMIT} limit); "
            f"select the 'scipy' backend, whose sparse fallback scales to "
            f"large grids")
    pivot = _pivot_row(guess)
    replaced = np.zeros((n, n))
    np.add.at(replaced, (rows, cols), values)
    replaced[pivot, :] = weights
    rhs = np.zeros(n)
    rhs[pivot] = 1.0
    try:
        solution = np.linalg.solve(replaced, rhs)
        # One iterative-refinement pass against the replaced system.
        residual_vector = rhs - replaced @ solution
        solution = solution + np.linalg.solve(replaced, residual_vector)
    except np.linalg.LinAlgError as error:
        raise ConvergenceError(
            f"dense stationary solve failed: {error}") from error
    return solution


class NumpyBackend(NumericsBackend):
    """Reference backend: pure-numpy Thomas and block-banded kernels."""

    name = "numpy"

    def factorize_tridiagonal(self, lower, diag, upper):
        return TridiagonalFactorization(lower, diag, upper)

    def factorize_sparse(self, rows, cols, values, n, block_size=None):
        """Pure-numpy banded path of the sparse kernel family.

        Tridiagonal patterns run on the Thomas kernels -- vectorized across
        independent blocks when *block_size* is given and the off-diagonals
        really do vanish at every block boundary (the structure of both ADI
        half-step operators).  Every other pattern runs on the
        block-tridiagonal LU whose block size is the bandwidth; a matrix
        whose blocks would not fit the memory bound raises
        :class:`ConfigurationError` before allocating them.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        bands = _coo_tridiagonal_bands(rows, cols, values, n)
        if bands is None:
            return _BlockBandedFactorization(rows, cols, values, n)
        lower, diag, upper = bands
        if (block_size and n % block_size == 0 and n > block_size
                and not np.any(lower[block_size::block_size])
                and not np.any(upper[block_size - 1::block_size])):
            return _BlockTridiagonalFactorization(lower, diag, upper,
                                                  int(block_size))
        return _FlatTridiagonalFactorization(lower, diag, upper)

    def stationary_null_vector(self, rows, cols, values, n,
                               guess=None, weights=None):
        """Block-banded shifted inverse iteration, dense row-replacement fallback.

        The shifted operator is factorized once by
        :class:`_BlockBandedFactorization` and the shared
        :func:`_shifted_inverse_iteration` drives the seed into the null
        space; only a stalled or failed iteration falls back to the dense
        row-replacement solve (``n ≤ DENSE_NULL_LIMIT``).
        """
        rows, cols, values, weights = _null_inputs(rows, cols, values, n,
                                                   weights)
        iterated = _shifted_inverse_iteration(
            lambda shift: _BlockBandedFactorization(rows, cols, values, n,
                                                    shift),
            rows, cols, values, n, guess, NULL_TOL, NULL_MAX_ITERATIONS)
        return _finish_null_solve(
            rows, cols, values, n, weights, NULL_TOL, iterated,
            "block-banded-inverse-iteration",
            lambda: _dense_row_replacement(rows, cols, values, n, guess,
                                           weights),
            "dense-row-replacement")


class _ScipyGttrfFactorization:
    """LAPACK ``dgttrf`` factorization with a ``dgttrs`` solve."""

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        from scipy.linalg import lapack

        lower = np.ascontiguousarray(lower, dtype=float)
        diag = np.ascontiguousarray(diag, dtype=float)
        upper = np.ascontiguousarray(upper, dtype=float)
        n = diag.shape[0]
        if lower.shape[0] != n or upper.shape[0] != n:
            raise ValueError("lower, diag and upper must all have the same length")

        gttrf, gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"), (diag,))
        dl, d, du, du2, ipiv, info = gttrf(lower[1:], diag, upper[:-1])
        if info != 0:
            raise ConvergenceError(
                f"LAPACK gttrf failed to factorize the tridiagonal matrix "
                f"(info={info})")
        self.n = n
        self._gttrs = gttrs
        self._bands = (dl, d, du, du2, ipiv)

    def solve(self, rhs: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError("rhs first dimension must match the matrix size")
        dl, d, du, du2, ipiv = self._bands
        one_dimensional = rhs.ndim == 1
        b = rhs.reshape(self.n, -1)
        x, info = self._gttrs(dl, d, du, du2, ipiv, b)
        if info != 0:
            raise ConvergenceError(
                f"LAPACK gttrs failed to solve the tridiagonal system "
                f"(info={info})")
        x = x.reshape(rhs.shape) if not one_dimensional else x[:, 0]
        if out is not None:
            np.copyto(out, x)
            return out
        return np.ascontiguousarray(x)


class _ScipyBandedFactorization:
    """Fallback scipy path built on ``scipy.linalg.solve_banded``.

    No reusable LAPACK factorization is exposed here, but the pre-assembled
    band matrix is cached so repeated solves still skip the setup cost.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        lower = np.asarray(lower, dtype=float)
        diag = np.asarray(diag, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n = diag.shape[0]
        if lower.shape[0] != n or upper.shape[0] != n:
            raise ValueError("lower, diag and upper must all have the same length")
        if n == 1 and diag[0] == 0.0:
            # solve_banded divides a 1x1 system without a singularity check.
            raise ConvergenceError(
                "banded tridiagonal solve failed: singular matrix")
        ab = np.zeros((3, n))
        ab[0, 1:] = upper[:-1]
        ab[1, :] = diag
        ab[2, :-1] = lower[1:]
        self.n = n
        self._ab = ab

    def solve(self, rhs: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        from scipy.linalg import solve_banded

        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError("rhs first dimension must match the matrix size")
        try:
            x = solve_banded((1, 1), self._ab, rhs, check_finite=False)
        except np.linalg.LinAlgError as error:
            raise ConvergenceError(
                f"banded tridiagonal solve failed: {error}") from error
        if out is not None:
            np.copyto(out, x)
            return out
        return x


class _SpluSparseFactorization:
    """SuperLU factorization of a general COO matrix (scipy backend).

    *shift* is subtracted from the diagonal, for the shifted inverse
    iteration of the null solve.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray, n: int, shift: float = 0.0):
        from scipy.sparse import csc_matrix, identity
        from scipy.sparse.linalg import splu

        matrix = csc_matrix(
            (np.asarray(values, dtype=float),
             (np.asarray(rows, dtype=np.intp),
              np.asarray(cols, dtype=np.intp))),
            shape=(n, n))
        if shift:
            matrix = matrix - shift * identity(n, format="csc")
        try:
            self._factor = splu(matrix.tocsc())
        except RuntimeError as error:
            raise ConvergenceError(
                f"sparse LU factorization failed: {error}") from error
        self.n = n

    def solve(self, rhs: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs must have shape ({self.n},), got {rhs.shape}")
        x = self._factor.solve(rhs)
        if out is not None:
            np.copyto(out, x)
            return out
        return x


class ScipyBackend(NumericsBackend):
    """LAPACK-accelerated backend (requires scipy)."""

    name = "scipy"

    def __init__(self):
        self._use_gttrf: Optional[bool] = None

    def is_available(self) -> bool:
        return scipy_available()

    def stationary_null_vector(self, rows, cols, values, n,
                               guess=None, weights=None):
        """``splu`` shifted inverse iteration, sparse row-replacement fallback.

        The shifted operator is factorized once by ``splu`` and the shared
        :func:`_shifted_inverse_iteration` drives the seed into the null
        space; only a stalled or failed iteration falls back to a
        row-replacement ``spsolve``.
        """
        if not self.is_available():  # pragma: no cover - env dependent
            raise ConfigurationError(
                "the 'scipy' backend was requested but scipy is not installed")
        rows, cols, values, weights = _null_inputs(rows, cols, values, n,
                                                   weights)
        iterated = _shifted_inverse_iteration(
            lambda shift: _SpluSparseFactorization(rows, cols, values, n,
                                                   shift),
            rows, cols, values, n, guess, NULL_TOL, NULL_MAX_ITERATIONS)

        def row_replacement() -> np.ndarray:
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import spsolve

            pivot = _pivot_row(guess)
            lil = csc_matrix((values, (rows, cols)), shape=(n, n)).tolil()
            lil[pivot, :] = weights
            rhs = np.zeros(n)
            rhs[pivot] = 1.0
            return spsolve(lil.tocsc(), rhs)

        return _finish_null_solve(
            rows, cols, values, n, weights, NULL_TOL, iterated,
            "sparse-inverse-iteration", row_replacement,
            "sparse-row-replacement")

    def factorize_sparse(self, rows, cols, values, n, block_size=None):
        """General sparse LU via ``scipy.sparse.linalg.splu``.

        Handles any sparsity pattern; *block_size* is accepted for interface
        parity but not needed (SuperLU's fill-reducing ordering exploits the
        block structure on its own).
        """
        if not self.is_available():  # pragma: no cover - env dependent
            raise ConfigurationError(
                "the 'scipy' backend was requested but scipy is not installed")
        return _SpluSparseFactorization(rows, cols, values, n)

    def factorize_tridiagonal(self, lower, diag, upper):
        if not self.is_available():  # pragma: no cover - env dependent
            raise ConfigurationError(
                "the 'scipy' backend was requested but scipy is not installed")
        # LAPACK's gttrf wrapper rejects systems smaller than 3 rows; route
        # those through the banded solver, which handles any size.
        if np.asarray(diag).shape[0] < 3:
            return _ScipyBandedFactorization(lower, diag, upper)
        if self._use_gttrf is None:
            try:
                from scipy.linalg import lapack
                lapack.get_lapack_funcs(("gttrf", "gttrs"),
                                        (np.zeros(2, dtype=float),))
                self._use_gttrf = True
            except Exception:  # pragma: no cover - very old scipy
                self._use_gttrf = False
        if self._use_gttrf:
            return _ScipyGttrfFactorization(lower, diag, upper)
        return _ScipyBandedFactorization(lower, diag, upper)  # pragma: no cover


_REGISTRY: Dict[str, Callable[[], NumericsBackend]] = {
    NumpyBackend.name: NumpyBackend,
    ScipyBackend.name: ScipyBackend,
}
_INSTANCES: Dict[str, NumericsBackend] = {}


def available_backends() -> list:
    """Names of the registered backends usable in this environment."""
    names = []
    for name in sorted(_REGISTRY):
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = _REGISTRY[name]()
        if instance.is_available():
            _INSTANCES[name] = instance
            names.append(name)
    return names


def is_known_backend(name: str) -> bool:
    """Whether *name* is resolvable by :func:`get_backend` (``""`` = auto)."""
    return name in ("", "auto") or name in _REGISTRY


def get_backend(name: Optional[str] = None) -> NumericsBackend:
    """Resolve and return a :class:`NumericsBackend` instance.

    Resolution order: explicit *name* -> the :data:`BACKEND_ENV_VAR`
    environment variable -> ``"numpy"``.  ``"auto"`` (or an empty string)
    picks ``"scipy"`` when available, ``"numpy"`` otherwise.

    Raises
    ------
    ConfigurationError
        For unknown backend names, or when the requested backend cannot run
        in this environment.
    """
    source = "explicit"
    if not name:
        env_name = os.environ.get(BACKEND_ENV_VAR, "")
        if env_name:
            name = env_name
            source = f"the {BACKEND_ENV_VAR} environment variable"
        else:
            name = "numpy"
    if name == "auto":
        name = ScipyBackend.name if scipy_available() else NumpyBackend.name
    factory = _REGISTRY.get(name)
    if factory is None:
        origin = "" if source == "explicit" else f" (from {source})"
        raise ConfigurationError(
            f"unknown numerics backend {name!r}{origin}; available backends "
            f"in this environment: {available_backends()} (plus 'auto')")
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = factory()
        _INSTANCES[name] = instance
    if not instance.is_available():
        raise ConfigurationError(
            f"numerics backend {name!r} is not available in this environment")
    return instance
