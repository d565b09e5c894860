"""Tridiagonal linear solver (Thomas algorithm) with reusable factorizations.

Used by the Crank-Nicolson diffusion step of the Fokker-Planck solver, where
the implicit operator ``(I - dt/2 * D)`` is tridiagonal along the queue axis.
A pure-numpy implementation is provided so the solver has no dependency on
``scipy.linalg.solve_banded`` internals; results are tested against a dense
solve.

The solver comes in two layers:

* :class:`TridiagonalFactorization` runs the Thomas forward elimination for
  the *matrix* once (pivots and the ``c'`` coefficients) and can then solve
  against any number of right-hand sides.  The Fokker-Planck solver reuses
  one factorization for every Crank-Nicolson substep that shares the same
  diffusion number, which removes the per-step elimination cost that used to
  dominate the PDE hot path.

The row-by-row arithmetic of :meth:`TridiagonalFactorization.solve` is the
same as the historical one-shot implementation (``b[i] = (b[i] - l[i] *
b[i-1]) / pivot[i]`` followed by back substitution), so cached solves are
bitwise identical to the original code path.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConvergenceError

__all__ = ["TridiagonalFactorization", "BatchedTridiagonalFactorization"]


class TridiagonalFactorization:
    """Pre-eliminated Thomas factorization of a tridiagonal matrix.

    Parameters
    ----------
    lower:
        Sub-diagonal of length ``n`` (``lower[0]`` is ignored).
    diag:
        Main diagonal of length ``n``.
    upper:
        Super-diagonal of length ``n`` (``upper[-1]`` is ignored).

    Raises
    ------
    ConvergenceError
        If a pivot becomes numerically zero during the forward elimination
        (the matrix is singular or badly conditioned for the Thomas
        algorithm).
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        lower = np.asarray(lower, dtype=float)
        diag = np.asarray(diag, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n = diag.shape[0]
        if lower.shape[0] != n or upper.shape[0] != n:
            raise ValueError("lower, diag and upper must all have the same length")

        # Forward elimination of the matrix (python floats: IEEE-754 doubles,
        # bit-identical to the numpy scalar arithmetic they replace, and much
        # cheaper to index in the per-row loops below).
        lower_list = lower.tolist()
        diag_list = diag.tolist()
        upper_list = upper.tolist()
        pivots = [0.0] * n
        c_prime = [0.0] * n
        pivot = diag_list[0]
        if abs(pivot) < 1e-300:
            raise ConvergenceError("tridiagonal solve hit a zero pivot at row 0")
        pivots[0] = pivot
        c_prime[0] = upper_list[0] / pivot
        for i in range(1, n):
            pivot = diag_list[i] - lower_list[i] * c_prime[i - 1]
            if abs(pivot) < 1e-300:
                raise ConvergenceError(
                    f"tridiagonal solve hit a zero pivot at row {i}")
            pivots[i] = pivot
            c_prime[i] = upper_list[i] / pivot

        self.n = n
        self._lower = lower_list
        self._pivots = pivots
        self._c_prime = c_prime

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Solve ``A x = rhs`` using the cached elimination coefficients.

        Parameters
        ----------
        rhs:
            Right-hand side.  May be one-dimensional of length ``n`` or
            two-dimensional of shape ``(n, m)`` to solve ``m`` systems that
            share the matrix (the column dimension is fully vectorized).
        out:
            Optional preallocated output array of the same shape as *rhs*
            (must not alias *rhs*).  When given, no allocation happens.

        Returns
        -------
        numpy.ndarray
            Solution with the same shape as *rhs* (*out* when provided).
        """
        rhs = np.asarray(rhs, dtype=float)
        n = self.n
        if rhs.shape[0] != n:
            raise ValueError("rhs first dimension must match the matrix size")

        one_dimensional = rhs.ndim == 1
        if out is None:
            b = rhs.reshape(n, -1).copy()
        else:
            if out.shape != rhs.shape:
                raise ValueError("out must have the same shape as rhs")
            b = out.reshape(n, -1)
            np.copyto(b, rhs.reshape(n, -1))

        lower = self._lower
        pivots = self._pivots
        c_prime = self._c_prime

        # Forward substitution on the right-hand side.
        b0 = b[0]
        np.divide(b0, pivots[0], out=b0)
        tmp = np.empty_like(b0)
        previous = b0
        for i in range(1, n):
            bi = b[i]
            np.multiply(previous, lower[i], out=tmp)
            np.subtract(bi, tmp, out=bi)
            np.divide(bi, pivots[i], out=bi)
            previous = bi

        # Back substitution.
        following = b[n - 1]
        for i in range(n - 2, -1, -1):
            bi = b[i]
            np.multiply(following, c_prime[i], out=tmp)
            np.subtract(bi, tmp, out=bi)
            following = bi

        if out is not None:
            return out
        return b[:, 0] if one_dimensional else b


class BatchedTridiagonalFactorization:
    """Thomas factorization of many independent tridiagonal systems.

    Where :class:`TridiagonalFactorization` solves *one* matrix against many
    right-hand-side columns, this class solves ``batch`` *different* matrices
    (each of size ``n``) against one right-hand side each, with every row
    operation vectorized across the batch.  This is the shape of the ADI
    half-step solves: the implicit q-direction operator decouples into one
    tridiagonal system per ν-column (and the ν-direction operator into one
    per q-row), each with its own coefficients.

    Parameters
    ----------
    lower, diag, upper:
        Band arrays of shape ``(batch, n)``; ``lower[:, 0]`` and
        ``upper[:, -1]`` are ignored.

    Raises
    ------
    ConvergenceError
        If any system hits a numerically zero pivot during elimination.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        lower = np.asarray(lower, dtype=float)
        diag = np.asarray(diag, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 2 or lower.shape != diag.shape \
                or upper.shape != diag.shape:
            raise ValueError(
                "lower, diag and upper must share one (batch, n) shape")
        batch, n = diag.shape

        pivots = np.empty((batch, n))
        c_prime = np.empty((batch, n))
        pivot = diag[:, 0].copy()
        if float(np.min(np.abs(pivot))) < 1e-300:
            raise ConvergenceError(
                "batched tridiagonal solve hit a zero pivot at row 0")
        pivots[:, 0] = pivot
        c_prime[:, 0] = upper[:, 0] / pivot
        for i in range(1, n):
            pivot = diag[:, i] - lower[:, i] * c_prime[:, i - 1]
            if float(np.min(np.abs(pivot))) < 1e-300:
                raise ConvergenceError(
                    f"batched tridiagonal solve hit a zero pivot at row {i}")
            pivots[:, i] = pivot
            c_prime[:, i] = upper[:, i] / pivot

        self.batch = batch
        self.n = n
        # Column-sliced copies: the sweeps below touch one row index at a
        # time across the whole batch, so contiguous per-index columns keep
        # every vectorized operation stride-1.
        self._lower_cols = np.ascontiguousarray(lower.T)
        self._pivot_cols = np.ascontiguousarray(pivots.T)
        self._c_prime_cols = np.ascontiguousarray(c_prime.T)

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Solve every system against its right-hand-side row.

        Parameters
        ----------
        rhs:
            Array of shape ``(batch, n)``; row ``b`` is the right-hand side
            of system ``b``.
        out:
            Optional preallocated ``(batch, n)`` output (must not alias
            *rhs*).

        Returns
        -------
        numpy.ndarray
            Solutions of shape ``(batch, n)`` (*out* when provided).
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.batch, self.n):
            raise ValueError(
                f"rhs must have shape {(self.batch, self.n)}, got {rhs.shape}")
        if out is None:
            b = rhs.copy()
        else:
            if out.shape != rhs.shape:
                raise ValueError("out must have the same shape as rhs")
            b = out
            np.copyto(b, rhs)

        n = self.n
        lower = self._lower_cols
        pivots = self._pivot_cols
        c_prime = self._c_prime_cols
        tmp = np.empty(self.batch)

        previous = b[:, 0]
        np.divide(previous, pivots[0], out=previous)
        for i in range(1, n):
            bi = b[:, i]
            np.multiply(previous, lower[i], out=tmp)
            np.subtract(bi, tmp, out=bi)
            np.divide(bi, pivots[i], out=bi)
            previous = bi

        following = b[:, n - 1]
        for i in range(n - 2, -1, -1):
            bi = b[:, i]
            np.multiply(following, c_prime[i], out=tmp)
            np.subtract(bi, tmp, out=bi)
            following = bi
        return b
