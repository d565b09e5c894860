"""Unit tests for the numerics backend registry and backend parity."""

from dataclasses import replace

import numpy as np
import pytest

from repro import FokkerPlanckSolver, GridParameters, JRJControl, SystemParameters, TimeParameters
from repro.core import diffusion
from repro.core.diffusion import CrankNicolsonDiffusion
from repro.core.generator import assemble_generator
from repro.design import solve_stationary
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.numerics import backend as backend_module
from repro.numerics.backend import (
    BACKEND_ENV_VAR,
    DENSE_NULL_LIMIT,
    NumpyBackend,
    _finish_null_solve,
    _relative_residual,
    available_backends,
    get_backend,
    is_known_backend,
    scipy_available,
)
from repro.numerics.grids import PhaseGrid2D, UniformGrid1D

needs_scipy = pytest.mark.skipif(not scipy_available(),
                                 reason="scipy not installed")

#: The golden stationary configuration of ``test_stationary_golden.py``.
STATIONARY_PARAMS = SystemParameters(mu=1.0, q_target=8.0, c0=0.1, c1=0.4,
                                     sigma=0.5)


def _cn_bands(n, r):
    lower = np.full(n, -r)
    upper = np.full(n, -r)
    diag = np.full(n, 1.0 + 2.0 * r)
    diag[0] = 1.0 + r
    diag[-1] = 1.0 + r
    return lower, diag, upper


class TestRegistry:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().name == "numpy"

    def test_explicit_name(self):
        assert get_backend("numpy").name == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"

    def test_explicit_name_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "definitely-not-a-backend")
        assert get_backend("numpy").name == "numpy"

    def test_auto_resolves(self):
        backend = get_backend("auto")
        expected = "scipy" if scipy_available() else "numpy"
        assert backend.name == expected

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_backend("no-such-backend")

    def test_unknown_name_lists_available_backends(self):
        with pytest.raises(ConfigurationError) as err:
            get_backend("no-such-backend")
        message = str(err.value)
        for name in available_backends():
            assert name in message
        assert "auto" in message

    def test_unknown_env_name_cites_the_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
        with pytest.raises(ConfigurationError) as err:
            get_backend()
        assert BACKEND_ENV_VAR in str(err.value)

    def test_available_backends_contains_numpy(self):
        assert "numpy" in available_backends()

    def test_is_known_backend(self):
        assert is_known_backend("")
        assert is_known_backend("auto")
        assert is_known_backend("numpy")
        assert not is_known_backend("no-such-backend")

    def test_system_parameters_backend_field(self):
        params = SystemParameters(backend="numpy")
        assert params.backend == "numpy"
        assert replace(params, backend="auto").backend == "auto"
        data = params.to_dict()
        assert data["backend"] == "numpy"
        assert SystemParameters.from_dict(data) == params

    def test_system_parameters_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(backend="no-such-backend")


@needs_scipy
class TestScipyParity:
    def test_tridiagonal_solutions_match(self, rng):
        n = 60
        lower, diag, upper = _cn_bands(n, 0.37)
        rhs = rng.uniform(0.0, 1.0, (n, 9))
        reference = get_backend("numpy").factorize_tridiagonal(
            lower, diag, upper).solve(rhs)
        scipy_result = get_backend("scipy").factorize_tridiagonal(
            lower, diag, upper).solve(rhs)
        assert np.allclose(scipy_result, reference, rtol=0.0, atol=1e-13)

    def test_tiny_systems_supported(self, rng):
        # LAPACK's gttrf rejects n < 3; the backend must fall back to the
        # banded solver instead of leaking a raw f2py error.
        backend = get_backend("scipy")
        for n in (1, 2, 3):
            lower, diag, upper = _cn_bands(n, 0.3)
            rhs = rng.uniform(0.0, 1.0, n)
            reference = get_backend("numpy").factorize_tridiagonal(
                lower, diag, upper).solve(rhs)
            result = backend.factorize_tridiagonal(lower, diag,
                                                   upper).solve(rhs)
            assert np.allclose(result, reference, rtol=0.0, atol=1e-13)

    def test_factorization_reuse_matches(self, rng):
        n = 32
        lower, diag, upper = _cn_bands(n, 1.2)
        numpy_fact = get_backend("numpy").factorize_tridiagonal(lower, diag, upper)
        scipy_fact = get_backend("scipy").factorize_tridiagonal(lower, diag, upper)
        for _ in range(3):
            rhs = rng.uniform(-1.0, 1.0, n)
            assert np.allclose(scipy_fact.solve(rhs), numpy_fact.solve(rhs),
                               rtol=0.0, atol=1e-13)

    def test_crank_nicolson_backends_agree(self, monkeypatch):
        grid = PhaseGrid2D(UniformGrid1D(0.0, 20.0, 64),
                           UniformGrid1D(-1.0, 1.0, 12))
        density = grid.gaussian_density(8.0, 0.0, 1.5, 0.3)
        # A dense limit of 0 forces the factorized path so the backends'
        # banded solvers (not the shared dense combined operator) are
        # compared.
        monkeypatch.setattr(diffusion, "DENSE_NQ_LIMIT", 0)
        numpy_op = CrankNicolsonDiffusion(grid, 0.5,
                                          backend=get_backend("numpy"))
        scipy_op = CrankNicolsonDiffusion(grid, 0.5,
                                          backend=get_backend("scipy"))
        a = density
        b = density
        for _ in range(20):
            a = numpy_op.step(a, 0.05)
            b = scipy_op.step(b, 0.05)
        assert np.allclose(a, b, rtol=0.0, atol=1e-13)

    def test_full_solver_backends_agree(self, small_grid_params,
                                        short_time_params):
        control = JRJControl(c0=0.05, c1=0.2, q_target=10.0)
        results = {}
        for name in ("numpy", "scipy"):
            params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                      sigma=0.4, backend=name)
            solver = FokkerPlanckSolver(params, control,
                                        grid_params=small_grid_params)
            assert solver.backend.name == name
            results[name] = solver.solve_from_point(2.0, 0.6, short_time_params)
        a = results["numpy"].final_moments
        b = results["scipy"].final_moments
        assert a.mean_q == pytest.approx(b.mean_q, abs=1e-11)
        assert a.var_q == pytest.approx(b.var_q, abs=1e-11)
        assert a.mass == pytest.approx(b.mass, abs=1e-11)


def _coo_from_bands(lower, diag, upper):
    """COO triplets of the tridiagonal matrix with the given bands."""
    n = diag.size
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[1:], idx[:-1]])
    cols = np.concatenate([idx, idx[1:] - 1, idx[:-1] + 1])
    values = np.concatenate([diag, lower[1:], upper[:-1]])
    return rows, cols, values


def _dense_from_coo(rows, cols, values, n):
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), values)
    return dense


class TestFactorizeSparse:
    def test_flat_tridiagonal(self, rng):
        n = 50
        lower, diag, upper = _cn_bands(n, 0.6)
        rows, cols, values = _coo_from_bands(lower, diag, upper)
        dense = _dense_from_coo(rows, cols, values, n)
        fact = get_backend("numpy").factorize_sparse(rows, cols, values, n)
        rhs = rng.uniform(0.0, 1.0, n)
        assert np.allclose(dense @ fact.solve(rhs), rhs, atol=1e-11)

    def test_block_decoupled_tridiagonal(self, rng):
        # Zeroed couplings at every block boundary: the numpy backend must
        # recognise the structure and still solve the system exactly.
        blocks, block_size = 6, 8
        n = blocks * block_size
        lower, diag, upper = _cn_bands(n, 0.6)
        lower[block_size::block_size] = 0.0
        upper[block_size - 1::block_size] = 0.0
        rows, cols, values = _coo_from_bands(lower, diag, upper)
        dense = _dense_from_coo(rows, cols, values, n)
        fact = get_backend("numpy").factorize_sparse(rows, cols, values, n,
                                                     block_size=block_size)
        rhs = rng.uniform(0.0, 1.0, n)
        assert np.allclose(dense @ fact.solve(rhs), rhs, atol=1e-11)

    def test_non_tridiagonal_dense_fallback(self, rng):
        # A pentadiagonal matrix has no Thomas fast path on numpy; it runs
        # on the block-banded factorization instead.
        n = 40
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[2:], idx[:-2]])
        cols = np.concatenate([idx, idx[2:] - 2, idx[:-2] + 2])
        values = np.concatenate([np.full(n, 3.0), np.full(n - 2, -1.0),
                                 np.full(n - 2, -1.0)])
        dense = _dense_from_coo(rows, cols, values, n)
        fact = get_backend("numpy").factorize_sparse(rows, cols, values, n)
        rhs = rng.uniform(0.0, 1.0, n)
        assert np.allclose(dense @ fact.solve(rhs), rhs, atol=1e-11)

    def test_large_non_tridiagonal_factorizes(self, rng):
        # Size is no limit for a banded pattern: this n = 2050 system with
        # offsets 0 and -2 factorizes in blocks of two rows.
        n = 2050
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[2:]])
        cols = np.concatenate([idx, idx[2:] - 2])
        values = np.concatenate([np.full(n, 3.0), np.full(n - 2, -1.0)])
        fact = get_backend("numpy").factorize_sparse(rows, cols, values, n)
        rhs = rng.uniform(0.0, 1.0, n)
        solution = fact.solve(rhs)
        residual = 3.0 * solution
        residual[2:] -= solution[:-2]
        assert np.allclose(residual, rhs, rtol=0.0, atol=1e-12)

    def test_null_vector_guards_dense_blowup(self):
        # Two entries, but a bandwidth of n - 1: two blocks of (n - 1)²
        # per band, ~6·n² doubles, so both refuse before allocating them.
        n = DENSE_NULL_LIMIT + 1
        rows = np.array([0, n - 1])
        cols = np.array([n - 1, 0])
        for call in (get_backend("numpy").stationary_null_vector,
                     get_backend("numpy").factorize_sparse):
            with pytest.raises(ConfigurationError) as err:
                call(rows, cols, np.ones(2), n)
            assert "scipy" in str(err.value)

    @needs_scipy
    def test_null_vector_beyond_dense_limit_matches_scipy(self):
        # 250 x 81 = 20250 unknowns, more than the dense fallback takes.
        grid = GridParameters(q_max=30.0, nq=250, v_min=-1.2, v_max=1.2,
                              nv=81)
        assert grid.nq * grid.nv > DENSE_NULL_LIMIT
        results = {name: solve_stationary(STATIONARY_PARAMS, grid_params=grid,
                                          backend=name)
                   for name in ("numpy", "scipy")}
        numpy_result, scipy_result = results["numpy"], results["scipy"]
        assert numpy_result.estimate.backend == "block-banded-inverse-iteration"
        np.testing.assert_allclose(numpy_result.density, scipy_result.density,
                                   rtol=0.0, atol=1e-12)
        for name in ("mean_queue", "std_queue", "mean_growth_rate",
                     "std_growth_rate"):
            assert getattr(numpy_result.estimate, name) == pytest.approx(
                getattr(scipy_result.estimate, name), rel=1e-12, abs=1e-15)

    @needs_scipy
    def test_scipy_parity(self, rng):
        n = 64
        lower, diag, upper = _cn_bands(n, 0.9)
        lower[16::16] = 0.0
        upper[15::16] = 0.0
        rows, cols, values = _coo_from_bands(lower, diag, upper)
        numpy_fact = get_backend("numpy").factorize_sparse(
            rows, cols, values, n, block_size=16)
        scipy_fact = get_backend("scipy").factorize_sparse(
            rows, cols, values, n, block_size=16)
        for _ in range(3):
            rhs = rng.uniform(-1.0, 1.0, n)
            assert np.allclose(scipy_fact.solve(rhs), numpy_fact.solve(rhs),
                               rtol=0.0, atol=1e-12)

    @needs_scipy
    def test_scipy_handles_general_sparsity(self, rng):
        # splu does not care about bandedness; a large pentadiagonal system
        # must factorize fine on scipy too.
        n = 2050
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[2:], idx[:-2]])
        cols = np.concatenate([idx, idx[2:] - 2, idx[:-2] + 2])
        values = np.concatenate([np.full(n, 3.0), np.full(n - 2, -1.0),
                                 np.full(n - 2, -1.0)])
        fact = get_backend("scipy").factorize_sparse(rows, cols, values, n)
        rhs = rng.uniform(0.0, 1.0, n)
        solution = fact.solve(rhs)
        residual = 3.0 * solution
        residual[2:] -= solution[:-2]
        residual[:-2] -= solution[2:]
        assert np.allclose(residual, rhs, atol=1e-11)


def _shifted(operator, shift):
    """COO triplets of ``operator − shift·I``."""
    idx = np.arange(operator.n)
    return (np.concatenate([operator.rows, idx]),
            np.concatenate([operator.cols, idx]),
            np.concatenate([operator.values, np.full(operator.n, -shift)]))


class TestBlockBandedFactorization:
    """The numpy block-banded LU against a dense solve of the same matrix.

    The generator operators are singular, so both are shifted to a
    well-conditioned ``M − 0.01·max|M|·I``.  On none of the grids is ``n``
    a multiple of the splitting matrix's block size (its bandwidth
    ``2·nv + 1``), so its padded last block is exercised every time; ``L``
    has bandwidth ``nv`` and needs no padding.
    """

    @pytest.mark.parametrize("nq,nv", [(48, 36), (31, 17), (5, 4)])
    @pytest.mark.parametrize("method", ["splitting", "generator"])
    def test_solve_matches_dense(self, nq, nv, method, rng):
        grid = GridParameters(q_max=30.0, nq=nq, v_min=-1.2, v_max=1.2,
                              nv=nv)
        generator = assemble_generator(STATIONARY_PARAMS, grid_params=grid)
        operator = (generator.splitting_matrix(
                        min(0.05, generator.max_stable_dt()))
                    if method == "splitting" else generator.generator())
        bandwidth = int(np.max(np.abs(operator.cols - operator.rows)))
        assert bandwidth == (2 * nv + 1 if method == "splitting" else nv)
        assert (operator.n % bandwidth > 0) == (method == "splitting")
        rows, cols, values = _shifted(
            operator, 0.01 * np.max(np.abs(operator.values)))
        fact = get_backend("numpy").factorize_sparse(rows, cols, values,
                                                     operator.n)
        rhs = rng.uniform(-1.0, 1.0, operator.n)
        expected = np.linalg.solve(
            _dense_from_coo(rows, cols, values, operator.n), rhs)
        np.testing.assert_allclose(fact.solve(rhs), expected, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(expected)))


class TestNullVectorFallback:
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_row_replacement_matches_iteration(self, backend_name,
                                               monkeypatch):
        grid = GridParameters(q_max=30.0, nq=48, v_min=-1.2, v_max=1.2,
                              nv=36)
        generator = assemble_generator(STATIONARY_PARAMS, grid_params=grid)
        operator = generator.splitting_matrix(0.05)
        backend = get_backend(backend_name)
        iterated, info = backend.stationary_null_vector(
            operator.rows, operator.cols, operator.values, operator.n,
            weights=generator.mass_weights)
        # No iterations: the row-replacement fallback answers.
        monkeypatch.setattr(backend_module, "NULL_MAX_ITERATIONS", 0)
        replaced, fallback = backend.stationary_null_vector(
            operator.rows, operator.cols, operator.values, operator.n,
            weights=generator.mass_weights)
        assert info["method"].endswith("inverse-iteration")
        assert info["iterations"] == 2
        assert fallback["method"].endswith("row-replacement")
        np.testing.assert_allclose(replaced, iterated, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_failed_factorization_falls_back(self, backend_name,
                                             monkeypatch):
        # When the shifted operator cannot be factorized, the
        # row-replacement solve still answers.
        grid = GridParameters(q_max=30.0, nq=48, v_min=-1.2, v_max=1.2,
                              nv=36)
        generator = assemble_generator(STATIONARY_PARAMS, grid_params=grid)
        operator = generator.splitting_matrix(0.05)
        backend = get_backend(backend_name)
        iterated, _ = backend.stationary_null_vector(
            operator.rows, operator.cols, operator.values, operator.n,
            weights=generator.mass_weights)

        def fail(*args):
            raise ConvergenceError("factorization failed")

        factorization = {"numpy": "_BlockBandedFactorization",
                         "scipy": "_SpluSparseFactorization"}[backend_name]
        monkeypatch.setattr(backend_module, factorization, fail)
        replaced, info = backend.stationary_null_vector(
            operator.rows, operator.cols, operator.values, operator.n,
            weights=generator.mass_weights)
        assert info["method"].endswith("row-replacement")
        assert info["iterations"] == 0
        assert info["residual"] <= 1e-9
        np.testing.assert_allclose(replaced, iterated, rtol=0.0, atol=1e-12)


class TestFinishNullSolve:
    """How a null solve picks its answer, or reports why it has none.

    The operator is the generator of a three-state Markov chain: its columns
    sum to zero, and its stationary vector is ``(2, 1, 1) / 4``.
    """

    DENSE = np.array([[-1.0, 2.0, 0.0],
                      [1.0, -3.0, 1.0],
                      [0.0, 1.0, -1.0]])
    STATIONARY = np.array([0.5, 0.25, 0.25])
    WEIGHTS = np.ones(3)
    TOL = 1e-9

    @classmethod
    def _coo(cls, dense=None):
        dense = cls.DENSE if dense is None else dense
        rows, cols = np.nonzero(dense)
        return rows, cols, dense[rows, cols], dense.shape[0]

    @classmethod
    def _residual(cls, vector, dense=None):
        return _relative_residual(*cls._coo(dense), vector)

    @classmethod
    def _finish(cls, iterated, fallback, dense=None):
        return _finish_null_solve(*cls._coo(dense), cls.WEIGHTS, cls.TOL,
                                  iterated, "inverse-iteration", fallback,
                                  "row-replacement")

    @staticmethod
    def _unused():
        pytest.fail("the fallback must not run")

    @staticmethod
    def _failed():
        raise ConvergenceError("fallback factorization failed")

    def test_iterate_that_meets_tol_is_returned(self):
        vector, info = self._finish((3.0 * self.STATIONARY, 0.0, 2),
                                    self._unused)
        np.testing.assert_allclose(vector, self.STATIONARY, rtol=1e-15)
        assert info == {"residual": 0.0, "iterations": 2,
                        "method": "inverse-iteration"}

    def test_fallback_answers_a_stalled_iteration(self):
        stalled = self.STATIONARY + np.array([1e-3, 0.0, 0.0])
        vector, info = self._finish(
            (stalled, self._residual(stalled), 50),
            lambda: 7.0 * self.STATIONARY)
        np.testing.assert_allclose(vector, self.STATIONARY, rtol=1e-15)
        assert info["method"] == "row-replacement"
        assert info["iterations"] == 50
        assert info["residual"] <= self.TOL

    def test_error_reports_the_better_iterate(self):
        iterate = self.STATIONARY + np.array([1e-6, 0.0, 0.0])
        worse = self.STATIONARY + np.array([1e-3, 0.0, 0.0])
        residual = self._residual(iterate)
        with pytest.raises(ConvergenceError) as failure:
            self._finish((iterate, residual, 50), lambda: worse)
        assert failure.value.residual == residual
        assert failure.value.iterations == 50
        assert (f"best residual of {residual:.3e} (inverse-iteration)"
                in str(failure.value))

    def test_error_reports_the_better_fallback(self):
        iterate = self.STATIONARY + np.array([1e-3, 0.0, 0.0])
        better = self.STATIONARY + np.array([1e-6, 0.0, 0.0])
        residual = self._residual(better / (self.WEIGHTS @ better))
        with pytest.raises(ConvergenceError) as failure:
            self._finish((iterate, self._residual(iterate), 50),
                         lambda: better)
        assert failure.value.residual == residual
        assert (f"best residual of {residual:.3e} (row-replacement)"
                in str(failure.value))

    def test_failed_fallback_keeps_the_iterate(self):
        iterate = self.STATIONARY + np.array([1e-6, 0.0, 0.0])
        residual = self._residual(iterate)
        with pytest.raises(ConvergenceError) as failure:
            self._finish((iterate, residual, 50), self._failed)
        assert failure.value.residual == residual
        assert "(inverse-iteration)" in str(failure.value)

    def test_failed_iteration_reports_the_fallback(self):
        # No iterate (the shifted factorization failed) and a fallback that
        # misses tol: the fallback's residual is the best there is.
        near = self.STATIONARY + np.array([1e-6, 0.0, 0.0])
        residual = self._residual(near / (self.WEIGHTS @ near))
        with pytest.raises(ConvergenceError) as failure:
            self._finish((None, np.inf, 0), lambda: near)
        assert failure.value.residual == residual
        assert "(row-replacement)" in str(failure.value)

    def test_both_factorizations_failed(self):
        with pytest.raises(ConvergenceError,
                           match="fallback factorization failed"):
            self._finish((None, np.inf, 0), self._failed)

    def test_error_reports_the_mass_one_application_changes(self):
        # Mass leaks out of the third state at rate 1/2, so one application
        # of the operator to a vector with mass there changes its mass.
        leaky = self.DENSE.copy()
        leaky[2, 2] = -1.5
        iterate = self.STATIONARY / self.STATIONARY.max()
        change = (self.WEIGHTS @ (leaky @ iterate)) / (self.WEIGHTS @ iterate)
        assert change < 0.0
        with pytest.raises(ConvergenceError) as failure:
            self._finish((iterate, self._residual(iterate, leaky), 50),
                         self._failed, leaky)
        assert (f"changes that vector's mass by {change:.2e} of itself"
                in str(failure.value))


class TestBackendObjects:
    def test_numpy_backend_always_available(self):
        assert NumpyBackend().is_available()

    def test_one_shot_solve_matches_dense(self, rng):
        n = 24
        lower, diag, upper = _cn_bands(n, 0.8)
        rhs = rng.uniform(-1.0, 1.0, n)
        dense = np.zeros((n, n))
        for i in range(n):
            dense[i, i] = diag[i]
            if i:
                dense[i, i - 1] = lower[i]
            if i < n - 1:
                dense[i, i + 1] = upper[i]
        for name in available_backends():
            result = get_backend(name).factorize_tridiagonal(
                lower, diag, upper).solve(rhs)
            assert np.allclose(dense @ result, rhs, atol=1e-10), name


def _dense_from_bands(lower, diag, upper):
    return (np.diag(diag) + np.diag(lower[1:], -1)
            + np.diag(upper[:-1], 1))


#: Sizes that reach every tridiagonal path: the scipy backend hands systems
#: below three rows to its banded solver and the rest to LAPACK ``gttrf``.
TRIDIAGONAL_SIZES = (1, 2, 5)


class TestTridiagonalFactorizationOnEveryBackend:
    """``factorize_tridiagonal(...).solve``, the one tridiagonal path the
    steppers take, keeps shapes and rejects bad systems on each backend."""

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("n", TRIDIAGONAL_SIZES)
    def test_solution_keeps_the_rhs_shape(self, backend_name, n, rng):
        lower, diag, upper = _cn_bands(n, 0.6)
        dense = _dense_from_bands(lower, diag, upper)
        factorization = get_backend(backend_name).factorize_tridiagonal(
            lower, diag, upper)
        for shape in ((n,), (n, 3)):
            rhs = rng.uniform(-1.0, 1.0, shape)
            solution = factorization.solve(rhs)
            assert solution.shape == shape
            assert np.allclose(dense @ solution, rhs, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("n", TRIDIAGONAL_SIZES)
    def test_singular_matrix_raises(self, backend_name, n):
        backend = get_backend(backend_name)
        with pytest.raises(ConvergenceError):
            backend.factorize_tridiagonal(
                np.zeros(n), np.zeros(n), np.zeros(n)).solve(np.ones(n))

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("n", TRIDIAGONAL_SIZES)
    def test_rhs_length_mismatch_raises(self, backend_name, n):
        factorization = get_backend(backend_name).factorize_tridiagonal(
            np.zeros(n), np.ones(n), np.zeros(n))
        with pytest.raises(ValueError):
            factorization.solve(np.ones(n + 1))

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_band_length_mismatch_raises(self, backend_name):
        with pytest.raises(ValueError):
            get_backend(backend_name).factorize_tridiagonal(
                np.zeros(3), np.ones(4), np.zeros(4))

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_preallocated_out_is_filled_and_returned(self, backend_name, rng):
        lower, diag, upper = _cn_bands(6, 0.4)
        factorization = get_backend(backend_name).factorize_tridiagonal(
            lower, diag, upper)
        rhs = rng.uniform(-1.0, 1.0, (6, 2))
        out = np.empty_like(rhs)
        assert factorization.solve(rhs, out=out) is out
        assert np.array_equal(out, factorization.solve(rhs))
