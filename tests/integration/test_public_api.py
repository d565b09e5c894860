"""Smoke tests of the public API surface documented in the README."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro import (
    FokkerPlanckSolver,
    JRJControl,
    SystemParameters,
    TimeParameters,
    create_control,
    verify_theorem1,
)


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__ == "1.2.0"

    def test_all_exports_resolve(self):
        # The package and every module under it: a name left in some
        # __all__ after its definition was deleted fails here.
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")]
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), \
                    f"{module.__name__} is missing export {name}"

    def test_readme_quickstart_snippet(self):
        params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2,
                                  sigma=0.3)
        control = JRJControl(c0=params.c0, c1=params.c1,
                             q_target=params.q_target)
        solver = FokkerPlanckSolver(params, control)
        result = solver.solve_from_point(
            q0=0.0, rate0=0.5,
            time_params=TimeParameters(t_end=30.0, dt=0.5, snapshot_every=10))
        assert result.final_moments.mean_q > 0.0
        assert result.final_moments.std_q >= 0.0
        assert 0.0 <= result.overflow_probability(30.0) <= 1.0

        check = verify_theorem1(params)
        assert check.converges

    def test_registry_round_trip(self):
        control = create_control("jrj", c0=0.1, c1=0.3, q_target=4.0)
        assert control.drift(0.0, 1.0) == pytest.approx(0.1)

    def test_exception_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.GridError, repro.ConfigurationError)
        assert issubclass(repro.AnalysisError, repro.ReproError)
        assert issubclass(repro.StabilityError, repro.ReproError)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.characteristics
        import repro.control
        import repro.core
        import repro.delay
        import repro.fluid
        import repro.multisource
        import repro.numerics
        import repro.queueing
        import repro.stochastic
        import repro.workloads
        assert repro.numerics.UniformGrid1D is not None
