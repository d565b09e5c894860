"""Unit tests for the parameter dataclasses in repro.config."""

import dataclasses
import json

import pytest

from repro import (
    ConfigurationError,
    GridParameters,
    SourceParameters,
    SystemParameters,
    TimeParameters,
)


class TestSystemParameters:
    def test_defaults_are_valid(self):
        params = SystemParameters()
        assert params.mu > 0.0
        assert params.c0 > 0.0
        assert params.c1 > 0.0

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(mu=-1.0)

    def test_zero_mu_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(mu=0.0)

    def test_negative_target_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(q_target=-1.0)

    def test_non_positive_c0_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(c0=0.0)

    def test_non_positive_c1_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(c1=-0.5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(sigma=-0.1)

    def test_frozen(self):
        params = SystemParameters()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.mu = 3.0


class TestGridParameters:
    def test_spacing_properties(self):
        grid = GridParameters(q_max=40.0, nq=80, v_min=-2.0, v_max=2.0, nv=100)
        assert grid.dq == pytest.approx(0.5)
        assert grid.dv == pytest.approx(0.04)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ConfigurationError):
            GridParameters(nq=2)
        with pytest.raises(ConfigurationError):
            GridParameters(nv=1)

    def test_rejects_inverted_velocity_bounds(self):
        with pytest.raises(ConfigurationError):
            GridParameters(v_min=1.0, v_max=-1.0)

    def test_rejects_non_positive_q_max(self):
        with pytest.raises(ConfigurationError):
            GridParameters(q_max=0.0)


class TestTimeParameters:
    def test_n_steps(self):
        time_params = TimeParameters(t_end=10.0, dt=0.5)
        assert time_params.n_steps == 20

    @pytest.mark.parametrize("t_end, dt, n_steps", [
        (1.0, 0.3, 4),      # round(3.33) steps would end at 0.9
        (1.0, 0.4, 3),      # round(2.5) is 2: would end at 0.8
        (10.0, 3.0, 4),     # would end at 9.0
        (60.0, 0.05, 1200),  # a multiple of dt keeps its count
        (1.0, 0.6, 2),      # rounding up already reaches t_end
    ])
    def test_n_steps_reaches_t_end(self, t_end, dt, n_steps):
        time_params = TimeParameters(t_end=t_end, dt=dt)
        assert time_params.n_steps == n_steps
        assert time_params.n_steps * dt >= t_end - 1e-9 * dt

    def test_rejects_bad_cfl(self):
        with pytest.raises(ConfigurationError):
            TimeParameters(cfl=0.0)
        with pytest.raises(ConfigurationError):
            TimeParameters(cfl=1.5)

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ConfigurationError):
            TimeParameters(t_end=0.0)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ConfigurationError):
            TimeParameters(dt=0.0)

    def test_rejects_zero_snapshot_interval(self):
        with pytest.raises(ConfigurationError):
            TimeParameters(snapshot_every=0)


class TestSourceParameters:
    def test_defaults_valid(self):
        source = SourceParameters()
        assert source.c0 > 0.0
        assert source.delay == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceParameters(delay=-1.0)

    def test_negative_initial_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceParameters(initial_rate=-0.1)

    def test_non_positive_gains_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceParameters(c0=0.0)
        with pytest.raises(ConfigurationError):
            SourceParameters(c1=0.0)


class TestDictRoundTrip:
    EXAMPLES = [
        SystemParameters(mu=2.0, q_target=5.0, c0=0.1, c1=0.3, sigma=0.4),
        GridParameters(q_max=25.0, nq=50, v_min=-2.0, v_max=2.0, nv=40),
        TimeParameters(t_end=50.0, dt=0.1, cfl=0.5, snapshot_every=5),
        SourceParameters(c0=0.02, c1=0.4, delay=1.5, initial_rate=0.2,
                         name="src-a"),
    ]

    @pytest.mark.parametrize("params", EXAMPLES,
                             ids=lambda p: type(p).__name__)
    def test_round_trip_is_identity(self, params):
        revived = type(params).from_dict(params.to_dict())
        assert revived == params

    @pytest.mark.parametrize("params", EXAMPLES,
                             ids=lambda p: type(p).__name__)
    def test_to_dict_is_json_serialisable(self, params):
        data = params.to_dict()
        assert data["__parameters__"] == type(params).__name__
        assert json.loads(json.dumps(data)) == data

    def test_from_dict_without_tag_accepted(self):
        revived = SystemParameters.from_dict({"mu": 2.0, "q_target": 4.0})
        assert revived.mu == 2.0 and revived.q_target == 4.0

    def test_wrong_tag_rejected(self):
        data = SystemParameters().to_dict()
        with pytest.raises(ConfigurationError):
            GridParameters.from_dict(data)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters.from_dict({"__parameters__": "NoSuchParameters"})

    def test_unknown_field_rejected(self):
        data = SystemParameters().to_dict()
        data["bogus"] = 1.0
        with pytest.raises(ConfigurationError):
            SystemParameters.from_dict(data)

    def test_round_trip_still_validates(self):
        data = SystemParameters().to_dict()
        data["mu"] = -1.0
        with pytest.raises(ConfigurationError):
            SystemParameters.from_dict(data)
