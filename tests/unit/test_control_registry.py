"""Unit tests for the control-law registry."""

import pytest

from repro import ConfigurationError, JRJControl, create_control
from repro.control.base import RateControl
from repro.control.linear import (
    AdditiveIncreaseAdditiveDecrease,
    LinearIncreaseLinearDecrease,
)
from repro.control.multiplicative import (
    LinearIncreaseMultiplicativeStepDecrease,
    MultiplicativeIncreaseMultiplicativeDecrease,
)
from repro.control import registry
from repro.control.registry import register_control

_GAINS = {"c0": 0.05, "c1": 0.2, "q_target": 10.0}
_LINEAR = {"c0": 0.05, "d0": 0.1, "q_target": 10.0}

#: Every built-in name, the law it creates and gains for it.
BUILTIN_LAWS = {
    "jrj": (JRJControl, _GAINS),
    "linear-exponential": (JRJControl, _GAINS),
    "linear": (LinearIncreaseLinearDecrease, _LINEAR),
    "linear-linear": (LinearIncreaseLinearDecrease, _LINEAR),
    "aiad": (AdditiveIncreaseAdditiveDecrease, _LINEAR),
    "mimd": (MultiplicativeIncreaseMultiplicativeDecrease,
             {"increase_gain": 0.05, "decrease_gain": 0.2, "q_target": 10.0}),
    "capped-jrj": (LinearIncreaseMultiplicativeStepDecrease,
                   {**_GAINS, "max_decrease": 0.5}),
}


class TestRegistry:
    def test_create_jrj_by_name(self):
        control = create_control("jrj", c0=0.05, c1=0.2, q_target=10.0)
        assert isinstance(control, JRJControl)
        assert control.drift(0.0, 1.0) == pytest.approx(0.05)

    def test_create_is_case_insensitive(self):
        control = create_control("JRJ", c0=0.05, c1=0.2, q_target=10.0)
        assert isinstance(control, JRJControl)

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_control("does-not-exist")
        message = str(excinfo.value)
        assert "available" in message
        for name in ("jrj", "linear", "mimd"):
            assert f"'{name}'" in message

    def test_register_custom_control(self, monkeypatch):
        class ConstantControl(RateControl):
            def drift(self, queue_length, rate):
                return 0.0

        # A private copy of the registry, so the name is new on every run.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        register_control("test-constant-control", ConstantControl)
        control = create_control("test-constant-control")
        assert control.drift(3.0, 1.0) == 0.0

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_control("jrj", JRJControl)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_control("   ", JRJControl)

    def test_linear_exponential_alias_maps_to_jrj(self):
        control = create_control("linear-exponential", c0=0.1, c1=0.3,
                                 q_target=5.0)
        assert isinstance(control, JRJControl)

    @pytest.mark.parametrize("name", sorted(BUILTIN_LAWS))
    def test_builtin_name_creates_its_law(self, name):
        law, gains = BUILTIN_LAWS[name]
        control = create_control(name, **gains)
        assert type(control) is law
        # Every built-in law raises the rate below its target queue and
        # lowers it above.
        assert control.drift(0.0, 1.0) > 0.0 > control.drift(20.0, 1.0)
