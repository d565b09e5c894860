"""Property-based tests of the control-law invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DECbitWindow, JacobsonWindow, JRJControl
from repro.control.linear import LinearIncreaseLinearDecrease
from repro.multisource.fairness import (
    jain_fairness_index,
    predicted_equilibrium_shares,
)
from repro.config import SourceParameters

gain = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
queue_value = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
rate_value = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
window_value = st.floats(min_value=1.0, max_value=1e4, allow_nan=False)


class TestJRJInvariants:
    @given(c0=gain, c1=gain, q_target=queue_value, q=queue_value, lam=rate_value)
    @settings(max_examples=200, deadline=None)
    def test_drift_sign_matches_region(self, c0, c1, q_target, q, lam):
        control = JRJControl(c0=c0, c1=c1, q_target=q_target)
        drift = control.drift(q, lam)
        if q <= q_target:
            assert drift == c0
        else:
            assert drift <= 0.0
            assert np.isclose(drift, -c1 * lam)

    @given(c0=gain, c1=gain, q_target=queue_value, q=queue_value, lam=rate_value,
           mu=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_growth_coordinate_consistency(self, c0, c1, q_target, q, lam, mu):
        control = JRJControl(c0=c0, c1=c1, q_target=q_target)
        nu = lam - mu
        assert np.isclose(control.drift_in_growth_coordinates(q, nu, mu),
                          control.drift(q, lam))

    @given(c0=gain, d0=gain, q_target=queue_value, q=queue_value, lam=rate_value)
    @settings(max_examples=100, deadline=None)
    def test_linear_law_bounded_drift(self, c0, d0, q_target, q, lam):
        control = LinearIncreaseLinearDecrease(c0=c0, d0=d0, q_target=q_target)
        drift = control.drift(q, lam)
        assert -d0 <= drift <= c0


class TestWindowInvariants:
    @given(window=window_value,
           increase=st.floats(min_value=0.1, max_value=5.0),
           decrease=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=200, deadline=None)
    def test_jacobson_ack_grows_and_congestion_shrinks(self, window, increase,
                                                       decrease):
        control = JacobsonWindow(increase=increase, decrease_factor=decrease)
        assert control.on_ack(window) >= window
        assert control.on_congestion(window) <= window
        assert control.on_congestion(window) >= control.minimum_window

    @given(window=window_value,
           increase=st.floats(min_value=0.1, max_value=5.0),
           decrease=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=200, deadline=None)
    def test_decbit_ack_grows_and_congestion_shrinks(self, window, increase,
                                                     decrease):
        control = DECbitWindow(increase=increase, decrease_factor=decrease)
        assert control.on_ack(window) == window + increase
        assert control.on_congestion(window) <= window
        assert control.on_congestion(window) >= 1.0


class TestShareFormulaInvariants:
    @given(ratios=st.lists(st.tuples(gain, gain), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_shares_form_a_probability_vector(self, ratios):
        sources = [SourceParameters(c0=c0, c1=c1) for c0, c1 in ratios]
        shares = predicted_equilibrium_shares(sources)
        assert np.all(shares > 0.0)
        assert np.isclose(np.sum(shares), 1.0)

    @given(c0=gain, c1=gain, n=st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_identical_sources_share_equally(self, c0, c1, n):
        sources = [SourceParameters(c0=c0, c1=c1) for _ in range(n)]
        shares = predicted_equilibrium_shares(sources)
        assert np.allclose(shares, 1.0 / n)

    @given(throughputs=st.lists(st.floats(min_value=0.0, max_value=1e3),
                                min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    @example(throughputs=[2.450144079483796e-162] * 2)  # (Σx)² underflows
    @example(throughputs=[1e-170, 3e-170])              # both sums underflow
    @example(throughputs=[1e200, 1e200])                # both sums overflow
    def test_jain_index_bounds(self, throughputs):
        index = jain_fairness_index(throughputs)
        assert 1.0 / len(throughputs) - 1e-9 <= index <= 1.0 + 1e-9
