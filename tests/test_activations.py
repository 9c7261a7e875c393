"""Tests for scalar activations: declared constants vs measured behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnclab.activations import (
    ACTIVATION_NAMES,
    elu,
    identity,
    leaky_relu,
    make_activation,
    prelu,
    relu,
    selu,
    sigmoid,
    tanh,
)
from dnclab.linalg import EventuallyConstSeq

import oracles


ALL_FACTORIES = [identity, relu, leaky_relu, elu, selu, sigmoid, tanh]


class TestDeclaredConstants:
    def test_value_at_zero_is_consistent(self):
        for factory in ALL_FACTORIES:
            act = factory()
            assert float(act.apply(0.0)) == act.value_at_zero

    def test_known_lipschitz_values(self):
        assert relu().lipschitz == 1.0
        assert prelu(2.0).lipschitz == 2.0
        assert prelu(0.3).lipschitz == 1.0  # max(1, alpha)
        assert leaky_relu().lipschitz == 1.0
        assert sigmoid().lipschitz == 0.25
        assert tanh().lipschitz == 1.0
        assert selu().lipschitz == pytest.approx(1.0507 * 1.67326)

    def test_sigmoid_center(self):
        act = sigmoid()
        assert act.value_at_zero == 0.5
        assert float(act.apply(0.0)) == 0.5

    def test_declared_dominates_measured_slope(self):
        """The declared constant is an upper bound on every finite-difference
        slope (and is nearly attained, so it is not a lazy over-estimate)."""
        for factory in ALL_FACTORIES:
            act = factory()
            measured = oracles.empirical_lipschitz(act)
            assert measured <= act.lipschitz * (1 + 1e-9), act.name
            assert measured >= act.lipschitz * 0.9, act.name

    def test_selu_frozen_constant(self):
        assert selu().lipschitz == pytest.approx(1.75809428, abs=1e-7)


class TestApplication:
    def test_relu_and_prelu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert_allclose(relu().apply(x), [0.0, 0.0, 3.0])
        assert_allclose(prelu(2.0).apply(x), [-4.0, 0.0, 3.0])
        assert_allclose(leaky_relu(0.1).apply(x), [-0.2, 0.0, 3.0])

    def test_sigmoid_stable_at_extremes(self):
        act = sigmoid()
        y = act.apply(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-300)
        assert y[1] == pytest.approx(1.0)

    def test_elu_and_selu_negative_branch(self):
        assert float(elu(1.0).apply(-1.0)) == pytest.approx(np.expm1(-1.0))
        act = selu()
        want = 1.0507 * 1.67326 * np.expm1(-1.0)
        assert float(act.apply(-1.0)) == pytest.approx(want)

    def test_apply_preserves_shape_and_dtype(self):
        for factory in ALL_FACTORIES:
            y = factory().apply(np.array([-1.0, 0.5]))
            assert y.dtype == np.float64 and y.shape == (2,)

    def test_apply_seq_maps_head_and_tail(self):
        act = sigmoid()
        s = EventuallyConstSeq([0.0, 1.0], -1.0)
        out = EventuallyConstSeq(act.apply(s.head), act.apply(s.tail))
        assert out.head_len == 2
        assert out.truncated(3)[0] == 0.5
        assert out.tail == float(act.apply(-1.0))


class TestRegistry:
    def test_all_names_constructible(self):
        for name in ACTIVATION_NAMES:
            act = make_activation(name) if name != "prelu" else make_activation(name, alpha=2.0)
            assert act.lipschitz > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="relu"):
            make_activation("does-not-exist")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            make_activation("relu", alpha=2.0)  # relu takes no parameters
        with pytest.raises(ValueError):
            prelu(-1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["relu", "sigmoid", "tanh", "selu", "elu", "leaky_relu"]),
    st.floats(-50, 50),
    st.floats(-50, 50),
)
def test_lipschitz_inequality_pointwise(name, x, y):
    act = make_activation(name)
    fx, fy = float(act.apply(x)), float(act.apply(y))
    assert abs(fx - fy) <= act.lipschitz * abs(x - y) + 1e-12
