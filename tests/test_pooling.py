"""Tests for pooling operators and their p-dependent Lipschitz constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnclab.linalg import INF, ONE, TWO, PNorm, vector_norm
from dnclab.pooling import (
    PoolingOp,
    average_pooling,
    max_pooling,
    no_pooling,
)


class TestPoolValues:
    def test_average_window_means(self):
        assert_allclose(average_pooling(1).pool([1.0, 3.0, 5.0]), [2.0, 4.0])
        assert_allclose(average_pooling(2).pool([3.0, 0.0, 3.0, 6.0]), [2.0, 3.0])

    def test_max_window_maxima(self):
        assert_allclose(max_pooling(1).pool([1.0, 3.0, 2.0]), [3.0, 3.0])
        assert_allclose(max_pooling(2).pool([-5.0, -1.0, -3.0, 0.0]), [-1.0, 0.0])

    def test_identity_passthrough(self):
        x = np.array([2.0, -1.0])
        out = no_pooling().pool(x)
        assert_allclose(out, x)

    def test_dimension_bookkeeping(self):
        op = average_pooling(3)
        assert op.window == 4
        assert op.out_dim(10) == 7
        with pytest.raises(ValueError):
            op.out_dim(3)  # window does not fit
        with pytest.raises(ValueError):
            op.pool(np.ones(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolingOp("average", 0)  # real pooling needs mu >= 1
        with pytest.raises(ValueError):
            PoolingOp("identity", 1)
        with pytest.raises(ValueError):
            PoolingOp("median", 1)


class TestLipschitzConstants:
    def test_average_is_nonexpansive_everywhere(self):
        op = average_pooling(3)
        for p in (ONE, TWO, INF, PNorm(4.0)):
            assert op.lipschitz(p) == 1.0

    def test_max_constant_depends_on_p(self):
        op = max_pooling(3)  # window mu + 1 = 4
        assert op.lipschitz(ONE) == 4.0
        assert op.lipschitz(TWO) == 2.0
        assert op.lipschitz(INF) == 1.0
        assert op.lipschitz(PNorm(4.0)) == pytest.approx(4.0**0.25)

    @pytest.mark.parametrize("kind", ["average", "max"])
    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [ONE, TWO, INF])
    def test_constant_holds_on_random_pairs(self, kind, mu, p):
        op = PoolingOp(kind, mu)
        lip = op.lipschitz(p)
        rng = np.random.default_rng(mu * 101 + int(p.p if not p.is_inf else 99))
        for _ in range(200):
            dim = int(rng.integers(op.window, op.window + 6))
            x = rng.uniform(-5, 5, dim)
            y = rng.uniform(-5, 5, dim)
            lhs = vector_norm(op.pool(x) - op.pool(y), p)
            rhs = lip * vector_norm(x - y, p)
            assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["average", "max"]),
    st.integers(1, 4),
    st.lists(st.floats(-100, 100), min_size=2, max_size=12),
    st.sampled_from([1.0, 2.0, float("inf")]),
)
def test_lipschitz_property(kind, mu, xs, p_raw):
    op = PoolingOp(kind, mu)
    if len(xs) < op.window:
        return
    p = PNorm(p_raw)
    x = np.array(xs)
    y = x[::-1].copy()
    lhs = vector_norm(op.pool(x) - op.pool(y), p)
    rhs = op.lipschitz(p) * vector_norm(x - y, p)
    assert lhs <= rhs * (1 + 1e-12) + 1e-9
