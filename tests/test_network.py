"""Tests for layer sequences and the network recursions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dnclab.activations import identity, relu, sigmoid
from dnclab.analysis import BoundContext
from dnclab.linalg import INF, ONE, seq_sum
from dnclab.network import (
    LayerSeq,
    MaskSeq,
    cnn_layer_seq,
    eval_extended_trajectory,
    eval_trajectory,
)
from dnclab.pooling import average_pooling

import oracles


def scalar_net(weight: float, bias: float = 0.0) -> LayerSeq:
    """Width-1 constant-coefficient network — the hand-checkable case."""
    return LayerSeq(
        1,
        lambda n: 1,
        lambda n: np.array([[weight]]),
        lambda n: np.array([bias]),
        weight_limit=np.array([[weight]]),
        bias_limit=np.array([bias]),
    )


class TestLayerSeq:
    def test_scalar_geometric_trajectory(self):
        seq = scalar_net(0.4)
        states = eval_trajectory(seq, relu(), [1.0], 6)
        assert_allclose([s[0] for s in states], [0.4**n for n in range(1, 7)], rtol=1e-15)

    def test_layer_caching_returns_identical_objects(self):
        calls = []

        def weight(n):
            calls.append(("W", n))
            return np.eye(2)

        def bias(n):
            calls.append(("b", n))
            return np.zeros(2)

        seq = LayerSeq(2, lambda n: 2, weight, bias)
        alone = seq.bias(3)
        assert calls == [("b", 3)]  # a bias is generated without its weight
        a = seq.layer(3)
        b = seq.layer(3)
        assert a[0] is b[0] and a[1] is b[1] is alone
        assert calls == [("b", 3), ("W", 3)]

    def test_width_and_shape_validation(self):
        seq = LayerSeq(2, lambda n: 3, lambda n: np.ones((2, 2)), lambda n: np.zeros(3))
        with pytest.raises(ValueError, match="layer 1"):
            seq.layer(1)  # weight rows disagree with declared width
        bad_bias = LayerSeq(2, lambda n: 2, lambda n: np.ones((2, 2)), lambda n: np.zeros(5))
        for read in (bad_bias.layer, bad_bias.bias):
            with pytest.raises(ValueError, match="bias"):
                read(1)
        with pytest.raises(ValueError):
            LayerSeq(0, lambda n: 1, lambda n: None, lambda n: None)

    def test_weight_norm_cached_per_exponent(self):
        # the norms of a sequence's weights live in one bound context per p
        seq = scalar_net(-0.7)
        for p in (ONE, INF):
            ctx = BoundContext(seq, relu(), p)
            assert ctx.weight_norm(1) == 0.7
            assert ctx.weight_norm(1) is ctx.weight_norm(1)

    def test_input_dim_mismatch(self):
        seq = scalar_net(0.5)
        with pytest.raises(ValueError, match="dimension"):
            eval_trajectory(seq, relu(), [1.0, 2.0], 3)[-1]


class TestPooledRecursion:
    def test_hand_computed_step(self):
        # W x = (2, 4, 6); mean pooling over windows -> (3, 5);
        # plus bias (-4, 1) -> (-1, 6); relu -> (0, 6)
        w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([-4.0, 1.0])
        seq = LayerSeq(
            2, lambda n: 2, lambda n: w, lambda n: b, pooling=average_pooling(1)
        )
        out = eval_trajectory(seq, relu(), [2.0, 4.0], 1)[-1]
        assert_array_equal(out, [0.0, 6.0])

    def test_weight_without_its_pooling_rows_is_refused(self):
        # layer 2 has no row for the pooling window; layer 1 has its mu = 1
        w = {1: np.ones((2, 1)), 2: np.ones((1, 1))}
        seq = LayerSeq(
            1, lambda n: 1, w.get, lambda n: np.zeros(1), pooling=average_pooling(1)
        )
        assert seq.layer(1)[0].shape == (2, 1)
        with pytest.raises(ValueError, match=r"layer 2: weight shape \(1, 1\)"):
            eval_trajectory(seq, relu(), [1.0], 2)

    def test_masks_with_pooling_rows_are_refused(self):
        masks = MaskSeq(0, lambda n: [1.0])
        with pytest.raises(ValueError, match="pooling rows"):
            LayerSeq(
                1,
                lambda n: 1,
                lambda n: np.ones((2, 1)),
                lambda n: np.zeros(1),
                pooling=average_pooling(1),
                masks=masks,
            )


class TestMaskSeq:
    def test_mask_validation_and_caching(self):
        masks = MaskSeq(1, lambda n: [1.0 / n, 0.5])
        assert_array_equal(masks.mask(2), [0.5, 0.5])
        assert masks.mask(2) is masks.mask(2)
        assert masks.abs_sum(2) == 1.0
        with pytest.raises(ValueError):
            masks.mask(0)
        bad = MaskSeq(2, lambda n: [1.0])
        with pytest.raises(ValueError, match="coefficients"):
            bad.mask(1)

    def test_limit_length_checked(self):
        with pytest.raises(ValueError):
            MaskSeq(1, lambda n: [1.0, 2.0], limit=np.array([1.0]))


class TestConvNetwork:
    def test_widths_grow_by_band(self):
        masks = MaskSeq(2, lambda n: [0.5, 0.2, 0.1])
        seq = cnn_layer_seq(masks, lambda n: np.zeros(3 + 2 * n), 3)
        assert seq.masks is masks and seq.pooling.mu == 0
        assert scalar_net(0.5).masks is None
        assert [seq.width(n) for n in range(4)] == [3, 5, 7, 9]
        assert seq.layer(2)[0].shape == (7, 5)

    def test_single_tap_identity_mask(self):
        masks = MaskSeq(0, lambda n: [1.0])
        seq = cnn_layer_seq(masks, lambda n: np.zeros(2), 2)
        out = eval_trajectory(seq, relu(), [3.0, 4.0], 5)[-1]
        assert_array_equal(out, [3.0, 4.0])

    def test_layer_is_full_convolution(self):
        masks = MaskSeq(1, lambda n: [1.0, -0.5])
        seq = cnn_layer_seq(masks, lambda n: np.zeros(2 + n), 2)
        x = np.array([2.0, 3.0])
        out = eval_trajectory(seq, identity(), x, 1)[-1]
        assert_allclose(out, oracles.conv_full([1.0, -0.5], x), rtol=1e-15)

    @pytest.mark.parametrize("sweep", [eval_trajectory, eval_extended_trajectory])
    def test_width_that_is_not_the_convolutions_is_refused(self, sweep):
        """A sequence with masks whose width function disagrees with
        input_dim + n * tau is refused by name before the layer is computed,
        not by a broadcast into a workspace sized from that width."""
        masks = MaskSeq(2, lambda n: [0.5, 0.2, 0.1])
        seq = LayerSeq(
            2, lambda n: 1, lambda n: np.zeros((1, 1)), lambda n: np.zeros(1), masks=masks
        )
        with pytest.raises(ValueError, match="layer 1: width 1 is not its convolution's"):
            sweep(seq, relu(), [0.5, -0.5], 3)


class TestConstantPadExtension:
    def test_sigmoid_tails_reach_fixed_point_of_mask_sum(self):
        # layer 1 tail is act(0) = 1/2; from layer 2 on the tail is
        # act(sum(mask) * previous tail): act(0.5 * 0.5) = act(0.25)
        masks = MaskSeq(1, lambda n: [0.2, 0.3])
        seq = cnn_layer_seq(masks, lambda n: np.zeros(1 + n), 1)
        act = sigmoid()
        states = eval_extended_trajectory(seq, act, [1.0], 3)
        assert states[0].tail == 0.5
        assert states[1].tail == float(act.apply(0.25))
        assert states[2].tail == float(act.apply(0.5 * states[1].tail))

    def test_interior_matches_dense_truncation_recursion(self):
        """Running the recursion on wide dense truncations of the
        constant-padded operators reproduces the (head, tail) evaluation on
        every head coordinate."""
        masks = MaskSeq(1, lambda n: [0.4 + 0.3 * 0.5**n, 0.1])
        seq = cnn_layer_seq(masks, lambda n: 0.05 * np.ones(2 + n), 2)
        act = sigmoid()
        x = np.array([0.7, -0.2])
        depth = 4
        states = eval_extended_trajectory(seq, act, x, depth)

        # dense shadow: truncate every operator wide enough that no head row
        # ever sees the cut
        width = states[-1].head_len + 8
        from dnclab.linalg import matvec, toeplitz_matrix

        vec = np.concatenate([x, np.zeros(width - x.size)])
        for j in range(1, depth + 1):
            if j == 1:
                w = seq.layer(1)[0]
                dense = np.zeros((width, width))
                dense[: w.shape[0], : w.shape[1]] = w
            else:
                dense = toeplitz_matrix(masks.mask(j), width, width)
            b = np.zeros(width)
            bj = seq.layer(j)[1]
            b[: bj.size] = bj
            vec = act.apply(matvec(dense, vec) + b)
            head = states[j - 1].head
            assert_allclose(head, vec[: head.size], rtol=0, atol=1e-12)

    def test_constant_pad_requires_conv(self):
        seq = scalar_net(0.5)
        with pytest.raises(ValueError, match="convolutional"):
            eval_extended_trajectory(seq, relu(), [1.0], 2)[-1]


class TestLipschitzBound:
    def test_product_formula(self):
        seq = scalar_net(0.4)
        act = relu()
        assert oracles.network_lipschitz_bound(seq, act, 3, ONE) == pytest.approx(0.4**3)

    def test_bounds_actual_differences(self):
        masks = MaskSeq(1, lambda n: [0.5, -0.3])
        seq = cnn_layer_seq(masks, lambda n: np.zeros(2 + n), 2)
        act = sigmoid()
        lip = oracles.network_lipschitz_bound(seq, act, 3, ONE)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            dx = (
                eval_trajectory(seq, act, x, 3)[-1]
                - eval_trajectory(seq, act, y, 3)[-1]
            )
            lhs = seq_sum(np.abs(dx))
            rhs = lip * seq_sum(np.abs(x - y))
            assert lhs <= rhs * (1 + 1e-10) + 1e-12
