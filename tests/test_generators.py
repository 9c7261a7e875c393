"""Tests for the synthetic layer-sequence generators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dnclab.activations import relu, sigmoid
from dnclab.analysis import CONSTANT_PAD, BoundContext, Domain, check_condition
from dnclab import generators
from dnclab.generators import (
    MASK_FAMILIES,
    MATRIX_FAMILIES,
    GenSpec,
    MaskSpec,
    build,
    build_masks,
    rescale_to_norm,
)
from dnclab.linalg import INF, ONE, TWO, induced_norm, vector_norm
from dnclab.network import eval_trajectory
from dnclab.pooling import average_pooling, max_pooling, no_pooling

import oracles


EXP = GenSpec(
    "exp_decay", input_dim=3, widths=3, seed=5, rate=0.5, norm_target=0.55
)


class TestRescale:
    def test_sets_requested_norm(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, (4, 3))
        for p in (ONE, INF):
            assert induced_norm(rescale_to_norm(w, 0.7, p), p) == pytest.approx(
                0.7, rel=1e-12
            )

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            rescale_to_norm(np.zeros((2, 2)), 1.0, ONE)

    def test_spectral_rescale_is_certified_at_its_target(self):
        rng = np.random.default_rng(1)
        for shape in ((4, 3), (16, 16)):
            out = rescale_to_norm(rng.uniform(-1, 1, shape), 0.7, TWO)
            certified = induced_norm(out, TWO)
            assert oracles.mp_spectral_norm(out) <= min(certified, 0.7 * (1 + 1e-15))
            assert certified == pytest.approx(0.7, rel=1e-11)

    def test_seed_113_limit_norm_bounds_the_exact_norm(self):
        """On this core a 200-step power-iteration estimate of |W*|_2 falls
        0.28% short of the exact norm.  Divided by a certified norm, the
        core's reported |W*|_2 bounds the exact one, and the condition
        passes on a true contraction."""
        spec = GenSpec(
            "exp_decay", input_dim=3, widths=16, seed=113, rate=0.5,
            norm_target=0.999, norm_p=TWO,
        )
        seq = build(spec)
        ctx = BoundContext(seq, relu(), TWO)
        exact = oracles.mp_spectral_norm(seq.weight_limit)
        assert ctx.weight_limit_norm >= exact
        assert ctx.weight_limit_norm >= np.linalg.norm(seq.weight_limit, 2)
        assert ctx.weight_limit_norm <= 0.999 * (1 + 1e-11)
        verdict = check_condition(ctx)
        assert verdict.method == "analytic" and verdict.passed


class TestGenSpecValidation:
    def test_rate_families_require_rate(self):
        with pytest.raises(ValueError, match="rate"):
            GenSpec("exp_decay", input_dim=3, widths=3)
        with pytest.raises(ValueError, match="rate"):
            GenSpec("random_convergent", input_dim=3, widths=3)

    def test_rate_range(self):
        with pytest.raises(ValueError):
            GenSpec("exp_decay", input_dim=3, widths=3, rate=1.0)
        with pytest.raises(ValueError):
            GenSpec("conv", input_dim=2, rate=1.5,
                    mask=MaskSpec("vanishing_exponential", (0.5,), rate=0.5))

    def test_diverging_needs_norm_target(self):
        with pytest.raises(ValueError, match="norm_target"):
            GenSpec("diverging", input_dim=3, widths=3)

    def test_conv_constraints(self):
        mask = MaskSpec("vanishing_exponential", (0.5, 0.2), rate=0.5)
        with pytest.raises(ValueError, match="MaskSpec"):
            GenSpec("conv", input_dim=2)
        with pytest.raises(ValueError, match="widths"):
            GenSpec("conv", input_dim=2, widths=4, mask=mask)
        with pytest.raises(ValueError, match="pooling rows"):
            GenSpec("conv", input_dim=2, pooling=average_pooling(1), mask=mask)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            GenSpec("mystery", input_dim=3, widths=3)
        assert "exp_decay" in MATRIX_FAMILIES
        assert "conv" not in MATRIX_FAMILIES  # conv dispatches separately


class TestMaskSpecValidation:
    def test_family_requirements(self):
        with pytest.raises(ValueError, match="rate"):
            MaskSpec("vanishing_exponential", (0.5,))
        with pytest.raises(ValueError, match="limit"):
            MaskSpec("constant_limit", (0.5,), rate=0.5)
        with pytest.raises(ValueError):
            MaskSpec("constant_limit", (0.5,), rate=0.5, limit=(0.1, 0.2))
        with pytest.raises(ValueError):
            MaskSpec("diverging", (0.5,), rate=0.5)
        assert set(MASK_FAMILIES) >= {
            "vanishing_exponential",
            "vanishing_harmonic",
            "constant_limit",
            "diverging",
        }

    def test_tau_from_base_length(self):
        assert MaskSpec("diverging", (0.5, 0.2, 0.1)).tau == 2


class TestDriftEnvelopes:
    def test_exp_decay_weight_drift_is_exact(self):
        ctx = BoundContext(build(EXP), relu(), ONE)
        for k in range(2, 10):
            assert ctx.weight_limit_diff(k) == pytest.approx(
                EXP.scale * EXP.rate**k, rel=1e-12
            )

    def test_exp_decay_bias_drift_is_exact(self):
        ctx = BoundContext(build(EXP), relu(), ONE)
        for k in range(1, 10):
            assert ctx.bias_limit_diff(k) == pytest.approx(
                EXP.bias_scale * EXP.rate**k, rel=1e-12
            )

    def test_shared_direction_gives_exact_pair_drift(self):
        # fixed width -> one drift direction, so |W_j - W_k| telescopes
        ctx = BoundContext(build(EXP), relu(), ONE)
        for j, k in ((5, 3), (7, 2), (4, 3)):
            assert ctx.weight_diff(j, k) == pytest.approx(
                EXP.scale * abs(EXP.rate**j - EXP.rate**k), rel=1e-12
            )

    def test_harmonic_weight_drift(self):
        spec = GenSpec("harmonic", input_dim=3, widths=3, seed=2, norm_target=0.5)
        ctx = BoundContext(build(spec), relu(), ONE)
        for k in (2, 4, 8):
            assert ctx.weight_limit_diff(k) == pytest.approx(spec.scale / k, rel=1e-12)

    def test_constant_family_never_drifts(self):
        spec = GenSpec("constant", input_dim=4, widths=4, seed=3, norm_target=0.5)
        seq = build(spec)
        w2 = seq.layer(2)[0]
        for n in (3, 5, 9):
            assert np.array_equal(seq.layer(n)[0], w2)
        ctx = BoundContext(seq, relu(), ONE)
        assert ctx.weight_limit_diff(4) == 0.0
        assert ctx.bias_limit_diff(4) == 0.0


class TestNormTargets:
    def test_limit_norm_hits_target(self):
        assert induced_norm(build(EXP).weight_limit, ONE) == pytest.approx(
            0.55, rel=1e-12
        )

    def test_inf_norm_target(self):
        spec = GenSpec(
            "constant", input_dim=3, widths=3, seed=4, norm_target=0.8, norm_p=INF
        )
        seq = build(spec)
        assert induced_norm(seq.layer(2)[0], INF) == pytest.approx(0.8, rel=1e-12)

    def test_first_layer_matches_core_norm(self):
        seq = build(EXP)
        assert induced_norm(seq.layer(1)[0], ONE) == pytest.approx(0.55, rel=1e-12)


class TestDeterminismAndOrder:
    def test_same_seed_same_network(self):
        a = build(EXP)
        b = build(EXP)
        for n in (1, 2, 5):
            assert np.array_equal(a.layer(n)[0], b.layer(n)[0])
            assert np.array_equal(a.layer(n)[1], b.layer(n)[1])

    def test_seed_changes_network(self):
        other = GenSpec(
            "exp_decay", input_dim=3, widths=3, seed=6, rate=0.5, norm_target=0.55
        )
        assert not np.array_equal(build(EXP).layer(1)[0], build(other).layer(1)[0])

    def test_access_order_does_not_matter(self):
        a = build(EXP)
        a5 = np.array(a.layer(5)[0])
        a2 = np.array(a.layer(2)[0])
        b = build(EXP)
        b2 = np.array(b.layer(2)[0])
        b5 = np.array(b.layer(5)[0])
        assert np.array_equal(a5, b5) and np.array_equal(a2, b2)

    def test_random_convergent_fresh_directions(self):
        spec = GenSpec(
            "random_convergent", input_dim=3, widths=3, seed=9, rate=0.5,
            norm_target=0.5,
        )
        seq = build(spec)
        ctx = BoundContext(seq, relu(), ONE)
        # drift still bounded by the envelope, but directions are per-layer
        for k in (2, 4, 6):
            assert ctx.weight_limit_diff(k) <= spec.scale * spec.rate**k * (1 + 1e-12)

    def test_stream_draws_are_pinned(self):
        """Raw draws of the keyed layer streams and of the input sampler,
        as exact values.  numpy does not promise its ``Generator`` streams
        across versions (NEP 19); a change of stream fails here, by name,
        before it moves any golden digest."""
        uniform = generators._rng(5, "weight-drift", 7).uniform(-1.0, 1.0, 3)
        assert uniform.tolist() == [
            -0.04115749107253186, 0.5640466858349231, 0.01656105559582266
        ]
        core = generators._rng(0, "weight-core").uniform(-1.0, 1.0, 2)
        assert core.tolist() == [-0.5915509543849149, 0.21706686187909652]
        picks = [generators._rng(1100, "bias-drift", n).integers(1000) for n in range(1, 5)]
        assert picks == [102, 215, 21, 195]
        samples = Domain(2, 1.0).uniform_samples(2, 11)
        assert samples.tolist() == [
            [-0.7428595944616008, -0.0014442751197700776],
            [0.20299671524671492, -0.9426219832561109],
        ]


RANDOM_P2 = GenSpec(
    "random_convergent", input_dim=3, widths=(4, 3), seed=9, rate=0.9,
    norm_target=0.5, norm_p=TWO,
)


class TestBlockedDriftDirections:
    """random_convergent normalises its per-layer drift directions a block
    of layers at a time, in one stacked p = 2 call per shape."""

    DEPTH = 70  # layer 66 opens the second block

    def _fetch(self, order):
        seq = build(RANDOM_P2)
        for n in order:
            seq.layer(n)
        return [seq.layer(n)[0] for n in range(1, self.DEPTH + 1)]

    def test_layer_bits_do_not_depend_on_access_order(self):
        depth = self.DEPTH
        want = self._fetch(range(1, depth + 1))
        for order in (range(depth, 0, -1), [70, *range(1, depth + 1)]):
            for a, b in zip(self._fetch(order), want):
                assert a.tobytes() == b.tobytes()

    def test_layers_match_the_per_layer_rescale(self):
        spec, seq = RANDOM_P2, build(RANDOM_P2)
        core = seq.weight_limit[:3, :3]
        for n in range(2, self.DEPTH + 1):
            shape = (seq.width(n), seq.width(n - 1))
            drift = generators._rng(spec.seed, "weight-drift", n).uniform(-1, 1, shape)
            direction = rescale_to_norm(drift, 1.0, TWO)
            want = generators._embed(core, *shape) + spec.scale * spec.rate**n * direction
            assert seq.layer(n)[0].tobytes() == want.tobytes(), n

    @staticmethod
    def _stack_shapes(monkeypatch) -> list:
        """The shape of every stack the generators pass to induced_norm."""
        stacks = []
        norm = generators.induced_norm

        def counted(a, p):
            if np.ndim(a) == 3:
                stacks.append(np.shape(a))
            return norm(a, p)

        monkeypatch.setattr(generators, "induced_norm", counted)
        return stacks

    def test_one_normalisation_call_per_block_and_shape(self, monkeypatch):
        stacks = self._stack_shapes(monkeypatch)
        seq = build(RANDOM_P2)
        for n in range(1, self.DEPTH + 1):
            seq.layer(n)
        # two blocks (layers 2..65 and 66..129), two shapes in each
        assert sorted(stacks) == [(32, 3, 4), (32, 3, 4), (32, 4, 3), (32, 4, 3)]

    def test_phase_directions_take_one_call_per_shape(self, monkeypatch):
        stacks = self._stack_shapes(monkeypatch)
        spec = GenSpec(
            "harmonic", input_dim=3, widths=(4, 3, 4, 3), seed=2, norm_target=0.5,
            norm_p=TWO,
        )
        build(spec)
        # phases 0 and 2 are 4 x 3, phases 1 and 3 are 3 x 4
        assert sorted(stacks) == [(2, 3, 4), (2, 4, 3)]


class TestBuiltRecursion:
    """``build`` returns a sequence that runs the recursion its spec
    declares: its pooling window is the one the weights were shaped for."""

    @pytest.mark.parametrize(
        "pooling", [no_pooling(), average_pooling(2), max_pooling(1)], ids=str
    )
    @pytest.mark.parametrize("family", ["constant", "exp_decay", "random_convergent"])
    def test_pooling_window_matches_the_weight_rows(self, family, pooling):
        rate = None if family == "constant" else 0.5
        spec = GenSpec(
            family, input_dim=3, widths=4, seed=5, rate=rate, norm_target=0.5,
            pooling=pooling,
        )
        seq = build(spec)
        assert seq.pooling == pooling and seq.masks is None
        assert seq.layer(1)[0].shape == (4 + pooling.mu, 3)
        (state,) = eval_trajectory(seq, relu(), np.ones((3, 2)), 1)
        assert state.shape == (4, 2) and np.isfinite(state).all()

    def test_pooling_must_be_an_operator(self):
        with pytest.raises(TypeError, match="PoolingOp"):
            GenSpec("constant", input_dim=3, widths=4, pooling=2)


class TestGeometries:
    def test_cyclic_widths_chain(self):
        spec = GenSpec(
            "exp_decay", input_dim=3, widths=(5, 3, 4), seed=1, rate=0.5,
            norm_target=0.5,
        )
        seq = build(spec)
        assert [seq.width(n) for n in range(0, 7)] == [3, 5, 3, 4, 5, 3, 4]
        for n in range(1, 7):
            assert seq.layer(n)[0].shape == (seq.width(n), seq.width(n - 1))

    def test_pooling_rows_reserved(self):
        spec = GenSpec(
            "constant", input_dim=4, widths=5, seed=2, norm_target=0.5,
            pooling=average_pooling(2),
        )
        seq = build(spec)
        assert seq.pooling == average_pooling(2)
        assert seq.layer(1)[0].shape == (7, 4)
        assert seq.layer(3)[0].shape == (7, 5)
        assert seq.layer(1)[1].size == 5

    def test_conv_network_parts(self):
        mask_spec = MaskSpec("vanishing_exponential", (0.6, -0.4), rate=0.5)
        spec = GenSpec("conv", input_dim=2, seed=7, mask=mask_spec)
        seq = build(spec)
        assert seq.masks.tau == 1 and seq.pooling.mu == 0
        assert [seq.width(n) for n in range(4)] == [2, 3, 4, 5]
        assert_allclose(seq.masks.mask(3), np.array([0.6, -0.4]) * 0.5**3, rtol=1e-14)
        assert seq.bias_limit.shape == (3,)  # s + tau core coordinates

    def test_conv_bias_drift_exact(self):
        mask_spec = MaskSpec("vanishing_exponential", (0.6, -0.4), rate=0.5)
        spec = GenSpec("conv", input_dim=2, seed=7, mask=mask_spec, bias_scale=0.5)
        seq = build(spec)
        ctx = BoundContext(seq, sigmoid(), INF)
        for k in (1, 3, 6):
            assert ctx.bias_limit_diff(k) == pytest.approx(0.5 * 0.5**k, rel=1e-12)


class TestMaskFamilies:
    def test_vanishing_exponential_values(self):
        masks = build_masks(MaskSpec("vanishing_exponential", (0.6, -0.4), rate=0.5))
        assert_allclose(masks.mask(2), [0.15, -0.1], rtol=1e-14)
        assert np.array_equal(masks.limit, [0.0, 0.0])

    def test_vanishing_harmonic_values(self):
        masks = build_masks(MaskSpec("vanishing_harmonic", (0.6, -0.4)))
        assert_allclose(masks.mask(4), [0.15, -0.1], rtol=1e-14)

    def test_constant_limit_values(self):
        masks = build_masks(
            MaskSpec("constant_limit", (0.2, -0.1), rate=0.5, limit=(0.2, -0.1))
        )
        assert_allclose(masks.mask(1), [0.3, -0.15], rtol=1e-14)
        assert np.array_equal(masks.limit, [0.2, -0.1])

    def test_diverging_is_constant_with_declared_limit(self):
        masks = build_masks(MaskSpec("diverging", (0.8, 0.6)))
        assert np.array_equal(masks.mask(1), masks.mask(50))
        assert np.array_equal(masks.limit, [0.8, 0.6])
