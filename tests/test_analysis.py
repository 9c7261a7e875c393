"""Tests for the bounds, convergence conditions, and sequence lemmas."""

import dataclasses
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnclab import analysis
from dnclab.activations import relu, sigmoid
from dnclab.analysis import (
    CONSTANT_PAD,
    ZERO_PAD,
    BoundContext,
    Domain,
    SamplerSpec,
    Trajectory,
    apriori_bound_ctx,
    check_condition,
    check_mask_conditions,
    cumulative_products,
    derive_limit_constants,
    deviation_bound_ctx,
    fit_exponential_rate,
    limit_bound_ctx,
    state_deviation,
    tail_product_sums,
    weighted_tail_sums,
)
from dnclab.corpus import control_instances, corpus_instances
from dnclab.generators import GenSpec, MaskSpec, build, build_masks
from dnclab.linalg import INF, ONE, TWO, induced_norm, vector_norm
from dnclab.network import LayerSeq, MaskSeq, cnn_layer_seq, eval_trajectory
from dnclab.pooling import max_pooling

import oracles


def scalar_net(weight: float, *, bias: float = 0.0, limits: bool = True) -> LayerSeq:
    extra = (
        dict(weight_limit=np.array([[weight]]), bias_limit=np.array([bias]))
        if limits
        else {}
    )
    return LayerSeq(
        1,
        lambda n: 1,
        lambda n: np.array([[weight]]),
        lambda n: np.array([bias]),
        **extra,
    )


def cell_trajectory(ctx, x, cells) -> Trajectory:
    """A trajectory declaring what each (n, m) cell reads: the deviation
    |N_{n+m}(x) - N_n(x)| and its bound's state norms and restart gap."""
    depth = max(n + m for n, m in cells)
    return Trajectory(
        ctx,
        x,
        depth,
        norms=range(1, max(n for n, _ in cells)),
        pairs=[(n, n + m) for n, m in cells],
        gaps=[m for _, m in cells],
    )


def drifting_net(seed: int = 5) -> LayerSeq:
    """3-wide dense net with exponentially drifting weights and biases."""
    spec = GenSpec(
        "exp_decay",
        input_dim=3,
        widths=3,
        seed=seed,
        rate=0.5,
        norm_target=0.55,
        norm_p=ONE,
    )
    return build(spec)


class TestDomain:
    def test_norm_bound_scaling(self):
        d = Domain(4, 0.5)
        assert d.norm_bound(INF) == 0.5
        assert d.norm_bound(ONE) == 2.0
        assert d.norm_bound(TWO) == pytest.approx(1.0)

    def test_uniform_samples_deterministic_and_in_box(self):
        d = Domain(3, 0.7)
        a = d.uniform_samples(50, seed=9)
        b = d.uniform_samples(50, seed=9)
        c = d.uniform_samples(50, seed=10)
        assert len(a) == 50 and a[0].shape == (3,)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))
        assert all(np.max(np.abs(x)) <= 0.7 for x in a)

    def test_grid_contains_corners_and_caps_size(self):
        d = Domain(2, 1.0)
        pts = d.grid_samples(3)
        assert len(pts) == 9
        as_tuples = {tuple(p) for p in pts}
        assert (1.0, 1.0) in as_tuples and (-1.0, -1.0) in as_tuples
        with pytest.raises(ValueError, match="too large"):
            Domain(7, 1.0).grid_samples(6)

    def test_sampler_dispatch(self):
        d = Domain(2, 1.0)
        assert len(d.samples(SamplerSpec(kind="grid", points_per_axis=2))) == 4
        assert len(d.samples(SamplerSpec(count=11, seed=3))) == 11
        with pytest.raises(ValueError):
            SamplerSpec(kind="sobol")


class TestStateDeviation:
    def test_fill_extends_shorter_state(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0])
        assert state_deviation(a, b, ONE, 0.5) == 2.5
        assert state_deviation(b, a, ONE, 0.5) == 2.5  # symmetric

    def test_equal_lengths_plain_norm(self):
        a = np.array([1.0, -1.0])
        b = np.array([0.0, 1.0])
        assert state_deviation(a, b, INF, 9.9) == 2.0

    @pytest.mark.parametrize("fill", [0.0, 0.5])
    @pytest.mark.parametrize("p", [ONE, TWO, INF], ids=str)
    @pytest.mark.parametrize(
        "label", ["cyc534-exp_decay-relu-p1", "convz-t2-sigmoid-pinf"]
    )
    def test_padded_difference_has_the_bits_of_two_copies(self, label, p, fill):
        """Batches of states of unequal widths, in both argument orders."""
        seq, act, _, dim = corpus_case(label)
        xs = Domain(dim, 1.0).uniform_samples(7, seed=2).T
        states = eval_trajectory(seq, act, xs, 4)
        for a, b in ((states[0], states[1]), (states[2], states[1])):
            assert a.shape[0] != b.shape[0]
            for u, v in ((a, b), (b, a)):
                want = oracles.two_copy_state_deviation(u, v, p, fill)
                assert state_deviation(u, v, p, fill).tobytes() == want.tobytes()

    def test_non_finite_states_of_unequal_widths_are_refused(self):
        a = np.array([1.0, math.inf, 2.0])
        with pytest.raises(ValueError, match="must be finite"):
            state_deviation(a, np.zeros(2), INF, 0.0)
        with pytest.raises(ValueError, match="must be finite"):
            state_deviation(np.zeros(2), a, INF, 0.5)


class TestLambdaProducts:
    def test_scalar_relu_products(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        vals = ctx.lambda_products(10, 4)
        assert vals[0] == 1.0
        assert_allclose(vals, [0.4**i for i in range(5)], rtol=1e-14)

    def test_pooling_factor_included(self):
        # max pooling with mu=1 doubles the ell-1 operator constant
        w = np.ones((2, 1)) * 0.3
        seq = LayerSeq(
            1, lambda n: 1, lambda n: w, lambda n: np.zeros(1), pooling=max_pooling(1)
        )
        ctx = BoundContext(seq, relu(), ONE)
        vals = ctx.lambda_products(5, 2)
        assert_allclose(vals, [1.0, 2 * 0.6, (2 * 0.6) ** 2], rtol=1e-14)


class TestAprioriBound:
    def test_zero_weight_sigmoid_is_exact(self):
        # with W = 0, b = 0 every state equals sigmoid(0) = 1/2 in each of
        # the 3 coordinates, and the bound collapses to that exact norm
        seq = LayerSeq(3, lambda n: 3, lambda n: np.zeros((3, 3)), lambda n: np.zeros(3))
        for p, expect in ((ONE, 1.5), (INF, 0.5), (TWO, 0.5 * math.sqrt(3.0))):
            got = apriori_bound_ctx(BoundContext(seq, sigmoid(), p), 4, 2.0)
            assert got == pytest.approx(expect, rel=1e-15)

    def test_scalar_relu_geometric(self):
        seq = scalar_net(0.4)
        ctx = BoundContext(seq, relu(), ONE)
        for n in (1, 2, 5):
            assert apriori_bound_ctx(ctx, n, 3.0) == pytest.approx(
                3.0 * 0.4**n, rel=1e-14
            )

    def test_dominates_sampled_states(self):
        seq = drifting_net()
        ctx = BoundContext(seq, relu(), ONE)
        dom = Domain(3, 1.0)
        bound_cache = {n: apriori_bound_ctx(ctx, n, dom.norm_bound(ONE)) for n in (1, 3, 6)}
        for x in dom.uniform_samples(30, seed=2):
            traj = Trajectory(ctx, x, 6, norms=bound_cache)
            for n, bound in bound_cache.items():
                assert traj.state_norm(n) <= bound * (1 + 1e-9)

    def test_monotone_in_input_radius(self):
        ctx = BoundContext(drifting_net(), relu(), ONE)
        assert apriori_bound_ctx(ctx, 4, 2.0) >= apriori_bound_ctx(ctx, 4, 1.0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="depth"):
            apriori_bound_ctx(BoundContext(scalar_net(0.4), relu(), ONE), 0, 1.0)


def apriori_case(case: str):
    """(seq, extension) of a net the a-priori table is pinned on."""
    if case == "scalar":
        return scalar_net(0.4), ZERO_PAD
    if case in ("pooled", "cyclic"):
        label = {"pooled": "max1-exp_decay-prelu-p1", "cyclic": "cyc534-exp_decay-relu-p1"}
        return corpus_case(label[case])[0], ZERO_PAD
    seq = build(GenSpec("conv", input_dim=3, seed=4, mask=MaskSpec(
        "constant_limit", (0.2, -0.1, 0.1), rate=0.5, limit=(0.2, -0.1, 0.1)
    )))
    return seq, case


APRIORI_CASES = [
    (case, p)
    for case in ("scalar", "pooled", "cyclic", ZERO_PAD)
    for p in (ONE, TWO, INF)
] + [(CONSTANT_PAD, INF)]


class TestAprioriTable:
    @pytest.mark.parametrize(
        "case, p", APRIORI_CASES, ids=[f"{c}-p{p.p:g}" for c, p in APRIORI_CASES]
    )
    def test_every_depth_has_the_bits_of_a_lone_evaluation(self, case, p):
        seq, extension = apriori_case(case)
        ctx = BoundContext(seq, sigmoid(), p, extension)
        depths = range(1, 65)
        want = [oracles.apriori_bound_at(ctx, n, 1.5) for n in depths]
        assert analysis._apriori_bounds(ctx, depths, 1.5) == want
        assert [apriori_bound_ctx(ctx, n, 1.5) for n in depths] == want
        # any order and any subset: each depth is its own evaluation
        got = analysis._apriori_bounds(ctx, (64, 3, 17, 3), 1.5)
        assert got == [want[63], want[2], want[16], want[2]]

    @pytest.mark.parametrize("p", [ONE, INF], ids=["p1", "pinf"])
    @pytest.mark.parametrize("case", ["scalar", "pooled", "cyclic"])
    def test_matches_the_recursion_at_50_digits(self, case, p):
        """Every depth's bound agrees with the a-priori recursion run at
        50 digits, within the rounding of its float evaluation: gamma_K
        with K = 2n + 2 * (widest layer) + 8 covers the n suffix products,
        the n + 1 additions, each norm's sum and the few products that
        form a factor or a constant."""
        seq, extension = apriori_case(case)
        act = sigmoid()
        ctx = BoundContext(seq, act, p, extension)
        depths = range(1, 65)
        got = analysis._apriori_bounds(ctx, depths, 1.5)
        want = oracles.mp_apriori_bounds(seq, act, p, depths[-1], 1.5)
        width = max(seq.width(n) + seq.pooling.mu for n in range(0, depths[-1] + 1))
        for n, value, exact in zip(depths, got, want):
            k = 2 * n + 2 * width + 8
            gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
            assert abs(mpmath.mpf(value) - exact) <= gamma * exact, (n, value, exact)

    def test_rejects_bad_depth(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            analysis._apriori_bounds(ctx, (3, 0), 1.0)


class TestBiasGaps:
    @pytest.mark.parametrize(
        "extension, p",
        [(ZERO_PAD, ONE), (ZERO_PAD, TWO), (ZERO_PAD, INF), (CONSTANT_PAD, INF)],
    )
    def test_gaps_have_the_bits_of_the_state_deviation(self, extension, p):
        # every conv layer has its own width, so each gap pads one bias;
        # layer 1 has the width of the declared limit b*
        seq, _ = apriori_case(extension)
        ctx = BoundContext(seq, sigmoid(), p, extension)
        for j, k in ((2, 1), (1, 2), (9, 4), (5, 5), (30, 6)):
            want = state_deviation(seq.bias(j), seq.bias(k), p, 0.0)
            assert ctx.bias_diff(j, k) == want, (j, k)
        for k in (1, 2, 7, 48):
            want = state_deviation(seq.bias(k), seq.bias_limit, p, 0.0)
            assert ctx.bias_limit_diff(k) == want, k
            assert want > 0.0


class TestDeviationBound:
    def test_scalar_net_achieves_equality(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        for n, m in ((1, 1), (3, 2), (5, 4)):
            traj = cell_trajectory(ctx, [1.0], [(n, m)])
            bound = deviation_bound_ctx(ctx, traj, n, m)
            emp = traj.deviation(n, n + m)
            exact = 0.4**n - 0.4 ** (n + m)
            assert abs(bound - exact) <= 1e-12
            assert abs(emp - exact) <= 1e-12
            assert emp <= bound + 1e-12

    def test_head_start_term_alone_at_depth_one(self):
        # n = 1 keeps only the third term: |W_{m+1} N_m(x) - W_1 x|
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        got = deviation_bound_ctx(ctx, cell_trajectory(ctx, [1.0], [(1, 3)]), 1, 3)
        assert got == pytest.approx(0.4 - 0.4**4, rel=1e-14)

    def test_dominates_drifting_network(self):
        seq = drifting_net()
        ctx = BoundContext(seq, relu(), ONE)
        cells = ((1, 2), (2, 3), (4, 5), (6, 3))
        for x in Domain(3, 1.0).uniform_samples(15, seed=4):
            traj = cell_trajectory(ctx, x, cells)
            for n, m in cells:
                bound = deviation_bound_ctx(ctx, traj, n, m)
                emp = traj.deviation(n, n + m)
                assert emp <= bound * (1 + 1e-9) + 1e-300

    def test_constant_pad_dominance(self):
        masks = build_masks(
            MaskSpec("constant_limit", (0.2, -0.1), rate=0.5, limit=(0.2, -0.1))
        )
        spec = GenSpec("conv", input_dim=2, seed=7, mask=MaskSpec(
            "constant_limit", (0.2, -0.1), rate=0.5, limit=(0.2, -0.1)
        ))
        seq = build(spec)
        ctx = BoundContext(seq, sigmoid(), INF, CONSTANT_PAD)
        cells = ((1, 2), (3, 2), (4, 3))
        for x in Domain(2, 1.0).uniform_samples(8, seed=1):
            traj = cell_trajectory(ctx, x, cells)
            for n, m in cells:
                bound = deviation_bound_ctx(ctx, traj, n, m)
                assert traj.deviation(n, n + m) <= bound * (1 + 1e-9)

    def test_rejects_bad_depths(self):
        with pytest.raises(ValueError, match="n >= 1"):
            ctx = BoundContext(scalar_net(0.4), relu(), ONE)
            deviation_bound_ctx(ctx, Trajectory(ctx, [1.0], 1), 0, 1)


class TestLimitConstants:
    def test_scalar_certificate(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        constants, why = derive_limit_constants(ctx, 1.0)
        assert why == "ok"
        assert constants.omega0 == pytest.approx(0.4, rel=1e-12)
        assert constants.weight_sup == pytest.approx(0.4, rel=1e-12)
        assert constants.rho == pytest.approx(0.4, rel=1e-12)
        assert "coverage [2,48]" in constants.note

    def test_omega0_covers_early_layers(self):
        # the limit bound discounts every peeled layer k >= 2 by omega0, so
        # a large early layer must lift omega0 even when the tail is small
        seq = LayerSeq(
            1,
            lambda n: 1,
            lambda n: np.array([[0.5 + 0.4 * 0.5**n]]),
            lambda n: np.zeros(1),
            weight_limit=np.array([[0.5]]),
            bias_limit=np.zeros(1),
        )
        ctx = BoundContext(seq, relu(), ONE)
        constants, why = derive_limit_constants(ctx, 1.0)
        assert why == "ok"
        assert constants.omega0 == pytest.approx(0.5 + 0.4 * 0.25, rel=1e-12)

    def test_refuses_without_limits(self):
        ctx = BoundContext(scalar_net(0.4, limits=False), relu(), ONE)
        constants, why = derive_limit_constants(ctx, 1.0)
        assert constants is None and why == "no declared limits"

    def test_refuses_supercritical_omega(self):
        ctx = BoundContext(scalar_net(1.2), relu(), ONE)
        constants, why = derive_limit_constants(ctx, 1.0)
        assert constants is None
        assert "omega0" in why and ">= 1" in why

    def test_conv_zero_pad_sigmoid_needs_sup_norm(self):
        spec = GenSpec(
            "conv",
            input_dim=2,
            seed=3,
            mask=MaskSpec("vanishing_exponential", (0.6, -0.4), rate=0.5),
        )
        seq = build(spec)
        finite_p = BoundContext(seq, sigmoid(), ONE)
        constants, why = derive_limit_constants(finite_p, 1.0)
        assert constants is None and "p = inf" in why
        sup = BoundContext(seq, sigmoid(), INF)
        constants, why = derive_limit_constants(sup, 1.0)
        assert why == "ok" and constants.omega0 < 1

    def test_each_bias_norm_computed_once(self, monkeypatch):
        # the a-priori bound at every scan depth n re-reads |b_1| .. |b_n|
        seq = drifting_net()
        biases = {id(seq.layer(j)[1]): j for j in range(1, 49)}
        calls = Counter()
        real = analysis.vector_norm

        def counting(x, p):
            if id(x) in biases:
                calls[biases[id(x)]] += 1
            return real(x, p)

        monkeypatch.setattr(analysis, "vector_norm", counting)
        constants, why = derive_limit_constants(
            BoundContext(seq, relu(), ONE), 1.0
        )
        assert why == "ok"
        assert calls == Counter(range(1, 49))


def _omega0_shortfalls() -> tuple[int, list[str]]:
    """(instances with constants, labels of those whose omega0 is not a
    certified cap) over the corpus and the controls.  The constants come
    from ``analysis.derive_limit_constants``; the cap is checked against
    the norms of a fresh context: omega0 >= L*P*|W_k| for each k in
    [2, 48] and omega0 >= L*P*(|W*| + E_48)."""
    certified, short = 0, []
    for inst in (*corpus_instances(), *control_instances()):
        seq, act = inst.build(), inst.activation()
        ctx = BoundContext(seq, act, inst.p, inst.extension)
        constants, _ = analysis.derive_limit_constants(
            ctx, inst.domain().norm_bound(inst.p)
        )
        if constants is None:
            continue
        certified += 1
        fresh = BoundContext(seq, act, inst.p, inst.extension)
        lp = fresh.L * fresh.P
        caps = [lp * fresh.weight_norm(k) for k in range(2, 49)]
        caps.append(lp * (fresh.weight_limit_norm + fresh.weight_limit_diff(48)))
        if constants.omega0 < max(caps):
            short.append(inst.label)
    return certified, short


class TestOmega0Property:
    """The limit bound discounts every peeled layer k >= 2 by omega0, so
    omega0 must cap L*P*|W_k| on every scanned layer and the declared tail
    L*P*(|W*| + E_48) past the scan."""

    def test_omega0_caps_every_layer_and_the_tail(self):
        certified, short = _omega0_shortfalls()
        assert certified == 50
        assert short == []

    def test_a_window_scan_fails_the_property(self, monkeypatch):
        # the mutant takes omega0 over the window [8, 48] only; no selftest
        # study's verdict or bound flags it
        real = analysis.derive_limit_constants

        def window_scan(ctx, x_bound):
            constants, why = real(ctx, x_bound)
            if constants is None:
                return constants, why
            lp = ctx.L * ctx.P
            omega0 = max(
                max(lp * ctx.weight_norm(k) for k in range(8, 49)),
                lp * (ctx.weight_limit_norm + ctx.weight_limit_diff(48)),
            )
            return dataclasses.replace(constants, omega0=omega0), why

        monkeypatch.setattr(analysis, "derive_limit_constants", window_scan)
        certified, short = _omega0_shortfalls()
        assert certified == 50
        assert len(short) == 35, short


class TestLimitBound:
    def test_scalar_bound_dominates_true_gap(self):
        # the limit network of the constant scalar net maps everything to 0,
        # so the true gap at depth n is exactly 0.4^n for x = 1
        seq = scalar_net(0.4)
        ctx = BoundContext(seq, relu(), ONE)
        constants, _ = derive_limit_constants(ctx, 1.0)
        for n in (1, 2, 4, 8):
            lb = limit_bound_ctx(ctx, n, constants)
            assert 0.4**n <= lb <= 2.0 * 0.4**n

    def test_decay_ratio_approaches_omega0(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        constants, _ = derive_limit_constants(ctx, 1.0)
        vals = [limit_bound_ctx(ctx, n, constants) for n in (10, 11, 12)]
        assert vals[1] / vals[0] == pytest.approx(0.4, rel=1e-9)

    def test_triangle_dominance_on_drifting_network(self):
        seq = drifting_net()
        ctx = BoundContext(seq, relu(), ONE)
        constants, why = derive_limit_constants(ctx, 1.0)
        assert why == "ok"
        ref = 30
        pair = {
            n: limit_bound_ctx(ctx, n, constants) + limit_bound_ctx(ctx, ref, constants)
            for n in (2, 4, 8)
        }
        for x in Domain(3, 1.0).uniform_samples(10, seed=6):
            traj = Trajectory(ctx, x, ref, pairs=[(n, ref) for n in pair])
            for n, budget in pair.items():
                assert traj.deviation(n, ref) <= budget * (1 + 1e-9)

    def test_requires_limits(self):
        seq = scalar_net(0.4, limits=False)
        constants, _ = derive_limit_constants(
            BoundContext(scalar_net(0.4), relu(), ONE), 1.0
        )
        with pytest.raises(ValueError, match="limits"):
            limit_bound_ctx(BoundContext(seq, relu(), ONE), 3, constants)


def corpus_case(label: str) -> tuple:
    """(seq, act, p, input_dim) of the corpus instance ``label``."""
    (inst,) = [i for i in corpus_instances() if i.label == label]
    return inst.build(), inst.activation(), inst.p, inst.gen.input_dim


FORMULA_CASES = {
    "scalar-p1": lambda: (scalar_net(0.4), relu(), ONE, 1),
    "scalar-pinf": lambda: (scalar_net(0.4), relu(), INF, 1),
    "drifting-p1": lambda: (drifting_net(), relu(), ONE, 3),
    "drifting-pinf": lambda: (drifting_net(), relu(), INF, 3),
    "max-pooled-p1": lambda: corpus_case("max1-exp_decay-prelu-p1"),
    "max-pooled-pinf": lambda: corpus_case("max1-exp_decay-sigmoid-pinf"),
    "cyclic-p1": lambda: corpus_case("cyc534-exp_decay-relu-p1"),
    "cyclic-pinf": lambda: corpus_case("cyc534-exp_decay-selu-pinf"),
}


class TestFormulaOracles:
    """Both three-term bounds against their formulas written out in mpmath
    at 50 digits: an index slip shows here even where the bound is too
    loose for any sampled deviation to notice."""

    @pytest.mark.parametrize("case", sorted(FORMULA_CASES))
    def test_deviation_bound_matches_formula(self, case):
        seq, act, p, dim = FORMULA_CASES[case]()
        ctx = BoundContext(seq, act, p)
        cells = ((1, 1), (2, 3), (4, 2), (6, 5))
        xs = Domain(dim, 1.0).uniform_samples(3, seed=2)
        traj = cell_trajectory(ctx, np.column_stack(xs), cells)
        for n, m in cells:
            got = deviation_bound_ctx(ctx, traj, n, m)
            for x, value in zip(xs, got):
                want = oracles.mp_deviation_bound(seq, act, p, x, n, m)
                assert abs(value - want) <= 1e-12 * want, (n, m)

    @pytest.mark.parametrize("case", sorted(FORMULA_CASES))
    def test_limit_bound_matches_formula(self, case):
        seq, act, p, _ = FORMULA_CASES[case]()
        ctx = BoundContext(seq, act, p)
        constants, why = derive_limit_constants(ctx, 1.0)
        assert why == "ok"
        for n in (1, 2, 5, 12, 30):
            got = limit_bound_ctx(ctx, n, constants)
            want = oracles.mp_limit_bound(seq, act, p, n, constants)
            assert abs(got - want) <= 1e-12 * want, n


class TestConditionChecks:
    def test_analytic_dense(self):
        v = check_condition(BoundContext(scalar_net(0.4), relu(), ONE))
        assert v.passed and v.method == "analytic"
        assert v.estimate == pytest.approx(0.4, rel=1e-12)
        assert v.margin == pytest.approx(0.6, rel=1e-12)

    def test_tail_scan_label_without_limits(self):
        ctx = BoundContext(scalar_net(0.9, limits=False), relu(), ONE)
        v = check_condition(ctx)
        assert v.method == "tail-scan[8,64]"
        assert v.passed and v.estimate == pytest.approx(0.9)

    def test_pooling_multiplies_estimate(self):
        w = np.ones((2, 1)) * 0.3
        seq = LayerSeq(
            1,
            lambda n: 1,
            lambda n: w,
            lambda n: np.zeros(1),
            pooling=max_pooling(1),
            weight_limit=w,
            bias_limit=np.zeros(1),
        )
        v = check_condition(BoundContext(seq, relu(), ONE))
        assert v.estimate == pytest.approx(2 * 0.6, rel=1e-12)
        assert not v.passed

    def test_conv_analytic_uses_mask_limit_sum(self):
        spec = GenSpec(
            "conv",
            input_dim=2,
            seed=0,
            mask=MaskSpec("constant_limit", (0.2, -0.1), rate=0.5, limit=(0.2, -0.1)),
        )
        seq = build(spec)
        v = check_condition(BoundContext(seq, relu(), INF))
        assert v.method == "analytic"
        assert v.estimate == pytest.approx(0.3, rel=1e-12)


def _tail_scan_cases():
    """Sequences without declared limits, each with the extension and norm
    it is checked under."""
    masks = MaskSeq(1, lambda n: [0.3 + 0.4 / n, -0.2 + 0.1 * (-1) ** n])
    conv = cnn_layer_seq(masks, lambda n: np.zeros(2 + n), 2)
    for ext in (ZERO_PAD, CONSTANT_PAD):
        yield conv, sigmoid(), INF, ext
    rng = np.random.default_rng(3)
    # widths cycle through 3, 4, 5 so the window holds three shapes
    shape = lambda n: (3 + n % 3, 3 + (n - 1) % 3)
    mats = {n: rng.uniform(-0.5, 0.5, shape(n)) for n in range(1, 65)}
    plain = LayerSeq(3, lambda n: 3 + n % 3, mats.get, lambda n: np.zeros(3 + n % 3))
    yield plain, sigmoid(), TWO, ZERO_PAD


@pytest.mark.parametrize(
    "case", list(_tail_scan_cases()), ids=["conv-zero", "conv-const", "plain-p2"]
)
def test_tail_scan_takes_the_finite_matrix_norms(case):
    """Without declared limits the omega estimate is L*P times the window
    maximum of the finite weight matrices' induced norms, whatever the
    extension (a constant-padded operator's mask sum does not enter)."""
    seq, act, p, ext = case
    v = check_condition(BoundContext(seq, act, p, ext))
    lp = act.lipschitz * seq.pooling.lipschitz(p)
    want = max(lp * induced_norm(seq.layer(n)[0], p) for n in range(8, 65))
    assert v.method == "tail-scan[8,64]"
    assert v.estimate == want


class TestMaskConditions:
    def test_vanishing_exponential_family(self):
        masks = build_masks(MaskSpec("vanishing_exponential", (0.6, -0.4), rate=0.5))
        out = check_mask_conditions(masks, relu())
        assert out["vanishing"].passed and out["vanishing"].method == "analytic"
        assert out["mask_sum"].passed and out["mask_sum"].estimate == 0.0
        assert out["exponential"].passed
        assert out["exponential"].estimate == pytest.approx(0.5, rel=1e-6)

    def test_harmonic_decay_fails_exponential_gate(self):
        masks = build_masks(MaskSpec("vanishing_harmonic", (0.6, -0.4)))
        out = check_mask_conditions(masks, relu())
        assert out["vanishing"].passed
        assert not out["exponential"].passed
        assert "R^2" in out["exponential"].detail

    def test_constant_limit_family(self):
        masks = build_masks(
            MaskSpec("constant_limit", (0.2, -0.1), rate=0.5, limit=(0.2, -0.1))
        )
        out = check_mask_conditions(masks, relu())
        assert not out["vanishing"].passed
        assert out["mask_sum"].passed
        assert out["mask_sum"].estimate == pytest.approx(0.3, rel=1e-12)
        # deep tails of lim + lim*r^n lose bits to cancellation against the
        # limit, so the fitted rate is only approximately the declared one
        assert out["exponential"].passed
        assert out["exponential"].estimate == pytest.approx(0.5, rel=0.02)

    def test_diverging_family(self):
        masks = build_masks(MaskSpec("diverging", (0.8, 0.6)))
        out = check_mask_conditions(masks, relu())
        assert not out["vanishing"].passed
        assert not out["mask_sum"].passed
        assert out["mask_sum"].estimate == pytest.approx(1.4, rel=1e-12)
        # exactly constant masks decay trivially (at rate 0)
        assert out["exponential"].passed
        assert "constant" in out["exponential"].detail


class TestTrajectory:
    def test_product_gap_hand_computed(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        traj = Trajectory(ctx, [1.0], 4, gaps=(2,))
        with pytest.raises(ValueError, match="restart gap at depth 1 was not declared"):
            traj.product_gap(1)
        # |W_3 N_2(x) - W_1 x| = |0.4 * 0.16 - 0.4|
        assert traj.product_gap(2) == pytest.approx(0.4 - 0.4**3, rel=1e-14)

    def test_state_norms_match_direct_evaluation(self):
        seq = drifting_net()
        ctx = BoundContext(seq, relu(), ONE)
        x = np.array([0.3, -0.8, 0.5])
        traj = Trajectory(ctx, x, 5, norms=(1, 3, 5))
        for n in (1, 3, 5):
            direct = eval_trajectory(seq, relu(), x, n)[-1]
            assert traj.state_norm(n) == vector_norm(direct, ONE)

    def test_empirical_sup_is_max_over_samples(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        samples = [[0.2], [1.0], [-0.6]]
        got = max(Trajectory(ctx, x, 4, pairs=[(2, 4)]).deviation(2, 4) for x in samples)
        assert got == pytest.approx((0.4**2 - 0.4**4) * 1.0, rel=1e-12)


class TestRateFit:
    def test_exact_geometric_series(self):
        fit = fit_exponential_rate([3 * 0.5**n for n in range(1, 12)], range(1, 12))
        assert fit.rate == pytest.approx(0.5, rel=1e-9)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == 1.0
        assert fit.n_used == 11 and fit.n_excluded == 0

    def test_constant_series(self):
        fit = fit_exponential_rate([2.0] * 8)
        assert fit.rate == 1.0 and fit.r_squared == 1.0

    def test_zeros_are_excluded(self):
        devs = [1.0, 0.5, 0.0, 0.125, 0.0625, 0.03125]
        fit = fit_exponential_rate(devs, range(1, 7))
        assert fit.n_excluded == 1 and fit.n_used == 5
        assert fit.rate == pytest.approx(0.5, rel=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="usable"):
            fit_exponential_rate([1.0, 0.5, 0.25])

    @pytest.mark.parametrize(
        "devs, ns",
        [
            # amplitude exp(intercept) ~ 1e350 from a rate of 1e-50
            ([1e300, 1e250, 1e200, 1e150], [1, 2, 3, 4]),
            # rate exp(slope) ~ 1e599: 1e-299 and 1e300 one depth apart
            ([1e-299, 1e-299, 1e300, 1e300], [1, 1, 2, 2]),
        ],
        ids=["amplitude", "rate"],
    )
    def test_a_fit_past_the_double_range_is_a_value_error(self, devs, ns):
        with pytest.raises(ValueError, match="leaves the double range"):
            fit_exponential_rate(devs, ns)


class TestSequenceLemmas:
    def test_matches_literal_nested_oracles(self):
        rng = np.random.default_rng(11)
        alphas = rng.uniform(0.0, 0.9, 12)
        betas = rng.uniform(0.0, 1.0, 12)
        a = cumulative_products(alphas)
        b = tail_product_sums(alphas)
        s = weighted_tail_sums(alphas, betas)
        for n in range(1, 13):
            assert_allclose(a[n - 1], oracles.nested_cumulative_product(alphas, n), rtol=1e-12)
            assert_allclose(b[n - 1], oracles.nested_tail_product_sum(alphas, n), rtol=1e-12)
            assert_allclose(s[n - 1], oracles.nested_weighted_tail_sum(alphas, betas, n), rtol=1e-12)

    def test_constant_half(self):
        alphas = np.full(20, 0.5)
        a = cumulative_products(alphas)
        b = tail_product_sums(alphas)
        assert_allclose(a, [0.5**n for n in range(1, 21)], rtol=1e-14)
        assert_allclose(b, [2.0 - 0.5**n for n in range(20)], rtol=1e-14)
        assert np.all(b < 2.0)

    def test_zero_alpha_degenerates(self):
        alphas = np.zeros(5)
        assert np.all(cumulative_products(alphas) == 0.0)
        assert np.all(tail_product_sums(alphas) == 1.0)

    def test_geometric_beta_stays_bounded(self):
        alphas = np.full(200, 0.6)
        betas = 0.7 ** np.arange(1, 201)
        s = weighted_tail_sums(alphas, betas)
        # closed form: s_n = (0.7^{n+1} - 0.6^{n+1}) / (0.7 - 0.6) / 0.7
        assert np.all(s <= 7.0)
        assert s[-1] < 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError, match="1-d"):
            cumulative_products([[1.0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            tail_product_sums([1.0, math.inf])
        with pytest.raises(ValueError, match="equal length"):
            weighted_tail_sums([0.5], [1.0, 2.0])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=0.85), min_size=1, max_size=30)
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_sums_bounded_by_geometric_cap(self, alphas):
        cap = 1.0 / (1.0 - max(alphas)) if alphas else 1.0
        b = tail_product_sums(np.array(alphas))
        assert np.all(b <= cap * (1 + 1e-12))
