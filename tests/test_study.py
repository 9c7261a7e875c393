"""Tests for the orchestrated convergence studies."""

import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dnclab import analysis, linalg, study
from dnclab.activations import relu
from dnclab.analysis import (
    CONSTANT_PAD,
    BoundContext,
    Domain,
    SamplerSpec,
    Trajectory,
    deviation_bound_ctx,
)
from dnclab.cli import main
from dnclab.config import load_config, parse_config
from dnclab.corpus import control_instances, corpus_instances
from dnclab.linalg import (
    ONE,
    TWO,
    EventuallyConstSeq,
    apply_banded,
    matvec,
)
from dnclab.network import PLAIN, Conv, LayerSeq
from dnclab.study import DepthPlan, convergence_study


def scalar_net(weight: float) -> LayerSeq:
    return LayerSeq(
        1,
        lambda n: 1,
        lambda n: (np.array([[weight]]), np.zeros(1)),
        weight_limit=np.array([[weight]]),
        bias_limit=np.zeros(1),
    )


SMALL_PLAN = DepthPlan(n_list=(1, 2, 3, 4, 6), m_list=(1, 3), reference_depth=16)
SMALL_SAMPLER = SamplerSpec(count=6, seed=3)


def run_scalar(**kw):
    return convergence_study(
        scalar_net(0.4),
        PLAIN,
        relu(),
        ONE,
        Domain(1, 1.0),
        SMALL_SAMPLER,
        SMALL_PLAN,
        label="scalar-0.4",
        **kw,
    )


class TestDepthPlan:
    def test_defaults_and_reference(self):
        plan = DepthPlan()
        assert plan.reference == max(plan.n_list) + 20
        assert plan.max_depth >= plan.reference

    def test_validation(self):
        with pytest.raises(ValueError):
            DepthPlan(n_list=(3, 2))
        with pytest.raises(ValueError):
            DepthPlan(n_list=(1, 1))
        with pytest.raises(ValueError):
            DepthPlan(m_list=(0,))
        with pytest.raises(ValueError, match="reference"):
            DepthPlan(n_list=(1, 8), reference_depth=8)


class TestConvergenceStudy:
    def test_scalar_study_passes(self):
        res = run_scalar()
        assert res.passed and res.bounds_ok
        assert res.condition.passed and res.condition.method == "analytic"
        assert res.constants is not None and res.constants_note == "ok"
        assert res.sample_count == 6
        assert res.reference_depth == 16
        assert [(r.n, r.m) for r in res.rows] == [
            (n, m) for n in (1, 2, 3, 4, 6) for m in (1, 3)
        ]
        assert [s.n for s in res.state_rows] == [1, 2, 3, 4, 6, 16]
        for row in res.rows:
            assert row.dominance_ok and row.empirical <= row.bound * (1 + 1e-9)
            assert row.limit_ok and row.limit_pair >= row.empirical
        assert res.dominance_violations == ()
        assert res.apriori_violations == ()
        assert res.limit_violations == ()
        assert "scalar-0.4" in res.summary()

    def test_scalar_rows_match_closed_form(self):
        res = run_scalar()
        # relu kills negative inputs, so only the largest positive sample counts
        sup = max(max(x[0], 0.0) for x in Domain(1, 1.0).samples(SMALL_SAMPLER))
        for row in res.rows:
            expect = (0.4**row.n - 0.4 ** (row.n + row.m)) * sup
            assert row.empirical == pytest.approx(expect, rel=1e-12)

    def test_rate_fit_recovers_contraction(self):
        res = run_scalar()
        # dev-to-reference is (0.4^n - 0.4^16) * sup|x|: geometric up to the
        # tiny reference offset, so the fit lands close to the contraction
        assert res.rate is not None
        assert res.rate.rate == pytest.approx(0.4, rel=1e-3)
        assert res.rate.r_squared >= 0.999

    def test_domain_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            convergence_study(
                scalar_net(0.4), PLAIN, relu(), ONE, Domain(2, 1.0), SMALL_SAMPLER
            )


def _limit_bound_zero_at(*depths):
    """A stand-in for ``limit_bound_ctx``: 0.0 at ``depths``, 1e3 elsewhere.
    A grid row (n, n + m) with both depths listed then fails its limit
    check while every state row (n, reference) passes."""
    return lambda ctx, n, constants: 0.0 if n in depths else 1e3


class TestRowLimitVerdict:
    def test_failing_grid_row_is_a_limit_violation(self, monkeypatch):
        monkeypatch.setattr(study, "limit_bound_ctx", _limit_bound_zero_at(6, 9))
        res = run_scalar()
        failed = [(r.n, r.m) for r in res.rows if r.limit_ok is False]
        assert failed == [(6, 3)]
        assert all(s.limit_ok is not False for s in res.state_rows)
        assert res.limit_violations == ((6, 9),)
        assert not res.bounds_ok and not res.passed
        assert "limit=1" in res.summary()

    def test_failing_grid_row_makes_run_exit_2(self, monkeypatch, tmp_path):
        monkeypatch.setattr(study, "limit_bound_ctx", _limit_bound_zero_at(12, 20))
        cfg = Path(__file__).resolve().parents[1] / "sample_configs" / "dense_exp_decay.json"
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2, result.output
        assert "LIMIT-BOUND VIOLATION: n=12 vs depth 20" in result.output
        assert result.output.count("LIMIT-BOUND VIOLATION") == 1


class TestCorpusSmoke:
    def test_one_instance_per_geometry_passes(self):
        by_label = {inst.label: inst for inst in corpus_instances()}
        picks = [
            next(k for k in by_label if k.startswith("fixed4")),
            next(k for k in by_label if k.startswith("avg2")),
            next(k for k in by_label if k.startswith("convz")),
            next(k for k in by_label if k.startswith("convc")),
        ]
        for label in picks:
            inst = by_label[label]
            seq, kind = inst.build()
            res = convergence_study(
                seq,
                kind,
                inst.activation(),
                inst.p,
                inst.domain(),
                SamplerSpec(count=5, seed=1),
                DepthPlan(n_list=(1, 2, 4), m_list=(1, 2), reference_depth=10),
                extension=inst.extension,
                label=inst.label,
            )
            assert res.passed, f"{label}: {res.summary()}"

    def test_controls_fail_condition_but_not_bounds(self):
        for inst in control_instances():
            seq, kind = inst.build()
            res = convergence_study(
                seq,
                kind,
                inst.activation(),
                inst.p,
                inst.domain(),
                SamplerSpec(count=4, seed=2),
                DepthPlan(n_list=(1, 2), m_list=(1,), reference_depth=6),
                extension=inst.extension,
                label=inst.label,
            )
            assert not res.condition.passed
            assert res.bounds_ok, f"{inst.label}: bounds must hold regardless"
            assert not res.passed
            assert res.constants is None


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _state_columns(state, i: int | None) -> tuple:
    """Sample i's part of a batched state (finite array or sequence batch);
    the whole state when ``i`` is None (a single sample's state)."""
    if isinstance(state, EventuallyConstSeq):
        if i is None:
            return _bits(state.head), _bits(state.tail)
        return _bits(state.head[:, i]), _bits(state.tail[i])
    return (_bits(state if i is None else state[:, i]),)


class TestBatchComposition:
    """A sample's states, norms, deviations, product gaps and deviation
    bounds are the same bits whether it is evaluated in the full batch,
    alone (as a batch of one or as a plain vector) or in a reversed batch."""

    PICKS = (
        "fixed4-exp_decay-sigmoid-p2",
        "avg2-exp_decay-selu-p1",
        "max1-exp_decay-selu-p2",
        "cyc534-exp_decay-prelu-p2",
        "convz-t2-sigmoid-pinf",
        "convc-t2-sigmoid-pinf",
    )
    DEPTH = 12
    PAIRS = ((1, 1), (2, 3), (4, 2), (6, 5), (3, 8))

    def _per_sample(self, ctx, traj, i: int) -> list:
        """Every per-sample figure of column i (all of them for a vector)."""

        def col(values):
            return _bits(values if np.ndim(values) == 0 else values[i])

        out = []
        for n in range(1, self.DEPTH + 1):
            out.append(col(traj.state_norm(n)))
            out.append(col(traj.product_gap(n)) if n < self.DEPTH else None)
        for n, m in self.PAIRS:
            out.append(col(traj.deviation(n, n + m)))
            out.append(col(deviation_bound_ctx(ctx, traj, n, m)))
        return out

    @pytest.mark.parametrize("label", PICKS)
    def test_sample_bits_independent_of_batch(self, label):
        inst = {i.label: i for i in corpus_instances()}[label]
        seq, kind = inst.build()
        ctx = BoundContext(seq, kind, inst.activation(), inst.p, inst.extension)
        xs = inst.domain().uniform_samples(7, seed=41).T
        count = xs.shape[1]
        every = range(1, self.DEPTH)
        full = Trajectory(ctx, xs, self.DEPTH, gaps=every)
        rev = Trajectory(ctx, xs[:, ::-1], self.DEPTH, gaps=every)
        for i in range(count):
            want = self._per_sample(ctx, full, i)
            alone = Trajectory(ctx, xs[:, [i]], self.DEPTH, gaps=every)
            vector = Trajectory(ctx, xs[:, i], self.DEPTH, gaps=every)
            for other, j in ((alone, 0), (vector, 0), (rev, count - 1 - i)):
                got = self._per_sample(ctx, other, j)
                for a, b in zip(want, got):
                    if a is not None:
                        np.testing.assert_array_equal(a, b)
            for n in (1, 5, self.DEPTH):
                want_state = _state_columns(full.state(n), i)
                for got_state in (
                    _state_columns(alone.state(n), 0),
                    _state_columns(vector.state(n), None),
                    _state_columns(rev.state(n), count - 1 - i),
                ):
                    for a, b in zip(want_state, got_state):
                        np.testing.assert_array_equal(a, b)

    # keeps 1..8, 11 and 12 of the 12 depths: 9 and 10 are swept, not kept
    LEAN_PLAN = DepthPlan(n_list=(1, 2, 3, 6), m_list=(1, 2, 5), reference_depth=12)

    @staticmethod
    def _recomputed_gap(ctx, xs, state, m: int):
        """|W_{m+1} N_m(x) - W_1 x| with both products computed again from
        a state and the input: the reference for the gaps a trajectory takes
        from its sweep."""
        seq = ctx.seq
        first = matvec(seq.layer(1)[0], xs)
        if isinstance(ctx.geometry, analysis.ConstantPad):
            mask = ctx.kind.masks.mask(m + 1)
            return ctx.geometry.restart_gap(
                apply_banded(mask, state), EventuallyConstSeq(first, 0.0)
            )
        return ctx.geometry.restart_gap(matvec(seq.layer(m + 1)[0], state), first)

    @pytest.mark.parametrize("label", PICKS)
    def test_lean_trajectory_bits_match_keeping_every_depth(self, label):
        inst = {i.label: i for i in corpus_instances()}[label]
        seq, kind = inst.build()
        ctx = BoundContext(seq, kind, inst.activation(), inst.p, inst.extension)
        xs = inst.domain().uniform_samples(7, seed=41).T
        plan = self.LEAN_PLAN
        keep = study._trajectory_depths(plan)
        assert keep == {1, 2, 3, 4, 5, 6, 7, 8, 11, 12}
        full = Trajectory(ctx, xs, plan.max_depth, gaps=range(1, plan.max_depth))
        lean = Trajectory(ctx, xs, plan.max_depth, keep, gaps=plan.m_list)
        assert lean.kept == keep and full.kept == set(range(1, 13))
        for n in sorted(keep):
            got, want = lean.state(n), full.state(n)
            for a, b in zip(_state_columns(got, None), _state_columns(want, None)):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(
                _bits(lean.state_norm(n)), _bits(full.state_norm(n))
            )
        for m in plan.m_list:
            want = _bits(self._recomputed_gap(ctx, xs, full.state(m), m))
            np.testing.assert_array_equal(_bits(full.product_gap(m)), want)
            np.testing.assert_array_equal(_bits(lean.product_gap(m)), want)
        for n in plan.n_list:
            for n_large in (*(n + m for m in plan.m_list), plan.reference):
                np.testing.assert_array_equal(
                    _bits(lean.deviation(n, n_large)), _bits(full.deviation(n, n_large))
                )
            for m in plan.m_list:
                np.testing.assert_array_equal(
                    _bits(deviation_bound_ctx(ctx, lean, n, m)),
                    _bits(deviation_bound_ctx(ctx, full, n, m)),
                )

    def test_reading_an_unkept_depth_names_it(self):
        ctx = BoundContext(scalar_net(0.4), PLAIN, relu(), ONE)
        lean = Trajectory(ctx, [[0.5, -0.25]], 12, {1, 2, 11, 12}, gaps=(1, 2, 11, 12))
        for read in (
            lambda: lean.state(9),
            lambda: lean.state_norm(9),
            lambda: lean.deviation(2, 9),
            lambda: lean.product_gap(9),
        ):
            with pytest.raises(ValueError, match="depth 9 "):
                read()
        with pytest.raises(ValueError, match="restart gap at depth 12"):
            lean.product_gap(12)  # kept, but the sweep has no layer 13
        with pytest.raises(ValueError, match=r"\[0, 13\]"):
            Trajectory(ctx, [[0.5]], 12, {0, 5, 13}, gaps=())


class NormAudit:
    """Watches one study's norm cache: which entries a cache miss computed
    (``lazy``), which :meth:`prefetch` filled, which the study read, which
    operators a geometry built or mask-summed for a norm (``built``), and
    how many matrices had their induced norm evaluated outside the
    generators (``evaluated``)."""

    READS = {"weight_norm": "W", "weight_diff": "dW", "weight_limit_diff": "E"}

    def __init__(self, mp: pytest.MonkeyPatch):
        self.ctx = None
        self.lazy: list = []
        self.prefetched: set = set()
        self.read: set = set()
        self.built: Counter = Counter()
        self.evaluated = 0
        init, prefetch = BoundContext.__init__, BoundContext.prefetch

        def patched_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            self.ctx = ctx
            ctx._norm.compute = self._on_miss(ctx._norm.compute)

        def patched_prefetch(ctx, keys):
            before = set(ctx._norm)
            prefetch(ctx, keys)
            self.prefetched.update(set(ctx._norm) - before)

        mp.setattr(BoundContext, "__init__", patched_init)
        mp.setattr(BoundContext, "prefetch", patched_prefetch)
        for name, tag in self.READS.items():
            read = self._on_read(tag, getattr(BoundContext, name))
            mp.setattr(BoundContext, name, read)
        builders = ((analysis.ZeroPad, "_operator"), (analysis.ConstantPad, "_mask_norm"))
        for cls, attr in builders:
            mp.setattr(cls, attr, self._on_build(attr, getattr(cls, attr)))
        norm = linalg.induced_norm  # induced_norms calls it through linalg
        for module in (linalg, analysis):
            mp.setattr(module, "induced_norm", self._on_norm(norm))

    @property
    def operators(self) -> set:
        """The keys whose operator a geometry built for an induced norm."""
        return {key for name, key in self.built if name == "_operator"}

    def _on_miss(self, compute):
        def recorded(key):
            self.lazy.append(key)
            return compute(key)

        return recorded

    def _on_read(self, tag, method):
        def recorded(ctx, *key):
            self.read.add(ctx._key((tag, *key)))
            return method(ctx, *key)

        return recorded

    def _on_build(self, name, method):
        def recorded(geo, *key):
            self.built[name, key] += 1
            return method(geo, *key)

        return recorded

    def _on_norm(self, norm):
        def recorded(a, p):
            self.evaluated += len(a) if np.ndim(a) == 3 else 1
            return norm(a, p)

        return recorded


CONFIG_DIR = Path(__file__).resolve().parents[1] / "sample_configs"
AUDIT_PLAN = DepthPlan(n_list=(1, 2, 3, 4, 6, 8), m_list=(1, 2, 4), reference_depth=16)
# past the constants scan end (48), so both prefetches ask for E_48
DEEP_PLAN = DepthPlan(n_list=(1, 2, 4, 8), m_list=(1, 4), reference_depth=56)
# the condition's tail scan window (8, 64) ends at the reference depth
SCAN_PLAN = DepthPlan(n_list=(1, 2, 4, 8), m_list=(1, 2, 4), reference_depth=64)


def _plain_net_without_limits(width: int = 4) -> LayerSeq:
    """A fixed-width net that declares no limits, so its condition verdict
    is a tail scan over finite weight norms."""

    def layer(n: int):
        rng = np.random.default_rng(1000 + n)
        w = rng.uniform(-1.0, 1.0, (width, width))
        return 0.5 * w / np.abs(w).sum(axis=1).max(), rng.uniform(-0.1, 0.1, width)

    return LayerSeq(width, lambda n: width, layer)


def _audit_cases():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        exp = load_config(str(path))
        yield path.stem, (
            exp.seq, exp.kind, exp.act, exp.p, exp.domain, exp.sampler, exp.depths,
            exp.extension,
        )
        yield path.stem + "-deep", (
            *(exp.seq, exp.kind, exp.act, exp.p, exp.domain),
            SamplerSpec(count=2, seed=5), DEEP_PLAN, exp.extension,
        )
    for inst in (*corpus_instances(), *control_instances()):
        seq, kind = inst.build()
        yield inst.label, (
            seq, kind, inst.activation(), inst.p, inst.domain(),
            SamplerSpec(count=2, seed=inst.gen.seed + 7), AUDIT_PLAN, inst.extension,
        )
    yield "no-limits-p2", (
        _plain_net_without_limits(), PLAIN, relu(), TWO, Domain(4, 1.0),
        SamplerSpec(count=2, seed=9), SCAN_PLAN, "zero_pad",
    )


def test_prefetch_covers_exactly_the_norms_a_study_reads():
    """The grid's key lists match the bound formulas: after the study, no
    norm was computed on a cache miss, none was prefetched and never read,
    and none was computed twice: every evaluated matrix is |W*| or the
    operator of one entry of the context's norm cache, and no operator was
    built (or mask-summed) twice.  A net without declared limits checks
    the condition's tail scan, which reads the same cache."""
    studies = 0
    for label, (seq, kind, act, p, domain, sampler, depths, ext) in _audit_cases():
        with pytest.MonkeyPatch.context() as mp:
            audit = NormAudit(mp)
            convergence_study(seq, kind, act, p, domain, sampler, depths, extension=ext)
        limit = int(not isinstance(kind, Conv) and seq.weight_limit is not None)
        assert audit.prefetched, label
        assert audit.lazy == [], label
        assert audit.prefetched <= audit.read, (label, audit.prefetched - audit.read)
        assert max(audit.built.values(), default=1) == 1, label
        assert audit.operators <= set(audit.ctx._norm), label
        assert audit.evaluated == len(audit.operators) + limit, label
        studies += 1
    assert studies == 2 * 2 + 50 + 2 + 1


def _watched_trajectories(mp: pytest.MonkeyPatch) -> list:
    """Every Trajectory the study module builds from now on, each with a
    ``read`` set of the depths its readers asked for."""
    made = []

    class Watched(Trajectory):
        def __init__(self, *args, **kwargs):
            self.read = set()
            super().__init__(*args, **kwargs)
            made.append(self)

        def _read(self, n):
            self.read.add(n)
            return super()._read(n)

    mp.setattr(study, "Trajectory", Watched)
    return made


def test_trajectory_keeps_exactly_the_depths_a_study_reads():
    """The working set matches the grid: a study's trajectory keeps a depth
    only if the grid reads it, and the grid reads no other (that read
    would raise), on both shipped configs, their deep variants, all 52
    selftest studies and a net without limits."""
    studies = 0
    for label, (seq, kind, act, p, domain, sampler, depths, ext) in _audit_cases():
        with pytest.MonkeyPatch.context() as mp:
            made = _watched_trajectories(mp)
            convergence_study(seq, kind, act, p, domain, sampler, depths, extension=ext)
        (traj,) = made
        assert traj.read == traj.kept, (label, sorted(traj.kept ^ traj.read))
        assert max(traj.kept) == depths.max_depth, label
        studies += 1
    assert studies == 2 * 2 + 50 + 2 + 1


# a state of the guard study is GUARD_WIDTH x GUARD_SAMPLES doubles (128 KB)
GUARD_WIDTH, GUARD_SAMPLES = 32, 500
GUARD_DOC = {
    "schema": "dnc-lab/config/v1",
    "label": "memory-guard",
    "seed": 11,
    "generator": {
        "family": "exp_decay",
        "input_dim": 16,
        "widths": GUARD_WIDTH,
        "rate": 0.5,
        "norm_target": 0.55,
    },
    "activation": {"name": "relu"},
    "norm": {"p": 2},
    "domain": {"bound": 1.0, "sampler": {"kind": "uniform", "count": GUARD_SAMPLES}},
    "depths": {
        "n_list": [1, 2, 3, 4, 6, 8, 10, 12],
        "m_list": [1, 2, 4, 8],
        "reference_depth": 64,
    },
}
# states besides the kept ones: the sweep's current state and product, the
# first product, the input batch and the kernels' temporaries
GUARD_SPARE_STATES = 8
# a p = 2 batch holds its operand stack, their Gram matrices and one
# compacted copy of the Gram matrices still iterating
GUARD_P2_COPIES = 3


def test_study_memory_scales_with_the_depths_it_reads():
    """Deterministic memory guard: the traced allocation peak of a dense
    p = 2 study at reference depth 64 is bounded by the states its grid
    reads (18 depths), not by the 64 it sweeps, plus one batch of p = 2
    operands.  Keeping every state needs about 8 MB here, over the bound."""
    exp = parse_config(GUARD_DOC)
    state = GUARD_WIDTH * GUARD_SAMPLES * 8
    kept = len(study._trajectory_depths(exp.depths))
    operators = len(study._grid_norm_keys(exp.depths, limits=True))
    p2 = GUARD_P2_COPIES * operators * GUARD_WIDTH * GUARD_WIDTH * 8
    bound = (kept + GUARD_SPARE_STATES) * state + p2
    assert kept == 18 and exp.depths.max_depth == 64
    assert bound < exp.depths.max_depth * state  # the guard tells the two apart
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = convergence_study(
            exp.seq, exp.kind, exp.act, exp.p, exp.domain, exp.sampler, exp.depths,
            extension=exp.extension,
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < bound, (peak, bound)


def test_study_takes_restart_gaps_only_where_the_grid_reads_them(monkeypatch):
    """The sweep takes the restart gap |W_{m+1} N_m(x) - W_1 x| at the grid's
    m only, not at every kept depth, and refuses a gap it did not take."""
    exp = parse_config(GUARD_DOC)
    taken = []
    gap = analysis.ZeroPad.restart_gap
    monkeypatch.setattr(
        analysis.ZeroPad, "restart_gap",
        lambda geo, product, first: taken.append(1) or gap(geo, product, first),
    )
    made = _watched_trajectories(monkeypatch)
    convergence_study(
        exp.seq, exp.kind, exp.act, exp.p, exp.domain, exp.sampler, exp.depths,
        extension=exp.extension,
    )
    (traj,) = made
    assert len(taken) == len(exp.depths.m_list) == 4
    assert 3 in traj.kept and 3 not in exp.depths.m_list
    with pytest.raises(ValueError, match="no restart gap at depth 3: not requested"):
        traj.product_gap(3)
