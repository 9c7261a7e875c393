"""Tests for the orchestrated convergence studies."""

import gc
import tracemalloc
import weakref
from collections import Counter
from dataclasses import astuple
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
from dnclab.linalg import INF, ONE, TWO, EventuallyConstSeq, apply_banded, matvec
from dnclab.network import LayerSeq, eval_extended_trajectory
from dnclab.study import DepthPlan, convergence_study

import oracles


def scalar_net(weight: float) -> LayerSeq:
    return LayerSeq(
        1,
        lambda n: 1,
        lambda n: np.array([[weight]]),
        lambda n: np.zeros(1),
        weight_limit=np.array([[weight]]),
        bias_limit=np.zeros(1),
    )


SMALL_PLAN = DepthPlan(n_list=(1, 2, 3, 4, 6), m_list=(1, 3), reference_depth=16)
SMALL_SAMPLER = SamplerSpec(count=6, seed=3)


def run_scalar(**kw):
    return convergence_study(
        scalar_net(0.4),
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
                scalar_net(0.4), relu(), ONE, Domain(2, 1.0), SMALL_SAMPLER
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


def _oracle_case(label: str) -> tuple:
    """(seq, act, p, domain, extension) of the corpus instance ``label``."""
    (inst,) = [i for i in corpus_instances() if i.label == label]
    return inst.build(), inst.activation(), inst.p, inst.domain(), inst.extension


ORACLE_STUDIES = {
    "scalar-0.4-p1": lambda: (
        scalar_net(0.4), relu(), ONE, Domain(1, 1.0), analysis.ZERO_PAD
    ),
    "max-pooled-pinf": lambda: _oracle_case("max1-exp_decay-sigmoid-pinf"),
    "cyclic-p1": lambda: _oracle_case("cyc534-exp_decay-relu-p1"),
    "constant-padded-conv-pinf": lambda: _oracle_case("convc-t2-sigmoid-pinf"),
}


class TestWholeStudyOracle:
    """A whole study against :func:`oracles.mp_study`, which recomputes
    every row, state row and violation list one sample and one cell at a
    time: floats to 1e-12 relative, indices, verdicts and keys exactly.
    Scaling every bound by 1/16 plants violations of all three kinds."""

    @pytest.mark.parametrize("scale", [1.0, 1 / 16], ids=["as-is", "planted"])
    @pytest.mark.parametrize("case", sorted(ORACLE_STUDIES))
    def test_study_matches_the_oracle(self, case, scale, monkeypatch):
        seq, act, p, domain, extension = ORACLE_STUDIES[case]()
        for name in ("deviation_bound_ctx", "limit_bound_ctx"):
            bound = getattr(study, name)
            monkeypatch.setattr(study, name, lambda *a, f=bound: f(*a) * scale)
        table = study._apriori_bounds
        monkeypatch.setattr(study, "_apriori_bounds", lambda *a: [b * scale for b in table(*a)])
        res = convergence_study(
            seq, act, p, domain, SMALL_SAMPLER, SMALL_PLAN, extension=extension
        )
        want = oracles.mp_study(
            seq, act, p, domain, SMALL_SAMPLER, SMALL_PLAN, res.constants, scale,
            extension=extension,
        )
        got = [astuple(r) for r in res.rows] + [astuple(r) for r in res.state_rows]
        expected = want["rows"] + want["state_rows"]
        assert len(got) == len(expected)
        for row, expect in zip(got, expected):
            assert len(row) == len(expect)
            for value, target in zip(row, expect):
                if type(target) is float:
                    assert abs(value - target) <= 1e-12 * abs(target), (row, expect)
                else:
                    assert value == target and type(value) is type(target), (row, expect)
        violations = (res.dominance_violations, res.apriori_violations, res.limit_violations)
        assert violations == tuple(tuple(want[k]) for k in ("dominance", "apriori", "limit"))
        assert all(violations) or scale == 1.0, violations


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
            seq = inst.build()
            res = convergence_study(
                seq,
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
            seq = inst.build()
            res = convergence_study(
                seq,
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


class TestBatchComposition:
    """A sample's state norms, deviations, product gaps and deviation
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
    # every state norm, every restart gap and the pairs' deviations
    EVERY = {
        "norms": range(1, DEPTH + 1),
        "pairs": [(n, n + m) for n, m in PAIRS],
        "gaps": range(1, DEPTH),
    }

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
        seq = inst.build()
        ctx = BoundContext(seq, inst.activation(), inst.p, inst.extension)
        xs = inst.domain().uniform_samples(7, seed=41).T
        count = xs.shape[1]
        full = Trajectory(ctx, xs, self.DEPTH, **self.EVERY)
        rev = Trajectory(ctx, xs[:, ::-1], self.DEPTH, **self.EVERY)
        for i in range(count):
            want = self._per_sample(ctx, full, i)
            alone = Trajectory(ctx, xs[:, [i]], self.DEPTH, **self.EVERY)
            vector = Trajectory(ctx, xs[:, i], self.DEPTH, **self.EVERY)
            for other, j in ((alone, 0), (vector, 0), (rev, count - 1 - i)):
                got = self._per_sample(ctx, other, j)
                for a, b in zip(want, got):
                    if a is not None:
                        np.testing.assert_array_equal(a, b)

    # zero-padded dense at p = 1, 2 and inf, pooled, cyclic widths, and a
    # constant-padded convolution
    CHUNK_PICKS = (
        "fixed4-exp_decay-selu-p1",
        "fixed4-exp_decay-sigmoid-p2",
        "fixed4-random_convergent-relu-pinf",
        "max1-exp_decay-selu-p2",
        "cyc534-exp_decay-prelu-p2",
        "convc-t2-sigmoid-pinf",
    )

    @pytest.mark.parametrize("label", CHUNK_PICKS)
    def test_chunked_sweep_has_the_bits_of_one_sweep(self, label, monkeypatch):
        """A batch swept in chunks of columns (one sample each, or five
        chunks of four or five) gives every read and every deviation bound
        the bits of one sweep of the whole batch."""
        inst = {i.label: i for i in corpus_instances()}[label]
        ctx = BoundContext(inst.build(), inst.activation(), inst.p, inst.extension)
        xs = inst.domain().uniform_samples(23, seed=43).T

        def reads(chunk: int) -> list:
            monkeypatch.setattr(analysis, "_CHUNK_SAMPLES", chunk)
            traj = Trajectory(ctx, xs, self.DEPTH, **self.EVERY)
            out = [traj.state_norm(n) for n in range(1, self.DEPTH + 1)]
            out += [traj.product_gap(m) for m in range(1, self.DEPTH)]
            for n, m in self.PAIRS:
                out += [traj.deviation(n, n + m), deviation_bound_ctx(ctx, traj, n, m)]
            return [_bits(values) for values in out]

        whole = reads(xs.shape[1])
        assert all(values.shape == (23,) for values in whole)
        for chunk in (1, 5):
            for a, b in zip(whole, reads(chunk), strict=True):
                np.testing.assert_array_equal(a, b)

    # holds 1, 2, 3 and 6 of the 12 depths; reads nothing at 9 and 10
    LEAN_PLAN = DepthPlan(n_list=(1, 2, 3, 6), m_list=(1, 2, 5), reference_depth=12)

    @pytest.mark.parametrize("label", PICKS)
    def test_lean_trajectory_bits_match_keeping_every_depth(self, label):
        """Every read a study's trajectory streams equals, bit for bit, the
        read taken from a sweep that keeps every state (restart gaps
        computed again from the kept state and the input), for a batch and
        for one vector; so do the deviation bounds built on them.  A read
        that was not declared raises."""
        inst = {i.label: i for i in corpus_instances()}[label]
        seq = inst.build()
        ctx = BoundContext(seq, inst.activation(), inst.p, inst.extension)
        plan = self.LEAN_PLAN
        reads = study._trajectory_reads(plan)
        batch = inst.domain().uniform_samples(7, seed=41).T
        for x in (batch, batch[:, 3]):
            lean = Trajectory(ctx, x, plan.max_depth, **reads)
            kept = oracles.KeptTrajectory(ctx, x, plan.max_depth)
            for n in sorted(reads["norms"]):
                np.testing.assert_array_equal(
                    _bits(lean.state_norm(n)), _bits(kept.state_norm(n))
                )
            for a, b in reads["pairs"]:
                np.testing.assert_array_equal(
                    _bits(lean.deviation(a, b)), _bits(kept.deviation(a, b))
                )
            for m in reads["gaps"]:
                np.testing.assert_array_equal(
                    _bits(lean.product_gap(m)), _bits(kept.product_gap(m))
                )
            for n in plan.n_list:
                for m in plan.m_list:
                    np.testing.assert_array_equal(
                        _bits(deviation_bound_ctx(ctx, lean, n, m)),
                        _bits(deviation_bound_ctx(ctx, kept, n, m)),
                    )
            for read in (
                lambda: lean.state_norm(9),
                lambda: lean.deviation(2, 9),
                lambda: lean.deviation(3, 6),
                lambda: lean.product_gap(3),
            ):
                with pytest.raises(ValueError, match="not declared"):
                    read()

    def test_reading_an_unkept_depth_names_it(self):
        ctx = BoundContext(scalar_net(0.4), relu(), ONE)
        lean = Trajectory(
            ctx, [[0.5, -0.25]], 12, norms=(1, 2, 11), pairs=[(2, 11)], gaps=(1, 11)
        )
        for read, what in (
            (lambda: lean.state_norm(9), "state norm at depth 9"),
            (lambda: lean.deviation(2, 9), r"deviation of depths \(2, 9\)"),
            (lambda: lean.deviation(11, 2), r"deviation of depths \(11, 2\)"),
            (lambda: lean.product_gap(9), "restart gap at depth 9"),
        ):
            with pytest.raises(ValueError, match=what + " was not declared"):
                read()
        with pytest.raises(ValueError, match=r"\[0, 13\] lie outside 1..12"):
            Trajectory(ctx, [[0.5]], 12, norms=(0, 5, 13))
        with pytest.raises(ValueError, match=r"\[13\] lie outside"):
            Trajectory(ctx, [[0.5]], 12, gaps=(12,))  # the sweep has no layer 13
        with pytest.raises(ValueError, match=r"\[\(5, 5\), \(6, 2\)\] need a < b"):
            Trajectory(ctx, [[0.5]], 12, pairs=[(6, 2), (5, 5), (1, 2)])


class NormAudit:
    """Watches one study's norm cache: which entries a cache miss computed
    (``lazy``), which :meth:`prefetch` filled, which the study read (every
    read goes through ``_norm``), which operands a context named for a
    norm (``built``), and how many matrices had their induced norm
    evaluated outside the generators (``evaluated``)."""

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

        def patched_prefetch(ctx, keys):
            before = set(ctx._norms)
            prefetch(ctx, keys)
            self.prefetched.update(set(ctx._norms) - before)

        mp.setattr(BoundContext, "__init__", patched_init)
        mp.setattr(BoundContext, "prefetch", patched_prefetch)
        mp.setattr(BoundContext, "_norm", self._on_read(BoundContext._norm))
        for cls in (BoundContext, analysis.ConstantPad):
            mp.setattr(cls, "_operator", self._on_build(cls, cls.__dict__["_operator"]))
        # stacked_norms calls it through linalg
        mp.setattr(linalg, "induced_norm", self._on_norm(linalg.induced_norm))

    @property
    def operators(self) -> set:
        """The keys whose operator a context built for an induced norm."""
        return set(self.built)

    def _on_read(self, read):
        def recorded(ctx, key):
            self.read.add(key)
            if key not in ctx._norms:
                self.lazy.append(key)
            return read(ctx, key)

        return recorded

    def _on_build(self, cls, method):
        def recorded(ctx, *key):
            if type(ctx) is cls:  # an override that defers to its base counts once
                self.built[key] += 1
            return method(ctx, *key)

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

    def weight(n: int) -> np.ndarray:
        w = np.random.default_rng(1000 + n).uniform(-1.0, 1.0, (width, width))
        return 0.5 * w / np.abs(w).sum(axis=1).max()

    def bias(n: int) -> np.ndarray:
        return np.random.default_rng(2000 + n).uniform(-0.1, 0.1, width)

    return LayerSeq(width, lambda n: width, weight, bias)


def _audit_cases():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        exp = load_config(str(path))
        yield path.stem, (
            exp.seq, exp.act, exp.p, exp.domain, exp.sampler, exp.depths,
            exp.extension,
        )
        yield path.stem + "-deep", (
            *(exp.seq, exp.act, exp.p, exp.domain),
            SamplerSpec(count=2, seed=5), DEEP_PLAN, exp.extension,
        )
    for inst in (*corpus_instances(), *control_instances()):
        yield inst.label, (
            inst.build(), inst.activation(), inst.p, inst.domain(),
            SamplerSpec(count=2, seed=inst.gen.seed + 7), AUDIT_PLAN, inst.extension,
        )
    yield "no-limits-p2", (
        _plain_net_without_limits(), relu(), TWO, Domain(4, 1.0),
        SamplerSpec(count=2, seed=9), SCAN_PLAN, "zero_pad",
    )


def test_prefetch_covers_exactly_the_norms_a_study_reads():
    """The grid's key lists match the bound formulas: after the study, no
    norm was computed on a cache miss, none was prefetched and never read,
    and none was computed twice: every evaluated matrix is the operator of
    one entry of the context's norm cache (|W*| included), and no operator
    was named twice.  A net without declared limits checks the condition's
    tail scan, which reads the same cache."""
    studies = 0
    for label, (seq, act, p, domain, sampler, depths, ext) in _audit_cases():
        with pytest.MonkeyPatch.context() as mp:
            audit = NormAudit(mp)
            convergence_study(seq, act, p, domain, sampler, depths, extension=ext)
        assert audit.prefetched, label
        assert audit.lazy == [], label
        assert audit.prefetched <= audit.read, (label, audit.prefetched - audit.read)
        assert max(audit.built.values(), default=1) == 1, label
        assert audit.operators <= set(audit.ctx._norms), label
        assert audit.evaluated == len(audit.operators), label
        studies += 1
    assert studies == 2 * 2 + 50 + 2 + 1


def test_a_study_builds_its_grid_key_plan_once(monkeypatch):
    """The constants scan's batch, the grid's batch with or without the
    limit drifts, and a study without a scan take one key plan."""
    calls = Counter()
    real = study._grid_norm_keys

    def counted(depths):
        calls["plan"] += 1
        return real(depths)

    monkeypatch.setattr(study, "_grid_norm_keys", counted)
    # a scan whose constants certify, a scan whose constants do not, no scan
    picks = {"fixed4-exp_decay-relu-p2": True, "control-diverging-dense": False,
             "no-limits-p2": False}
    for label, case in _audit_cases():
        if label in picks:
            seq, act, p, domain, sampler, depths, ext = case
            calls.clear()
            result = convergence_study(seq, act, p, domain, sampler, depths, extension=ext)
            assert calls["plan"] == 1, label
            assert (result.constants is not None) == picks.pop(label), label
    assert not picks


def test_reused_workspaces_never_reach_a_kept_state():
    """The constant-padded sweep writes every layer into the same
    workspaces, so what a trajectory holds past a step must be a copy.
    With states held from depths 1 and 3 to 40, and W_1 x held for the
    gaps at 1, 2 and 4, every read has the bits of the one computed from
    the states ``eval_extended_trajectory`` lists, each difference built
    in full as a sequence."""
    inst = {i.label: i for i in corpus_instances()}["convc-t2-sigmoid-pinf"]
    seq = inst.build()
    act = inst.activation()
    ctx = BoundContext(seq, act, inst.p, inst.extension)
    x = inst.domain().uniform_samples(6, seed=23).T
    norms, pairs, gaps = (1, 3, 5, 40), ((1, 40), (3, 40), (3, 5)), (1, 2, 4)
    traj = Trajectory(ctx, x, 40, norms=norms, pairs=pairs, gaps=gaps)
    states = eval_extended_trajectory(seq, act, x, 40)
    first = EventuallyConstSeq(matvec(seq.layer(1)[0], x), 0.0)
    for n in norms:
        np.testing.assert_array_equal(
            _bits(traj.state_norm(n)), _bits(states[n - 1].norm(INF))
        )
    for a, b in pairs:
        want = (states[b - 1] - states[a - 1]).norm(INF)
        np.testing.assert_array_equal(_bits(traj.deviation(a, b)), _bits(want))
    for m in gaps:
        product = apply_banded(seq.masks.mask(m + 1), states[m - 1])
        want = (product - first).norm(INF)
        np.testing.assert_array_equal(_bits(traj.product_gap(m)), _bits(want))


def _watched_trajectories(mp: pytest.MonkeyPatch) -> list:
    """Every Trajectory the study module builds from now on, each with the
    ``read`` sets of the norms, pairs and gaps its readers asked for."""
    made = []

    class Watched(Trajectory):
        def __init__(self, *args, **kwargs):
            self.read = {"norms": set(), "pairs": set(), "gaps": set()}
            super().__init__(*args, **kwargs)
            made.append(self)

        def state_norm(self, n):
            self.read["norms"].add(n)
            return super().state_norm(n)

        def deviation(self, n_small, n_large):
            self.read["pairs"].add((n_small, n_large))
            return super().deviation(n_small, n_large)

        def product_gap(self, m):
            self.read["gaps"].add(m)
            return super().product_gap(m)

    mp.setattr(study, "Trajectory", Watched)
    return made


def _watched_sweeps(mp: pytest.MonkeyPatch) -> list:
    """One entry per recursion sweep run from now on: the weak references
    to its states and to the copies of them the context keeps, and the
    most of both alive at once after a step."""
    sweeps = []
    keep = BoundContext.keep

    def watched_keep(ctx, value):
        got = keep(ctx, value)
        if value is sweeps[-1]["state"]:
            sweeps[-1]["kept"].append(weakref.ref(got))
        return got

    mp.setattr(BoundContext, "keep", watched_keep)
    for cls in (BoundContext, analysis.ConstantPad):

        def watched(ctx, x, depth, select, states=cls.__dict__["states"]):
            sweep = {"refs": [], "kept": [], "state": None, "peak": 0}
            sweeps.append(sweep)

            def spy(n, product, state):
                sweep["state"] = state
                got = select(n, product, state)
                sweep["state"] = None
                sweep["refs"].append(weakref.ref(state))
                alive = sum(ref() is not None for ref in sweep["refs"] + sweep["kept"])
                sweep["peak"] = max(sweep["peak"], alive)
                return got

            return states(ctx, x, depth, spy)

        mp.setattr(cls, "states", watched)
    return sweeps


def test_trajectory_keeps_exactly_the_depths_a_study_reads():
    """The working set matches the grid: a study's trajectory declares a
    read only if the grid reads it, and the grid reads nothing else (that
    read would raise).  The sweep runs to the deepest read and the
    trajectory keeps copies of the n_list states alone: at most len(n_list)
    states besides the current one are alive after any step, and none once
    the study has returned.
    Checked on both shipped configs, their deep variants, all 52 selftest
    studies and a net without limits."""
    studies = 0
    for label, (seq, act, p, domain, sampler, depths, ext) in _audit_cases():
        with pytest.MonkeyPatch.context() as mp:
            made = _watched_trajectories(mp)
            sweeps = _watched_sweeps(mp)
            convergence_study(seq, act, p, domain, sampler, depths, extension=ext)
        (traj,), (sweep,) = made, sweeps
        reads = study._trajectory_reads(depths)
        declared = {key: set(values) for key, values in reads.items()}
        assert traj.read == declared, label
        deepest = max(
            *reads["norms"], *(b for _, b in reads["pairs"]), max(reads["gaps"]) + 1
        )
        assert len(sweep["refs"]) == deepest == depths.max_depth, label
        assert sweep["peak"] == len(depths.n_list) + 1, label
        assert all(ref() is None for ref in sweep["refs"] + sweep["kept"]), label
        studies += 1
    assert studies == 2 * 2 + 50 + 2 + 1


@pytest.mark.parametrize("prefix", ["fixed4-exp_decay", "avg2-exp_decay", "convc-t2"])
def test_a_study_frees_its_network_without_the_cycle_collector(prefix):
    """No cache a study builds (the context's zero-image memo, the norm
    and bias caches, the trajectory's reads) refers back to its owner, so the
    network is freed as soon as the caller drops it, not at a later
    garbage collection: the selftest corpus never holds two networks."""
    inst = next(i for i in corpus_instances() if i.label.startswith(prefix))
    gc.disable()
    try:
        seq = inst.build()
        freed = weakref.ref(seq)
        result = convergence_study(
            seq, inst.activation(), inst.p, inst.domain(),
            SamplerSpec(count=3, seed=1), SMALL_PLAN, extension=inst.extension,
        )
        del seq
        assert result.bounds_ok
        assert freed() is None
    finally:
        gc.enable()


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
# states besides the held ones: the sweep's current state and product, the
# first product, the input batch and the kernels' temporaries
GUARD_SPARE_STATES = 8
# a p = 2 batch holds one Gram array, each member's slot gathered a block
# of rows at a time, never an operand stack or a compacted copy of the Gram
# matrices; its Lanczos basis (30 of 32 columns here) and its block of rows
# fit in the spare states
GUARD_P2_COPIES = 1


def _traced_peak(exp, mp: pytest.MonkeyPatch) -> tuple:
    """(result, peak, sweep peak) of the study of ``exp``: the traced
    allocation peak of the whole study, and that of its trajectory sweep
    above what was allocated when the sweep started."""
    peaks = {}

    def measured(*args, **kwargs):
        start, peaks["before sweep"] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        traj = Trajectory(*args, **kwargs)
        peaks["sweep"] = tracemalloc.get_traced_memory()[1]
        peaks["sweep above start"] = peaks["sweep"] - start
        return traj

    mp.setattr(study, "Trajectory", measured)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = convergence_study(
            exp.seq, exp.act, exp.p, exp.domain, exp.sampler, exp.depths,
            extension=exp.extension,
        )
        peak = max(peaks["before sweep"], tracemalloc.get_traced_memory()[1]) - before
    finally:
        tracemalloc.stop()
    return result, peak, peaks["sweep above start"]


def test_study_memory_scales_with_the_depths_it_reads(monkeypatch):
    """Deterministic memory guard: the traced allocation peak of a dense
    p = 2 study at reference depth 64 is bounded by the states it holds
    (the 8 of n_list), not by the 64 it sweeps, plus the Gram array of
    the larger of its two batches of p = 2 operands; its sweep alone by
    the held and spare states.  The two batches (the constants scan's and
    the grid's) split the study's operators evenly: no stack holds more
    than half of the operators of its shape, and none is written whole.
    Keeping every state needs about 8 MB here, over the bound, keeping
    the 18 depths the grid reads oversteps the sweep's bound, and a batch
    that holds its operand stack beside its Gram array oversteps the
    study's."""
    exp = parse_config(GUARD_DOC)
    state = GUARD_WIDTH * GUARD_SAMPLES * 8
    held = len(exp.depths.n_list)
    operators = len(study._grid_norm_keys(exp.depths))
    batch = -(-operators // 2) + 1  # the larger batch and one spare operator
    p2 = GUARD_P2_COPIES * batch * GUARD_WIDTH * GUARD_WIDTH * 8
    bound = (held + GUARD_SPARE_STATES) * state + p2
    assert held == 8 and exp.depths.max_depth == 64
    assert bound < exp.depths.max_depth * state  # the guard tells the two apart
    stacks = []
    real = linalg.induced_norm

    def recording(a, p):
        if a.ndim == 3:
            stacks.append(a.shape)  # the shape alone: the stack is not written
        return real(a, p)

    monkeypatch.setattr(linalg, "induced_norm", recording)
    result, peak, sweep = _traced_peak(exp, monkeypatch)
    assert result.passed
    assert peak < bound, (peak, bound)
    assert sweep < (held + GUARD_SPARE_STATES) * state, (sweep, held)
    square = [k for k, *shape in stacks if shape == [GUARD_WIDTH, GUARD_WIDTH]]
    assert len(stacks) == 3  # W_1 alone, then the two even batches
    # the grid's operators but W_1, which has 16 columns, and |W*|
    assert sum(square) == (operators - 1) + 1
    assert max(square) <= -(-sum(square) // 2), stacks


# three chunks of 500 samples: a state of one chunk is 128 KB, of the batch 384 KB
SWEEP_GUARD_SAMPLES = 1500


def test_sweep_memory_scales_with_one_chunk(monkeypatch):
    """Deterministic memory guard: a batch of more than 512 samples is
    swept in even chunks, so the sweep's traced peak is bounded by the
    held and spare states of one chunk plus the reads it returns (one
    value per read and sample).  Sweeping all 1500 samples at once needs
    about 5.6 MB here, over the bound."""
    exp = parse_config(
        dict(GUARD_DOC, domain={
            "bound": 1.0,
            "sampler": {"kind": "uniform", "count": SWEEP_GUARD_SAMPLES},
        })
    )
    chunks = -(-SWEEP_GUARD_SAMPLES // analysis._CHUNK_SAMPLES)
    state = GUARD_WIDTH * (SWEEP_GUARD_SAMPLES // chunks) * 8
    held = len(exp.depths.n_list)
    reads = study._trajectory_reads(exp.depths)
    values = sum(len(set(r)) for r in reads.values()) * SWEEP_GUARD_SAMPLES * 8
    bound = (held + GUARD_SPARE_STATES) * state + values
    assert chunks == 3 and SWEEP_GUARD_SAMPLES % chunks == 0
    assert bound < (held + GUARD_SPARE_STATES) * state * chunks
    result, _, sweep = _traced_peak(exp, monkeypatch)
    assert result.passed
    assert sweep < bound, (sweep, bound)


# the constant-padded convolution of the conv-deep benchmark at 200 samples:
# heads grow by tau = 2 rows per layer, to 136 rows at depth 64
CONV_GUARD_SAMPLES = 200
CONV_GUARD_DOC = {
    "schema": "dnc-lab/config/v1",
    "label": "memory-guard-conv",
    "seed": 11,
    "generator": {
        "family": "conv",
        "input_dim": 8,
        "mask": {
            "family": "constant_limit",
            "base": [0.2, -0.1, 0.1],
            "rate": 0.5,
            "limit": [0.2, -0.1, 0.1],
        },
    },
    "activation": {"name": "sigmoid"},
    "norm": {"p": "inf"},
    "comparison": {"extension": "constant_pad"},
    "domain": {
        "bound": 1.0,
        "sampler": {"kind": "uniform", "count": CONV_GUARD_SAMPLES},
    },
    "depths": {
        "n_list": [1, 2, 3, 4, 6, 8, 10, 12],
        "m_list": [1, 2, 4, 8],
        "reference_depth": 64,
    },
}
# heads of the deepest width besides the held ones: the sweep's previous
# and current state and its product, the activation's temporaries, and the
# distance's two read-out heads, their difference and its frozen copy
CONV_GUARD_SPARE_HEADS = 10


def test_constant_pad_memory_scales_with_the_states_it_holds(monkeypatch):
    """Deterministic memory guard for a constant-padded convolution, whose
    states widen with depth: the traced allocation peak is bounded by the
    n_list heads it holds plus spare heads of the deepest width.  Keeping
    every head needs about 7.5 MB, and the finite Toeplitz windows of all
    64 layers alone about 3.4 MB, both over the bound."""
    exp = parse_config(CONV_GUARD_DOC)
    head = lambda n: exp.seq.width(n) * CONV_GUARD_SAMPLES * 8
    depth = exp.depths.max_depth
    spare = CONV_GUARD_SPARE_HEADS * head(depth)
    bound = sum(head(n) for n in exp.depths.n_list) + spare
    windows = sum(
        exp.seq.width(n) * exp.seq.width(n - 1) * 8 for n in range(1, depth + 1)
    )
    assert depth == 64 and exp.seq.width(depth) == 136
    assert bound < min(windows, sum(head(n) for n in range(1, depth + 1)))
    result, peak, _ = _traced_peak(exp, monkeypatch)
    assert result.passed
    assert peak < bound, (peak, bound)


def test_study_takes_restart_gaps_only_where_the_grid_reads_them(monkeypatch):
    """The sweep takes the restart gap |W_{m+1} N_m(x) - W_1 x| at the grid's
    m only, not at every depth it reads a norm at, and refuses a gap it did
    not take."""
    exp = parse_config(GUARD_DOC)
    taken = []
    gap = BoundContext.restart_gap
    monkeypatch.setattr(
        BoundContext, "restart_gap",
        lambda ctx, product, first: taken.append(1) or gap(ctx, product, first),
    )
    made = _watched_trajectories(monkeypatch)
    convergence_study(
        exp.seq, exp.act, exp.p, exp.domain, exp.sampler, exp.depths,
        extension=exp.extension,
    )
    (traj,) = made
    assert len(taken) == len(exp.depths.m_list) == 4
    assert 3 in study._trajectory_reads(exp.depths)["norms"]
    assert 3 not in exp.depths.m_list
    with pytest.raises(ValueError, match="restart gap at depth 3 was not declared"):
        traj.product_gap(3)
