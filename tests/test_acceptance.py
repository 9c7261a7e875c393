"""Acceptance gate: nine executable criteria, one test each.

Every test prints a single ``[criterion k] PASS/FAIL — detail`` line
(bypassing pytest's capture, so the scoreboard is visible in any run mode)
and then asserts.  Criteria 3-5 share one prepared corpus — 50 generated
instances, 100 domain samples each, trajectories evaluated to depth 48 —
whose build cost is charged to criterion 3, its first consumer.

Seeds are fixed constants so reruns check the same cases; the corpus
itself is deterministic by construction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
from click.testing import CliRunner

from dnclab import (
    INF,
    ONE,
    TWO,
    BoundContext,
    EventuallyConstSeq,
    LayerSeq,
    MaskSeq,
    MaskSpec,
    Trajectory,
    apply_banded,
    average_pooling,
    build_masks,
    check_condition,
    check_mask_conditions,
    corpus_instances,
    cumulative_products,
    eval_trajectory,
    fit_exponential_rate,
    induced_norm,
    matvec,
    max_pooling,
    relu,
    seq_sum,
    tail_product_sums,
    toeplitz_matrix,
    weighted_tail_sums,
)
from dnclab.analysis import apriori_bound_ctx, deviation_bound_ctx
from dnclab.cli import main
from dnclab.report import strip_generated_at
from oracles import is_rate_instance, zero_pad_matrix

REFERENCE_DEPTH = 48
SAMPLE_COUNT = 100
SAMPLE_SEED = 987
# what criteria 3-6 read from the corpus trajectories: state norms at
# n <= 15, deviations of (n, n + m) and (n, reference) for n <= 40, m <= 8,
# and the restart gaps at m <= 8
CORPUS_READS = {
    "norms": range(1, 16),
    "pairs": [(n, n + m) for n in range(1, 41) for m in range(1, 9)]
    + [(n, REFERENCE_DEPTH) for n in range(1, 41)],
    "gaps": range(1, 9),
}
REL_TOL = 1e-9  # float-accumulation allowance on dominance comparisons


def report_line(capsys, k: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {k}] {'PASS' if ok else 'FAIL'} — {detail}")


@dataclass
class PreparedInstance:
    inst: object
    ctx: BoundContext
    traj: Trajectory  # all samples of the instance, one per column


@pytest.fixture(scope="module")
def prepared():
    """The shared corpus: contexts and depth-48 trajectories, plus build time."""
    t0 = time.perf_counter()
    out = []
    for inst in corpus_instances():
        seq = inst.build()
        ctx = BoundContext(seq, inst.activation(), inst.p, inst.extension)
        samples = inst.domain().uniform_samples(SAMPLE_COUNT, SAMPLE_SEED)
        traj = Trajectory(ctx, samples.T, REFERENCE_DEPTH, **CORPUS_READS)
        out.append(PreparedInstance(inst, ctx, traj))
    return out, time.perf_counter() - t0


def test_criterion_1_norm_preservation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    exact_failures = 0
    worst_rel2 = 0.0
    for _ in range(500):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        w = rng.uniform(-2.0, 2.0, (rows, cols))
        size = max(rows, cols) + int(rng.integers(0, 6))
        square = zero_pad_matrix(w, size)
        tall = zero_pad_matrix(w, rows + int(rng.integers(0, 5)), keep_cols=True)
        for p in (ONE, INF):
            base = induced_norm(w, p)
            if induced_norm(square, p) != base or induced_norm(tall, p) != base:
                exact_failures += 1
        base2 = induced_norm(w, TWO)
        for padded in (square, tall):
            rel = abs(induced_norm(padded, TWO) - base2) / base2
            worst_rel2 = max(worst_rel2, rel)
    elapsed = time.perf_counter() - t0
    ok = exact_failures == 0 and worst_rel2 <= 1e-7 and elapsed < 5.0
    report_line(
        capsys,
        1,
        ok,
        f"zero padding preserved induced norms on 500 cases: p=1/inf exact "
        f"({exact_failures} failures), p=2 max rel diff {worst_rel2:.2e}; "
        f"{elapsed:.2f}s",
    )
    assert exact_failures == 0
    assert worst_rel2 <= 1e-7
    assert elapsed < 5.0


def test_criterion_2_pooling_lipschitz(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs_per_cell = 10_000
    blocks = 4
    violations = 0
    checked = 0
    for kind in ("average", "max"):
        for mu in (1, 2, 3, 4):
            op = average_pooling(mu) if kind == "average" else max_pooling(mu)
            for _ in range(blocks):
                dim = int(rng.integers(op.window, 24))
                count = pairs_per_cell // blocks
                xs = rng.uniform(-1.0, 1.0, (count, dim))
                ys = rng.uniform(-1.0, 1.0, (count, dim))
                pooled_diff = np.stack(
                    [op.pool(x) - op.pool(y) for x, y in zip(xs, ys)]
                )
                in_diff = xs - ys
                for p in (ONE, TWO, INF):
                    lam = op.lipschitz(p)
                    if p.is_inf:
                        lhs = np.abs(pooled_diff).max(axis=1)
                        rhs = np.abs(in_diff).max(axis=1)
                    elif p.p == 1.0:
                        lhs = np.abs(pooled_diff).sum(axis=1)
                        rhs = np.abs(in_diff).sum(axis=1)
                    else:
                        lhs = np.sqrt((pooled_diff**2).sum(axis=1))
                        rhs = np.sqrt((in_diff**2).sum(axis=1))
                    violations += int(np.count_nonzero(lhs > lam * rhs + 1e-12))
                    checked += count
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    report_line(
        capsys,
        2,
        ok,
        f"pooling Lipschitz held on {checked} pair checks "
        f"(avg/max, mu 1-4, p in {{1,2,inf}}): {violations} violations at "
        f"1e-12; {elapsed:.2f}s",
    )
    assert violations == 0
    assert elapsed < 5.0


def test_criterion_3_apriori_dominance(prepared, capsys):
    data, prep_seconds = prepared
    t0 = time.perf_counter()
    offenders = []
    worst_ratio = 0.0
    for pi in data:
        x_bound = pi.inst.domain().norm_bound(pi.inst.p)
        for n in range(1, 16):
            bound = apriori_bound_ctx(pi.ctx, n, x_bound)
            sup = float(np.max(pi.traj.state_norm(n)))
            worst_ratio = max(worst_ratio, sup / bound)
            if sup > bound * (1.0 + REL_TOL):
                offenders.append((pi.inst.label, n))
    elapsed = prep_seconds + time.perf_counter() - t0
    ok = not offenders and elapsed < 60.0
    report_line(
        capsys,
        3,
        ok,
        f"a-priori bound dominated sampled state norms on 50 instances, "
        f"n<=15, 100 samples (max sup/bound {worst_ratio:.3f}); "
        f"{elapsed:.1f}s incl. corpus prep"
        + (f"; offenders {offenders[:3]}" if offenders else ""),
    )
    assert offenders == []
    assert elapsed < 60.0


def test_criterion_4_deviation_dominance(prepared, capsys):
    data, _ = prepared
    t0 = time.perf_counter()
    offenders = []
    worst_ratio = 0.0
    for pi in data:
        for n in range(1, 13):
            for m in range(1, 9):
                dev = pi.traj.deviation(n, n + m)
                bound = deviation_bound_ctx(pi.ctx, pi.traj, n, m)
                over = dev > bound * (1.0 + REL_TOL) + 1e-15
                offenders.extend([(pi.inst.label, n, m)] * int(np.count_nonzero(over)))
                rated = ~over & (bound > 0.0)
                if rated.any():
                    ratio = float(np.max(dev[rated] / bound[rated]))
                    worst_ratio = max(worst_ratio, ratio)

    # tightness: the scalar constant-0.4 net achieves equality
    seq = LayerSeq(
        1,
        lambda n: 1,
        lambda n: np.array([[0.4]]),
        lambda n: np.zeros(1),
        weight_limit=np.array([[0.4]]),
        bias_limit=np.zeros(1),
    )
    worst_gap = 0.0
    scalar_ctx = BoundContext(seq, relu(), ONE)
    for n, m in ((1, 1), (2, 3), (3, 2), (5, 4)):
        traj = Trajectory(scalar_ctx, [1.0], n + m, norms=range(1, n), gaps=(m,))
        bound = deviation_bound_ctx(scalar_ctx, traj, n, m)
        closed_form = 0.4**n - 0.4 ** (n + m)
        emp = abs(
            eval_trajectory(seq, relu(), [1.0], n + m)[-1][0]
            - eval_trajectory(seq, relu(), [1.0], n)[-1][0]
        )
        worst_gap = max(worst_gap, abs(bound - closed_form), abs(emp - closed_form))
    elapsed = time.perf_counter() - t0
    ok = not offenders and worst_gap <= 1e-12 and elapsed < 120.0
    report_line(
        capsys,
        4,
        ok,
        f"deviation bound dominated 480000 (instance, n<=12, m<=8, sample) "
        f"cells (max dev/bound {worst_ratio:.3f}); scalar 0.4-net equality "
        f"gap {worst_gap:.1e}; {elapsed:.1f}s"
        + (f"; offenders {offenders[:3]}" if offenders else ""),
    )
    assert offenders == []
    assert worst_gap <= 1e-12
    assert elapsed < 120.0


def test_criterion_5_uniform_convergence(prepared, capsys):
    data, _ = prepared
    t0 = time.perf_counter()
    not_passing = []
    never_converged = []
    worst = (0, "")
    for pi in data:
        verdict = check_condition(pi.ctx)
        if not verdict.passed:
            not_passing.append(pi.inst.label)
            continue
        found = None
        for n in range(1, 41):
            below = not any(
                np.any(pi.traj.deviation(n, n + m) >= 1e-6) for m in range(1, 9)
            ) and not np.any(pi.traj.deviation(n, REFERENCE_DEPTH) >= 1e-6)
            if below:
                found = n
                break
        if found is None:
            never_converged.append(pi.inst.label)
        elif found > worst[0]:
            worst = (found, pi.inst.label)
    elapsed = time.perf_counter() - t0
    ok = not not_passing and not never_converged and elapsed < 120.0
    report_line(
        capsys,
        5,
        ok,
        f"every instance's verdict passed and max_m deviation fell below "
        f"1e-6 by n<=40 (deepest: n={worst[0]} on {worst[1]}); {elapsed:.1f}s"
        + (f"; no convergence: {never_converged}" if never_converged else ""),
    )
    assert not_passing == []
    assert never_converged == []
    assert elapsed < 120.0


def test_criterion_6_exponential_rate(prepared, capsys):
    # Fit the tail-sup envelope env(n) = max_{k in [n, 32]} sup_x dev(k, ref):
    # the theorem's guarantee C*n*r0^n is an upper envelope, and the raw
    # sup-deviation curve dips far below it wherever the activation's dead
    # zone swallows the drift direction (ReLU does, transiently), which
    # wrecks a log-linear fit without changing the decay rate itself.
    data, _ = prepared
    t0 = time.perf_counter()
    grid = tuple(range(2, 27, 2))
    lookahead = 32
    results = []
    for pi in data:
        if not is_rate_instance(pi.inst):
            continue
        sup = {
            n: float(np.max(pi.traj.deviation(n, REFERENCE_DEPTH)))
            for n in range(2, lookahead + 1)
        }
        env = {}
        running = 0.0
        for n in range(lookahead, 1, -1):
            running = max(running, sup[n])
            env[n] = running
        fit = fit_exponential_rate([env[n] for n in grid], grid)
        results.append((pi.inst.label, fit.rate, fit.r_squared))
    elapsed = time.perf_counter() - t0
    worst_rate = max(r for _, r, _ in results)
    worst_r2 = min(r2 for _, _, r2 in results)
    ok = (
        len(results) == 10
        and worst_rate <= 0.65
        and worst_r2 >= 0.98
        and elapsed < 30.0
    )
    report_line(
        capsys,
        6,
        ok,
        f"{len(results)} rate instances (declared rate 0.5, omega 0.6): "
        f"fitted rate <= {worst_rate:.3f}, R^2 >= {worst_r2:.4f} on the "
        f"n in [2,26] envelope; {elapsed:.1f}s",
    )
    assert len(results) == 10
    assert worst_rate <= 0.65
    assert worst_r2 >= 0.98
    assert elapsed < 30.0


def test_criterion_7_convolution_and_extensions(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)

    # (a) Toeplitz evaluation == direct full convolution
    conv_gap = 0.0
    for _ in range(200):
        tau = int(rng.integers(0, 6))
        mask = rng.uniform(-1.0, 1.0, tau + 1)
        dim = int(rng.integers(1, 30))
        x = rng.uniform(-2.0, 2.0, dim)
        dense = toeplitz_matrix(mask, dim + tau, dim)
        gap = np.abs(matvec(dense, x) - np.convolve(x, mask, mode="full")).max()
        conv_gap = max(conv_gap, gap)

    # (b) constant-padded evaluation == dense truncation on the interior
    pad_gap = 0.0
    for _ in range(120):
        tau = int(rng.integers(0, 5))
        mask = rng.uniform(-1.0, 1.0, tau + 1)
        head = rng.uniform(-2.0, 2.0, int(rng.integers(1, 12)))
        const = float(rng.uniform(-1.0, 1.0))
        x = EventuallyConstSeq(head, const)
        out = apply_banded(mask, x)
        window = head.size + tau + 6
        dense = toeplitz_matrix(mask, window, window)
        direct = matvec(dense, x.truncated(window))
        pad_gap = max(pad_gap, np.abs(out.truncated(window) - direct).max())

    # (c) the constant-padded operator norm the bound engine reads,
    # MaskSeq.abs_sum, is the absolute mask sum and the l1 induced norm of a
    # dense window holding a full column, exactly
    norm_failures = 0
    for _ in range(200):
        mask = rng.uniform(-1.0, 1.0, int(rng.integers(1, 7)))
        total = MaskSeq(mask.size - 1, lambda n: mask).abs_sum(1)
        window = toeplitz_matrix(mask, mask.size + 2, 3)
        if total != seq_sum(np.abs(mask)) or induced_norm(window, ONE) != total:
            norm_failures += 1

    # (d) mask-condition verdicts match the constructed families
    families = {
        "vanishing_exponential": (
            MaskSpec("vanishing_exponential", (0.4, -0.2, 0.1), rate=0.5),
            {"vanishing": True, "mask_sum": True, "exponential": True},
        ),
        "vanishing_harmonic": (
            MaskSpec("vanishing_harmonic", (0.5, 0.2)),
            {"vanishing": True, "mask_sum": True, "exponential": False},
        ),
        "constant_limit": (
            MaskSpec("constant_limit", (0.3, 0.1), rate=0.5, limit=(0.2, -0.1)),
            {"vanishing": False, "mask_sum": True, "exponential": True},
        ),
        "diverging": (
            MaskSpec("diverging", (0.8, 0.4)),
            {"vanishing": False, "mask_sum": False, "exponential": True},
        ),
    }
    verdict_mismatches = []
    for name, (spec, expected) in families.items():
        got = check_mask_conditions(build_masks(spec), relu())
        for key, want in expected.items():
            if got[key].passed is not want:
                verdict_mismatches.append((name, key))

    elapsed = time.perf_counter() - t0
    ok = (
        conv_gap <= 1e-12
        and pad_gap <= 1e-12
        and norm_failures == 0
        and not verdict_mismatches
        and elapsed < 30.0
    )
    report_line(
        capsys,
        7,
        ok,
        f"Toeplitz == convolution (max gap {conv_gap:.1e}, 200 cases), "
        f"constant-pad == dense interior (max gap {pad_gap:.1e}, 120 cases), "
        f"mask sum == l1 window norm, exactly (200 masks), 4 mask families matched; "
        f"{elapsed:.2f}s"
        + (f"; mismatches {verdict_mismatches}" if verdict_mismatches else ""),
    )
    assert conv_gap <= 1e-12
    assert pad_gap <= 1e-12
    assert norm_failures == 0
    assert verdict_mismatches == []
    assert elapsed < 30.0


def test_criterion_8_sequence_lemmas(capsys):
    t0 = time.perf_counter()
    horizon = 10_000
    ns = np.arange(1, horizon + 1, dtype=np.float64)
    alpha_families = {
        "alpha=0.5": np.full(horizon, 0.5),
        "alpha=0.5+1/n": 0.5 + 1.0 / ns,
    }
    bounded_ok = True
    for alphas in alpha_families.values():
        a_vals = cumulative_products(alphas)
        b_vals = tail_product_sums(alphas)
        if not (np.all(np.isfinite(a_vals)) and a_vals.max() <= 2.0):
            bounded_ok = False
        if not (np.all(np.isfinite(b_vals)) and b_vals.max() <= 10.0):
            bounded_ok = False

    def alpha_at(name, count):
        idx = np.arange(1, count + 1, dtype=np.float64)
        return np.full(count, 0.5) if name == "alpha=0.5" else 0.5 + 1.0 / idx

    beta_families = {
        "beta=1/n": lambda idx: 1.0 / idx,
        "beta=0.5^n": lambda idx: 0.5**idx,
    }
    crossings = {}
    for a_name in alpha_families:
        for b_name, beta_fn in beta_families.items():
            first = None
            for count in (64, horizon, 3_000_000):
                idx = np.arange(1, count + 1, dtype=np.float64)
                sums = weighted_tail_sums(alpha_at(a_name, count), beta_fn(idx))
                below = np.nonzero(sums < 1e-6)[0]
                if below.size and sums[-1] < 1e-6:
                    first = int(below[0]) + 1
                    break
            crossings[f"{a_name}, {b_name}"] = first
    elapsed = time.perf_counter() - t0
    ok = bounded_ok and all(v is not None for v in crossings.values()) and elapsed < 10.0
    detail = ", ".join(f"{k}: n={v}" for k, v in crossings.items())
    report_line(
        capsys,
        8,
        ok,
        f"products/partial sums bounded to n=10^4; weighted sums fell below "
        f"1e-6 at {detail}; {elapsed:.1f}s",
    )
    assert bounded_ok
    assert all(v is not None for v in crossings.values())
    assert elapsed < 10.0


def test_criterion_9_reproducibility(tmp_path, capsys):
    config = {
        "schema": "dnc-lab/config/v1",
        "label": "acceptance-repro",
        "seed": 11,
        "generator": {
            "family": "exp_decay",
            "input_dim": 3,
            "widths": 4,
            "rate": 0.5,
            "norm_target": 0.55,
        },
        "activation": {"name": "relu"},
        "pooling": {"name": "none"},
        "norm": {"p": 2},
        "domain": {"bound": 1.0, "sampler": {"kind": "uniform", "count": 24}},
        "depths": {"n_list": [1, 2, 3, 4, 6], "m_list": [1, 2, 3], "reference_depth": 20},
        "output": {"report": "report.json", "table": "table.csv"},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = {}
    for threads in (1, 8):
        out_dir = tmp_path / f"threads{threads}"
        out_dir.mkdir()
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(cfg), "--out", str(out_dir), "--threads", str(threads)],
        )
        assert result.exit_code == 0, result.output
        outputs[threads] = (
            strip_generated_at((out_dir / "report.json").read_text()),
            (out_dir / "table.csv").read_bytes(),
        )
    report_same = outputs[1][0] == outputs[8][0]
    table_same = outputs[1][1] == outputs[8][1]
    ok = report_same and table_same
    report_line(
        capsys,
        9,
        ok,
        "1-thread and 8-thread runs produced identical report and table bytes "
        "(timestamp excluded)"
        if ok
        else f"byte mismatch: report same={report_same}, table same={table_same}",
    )
    assert report_same
    assert table_same
