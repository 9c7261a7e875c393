"""The batched kernels reproduce the per-element loop forms bit for bit.

Each library kernel that evaluates a whole batch of samples (or a stack of
matrices) at once is checked against its loop reference in ``oracles`` (one
left-to-right sum per output entry, one sample or one matrix at a time).
Results are compared as uint64 bit patterns, so a signed zero or a
last-bit drift counts as a mismatch.  The certified p = 2 norm has no loop
form: each member of a stack must have the bits it has alone, and its value
must bracket mpmath's largest singular value from above.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from dnclab import linalg
from dnclab.activations import ACTIVATION_NAMES, make_activation
from dnclab.analysis import BoundContext, Trajectory
from dnclab.corpus import corpus_instances
from dnclab.linalg import (
    INF,
    ONE,
    TWO,
    EventuallyConstSeq,
    PNorm,
    apply_banded,
    induced_norm,
    matvec,
    seq_sum,
    toeplitz_matrix,
    vector_norm,
)
from dnclab.linalg import _grams, _Stack
from dnclab.analysis import CONSTANT_PAD
from dnclab.network import eval_extended_trajectory, eval_trajectory
from dnclab.pooling import average_pooling, max_pooling

# signed zeros, cancelling magnitudes and ordinary values
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 3e-300, -3e-300]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
SEEDS = st.integers(0, 2**31 - 1)


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want) -> None:
    np.testing.assert_array_equal(bits(got), bits(want))


def operand(draw, shape, zero: bool):
    arr = draw(arrays(np.float64, shape, elements=ENTRIES))
    return np.zeros(shape) if zero else arr


@st.composite
def matrix_and_batch(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    samples = draw(st.integers(1, 4))
    a = operand(draw, (rows, cols), draw(st.booleans()) and draw(st.booleans()))
    x = operand(draw, (cols, samples), draw(st.booleans()) and draw(st.booleans()))
    return a, x


def test_seq_sum_is_not_compensated():
    # a compensated (Neumaier) sum, as built-in sum() is from Python 3.12,
    # returns 1.0 here; left to right, 1e16 + 1.0 rounds back to 1e16
    assert seq_sum([1e16, 1.0, -1e16]) == 0.0


@settings(max_examples=150, deadline=None)
@given(matrix_and_batch())
def test_matvec_matches_row_sums(case):
    a, x = case
    want = np.stack([oracles.rowwise_matvec(a, col) for col in x.T], axis=1)
    assert_same_bits(matvec(a, x), want)
    for s in range(x.shape[1]):
        assert_same_bits(matvec(a, x[:, s]), want[:, s])


def test_matvec_all_negative_zero_row_sums_to_positive_zero():
    a = np.array([[-0.0, 1.0], [1.0, -0.0]])
    x = np.array([1.0, -0.0])
    # row 0: -0.0*1.0 + 1.0*-0.0 is -0.0 + -0.0; left to right from 0.0 it is +0.0
    assert bits(matvec(a, x))[0] == bits(0.0)
    assert bits(matvec(a, x[:, None]))[0, 0] == bits(0.0)


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def sparse_matvec_operands(draw):
    """``a`` with some all-zero columns and ``x`` with some all-zero rows
    (of mixed signed zeros), sometimes a NaN or an infinity in either, and
    sometimes a 1-d ``x``."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    samples = draw(st.integers(1, 4))
    a = draw(arrays(np.float64, (rows, cols), elements=ENTRIES))
    x = draw(arrays(np.float64, (cols, samples), elements=ENTRIES))
    for j in draw(st.sets(st.integers(0, cols - 1))):
        a[:, j] = draw(arrays(np.float64, rows, elements=SIGNED_ZEROS))
    for j in draw(st.sets(st.integers(0, cols - 1))):
        x[j] = draw(arrays(np.float64, samples, elements=SIGNED_ZEROS))
    for _ in range(draw(st.integers(0, 2))):
        target = a if draw(st.booleans()) else x
        i = draw(st.integers(0, target.shape[0] - 1))
        j = draw(st.integers(0, target.shape[1] - 1))
        target[i, j] = draw(NON_FINITE)
    return a, (x[:, 0] if draw(st.booleans()) else x)


@settings(max_examples=300, deadline=None)
@given(sparse_matvec_operands())
# a dead unit facing an infinite weight: inf * 0.0 makes the entry NaN
@example((np.array([[math.inf, 1.0]]), np.array([[0.0], [2.0]])))
@example((np.array([[1.0, 2.0]]), np.array([-0.0, math.nan])))
def test_matvec_skips_only_terms_that_cannot_change_a_bit(case):
    """Skipping dead units and zero columns keeps every bit of the full
    left-to-right sum, and a NaN or an infinity reaches the same entries."""
    a, x = case
    batch = x if x.ndim == 2 else x[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        got = matvec(a, x)
        want = np.stack([oracles.rowwise_matvec(a, col) for col in batch.T], axis=1)
    want = want if x.ndim == 2 else want[:, 0]
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert_same_bits(np.where(nan, 0.0, got), np.where(nan, 0.0, want))


@st.composite
def sum_operands(draw):
    """(array, axis) for ``_seq_sums``: one to three axes, each term (one
    slice across the summed axis) holding from 1 to 2 x 257 entries, so
    both sides of the 256-entry threshold; signed zeros, NaN, infinities
    and overflowing magnitudes among the entries, and lines of -0.0."""
    shape = draw(st.lists(st.sampled_from([1, 2, 3, 7, 257]), min_size=1, max_size=3))
    if math.prod(shape) > 3000:
        shape = shape[:2]
    axis = draw(st.integers(0, len(shape) - 1))
    entries = st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    a = draw(arrays(np.float64, shape, elements=entries))
    if draw(st.booleans()):  # every line of -0.0, or one of them
        lines = np.moveaxis(a, axis, -1)
        index = draw(st.integers(0, lines[..., 0].size - 1))
        which = index if draw(st.booleans()) else slice(None)
        lines.reshape(-1, shape[axis])[which] = -0.0
    return a, axis


@settings(max_examples=200, deadline=None)
@given(sum_operands())
@example((np.array([-math.inf, math.inf, math.nan]), 0))
@example((np.full((2, 257), -0.0), 0))
def test_seq_sums_row_loop_matches_accumulate(case):
    """Adding one term at a time from 0.0 and ``np.add.accumulate`` give
    the same bits on every axis, infinities and signed zeros included,
    and so does :func:`seq_sum` of each line; a NaN reaches the same
    sums.  (IEEE 754 fixes neither the sign nor the payload of a NaN that
    an addition returns, and numpy's loops differ in both: accumulating
    [-inf, inf, nan] gives -NaN, adding it in place +NaN.)"""
    a, axis = case
    got = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for name, entries in (("loop", 0), ("accumulate", a.size), ("default", None)):
            with pytest.MonkeyPatch.context() as mp:
                if entries is not None:
                    mp.setattr(linalg, "_ONE_CALL_ENTRIES", entries)
                got[name] = linalg._seq_sums(a, axis)
        lines = np.moveaxis(a, axis, -1)
        want = np.array([seq_sum(line) for line in lines.reshape(-1, a.shape[axis])])
    nan = np.isnan(want)
    for name, sums in got.items():
        assert sums.shape == lines.shape[:-1], name
        np.testing.assert_array_equal(np.isnan(sums.ravel()), nan, err_msg=name)
        assert_same_bits(np.where(nan, 0.0, sums.ravel()), np.where(nan, 0.0, want))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4), SEEDS, st.booleans())
def test_gram_matches_nested_row_sums(rows, cols, count, seed, signed_zeros):
    """Each slot holds the Gram matrix of the member it names, in any
    order and with repeats, as its nested row sums give it, and the
    gather flags the members that have a non-zero entry."""
    rng = np.random.default_rng(seed)
    ms = rng.normal(size=(count, rows, cols))
    if signed_zeros:
        ms[rng.random(ms.shape) < 0.5] = -0.0
    ms[rng.random(count) < 0.3] = -0.0  # whole members of signed zeros
    for members in (np.arange(count), rng.integers(0, count, size=rng.integers(1, 6))):
        grams, nonzero = _grams(_Stack.of(ms), members)
        assert grams.shape == (cols, cols, len(members))
        np.testing.assert_array_equal(nonzero, ms[members].any(axis=(1, 2)))
        for slot, k in enumerate(members.tolist()):
            assert_same_bits(grams[:, :, slot], oracles.nested_gram(ms[k]))


SPECTRAL_KINDS = (
    "normal",
    "zero",
    "rank_one",
    "sparse",
    "near_repeated",
    "ones_null",
    "ramp_null",
)


def spectral_member(kind: str, rows: int, cols: int, rng) -> np.ndarray:
    """One test matrix: the all-ones start annihilates ``ones_null``, the
    ramp start (up to rounding) also ``ramp_null``, and ``near_repeated``
    has the top singular values 1 and 0.995."""
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "rank_one":
        return np.outer(rng.normal(size=rows), rng.normal(size=cols))
    if kind == "sparse":
        m = rng.normal(size=(rows, cols))
        m[rng.random(m.shape) < 0.7] = -0.0
        return m
    if kind == "near_repeated" and min(rows, cols) >= 2:
        u = np.linalg.qr(rng.normal(size=(rows, rows)))[0]
        vt = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
        s = np.zeros((rows, cols))
        s[0, 0], s[1, 1] = 1.0, 0.995
        return u @ s @ vt
    if kind == "ones_null" and cols >= 2:
        m = np.zeros((rows, cols))
        m[:, 0] = rng.normal(size=rows)
        m[:, 1] = -m[:, 0]
        return m
    if kind == "ramp_null" and cols >= 3:
        m = np.zeros((rows, cols))
        m[:, 0] = rng.normal(size=rows)
        m[:, 1] = -2.0 * m[:, 0]
        m[:, 2] = m[:, 0]
        return m
    return rng.normal(size=(rows, cols))


@st.composite
def spectral_stacks(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(SPECTRAL_KINDS), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(SEEDS))
    return np.stack([spectral_member(k, rows, cols, rng) for k in kinds])


# (entries up to which one accumulation call forms the Gram products and
# the Gram-Schmidt corrections, Gram entries per chunk, product-buffer
# bytes): the kernel's defaults, the one-at-a-time additions everywhere,
# one matrix per chunk, and one row or vector per product buffer
KERNEL_SETTINGS = (
    (linalg._ONE_CALL_ENTRIES, linalg._GRAM_ENTRIES, linalg._GRAM_BLOCK_BYTES),
    (0, linalg._GRAM_ENTRIES, linalg._GRAM_BLOCK_BYTES),
    (linalg._ONE_CALL_ENTRIES, 1, linalg._GRAM_BLOCK_BYTES),
    (linalg._ONE_CALL_ENTRIES, linalg._GRAM_ENTRIES, 8),
)


def assert_stack_matches(stack: np.ndarray) -> np.ndarray:
    """Each matrix's p = 2 norm has the bits it has alone, in the stack and
    in the reversed stack, under every kernel setting.  Returns the norms."""
    want = np.array([induced_norm(m, TWO) for m in stack])
    for one_call, gram_entries, block_bytes in KERNEL_SETTINGS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_ONE_CALL_ENTRIES", one_call)
            mp.setattr(linalg, "_GRAM_ENTRIES", gram_entries)
            mp.setattr(linalg, "_GRAM_BLOCK_BYTES", block_bytes)
            assert_same_bits(induced_norm(stack, TWO), want)
            assert_same_bits(induced_norm(stack[::-1], TWO), want[::-1])
    return want


def assert_certified(got, stack) -> None:
    """Each p = 2 value is at least the largest singular value (mpmath, 40
    digits) and at most 1e-9 relative above it; a zero matrix gets 0.0."""
    for value, m in zip(np.asarray(got).tolist(), stack):
        sigma = oracles.mp_spectral_norm(m)
        assert value >= sigma
        assert value <= sigma * (1 + mpmath.mpf("1e-9"))
        assert (value == 0.0) == (not m.any())


@settings(max_examples=40, deadline=None)
@given(spectral_stacks())
def test_stacked_spectral_norm_matches_alone(stack):
    assert_stack_matches(stack)


@settings(max_examples=60, deadline=None)
@given(spectral_stacks())
def test_spectral_norm_is_a_tight_certified_upper_bound(stack):
    assert_certified(induced_norm(stack, TWO), stack)


def test_spectral_restarts_cap_and_mixed_stopping_steps(monkeypatch):
    """Members leave the ladder at different points: the zero member never
    runs, ones_null after one restart, ramp_null after two, the others at
    their first rung (the Frobenius cap is tested below)."""
    rng = np.random.default_rng(11)
    members = {
        "zero": np.zeros((2, 4)),
        # A 1 = 0: the all-ones run breaks down at once, the ramp start succeeds
        "ones_null": np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        # the ramp 1 + i/5 is annihilated too; e_0 succeeds
        "ramp_null": np.array([[1.0, -2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        "near_repeated": spectral_member("near_repeated", 2, 4, rng),
        "rank_one": spectral_member("rank_one", 2, 4, rng),
        "normal": rng.normal(size=(2, 4)),
    }
    stack = np.stack(list(members.values()))
    starts = []  # each Lanczos run's start columns, scaled to a largest entry of 1
    run = linalg._lanczos

    def recording(g, v0):
        starts.append(np.asarray(v0) / np.abs(v0).max(axis=0))
        return run(g, v0)

    monkeypatch.setattr(linalg, "_lanczos", recording)
    got = induced_norm(stack, TWO)
    ramp = 1.0 + np.arange(4) / 5.0
    # the zero member never runs; two members restart, one of them twice
    assert [s.shape[1] for s in starts] == [5, 2, 1]
    np.testing.assert_array_equal(starts[0], 1.0)
    np.testing.assert_array_equal(starts[1], np.stack([ramp, ramp], axis=1) / ramp[-1])
    np.testing.assert_array_equal(starts[2][:, 0], np.eye(4)[0])
    assert_certified(got, stack)
    monkeypatch.undo()
    assert_same_bits(assert_stack_matches(stack), got)
    # the 1 x 2 difference operator alone and among other 1 x 2 matrices
    row = np.array([[[1.0, -1.0]], [[2.0, 1.0]], [[0.0, 0.0]]])
    assert_certified(assert_stack_matches(row), row)


def test_spectral_rungs_climb_and_end_at_the_frobenius_rung(monkeypatch):
    """Thirty Lanczos steps cannot split a top pair 1e-10 apart in 36
    columns, so the first rung fails and the slack grows; with no rungs
    left every member takes |A|_F^2, which still bounds it."""
    rng = np.random.default_rng(5)
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(36, 36)))[0]
    spectrum = np.concatenate([[1.0, 1.0 - 1e-10], np.linspace(0.9, 0.1, 34)])
    clustered = (q * spectrum) @ q.T
    stack = np.stack([clustered, rng.normal(size=(36, 36))])
    sigmas = [oracles.mp_spectral_norm(m) for m in stack]
    rungs = []
    rung = linalg._cholesky_rung

    def recording(g, shift):
        out = rung(g, shift)
        rungs.append(out[0].tolist())
        return out

    monkeypatch.setattr(linalg, "_cholesky_rung", recording)
    got = induced_norm(stack, TWO)
    assert rungs == [[False, True], [True]]
    monkeypatch.setattr(linalg, "_RUNGS", 0)
    capped = induced_norm(stack, TWO)
    for value, top, sigma, m in zip(got.tolist(), capped.tolist(), sigmas, stack):
        assert sigma <= value <= sigma * (1 + mpmath.mpf("1e-9"))
        frobenius = math.sqrt(oracles.left_to_right_sum(m.ravel() ** 2))
        assert sigma <= top <= frobenius * (1 + 1e-12)


def padded_writer(pairs):
    """A ``stacked_norms`` writer of the zero-padded differences ``pairs``."""

    def write(i, out, rows):
        a, b = pairs[i]
        out[: a[rows].shape[0], : a.shape[1]] = a[rows]
        if b is not None:
            out[: b[rows].shape[0], : b.shape[1]] -= b[rows]

    return write


def test_p2_batch_holds_one_gram_array(monkeypatch):
    """A batch of 96 operators of 64 x 64 through ``stacked_norms``, with
    zero members and rank-one members, which leave the ladder at the
    Frobenius rung: every member has the bits of its lone norm, the
    rank-one ones those of |A|_F, and the traced peak inside the call
    stays below one Gram array and one Lanczos basis of the non-zero
    members plus one block of rows (256 KB) and 128 KB for a Lanczos
    step's vectors.  The operand stack (3 MB), or a compacted copy of the
    Gram matrices (of the non-zero members, or of those still climbing),
    oversteps it."""
    rng = np.random.default_rng(3)
    n, count = 64, 96
    stack = rng.normal(size=(count, n, n))
    stack[::12] = 0.0
    rank_one = np.arange(5, count, 12)
    for k in rank_one:
        stack[k] = np.outer(rng.normal(size=n), rng.normal(size=n))
    nonzero = int(stack.any(axis=(1, 2)).sum())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write = padded_writer([(m, None) for m in stack])
        got = np.array(linalg.stacked_norms([(n, n)] * count, write, TWO))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    steps = min(linalg._LANCZOS_STEPS, n)
    bound = (n * n + n * steps) * nonzero * 8 + linalg._GRAM_BLOCK_BYTES + (1 << 17)
    assert peak < bound, (peak, bound)
    assert bound < (n * n + n * steps) * nonzero * 8 + stack.nbytes
    assert_same_bits(got, [induced_norm(m, TWO) for m in stack])
    monkeypatch.setattr(linalg, "_RUNGS", 0)  # every member takes |A|_F
    frobenius = induced_norm(stack, TWO)
    assert_same_bits(got[rank_one], frobenius[rank_one])
    assert (got[1::12] < frobenius[1::12]).all()


def ladder_operators(rng) -> list:
    """Operators of two shapes, each the zero-padded difference (A, B) of
    smaller matrices (B None for A alone): zero members (A - A, and an
    A of signed zeros), rank-one members, which end at the Frobenius rung,
    one whose top pair lies 1e-10 apart in 36 columns, whose first rung
    fails so that it is gathered again for the next, and plain ones."""
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(36, 36)))[0]
    spectrum = np.concatenate([[1.0, 1.0 - 1e-10], np.linspace(0.9, 0.1, 34)])
    clustered = (q * spectrum) @ q.T
    small = rng.normal(size=(5, 3))
    return [
        (rng.normal(size=(5, 7)), rng.normal(size=(4, 7))),
        (small, small.copy()),
        (clustered, None),
        (np.outer(rng.normal(size=36), rng.normal(size=30)), None),
        (-np.zeros((2, 2)), None),
        (np.outer(rng.normal(size=5), rng.normal(size=7)), None),
        (rng.normal(size=(36, 36)), rng.normal(size=(30, 36))),
        (small, rng.normal(size=(5, 7))),
    ]


def whole_stack(shape, members, write) -> np.ndarray:
    """The stack of ``members`` written whole, one zeroed slot each."""
    out = np.zeros((len(members), *shape))
    for slot, i in zip(out, members):
        write(i, slot, slice(0, shape[0]))
    return out


def test_stacked_p2_norms_match_the_written_stack(monkeypatch):
    """``stacked_norms`` at p = 2 has, bit for bit, the norms that
    ``induced_norm`` gives the stack written whole (``np.asarray`` of the
    stack it passes, which holds exactly those bytes) and each member
    alone, under every kernel setting: zero members, rank-one members at
    the Frobenius rung and a member whose ladder climb gathers it again.
    At p = 1 and p = inf the stack is written whole."""
    pairs = ladder_operators(np.random.default_rng(8))
    shapes = [a.shape if b is None else tuple(map(max, a.shape, b.shape)) for a, b in pairs]
    write = padded_writer(pairs)
    passed = []
    real = linalg.induced_norm

    def recording(a, p):
        passed.append((a, np.asarray(a).copy()))
        return real(a, p)

    rungs = []
    rung = linalg._cholesky_rung
    monkeypatch.setattr(linalg, "induced_norm", recording)
    monkeypatch.setattr(
        linalg, "_cholesky_rung",
        lambda g, shift: rungs.append(g.shape[2]) or rung(g, shift),
    )
    want = linalg.stacked_norms(shapes, write, TWO)
    monkeypatch.undo()
    assert rungs == [3, 2, 1], rungs  # the clustered member climbs alone
    groups = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    assert [a.shape for a, _ in passed] == [(len(v), *k) for k, v in groups.items()]
    for (stack, written), (shape, members) in zip(passed, groups.items()):
        assert not isinstance(stack, np.ndarray)
        assert written.tobytes() == whole_stack(shape, members, write).tobytes()
        assert_same_bits([want[i] for i in members], induced_norm(written, TWO))
    def alone(p) -> list:
        return [induced_norm(whole_stack(s, [i], write)[0], p) for i, s in enumerate(shapes)]

    assert_same_bits(want, alone(TWO))
    assert [i for i, w in enumerate(want) if w == 0.0] == [1, 4]
    for one_call, gram_entries, block_bytes in KERNEL_SETTINGS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_ONE_CALL_ENTRIES", one_call)
            mp.setattr(linalg, "_GRAM_ENTRIES", gram_entries)
            mp.setattr(linalg, "_GRAM_BLOCK_BYTES", block_bytes)
            assert_same_bits(linalg.stacked_norms(shapes, write, TWO), want)
    for p in (ONE, INF):
        got = linalg.stacked_norms(shapes, write, p)
        assert_same_bits(got, alone(p))


def test_written_stack_refuses_a_non_finite_entry():
    """A written stack's entries are checked as they are gathered, with the
    message of an array operand."""
    pairs = [(np.ones((3, 3)), None), (np.full((3, 3), math.inf), None)]
    written = linalg._Stack((2, 3, 3), padded_writer(pairs))
    for stack in (np.stack([a for a, _ in pairs]), written):
        with pytest.raises(ValueError, match="entries must be finite"):
            induced_norm(stack, TWO)


def test_cholesky_rung_buffers_at_most_n_rows(monkeypatch):
    """The rung's product buffer holds at most n rows of every member, so
    one 32 x 32 operator at p = 2 peaks under 100 KB traced; a buffer of
    the full 256 KB block oversteps it.  Blocking never changes a bit: a
    one-row block gives the same norm."""
    a = np.random.default_rng(0).uniform(-1.0, 1.0, (32, 32))
    induced_norm(a, TWO)  # warm the import-time and first-call allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = induced_norm(a, TWO)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    monkeypatch.setattr(linalg, "_GRAM_BLOCK_BYTES", 1)
    assert_same_bits(got, induced_norm(a, TWO))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 12), SEEDS)
def test_stacked_exact_norms_match_loop_sums(rows, cols, count, seed):
    stack = np.random.default_rng(seed).normal(size=(count, rows, cols))
    stack[::2, 0] = -0.0
    for p, oracle in ((ONE, oracles.abs_col_sum_norm), (INF, oracles.abs_row_sum_norm)):
        want = np.array([oracle(m) for m in stack])
        assert_same_bits(induced_norm(stack, p), want)
        assert_same_bits(induced_norm(stack[::-1], p), want[::-1])


@settings(max_examples=100, deadline=None)
@given(matrix_and_batch())
def test_norms_match_loop_sums(case):
    a, x = case
    assert induced_norm(a, ONE) == oracles.abs_col_sum_norm(a)
    assert induced_norm(a, INF) == oracles.abs_row_sum_norm(a)
    for p in (ONE, TWO, INF, PNorm(3.0)):
        batch = vector_norm(x, p)
        for s in range(x.shape[1]):
            col = np.abs(x[:, s])
            if p.is_inf:
                want = float(np.max(col))
            else:
                want = oracles.lp_norm(col, p.p)
            assert bits(batch[s]) == bits(want)
            assert bits(vector_norm(x[:, s], p)) == bits(want)


@st.composite
def banded_case(draw):
    mask = draw(arrays(np.float64, draw(st.integers(1, 5)), elements=ENTRIES))
    samples = draw(st.integers(1, 4))
    head = operand(draw, (draw(st.integers(0, 8)), samples), draw(st.booleans()))
    tail = draw(
        st.one_of(
            st.just(np.zeros(samples)),
            arrays(np.float64, samples, elements=ENTRIES),
        )
    )
    return mask, head, tail


@settings(max_examples=150, deadline=None)
@given(banded_case())
def test_apply_banded_matches_elementwise_rows(case):
    mask, head, tail = case
    out = apply_banded(mask, EventuallyConstSeq(head, tail))
    for s in range(head.shape[1]):
        want_head, want_tail = oracles.elementwise_apply_banded(
            mask, head[:, s], tail[s]
        )
        assert_same_bits(out.head[:, s], want_head)
        assert bits(out.tail[s]) == bits(want_tail)
        single = apply_banded(mask, EventuallyConstSeq(head[:, s], tail[s]))
        assert_same_bits(single.head, want_head)
        assert bits(single.tail) == bits(want_tail)


def test_apply_banded_tau_zero_and_empty_head():
    x = EventuallyConstSeq(np.empty((0, 2)), [2.0, -0.0])
    out = apply_banded([0.5], x)
    assert out.head.shape == (0, 2)
    assert_same_bits(out.tail, [1.0, -0.0])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda tau: arrays(np.float64, tau + 1, elements=ENTRIES)
    ),
    st.integers(1, 12),
    st.integers(1, 12),
)
@example(np.array([0.5, -0.0, 0.25]), 3, 7)  # rows < cols
@example(np.array([-0.0, 1.0]), 9, 4)  # cols < rows
@example(np.array([1.0, -2.0, -0.0, 3.0, 4.0]), 3, 5)  # tau >= rows
def test_dense_truncation_matches_entry_loop(mask, rows, cols):
    """One placement per diagonal writes the entries the per-entry loop
    writes, signed zeros included, whether the window is tall, wide or
    shorter than the band; the finite convolution matrix's window too."""
    window = toeplitz_matrix(mask, rows, cols)
    assert_same_bits(window, oracles.toeplitz_window(mask, rows, cols))
    finite = toeplitz_matrix(mask, cols + mask.size - 1, cols)
    assert_same_bits(finite, oracles.toeplitz_window(mask, cols + mask.size - 1, cols))


BATCHES = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 5)),
    elements=st.one_of(ENTRIES, st.floats(-50, 50)),
)


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
@settings(max_examples=40, deadline=None)
@given(BATCHES)
def test_activation_on_batch_matches_columns(name, z):
    act = make_activation(name, **({"alpha": 2.0} if name == "prelu" else {}))
    batch = act.apply(z)
    for s in range(z.shape[1]):
        assert_same_bits(batch[:, s], act.apply(z[:, s]))
        for i in range(z.shape[0]):
            assert bits(batch[i, s]) == bits(float(act.apply(z[i, s])))


# the values where the two sigmoid forms could part: signed zeros, the
# infinities, NaN, subnormals, the overflow edge of exp and the points
# where exp(-|x|) reaches 1 or underflows
SIGMOID_SPECIALS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308,
     -2.2e-308, 1e-17, -1e-17, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308]
)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 4)),
        elements=st.one_of(SIGMOID_SPECIALS, st.floats(width=64)),
    )
)
def test_sigmoid_matches_the_masked_form(z):
    """The branch-free sigmoid has the bits of the two-branch masked form
    everywhere, special values included."""
    assert_same_bits(make_activation("sigmoid").apply(z), oracles.masked_sigmoid(z))


# the textbook forms of the eight maps, each branch computed in full and
# chosen by np.where (the sigmoid's is its masked form)
WHERE_FORMS = {
    "identity": lambda x: np.array(x, dtype=np.float64),
    "relu": lambda x: np.maximum(x, 0.0),
    "leaky_relu": lambda x: np.where(x >= 0.0, x, 0.01 * x),
    "prelu": lambda x: np.where(x >= 0.0, x, 2.0 * x),
    "elu": lambda x: np.where(x > 0.0, x, 1.0 * np.expm1(np.minimum(x, 0.0))),
    "selu": lambda x: 1.0507 * np.where(
        x >= 0.0, x, 1.67326 * np.expm1(np.minimum(x, 0.0))
    ),
    "sigmoid": oracles.masked_sigmoid,
    "tanh": np.tanh,
}
ANY_FLOAT = st.one_of(SIGMOID_SPECIALS, st.floats(width=64))


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        arrays(
            np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=ANY_FLOAT
        ),
        arrays(np.float64, st.integers(1, 8), elements=ANY_FLOAT),
        arrays(np.float64, (), elements=ANY_FLOAT),
        ANY_FLOAT,
    )
)
def test_activation_into_out_matches_a_fresh_result(name, z):
    """Written into ``out`` (a separate array, or the input itself), with
    or without a caller's scratch, each map has the bits of its fresh
    result, and those are the bits of its np.where form: on batches,
    vectors, 0-d arrays and Python floats, special values included.  A
    separate ``out`` leaves the input alone."""
    act = make_activation(name, **({"alpha": 2.0} if name == "prelu" else {}))
    arr = np.array(z, dtype=np.float64)
    with np.errstate(over="ignore"):  # 2.0 * 1e308 and the like
        want = act.apply(z)
        assert want.shape == arr.shape
        assert_same_bits(want, WHERE_FORMS[name](arr))
        for scratch in (None, np.full_like(arr, 3.0)):
            out = np.full_like(arr, -7.0)
            assert act.apply(z, out=out, scratch=scratch) is out
            assert_same_bits(out, want)
            inplace = arr.copy()
            assert act.apply(inplace, out=inplace, scratch=scratch) is inplace
            assert_same_bits(inplace, want)
    assert_same_bits(np.array(z, dtype=np.float64), arr)


def test_activation_refuses_an_out_of_another_shape():
    with pytest.raises(ValueError, match="shape"):
        make_activation("relu").apply(np.zeros(3), out=np.zeros(4))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["average", "max"]),
    st.integers(1, 40),
    st.integers(0, 6),
    st.integers(1, 4),
    SEEDS,
    st.booleans(),
)
def test_pooling_on_batch_matches_columns(kind, mu, extra, samples, seed, specials):
    op = average_pooling(mu) if kind == "average" else max_pooling(mu)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(mu + 1 + extra, samples))
    if specials:  # signed zeros meet in one window; NaN propagates
        hit = rng.random(z.shape) < 0.6
        z[hit] = rng.choice([0.0, -0.0, math.nan], size=int(hit.sum()))
    batch = op.pool(z)
    for s in range(samples):
        assert_same_bits(batch[:, s], oracles.pool_vector(op, z[:, s]))
        assert_same_bits(op.pool(z[:, s]), batch[:, s])


# one corpus instance per geometry; the recursion oracle evaluates each sample
# alone, one row sum at a time
RECURSION_PICKS = (
    "fixed4-exp_decay-sigmoid-p2",
    "avg2-exp_decay-selu-p1",
    "max1-exp_decay-prelu-p1",
    "cyc534-exp_decay-relu-p1",
    "convz-t2-sigmoid-pinf",
    "convc-t2-sigmoid-pinf",
)


@pytest.mark.parametrize("label", RECURSION_PICKS)
def test_batched_recursion_matches_per_sample_loop(label):
    """Every state of a batched sweep has the bits of the per-sample loop.
    The constant-padded sweep writes each layer into workspaces sized for
    its last one, so both convolutional picks also run it to depth 40:
    their heads then span 40 sizes, from 5 to 83 rows."""
    inst = {i.label: i for i in corpus_instances()}[label]
    seq = inst.build()
    act = inst.activation()
    xs = inst.domain().uniform_samples(5, seed=17).T
    depth = 10
    if seq.masks is not None:
        states = eval_extended_trajectory(seq, act, xs, 40)
        for s in range(xs.shape[1]):
            want = oracles.per_sample_constant_pad(seq, act, xs[:, s], 40)
            for got, (head, tail) in zip(states, want, strict=True):
                assert_same_bits(got.head[:, s], head)
                assert bits(got.tail[s]) == bits(tail)
    if inst.extension != CONSTANT_PAD:
        states = eval_trajectory(seq, act, xs, depth)
        for s in range(xs.shape[1]):
            want = oracles.per_sample_trajectory(seq, act, xs[:, s], depth)
            for got, v in zip(states, want):
                assert_same_bits(got[:, s], v)
    # a trajectory over the batch agrees with the one over a single column
    ctx = BoundContext(seq, act, inst.p, inst.extension)
    full = Trajectory(ctx, xs, depth, norms=(depth,))
    one = Trajectory(ctx, xs[:, 2], depth, norms=(depth,))
    assert bits(full.state_norm(depth)[2]) == bits(one.state_norm(depth))
