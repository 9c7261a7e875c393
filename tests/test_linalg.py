"""Tests for the deterministic linear-algebra kernel."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dnclab.linalg import (
    INF,
    ONE,
    TWO,
    EventuallyConstSeq,
    PNorm,
    apply_banded,
    as_matrix,
    as_vector,
    induced_norm,
    matvec,
    seq_sum,
    toeplitz_matrix,
    vector_norm,
)
from dnclab.network import MaskSeq

import oracles

_PINNED_SHAPES = (
    (1, 1), (4, 1), (1, 5), (2, 2), (4, 4), (6, 3), (3, 7), (9, 9), (16, 12)
)
_PINNED_EXPONENTS = (
    -160, -150, -120, -80, -40, -8, 0, 8, 40, 80, 120, 150, 160, 75, 76
)


def _pinned_operands():
    """((rows, cols), e, A) for every shape and exponent above: A holds
    multiples of 1/64 in [-100/64, 100/64] from a 64-bit LCG (exact integer
    arithmetic, the same on every platform), times the double nearest
    10^e."""
    state = 2023
    for rows, cols in _PINNED_SHAPES:
        for e in _PINNED_EXPONENTS:
            entries = []
            for _ in range(rows * cols):
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                entries.append(((state >> 40) % 201 - 100) / 64)
            a = np.array(entries).reshape(rows, cols) * float(f"1e{e}")
            yield (rows, cols), e, a


class TestSeqSum:
    def test_left_to_right_association(self):
        # 1e16 + 1 rounds back to 1e16, so the sequential sum is exactly 0;
        # any reordering or pairwise scheme would give 1.0 or 2.0
        assert seq_sum([1.0e16, 1.0, 1.0, -1.0e16]) == 0.0
        assert math.fsum([1.0e16, 1.0, 1.0, -1.0e16]) == 2.0

    def test_accepts_arrays_and_lists(self):
        assert seq_sum(np.arange(5.0)) == 10.0
        assert seq_sum([]) == 0.0
        assert isinstance(seq_sum(np.array([1.5])), float)


class TestMatvec:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            x = rng.normal(size=a.shape[1])
            assert_allclose(matvec(a, x), a @ x, rtol=1e-13, atol=1e-13)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            matvec(np.eye(2), np.ones(3))


class TestPNorm:
    def test_validation(self):
        with pytest.raises(ValueError):
            PNorm(0.5)
        with pytest.raises(ValueError):
            PNorm(float("nan"))
        assert PNorm(3.5).p == 3.5

    def test_formatting_and_flags(self):
        assert str(ONE) == "1" and str(TWO) == "2" and str(INF) == "inf"
        assert INF.is_inf and not TWO.is_inf


class TestVectorNorm:
    def test_known_values(self):
        v = [3.0, -4.0]
        assert vector_norm(v, ONE) == 7.0
        assert vector_norm(v, TWO) == 5.0
        assert vector_norm(v, INF) == 4.0
        assert vector_norm(v, PNorm(3.0)) == pytest.approx((27 + 64) ** (1 / 3))

    def test_empty_vector_is_zero(self):
        assert vector_norm(np.array([]), TWO) == 0.0

    @pytest.mark.parametrize("p", [ONE, TWO, INF], ids=str)
    def test_batch_of_no_samples_has_no_norms(self, p):
        assert vector_norm(np.ones((3, 0)), p).shape == (0,)

    @pytest.mark.parametrize(
        "v",
        [
            [2e154, 1e154],
            [3e-170, 4e-170],
            [1e200, -3e199, 5e198],
            [1e-300, 2e-310, -7e-301],
            [1.5e308, 1e307],
            [5e-324, 0.0],
        ],
    )
    def test_p2_past_the_range_of_the_squares_agrees_with_hypot(self, v):
        """An entry whose square leaves the double range (above about
        1.34e154, or below about 1e-154) still gives the norm, not inf or
        0.0, and without an overflow warning."""
        assert vector_norm(v, TWO) == pytest.approx(math.hypot(*v), rel=1e-15)

    def test_p2_of_tiny_entries_is_exact(self):
        assert vector_norm([3e-170, 4e-170], TWO) == 5e-170

    def test_p2_past_the_double_range_is_infinite(self):
        assert vector_norm([1.5e308, 1.5e308], TWO) == math.inf
        assert vector_norm([math.inf, 1.0], TWO) == math.inf
        assert math.isnan(vector_norm([math.nan, 1e300], TWO))

    @pytest.mark.parametrize("p", [TWO, PNorm(3.0)], ids=["p2", "p3"])
    def test_rescued_columns_leave_the_others_bits(self, p):
        """Only the columns whose plain result is out of range are summed
        again; every column has the bits it has alone."""
        batch = np.random.default_rng(3).normal(size=(6, 5))
        plain = vector_norm(batch, p)
        batch[:, 1] *= 1e-120
        batch[:, 2] *= 1e300
        batch[:, 4] = 0.0
        got = vector_norm(batch, p)
        keep = [0, 3]
        assert got[keep].tobytes() == plain[keep].tobytes()
        assert got[1] == pytest.approx(plain[1] * 1e-120, rel=1e-14)
        assert got[2] == pytest.approx(plain[2] * 1e300, rel=1e-14)
        assert got[4] == 0.0
        for j in range(5):
            assert got[j] == vector_norm(batch[:, j], p)

    @pytest.mark.parametrize("entry", [1e200, 1e-120])
    def test_p3_past_the_range_of_the_cubes_agrees_with_mpmath(self, entry):
        """At p = 3 the cube of 1e200 overflows and that of 1e-120
        underflows to 0.0; the norm of [x, x] is still 2^(1/3) x, without
        an overflow warning."""
        with mpmath.workdps(40):
            want = mpmath.cbrt(2) * mpmath.mpf(entry)
            assert abs(vector_norm([entry, entry], PNorm(3.0)) - want) <= 1e-15 * want


FROZEN = np.array([[1.0, -2.0], [3.0, 4.0]])


class TestInducedNorm:
    def test_frozen_values_exact(self):
        # column sums {4, 6}, row sums {3, 7} — worked by hand
        assert induced_norm(FROZEN, ONE) == 6.0
        assert induced_norm(FROZEN, INF) == 7.0

    def test_spectral_matches_svd_oracle(self):
        assert_allclose(
            induced_norm(FROZEN, TWO), oracles.svd_spectral_norm(FROZEN), rtol=1e-11
        )

    def test_random_matrices_against_oracles(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
            assert induced_norm(a, ONE) == oracles.abs_col_sum_norm(a)
            assert induced_norm(a, INF) == oracles.abs_row_sum_norm(a)
            assert_allclose(
                induced_norm(a, TWO), oracles.svd_spectral_norm(a), rtol=1e-9
            )

    def test_zero_and_rank_one(self):
        assert induced_norm(np.zeros((3, 4)), TWO) == 0.0
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        assert_allclose(induced_norm(a, TWO), oracles.svd_spectral_norm(a), rtol=1e-11)

    def test_general_p_refused_with_pointer(self):
        with pytest.raises(ValueError, match="Riesz-Thorin"):
            induced_norm(FROZEN, PNorm(3.0))

    @pytest.mark.parametrize(
        "a, why",
        [
            ([[1e200, 1.0], [0.0, 1.0]], "overflows"),  # a Gram entry is inf
            ([[1e-170, 0.0], [0.0, 1e-170]], "underflows"),  # the Gram is all 0
            ([[9e153, 9e153], [9e153, 9e153]], "squared norm overflows"),  # trace inf
        ],
    )
    def test_out_of_range_spectral_norm_refused(self, a, why):
        """A non-zero matrix never gets a spectral norm of 0.0, alone or
        anywhere in a stack of ordinary matrices."""
        a = np.array(a)
        with pytest.raises(ValueError, match=why):
            induced_norm(a, TWO)
        for at in range(3):
            stack = np.insert(np.stack([FROZEN, FROZEN]), at, a, axis=0)
            with pytest.raises(ValueError, match=why):
                induced_norm(stack, TWO)
        assert induced_norm(a, ONE) > 0.0  # the exact norms stay in range

    @pytest.mark.parametrize("scale", [1e-140, 1e-151, 1e-160])
    def test_tiny_matrices_stay_certified(self, scale):
        """Squares of the Lanczos vectors of such a Gram matrix would
        underflow, so it is scaled up by a power of two first.  The bracket
        stays tight while the Gram entries are normal doubles; subnormal
        ones (at 1e-160) carry too few bits for that, but the value is
        still certified."""
        a = np.random.default_rng(8).normal(size=(3, 4)) * scale
        value = induced_norm(a, TWO)
        sigma = oracles.mp_spectral_norm(a)
        assert sigma <= value
        assert value <= sigma * (1 + (1e-9 if scale > 1e-154 else 1e-2))

    @pytest.mark.parametrize(
        "a",
        [
            [[1e100, 1.0], [0.0, 1.0]],
            np.random.default_rng(8).normal(size=(4, 4)) * 1e77,
            np.random.default_rng(8).normal(size=(3, 7)) * 1e150,
            # Gram entries that the down-scaling pushes below the normal range
            [[1e120, 3e-60, 1.0], [2e-70, 1e-150, 5e-160], [0.0, 0.0, 1e100]],
            *(a for _, e, a in _pinned_operands() if 76 < e < 160 and a.shape[1] > 1),
        ],
        ids=lambda a: f"{np.shape(a)[0]}x{np.shape(a)[1]}-{np.abs(a).max():.0e}",
    )
    def test_huge_matrices_stay_certified(self, a):
        """|G v|^2 of such a Gram matrix would overflow in the Lanczos run,
        so it is scaled down by a power of two first; the value brackets
        the exact norm as tightly as at ordinary scales, alone and in a
        stack."""
        a = np.array(a)
        value = induced_norm(a, TWO)
        sigma = oracles.mp_spectral_norm(a, 30)
        assert sigma <= value <= sigma * (1 + 1e-11)
        stack = np.stack([np.ones_like(a), a, np.eye(*a.shape)])
        assert induced_norm(stack, TWO)[1] == value

    def test_norm_bits_from_tiny_to_huge_are_pinned(self):
        """The bits of 105 spectral norms, entries from 1e-160 to 1e150 (up
        to 1e76 for matrices of more than one column), as they were before
        huge Gram matrices were scaled down; the matrices whose Gram matrix
        overflows are still refused."""
        got = []
        for rows_cols, e, a in _pinned_operands():
            if e == 160:
                with pytest.raises(ValueError, match="A\\^T A overflows"):
                    induced_norm(a, TWO)
            elif e <= 76 or rows_cols[1] == 1:
                got.append(induced_norm(a, TWO).hex())
        assert len(got) == 105
        digest = hashlib.sha256(" ".join(got).encode()).hexdigest()
        assert digest == (
            "d5d1ca73ea9178ba86678f8ec1f3fa113d4667d1e37405664475a5c8aad39b7b"
        ), got

    def test_partial_gram_underflow_keeps_its_norm(self):
        """The 1e-170 entry squares to 0.0 in the Gram matrix; the certified
        value still brackets the exact norm 1 from above, tightly."""
        value = induced_norm(np.array([[1e-170, 0.0], [0.0, 1.0]]), TWO)
        assert 1.0 <= value <= 1.0 + 1e-12


class TestNormUpperBound:
    """The interpolation bound, kept as an oracle for the exact norms."""

    def test_frozen_value(self):
        # sqrt(|A|_1 * |A|_inf) = sqrt(42)
        assert oracles.norm_upper_bound(FROZEN, TWO) == pytest.approx(math.sqrt(42.0))

    def test_dominates_empirical_action(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.normal(size=(rng.integers(1, 8), rng.integers(1, 8)))
            for p in (PNorm(1.5), TWO, PNorm(3.0), PNorm(7.0)):
                assert oracles.norm_upper_bound(a, p) >= _holder_lower(a, p) * (1 - 1e-12)

    def test_dominates_spectral_norm_at_two(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.normal(size=(rng.integers(1, 8), rng.integers(1, 8)))
            bound = oracles.norm_upper_bound(a, TWO)
            assert bound >= oracles.svd_spectral_norm(a) * (1 - 1e-12)

    def test_endpoints_refused(self):
        with pytest.raises(ValueError):
            oracles.norm_upper_bound(FROZEN, ONE)
        with pytest.raises(ValueError):
            oracles.norm_upper_bound(FROZEN, INF)


def _holder_lower(a, p: PNorm) -> float:
    """Empirical lower estimate of |A|_p from random probes."""
    rng = np.random.default_rng(11)
    best = 0.0
    for _ in range(32):
        x = rng.normal(size=a.shape[1])
        nx = vector_norm(x, p)
        if nx > 0:
            best = max(best, vector_norm(a @ x, p) / nx)
    return best


class TestPaddingPreservesNorms:
    @pytest.mark.parametrize("p", [ONE, TWO, INF])
    def test_square_padding(self, p):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            big = oracles.zero_pad_matrix(a, 9)
            assert big.shape == (9, 9)
            assert_allclose(induced_norm(big, p), induced_norm(a, p), rtol=1e-11)

    @pytest.mark.parametrize("p", [ONE, TWO, INF])
    def test_rows_only_padding(self, p):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 5))
        big = oracles.zero_pad_matrix(a, 8, keep_cols=True)
        assert big.shape == (8, 5)
        assert_allclose(induced_norm(big, p), induced_norm(a, p), rtol=1e-11)

    def test_vector_padding_preserves_norms(self):
        v = np.array([1.0, -2.0, 2.0])
        w = np.concatenate([v, np.zeros(4)])
        for p in (ONE, TWO, INF, PNorm(4.0)):
            assert vector_norm(w, p) == vector_norm(v, p)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            oracles.zero_pad_matrix(np.ones((3, 3)), 2)


class TestValidatedContainers:
    def test_as_vector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])
        with pytest.raises(ValueError):
            as_vector([])
        with pytest.raises(ValueError, match="finite"):
            as_vector([1.0, float("inf")])

    def test_as_matrix_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[float("nan")]])

    def test_results_are_frozen_copies(self):
        src = np.ones(3)
        v = as_vector(src)
        src[0] = 99.0
        assert v[0] == 1.0
        with pytest.raises(ValueError):
            v[0] = 5.0


class TestEventuallyConstSeq:
    def test_indexing_and_truncation(self):
        s = EventuallyConstSeq([1.0, 2.0], 0.25)
        assert_array_equal(s.truncated(6), [1.0, 2.0, 0.25, 0.25, 0.25, 0.25])
        assert_array_equal(s.truncated(1), [1.0])
        with pytest.raises(ValueError, match="count must be >= 0"):
            s.truncated(-1)

    def test_norms(self):
        s = EventuallyConstSeq([1.0, -3.0], 0.5)
        assert s.norm(INF) == 3.0
        assert s.norm(TWO) == math.inf  # nonzero tail is not in l_2
        z = EventuallyConstSeq([1.0, -3.0], 0.0)
        assert z.norm(TWO) == math.sqrt(10.0)

    def test_empty_head(self):
        s = EventuallyConstSeq(np.array([]), 2.0)
        assert s.head_len == 0
        assert_array_equal(s.truncated(2), [2.0, 2.0])
        assert s.norm(INF) == 2.0

    def test_sub_aligns_heads(self):
        a = EventuallyConstSeq([1.0, 2.0, 3.0], 1.0)
        b = EventuallyConstSeq([10.0], -1.0)
        d = a - b
        # b reads (10, -1, -1, -1, ...), so a - b = (-9, 3, 4, 2, 2, ...)
        assert_array_equal(d.truncated(5), [-9.0, 3.0, 4.0, 2.0, 2.0])
        assert d.tail == 2.0
        assert_array_equal((b - a).truncated(5), [9.0, -3.0, -4.0, -2.0, -2.0])


class TestBandedToeplitz:
    """``toeplitz_matrix``: windows of the banded Toeplitz matrix of a mask."""

    def test_frozen_dense_expansion(self):
        assert_array_equal(
            toeplitz_matrix([1.0, 2.0], 4, 3),
            [[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
        )

    def test_dense_matches_entrywise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mask = rng.normal(size=rng.integers(1, 5))
            cols = int(rng.integers(1, 7))
            rows = cols + mask.size - 1
            assert_array_equal(
                toeplitz_matrix(mask, rows, cols),
                oracles.toeplitz_window(mask, rows, cols),
            )

    def test_semi_infinite_norms_equal_mask_sum(self):
        mask = [0.2, -0.3]
        masks = MaskSeq(1, lambda n: mask)
        assert masks.abs_sum(1) == 0.5
        # a window with every column fully inside the band reproduces it
        window = toeplitz_matrix(mask, 20, 14)
        assert induced_norm(window, ONE) == 0.5
        assert induced_norm(window, INF) == 0.5

    @pytest.mark.parametrize(
        "mask",
        [[], [1.0, math.nan], [math.inf], [[0.5, 0.25]]],
        ids=["empty", "nan", "inf", "2-d"],
    )
    def test_malformed_mask_refused(self, mask):
        with pytest.raises(ValueError, match="Toeplitz mask"):
            toeplitz_matrix(mask, 3, 3)
        with pytest.raises(ValueError, match="Toeplitz mask"):
            apply_banded(mask, EventuallyConstSeq([1.0], 0.0))

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (-1, 2)])
    def test_window_below_one_refused(self, rows, cols):
        with pytest.raises(ValueError, match="window dims must be >= 1"):
            toeplitz_matrix([0.5, 0.25], rows, cols)


class TestApplyBanded:
    def test_frozen_example(self):
        out = apply_banded([1.0, 1.0], EventuallyConstSeq([1.0], 0.0))
        assert_array_equal(out.head, [1.0, 1.0])
        assert out.tail == 0.0

    def test_constant_sequence_reaches_mask_sum(self):
        out = apply_banded([0.5, 0.25, 0.125], EventuallyConstSeq(np.array([]), 2.0))
        # rows see progressively more of the mask: 0.5*2, (0.5+0.25)*2, ...
        assert_allclose(out.truncated(4), [1.0, 1.5, 1.75, 1.75], rtol=0, atol=0)
        assert out.tail == 1.75

    def test_matches_dense_window(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mask = rng.normal(size=rng.integers(1, 5))
            head = rng.normal(size=rng.integers(0, 6))
            tail = float(rng.normal())
            x = EventuallyConstSeq(head, tail)
            out = apply_banded(mask, x)
            rows = out.head_len
            cols = rows + len(mask)  # wide enough that every row is complete
            window = toeplitz_matrix(mask, rows, cols)
            expect = np.array(
                [seq_sum(window[i] * x.truncated(cols)) for i in range(rows)]
            )
            assert_allclose(out.head, expect, rtol=1e-13, atol=1e-13)

    def test_zero_tail_matches_full_convolution(self):
        mask = [1.0, -0.5, 0.25]
        x = [2.0, 0.0, 1.0, -3.0]
        out = apply_banded(mask, EventuallyConstSeq(x, 0.0))
        assert_allclose(out.head, oracles.conv_full(mask, x), rtol=1e-14, atol=1e-14)
        assert out.tail == 0.0

    def test_workspace_result_is_a_read_only_view_of_the_sum(self):
        """Given a workspace, the head is the sum's top rows, read only
        through the result, with the bits of a fresh call; the rows past
        the head are left as they were."""
        mask = [0.5, -0.25, 2.0]
        x = EventuallyConstSeq([[1.0, -3.0], [0.1, 7.0], [-0.0, 2.5]], [0.3, -1.0])
        work = np.full((3, 7, 2), 9.0)
        out = apply_banded(mask, x, out=work)
        fresh = apply_banded(mask, x)
        assert np.shares_memory(out.head, work[1])
        assert not out.head.flags.writeable
        assert_array_equal(out.head.view(np.uint64), fresh.head.view(np.uint64))
        assert_array_equal(out.tail, fresh.tail)
        assert_array_equal(work[:, 5:], 9.0)

    @pytest.mark.parametrize("workspace", [False, True])
    def test_overflowing_product_is_refused(self, workspace):
        """A finite sequence whose product overflows is refused, whether
        the head is fresh or a view of the caller's workspace."""
        x = EventuallyConstSeq([1e308, 1e308], 0.0)
        out = np.zeros((3, 3)) if workspace else None
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="head entries must be finite"):
                apply_banded([4.0, 4.0], x, out=out)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=5),
    st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    st.floats(-2, 2),
)
def test_apply_banded_tail_is_mask_sum_times_tail(mask, head, tail):
    out = apply_banded(mask, EventuallyConstSeq(head, tail))
    assert out.tail == pytest.approx(seq_sum(mask) * tail, rel=1e-12, abs=1e-12)
    assert out.head_len == len(head) + len(mask) - 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.integers(0, 2**31 - 1),
)
def test_induced_norm_dominates_action(rows, cols, p_raw, seed):
    """|A x|_p <= |A|_p |x|_p — the defining property of the induced norm."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3, 3, (rows, cols))
    x = rng.uniform(-3, 3, cols)
    p = PNorm(p_raw)
    lhs = vector_norm(matvec(a, x), p)
    rhs = induced_norm(a, p) * vector_norm(x, p)
    assert lhs <= rhs * (1 + 1e-10) + 1e-12
