"""Deterministic linear-algebra kernel for the convergence laboratory.

Everything downstream (layer recursions, bound evaluation, report tables)
rests on the primitives here, so two properties are enforced globally:

* **Determinism.**  Every reduction that produces a reported number uses
  left-to-right sequential summation over IEEE doubles (:func:`seq_sum`;
  ``np.add.accumulate`` along one axis; or adding one column of products
  at a time to an array of partial sums that starts at 0.0 — all three add
  in the same order), never a BLAS or pairwise reduction.  Results are
  bit-reproducible across runs, batch and stack compositions, and BLAS
  builds.
* **Exactness discipline.**  Induced matrix norms are computed exactly for
  p in {1, inf}, iteratively for p = 2 (power iteration on ``A^T A`` with a
  deterministic start vector), and are *refused* for any other exponent:
  general p only admits the interpolation upper bound
  ``|A|_1^(1/p) * |A|_inf^(1-1/p)``, which :func:`norm_upper_bound` returns
  labelled as a bound, never as a value.  :func:`induced_norm` takes one
  matrix or a ``(K, rows, cols)`` stack; at p = 2 a stack runs one power
  iteration for all its members, each stopping at its own step, with the
  same bits per member as alone.

The module also provides the two vector extensions used to compare networks
of different widths: plain zero padding, and eventually-constant sequences
(:class:`EventuallyConstSeq`).  A convolution is given by its mask alone:
:func:`toeplitz_matrix` cuts a finite window out of the banded Toeplitz
matrix of a mask (the finite convolution matrix is one such window), and
:func:`apply_banded` applies the mask's constant-padded semi-infinite
operator to eventually-constant sequences.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "PNorm",
    "ONE",
    "TWO",
    "INF",
    "seq_sum",
    "as_vector",
    "as_matrix",
    "matvec",
    "vector_norm",
    "induced_norm",
    "induced_norms",
    "stacked_norms",
    "norm_upper_bound",
    "zero_pad_matrix",
    "extend_vector",
    "EventuallyConstSeq",
    "toeplitz_matrix",
    "apply_banded",
]


# ---------------------------------------------------------------------------
# deterministic reductions and validated containers
# ---------------------------------------------------------------------------


def seq_sum(values) -> float:
    """Sum ``values`` left to right in double precision, starting at 0.0.

    The fold fixes both the order and the association of the additions,
    which is the point: the result cannot depend on SIMD lanes or BLAS
    blocking.  (Built-in ``sum`` is no substitute: from Python 3.12 it
    compensates float sums, so ``sum([1e16, 1.0, -1e16])`` is 1.0 there.)
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return float(reduce(operator.add, values, 0.0))


def _seq_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right sums of ``a`` along ``axis``, bit-identical to
    :func:`seq_sum` of each line.  ``np.add.accumulate`` runs sequentially
    but starts from the first term instead of 0.0; ``+ 0.0`` turns the one
    possible difference, an all-(-0.0) line, into +0.0."""
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis) + 0.0


def as_vector(x, *, name: str = "vector") -> np.ndarray:
    """Validate and freeze a 1-d float64 array (length >= 1, finite entries)."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d array, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name}: dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and freeze a 2-d float64 array (both dims >= 1, finite)."""
    arr = np.array(a, dtype=np.float64, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name}: both dimensions must be at least 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Deterministic matrix product with a vector or a batch of columns.

    ``x`` has shape ``(cols,)`` or ``(cols, S)``, one sample per column.
    Every output entry is the left-to-right sum over j of ``a[i, j] *
    x[j]``, exactly as :func:`seq_sum` would add it, so a column's result
    does not depend on the batch it was evaluated in (no BLAS).

    When both operands are finite, every j whose column of ``a`` or row of
    ``x`` is all zero (a dead unit, a zero-padded column) is skipped: its
    products are all ±0.0, and adding ±0.0 to a partial sum that starts
    at +0.0 never changes its bits in round-to-nearest (a partial sum is
    never -0.0, since (+0.0) + (-0.0) = +0.0).  A NaN or an infinity in
    either operand keeps every term, so it reaches the same entries as in
    the full sum (inf * 0.0 is NaN).
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or x.ndim not in (1, 2) or a.shape[1] != x.shape[0]:
        raise ValueError(f"matvec: incompatible shapes {a.shape} and {x.shape}")
    batch = x if x.ndim == 2 else x[:, None]
    live = a.any(axis=0) & batch.any(axis=1)
    if live.all() or not (np.isfinite(a).all() and np.isfinite(batch).all()):
        terms = range(a.shape[1])
    else:
        terms = np.flatnonzero(live).tolist()
    # accumulated over ascending j from 0.0, one column of products at a
    # time: no rows x cols x S temporary, and the same additions as seq_sum.
    # einsum writes each product a[i, j] * x[j, s] as 0.0 + product, which
    # turns a -0.0 product into +0.0 and changes no partial sum (none is
    # -0.0); at 64 x 1000 it is about twice as fast as the broadcast multiply
    out = np.zeros((a.shape[0], batch.shape[1]))
    prod = np.empty_like(out)
    for j in terms:
        np.einsum("i,s->is", a[:, j], batch[j], out=prod)
        out += prod
    return out if x.ndim == 2 else out[:, 0]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PNorm:
    """Selector for the l_p norm family, p in [1, inf].

    Exact induced matrix norms exist only for p in {1, 2, inf};
    ``exact_induced`` tells those apart from exponents that admit only the
    interpolation bound.
    """

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not p >= 1.0:  # also rejects NaN
            raise ValueError(f"p-norm exponent must satisfy p >= 1, got {self.p!r}")
        object.__setattr__(self, "p", p)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    @property
    def exact_induced(self) -> bool:
        return self.p in (1.0, 2.0) or self.is_inf

    def __str__(self) -> str:
        return "inf" if self.is_inf else f"{self.p:g}"


ONE = PNorm(1.0)
TWO = PNorm(2.0)
INF = PNorm(math.inf)


def vector_norm(x, p: PNorm):
    """l_p norm of a vector, or of each column of a 2-d batch, via
    sequential summation down the columns.

    A vector gives a float, a ``(dim, S)`` batch an array of S norms.
    Accepts the empty vector (norm 0) so that sequence heads of length zero
    need no special casing.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(
            f"vector_norm: expected a 1-d vector or a 2-d batch, got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        out = np.zeros(arr.shape[1:])
    elif p.is_inf:
        out = np.abs(arr).max(axis=0)
    elif p.p == 1.0:
        out = _seq_sums(np.abs(arr), 0)
    elif p.p == 2.0:
        out = np.sqrt(_seq_sums(arr * arr, 0))
    else:  # Python's pow on each total, as the scalar form always took it
        totals = np.atleast_1d(_seq_sums(np.abs(arr) ** p.p, 0)).tolist()
        out = np.array([t ** (1.0 / p.p) for t in totals]).reshape(arr.shape[1:])
    return float(out) if arr.ndim == 1 else out


_POWER_ITERATIONS = 200
_POWER_RTOL = 1.0e-12
# one chunk of a p = 2 stack holds at most this many Gram entries (8 MB), or
# one matrix whose Gram is larger, which bounds the Gram array whatever the
# stack size
_GRAM_ENTRIES = 1 << 20
# the Gram builder's product buffer holds a block of Gram rows of at most
# this many bytes (or one row, if a row is larger)
_GRAM_BLOCK_BYTES = 1 << 18
# up to this many entries per column of products, one accumulation call over
# all of them beats ``cols`` separate additions
_ONE_CALL_ENTRIES = 256
_OUT_OF_RANGE = "induced_norm: a p = 2 operand is out of double range: "


def _grams(ms: np.ndarray) -> np.ndarray:
    """The Gram matrices A^T A of a ``(K, rows, cols)`` stack as one
    ``(cols, cols, K)`` array: entry [i, j, k] adds ``ms[k, r, i] *
    ms[k, r, j]`` over ascending rows r from 0.0, as :func:`matvec` adds.
    The products commute bitwise, so each Gram matrix is exactly symmetric.
    Besides the result it holds one row of the stack, ``(cols, K)``, and
    one product buffer of a block of Gram rows, at most 256 KB or one
    Gram row of every member, whichever is larger."""
    k, rows, cols = ms.shape
    g = np.zeros((cols, cols, k))
    block = max(1, min(cols, _GRAM_BLOCK_BYTES // (8 * cols * k)))
    prod = np.empty((block, cols, k))
    row = np.empty((cols, k))
    for r in range(rows):
        np.copyto(row, ms[:, r, :].T)
        for i in range(0, cols, block):
            gb = g[i : i + block]
            pb = prod[: len(gb)]
            np.multiply(row[i : i + block, None], row[None], out=pb)
            gb += pb
    return g


def _gram_matvec(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Column k of the result is ``G_k v[:, k]``, each entry the left-to-right
    sum over j of ``G_k[i, j] * v[j, k]``.  By symmetry ``g[j]`` holds column
    j of every G_k; small stacks accumulate all the products in one call,
    larger ones add one column of products at a time (the same additions)."""
    cols, _, k = g.shape
    if cols * k <= _ONE_CALL_ENTRIES:
        return _seq_sums(g * v[:, None, :], 0)
    w = np.zeros((cols, k))
    prod = np.empty_like(w)
    for j in range(cols):
        np.multiply(g[j], v[j], out=prod)
        w += prod
    return w


def _top_eigenvalues(ms: np.ndarray) -> np.ndarray:
    """Rayleigh estimate of the top eigenvalue of A^T A for every matrix A
    of a ``(K, rows, cols)`` stack, by power iteration; 0.0 for a zero A.

    All members start from the all-ones vector.  A member stops at its own
    step: the first whose estimate moved by at most 1e-12 relative, or the
    200th.  Stopped members leave the stack, so each runs exactly the steps
    it would run alone.  A member whose estimate is not positive (its start
    was annihilated) is carried to the next start: a deterministic ramp,
    then each coordinate vector in turn.  This function builds the Gram
    matrices and is their only owner, so each compaction frees the array
    it replaces: besides the operands, the stack holds one Gram array and,
    while it is compacted, one smaller copy.  The out-of-range refusals
    are those of :func:`_spectral_norms`."""
    g = _grams(ms)
    if not np.isfinite(g).all():
        raise ValueError(_OUT_OF_RANGE + "A^T A overflows")
    nonzero = g.any(axis=(0, 1))
    if not np.array_equal(nonzero, ms.any(axis=(1, 2))):
        raise ValueError(_OUT_OF_RANGE + "A^T A underflows to zero")
    out = np.zeros(len(ms))
    todo = np.flatnonzero(nonzero)
    if todo.size == 0:
        return out
    if todo.size < nonzero.size:
        g = g.compress(nonzero, axis=2)
    cols = ms.shape[2]
    # the fallback starts are built only when the first ones are annihilated
    starts = itertools.chain(
        (np.ones(cols), 1.0 + np.arange(cols) / (cols + 1.0)),
        (np.eye(cols)[i] for i in range(cols)),
    )
    for v0 in starts:
        retry = []  # (members, their Gram matrices) for the next start
        v = (v0 / np.sqrt(_seq_sums(v0 * v0, 0)))[:, None]
        lam_prev = np.full(todo.size, -1.0)
        for step in range(1, _POWER_ITERATIONS + 1):
            w = _gram_matvec(g, v)
            lam = _seq_sums(v * w, 0)
            nw = np.sqrt(_seq_sums(w * w, 0))
            stop = (nw == 0.0) | (lam_prev >= 0.0) & (
                np.abs(lam - lam_prev) <= _POWER_RTOL * np.abs(lam)
            )
            if step == _POWER_ITERATIONS:
                stop[:] = True
            if stop.any():
                found = lam > 0.0  # 0.0 where w = 0
                out[todo[stop & found]] = lam[stop & found]
                again = stop & ~found
                if again.any():
                    retry.append((todo[again], g.compress(again, axis=2)))
                keep = ~stop
                if not keep.any():
                    break
                todo, nw, lam = todo[keep], nw[keep], lam[keep]
                g, w = g.compress(keep, axis=2), w.compress(keep, axis=1)
            v = w / nw
            lam_prev = lam
        if not retry:
            return out
        todo = np.concatenate([members for members, _ in retry])
        g = np.concatenate([grams for _, grams in retry], axis=2)
    raise ValueError(_OUT_OF_RANGE + "the power iteration overflows")


@np.errstate(over="ignore", invalid="ignore")  # out-of-range input is refused
def _spectral_norms(ms: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a ``(K, rows, cols)`` stack,
    by power iteration on its Gram matrix A^T A (:func:`_top_eigenvalues`).

    The routine is fully deterministic and positive whenever A != 0; a
    zero matrix gives 0.0.  A non-zero matrix whose Gram matrix or
    iterates leave the double range (a Gram entry overflows, the whole
    Gram matrix underflows to zero, or no start yields a positive
    estimate) is refused with a ValueError rather than given a norm of
    0.0.  The stack is processed in chunks of at most 2^20 Gram entries
    (or of one matrix, if its Gram is larger); no member's bits depend on
    the stack around it.
    """
    k, _, cols = ms.shape
    out = np.empty(k)
    step = max(1, _GRAM_ENTRIES // (cols * cols))
    for lo in range(0, k, step):
        out[lo : lo + step] = _top_eigenvalues(ms[lo : lo + step])
    return np.sqrt(out)


def induced_norm(a, p: PNorm):
    """Induced (operator) norm of a matrix on l_p, or of every matrix of a
    ``(K, rows, cols)`` stack.

    A matrix gives a float, a stack an array of K norms, each the same bits
    as the norm of that matrix alone.  p = 1 is the maximum absolute column
    sum, p = inf the maximum absolute row sum (both exact); p = 2 is the
    largest singular value by power iteration on ``A^T A``, run for the
    whole stack at once (deterministic all-ones start with fallback
    restarts, at most 200 rounds or a relative Rayleigh change below
    1e-12, per matrix).  Any other exponent has no closed form and is
    refused — use :func:`norm_upper_bound` for the interpolation estimate.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in (2, 3) or 0 in m.shape:
        raise ValueError(
            "induced_norm operand: expected a matrix or a (K, rows, cols) stack "
            f"with every dimension >= 1, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise ValueError("induced_norm operand: entries must be finite")
    stack = m if m.ndim == 3 else m[None]
    if p.p == 1.0:
        out = _seq_sums(np.abs(stack), 1).max(axis=1)
    elif p.is_inf:
        out = _seq_sums(np.abs(stack), 2).max(axis=1)
    elif p.p == 2.0:
        out = _spectral_norms(stack)
    else:
        raise ValueError(
            "induced_norm: exact induced norms exist only for p in {1, 2, inf}; "
            f"got p = {p}. Use norm_upper_bound for an interpolation upper bound."
        )
    return float(out[0]) if m.ndim == 2 else out


def induced_norms(mats, p: PNorm) -> list[float]:
    """Induced norms of a list of matrices of any shapes: one stacked
    :func:`induced_norm` call per shape, in order of first appearance."""
    return stacked_norms(
        [np.shape(m) for m in mats], lambda i, out: np.copyto(out, mats[i]), p
    )


def stacked_norms(shapes, write, p: PNorm) -> list[float]:
    """Induced norms of ``len(shapes)`` matrices that are never held outside
    their stack: ``write(i, out)`` writes matrix i into ``out``, its zeroed
    slot of shape ``shapes[i]`` in the one stack of that shape.  One
    :func:`induced_norm` call per shape, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(tuple(shape), []).append(i)
    out = [0.0] * len(shapes)
    for shape, idx in groups.items():
        stack = np.zeros((len(idx), *shape))
        for slot, i in zip(stack, idx):
            write(i, slot)
        for i, v in zip(idx, induced_norm(stack, p).tolist()):
            out[i] = v
    return out


def norm_upper_bound(a, p: PNorm) -> float:
    """Interpolation upper bound |A|_1^(1/p) * |A|_inf^(1-1/p), 1 < p < inf.

    This bounds the induced l_p norm for every intermediate exponent
    (Riesz-Thorin between the two exact endpoints); at p = 2 it reduces to
    the familiar sqrt(|A|_1 |A|_inf) >= largest singular value.
    """
    if p.p <= 1.0 or p.is_inf:
        raise ValueError(
            "norm_upper_bound covers 1 < p < inf only; "
            "induced_norm is exact at p in {1, inf}"
        )
    n1 = induced_norm(a, ONE)
    ninf = induced_norm(a, INF)
    t = 1.0 / p.p
    return (n1**t) * (ninf ** (1.0 - t))


# ---------------------------------------------------------------------------
# zero padding
# ---------------------------------------------------------------------------


def zero_pad_matrix(w, size: int, *, keep_cols: bool = False) -> np.ndarray:
    """Embed ``w`` in the top-left corner of a larger zero matrix.

    By default the result is ``size`` x ``size`` (the fixed-width embedding
    of a layer matrix).  With ``keep_cols=True`` only rows are padded — the
    first-layer form, where the input dimension is left alone.  Padding
    never changes induced p-norms; the test suite checks this directly.
    """
    m = as_matrix(w, name="zero_pad_matrix operand")
    rows, cols = m.shape
    if size < rows or (not keep_cols and size < cols):
        raise ValueError(
            f"zero_pad_matrix: target size {size} smaller than source {rows}x{cols}"
        )
    out = np.zeros((size, cols if keep_cols else size), dtype=np.float64)
    out[:rows, :cols] = m
    out.flags.writeable = False
    return out


def extend_vector(v, size: int, fill: float = 0.0) -> np.ndarray:
    """Extend ``v`` (or each column of a 2-d batch) to ``size`` entries,
    writing ``fill`` in the new slots.

    Zero fill is the padding used for weights and biases; a sigma(0) fill
    appears when states of different widths are compared through their
    extension, whose padded coordinates carry sigma(0) rather than 0.
    """
    validate = as_vector if np.ndim(v) == 1 else as_matrix
    arr = validate(v, name="extend_vector operand")
    rows = arr.shape[0]
    if size < rows:
        raise ValueError(f"extend_vector: target size {size} smaller than {rows}")
    out = np.full((size, *arr.shape[1:]), float(fill), dtype=np.float64)
    out[:rows] = arr
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# eventually-constant sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventuallyConstSeq:
    """A real sequence with finitely many free entries followed by a constant.

    ``value_at(i)`` is ``head[i]`` for ``i < len(head)`` and ``tail``
    afterwards.  These are the states of constant-padded convolutional
    recursions: the l_inf norm is ``max(|head|_inf, |tail|)``, and the
    sequence lies in l_p for finite p exactly when the tail is zero.

    A batch of S sequences of one head length has a ``(h, S)`` head and a
    length-S tail (a scalar tail is broadcast), one sequence per column;
    every method then acts column by column and returns per-column results.
    """

    head: np.ndarray
    tail: float | np.ndarray

    def __post_init__(self):
        arr = np.array(self.head, dtype=np.float64, copy=True)
        if arr.ndim not in (1, 2):
            raise ValueError(f"sequence head must be 1-d or 2-d, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("sequence head entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "head", arr)
        t = np.array(np.broadcast_to(self.tail, arr.shape[1:]), dtype=np.float64)
        if not np.all(np.isfinite(t)):
            raise ValueError("sequence tail must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "tail", float(t) if arr.ndim == 1 else t)

    @property
    def head_len(self) -> int:
        return int(self.head.shape[0])

    def value_at(self, i: int):
        if i < 0:
            raise IndexError("sequence index must be >= 0")
        if i >= self.head_len:
            return self.tail
        return float(self.head[i]) if self.head.ndim == 1 else self.head[i]

    def truncated(self, count: int) -> np.ndarray:
        """First ``count`` entries as a dense vector (rows of a batch)."""
        if count < 0:
            raise ValueError("truncated: count must be >= 0")
        out = np.empty((count, *self.head.shape[1:]), dtype=np.float64)
        out[...] = self.tail
        k = min(count, self.head_len)
        out[:k] = self.head[:k]
        return out

    def in_lp(self, p: PNorm):
        return p.is_inf or self.tail == 0.0

    def norm(self, p: PNorm):
        """l_p(N) norm; +inf for finite p when the tail is nonzero."""
        if p.is_inf:
            out = np.maximum(vector_norm(self.head, p), np.abs(self.tail))
        else:
            out = np.where(self.tail != 0.0, math.inf, vector_norm(self.head, p))
        return float(out) if self.head.ndim == 1 else out

    def _combine(self, other: "EventuallyConstSeq", sign: float) -> "EventuallyConstSeq":
        n = max(self.head_len, other.head_len)
        return EventuallyConstSeq(
            self.truncated(n) + sign * other.truncated(n),
            self.tail + sign * other.tail,
        )

    def __add__(self, other: "EventuallyConstSeq") -> "EventuallyConstSeq":
        return self._combine(other, 1.0)

    def __sub__(self, other: "EventuallyConstSeq") -> "EventuallyConstSeq":
        return self._combine(other, -1.0)


# ---------------------------------------------------------------------------
# banded Toeplitz operators of a convolution mask
# ---------------------------------------------------------------------------


def toeplitz_matrix(mask, rows: int, cols: int) -> np.ndarray:
    """Top-left ``rows`` x ``cols`` window of the lower banded Toeplitz
    matrix ``T[i, j] = mask[i - j]``, 0 <= i - j <= tau.

    The finite convolution matrix of a length-c input is the window
    ``toeplitz_matrix(mask, c + tau, c)``: applying it lengthens a vector by
    tau (full zero-padded convolution).  Any other window cuts out a piece
    of the semi-infinite constant-padded operator that :func:`apply_banded`
    applies.
    """
    mask = as_vector(mask, name="Toeplitz mask")
    if rows < 1 or cols < 1:
        raise ValueError("toeplitz_matrix: window dims must be >= 1")
    t = np.zeros((rows, cols), dtype=np.float64)
    # diagonal k holds mask[k] at (j + k, j): one placement per diagonal
    for k in range(min(mask.size - 1, rows - 1) + 1):
        j = np.arange(min(rows - k, cols))
        t[j + k, j] = mask[k]
    t.flags.writeable = False
    return t


def apply_banded(mask, x: EventuallyConstSeq) -> EventuallyConstSeq:
    """Apply the semi-infinite constant-padded Toeplitz operator of ``mask``
    to a sequence or a batch of sequences.

    The head grows by tau entries; every row past the new head sees only the
    constant tail, so the output tail is ``sum(mask) * x.tail``.  Row i sums
    ``mask[k] * x[i - k]`` for k descending to 0 (column order), adding one
    shifted slice of the padded input per k, which matches the
    sequential-summation convention entry by entry.  The operator's induced
    l_1 and l_inf norms both equal the absolute mask sum
    (``dnclab.network.MaskSeq.abs_sum``), which also bounds every
    intermediate p.
    """
    mask = as_vector(mask, name="Toeplitz mask")
    tau = mask.size - 1
    xe = x.truncated(x.head_len + tau)  # the head, then tau copies of the tail
    out = np.zeros_like(xe)
    size = xe.shape[0]
    for k in range(tau, -1, -1):
        out[k:] += mask[k] * xe[: size - k]
    return EventuallyConstSeq(out, seq_sum(mask) * x.tail)
