"""Deterministic linear-algebra kernel for the convergence laboratory.

Everything downstream (layer recursions, bound evaluation, report tables)
rests on the primitives here, so two properties are enforced globally:

* **Determinism.**  Every reduction that produces a reported number adds
  its terms left to right from 0.0 over IEEE doubles, never by a BLAS or
  pairwise reduction: :func:`seq_sum` for one list, :func:`_seq_sums` for
  the lines of an array or of a product of two, and the loops of
  :func:`matvec` and :func:`apply_banded`, which make the same additions.
  Results are bit-reproducible across runs, batch and stack compositions,
  and BLAS builds.
* **Exactness discipline.**  Induced matrix norms are computed exactly for
  p in {1, inf}; at p = 2 the value is a certified upper bound on the
  largest singular value, at most about 1e-12 relative above it: a
  Lanczos run on ``A^T A`` guesses the top eigenvalue, and one Cholesky
  rung of ``mu^2 I - A^T A`` (Rump's verification of positive
  definiteness) proves it, rounding errors included.  Any other exponent
  is *refused*: general p only admits the interpolation upper bound
  ``|A|_1^(1/p) * |A|_inf^(1-1/p)``, never a value.  :func:`induced_norm`
  takes one matrix or a ``(K, rows, cols)`` stack; at p = 2 a stack runs
  its Lanczos runs and rungs for all its members at once, with the same
  bits per member as alone, and no BLAS or LAPACK call.  It reads the
  members one block of rows at a time, so the stack that
  :func:`stacked_norms` passes writes them on demand and is never held
  whole.  A Gram matrix far from 1 is first scaled by a power of two, so
  an operand is refused only when its Gram matrix or its squared norm
  leaves the double range.

Constant-padded convolutions keep their states as
:class:`EventuallyConstSeq`.  (A zero-padded operator or a state padded
with a fill value is never built: ``analysis`` writes the padded
difference of two of them straight away.)  A convolution is given by its
mask alone: :func:`toeplitz_matrix` cuts a finite window out of the banded
Toeplitz matrix of a mask (the finite convolution matrix is one such
window), and :func:`apply_banded` applies the mask's constant-padded
semi-infinite operator to eventually-constant sequences.
"""

from __future__ import annotations

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
    "stacked_norms",
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


def _seq_sums(a: np.ndarray, axis: int = 0, b=None) -> np.ndarray:
    """Left-to-right sums of ``a`` along ``axis``, or of the products
    ``a * b`` with ``b`` broadcast to the shape of ``a``: each entry adds
    its terms (the slices across ``axis``) in order from 0.0, the bits of
    :func:`seq_sum` of each line but for the sign of a NaN, which numpy's
    loops do not fix (accumulating [-inf, inf, nan] gives -NaN, adding it
    in place +NaN).

    One ``np.add.accumulate`` call adds a sum of up to ``_ONE_CALL_ENTRIES``
    products in all (terms x entries per term, the size of the two arrays
    it allocates).  It runs sequentially but starts from the first term
    instead of 0.0: ``+ 0.0`` turns the one possible difference, an
    all-(-0.0) line, into +0.0.  A larger sum adds one term of products at
    a time to partial sums that start at 0.0: the same additions, with two
    terms' worth of temporaries.  No partial sum is -0.0, since (+0.0) +
    (-0.0) = +0.0 in round-to-nearest, so adding a term of ±0.0 changes no
    bit: a caller may skip a term that is all zero when both factors are
    finite.  A NaN or an infinity must keep every term, so that it reaches
    the same entries as in the full sum (inf * 0.0 is NaN)."""
    if a.size <= _ONE_CALL_ENTRIES:
        terms = a if b is None else a * b
        return np.add.accumulate(terms, axis=axis).take(-1, axis=axis) + 0.0
    terms = np.moveaxis(a, axis, 0) if axis else a
    if b is not None:
        b = np.broadcast_to(b, a.shape)
        b = np.moveaxis(b, axis, 0) if axis else b
    out = np.zeros(terms.shape[1:])
    prod = np.empty_like(out)
    for t, term in enumerate(terms):
        out += term if b is None else np.multiply(term, b[t], out=prod)
    return out


def as_vector(x, *, name: str = "vector") -> np.ndarray:
    """Validate and freeze a 1-d float64 array (length >= 1, finite entries)."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d array, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name}: dimension must be at least 1")
    if not np.isfinite(arr).all():
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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Deterministic matrix product with a vector or a batch of columns.

    ``x`` has shape ``(cols,)`` or ``(cols, S)``, one sample per column.
    Every output entry is the left-to-right sum over j of ``a[i, j] *
    x[j]``, exactly as :func:`seq_sum` would add it, so a column's result
    does not depend on the batch it was evaluated in (no BLAS).

    It adds one column of products at a time, as :func:`_seq_sums` does,
    but in a loop of its own: ``np.einsum("i,s->is")`` forms a column of
    products faster than the broadcast multiply that suits the Gram terms
    (a 64 x 64 matrix on 500 columns takes about 1.9 ms against 3.0 ms on
    one x86 core).  It writes a -0.0 product as +0.0, which changes no
    partial sum.  When both
    operands are finite, every j whose column of ``a`` or row of ``x`` is
    all zero (a dead unit, a zero-padded column) is skipped; a NaN or an
    infinity keeps every term.  :func:`_seq_sums` says why neither changes
    a bit.
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

    Induced matrix norms are taken only for p in {1, 2, inf}
    (:func:`induced_norm` refuses any other exponent).
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
    need no special casing.  At 1 < p < inf only a column whose plain
    result is infinite, or below 2^(-900/p) while it has a non-zero entry,
    is summed again with its entries scaled by the power of two that brings
    the largest into [0.5, 1), and its root scaled back: exact scalings, so
    a column has the same bits in any batch, and an infinite norm means the
    norm itself leaves the double range.
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
    else:
        out = _p_norms(arr, p.p)
    return float(out) if arr.ndim == 1 else out


def _root_sums(arr: np.ndarray, p: float):
    """The p-th root of each column's sequential sum of |x|^p, unscaled: a
    square root at p = 2, Python's pow on each total otherwise (as the
    scalar form always took it)."""
    if p == 2.0:
        return np.sqrt(_seq_sums(arr * arr, 0))
    totals = np.atleast_1d(_seq_sums(np.abs(arr) ** p, 0)).tolist()
    return np.array([t ** (1.0 / p) for t in totals]).reshape(arr.shape[1:])


@np.errstate(over="ignore")
def _p_norms(arr: np.ndarray, p: float):
    """The l_p norm, 1 < p < inf, of a vector or of each column of a
    batch, as :func:`vector_norm` forms it.  Below 2^(-900/p) (2^-450 at
    p = 2) a norm may have lost bits to powers that underflowed."""
    out = _root_sums(arr, p)
    tiny = 2.0 ** (-900.0 / p)
    # NaN-blind extremes: one NaN column must not hide another's overflow
    lo = np.fmin.reduce(out, axis=None, initial=math.inf)
    if tiny <= lo and np.fmax.reduce(out, axis=None, initial=0.0) < math.inf:
        return out
    cols, out = arr.reshape(arr.shape[0], -1), np.atleast_1d(out)
    redo = np.flatnonzero(np.isinf(out) | (out < tiny))
    sub = cols[:, redo]
    peak = np.abs(sub).max(axis=0)
    # a zero column is exact already, an infinite entry stays infinite
    fix = (peak > 0.0) & np.isfinite(peak)
    exps = np.frexp(peak[fix])[1]
    out[redo[fix]] = np.ldexp(_root_sums(np.ldexp(sub[:, fix], -exps), p), exps)
    return out.reshape(arr.shape[1:])


# one chunk of a p = 2 stack holds at most this many Gram entries (8 MB), or
# one matrix whose Gram is larger, which bounds the Gram array whatever the
# stack size
_GRAM_ENTRIES = 1 << 20
# the Gram builder's and the Cholesky rung's product buffers hold at most
# this many bytes (or one Gram row of every member, if that is larger)
_GRAM_BLOCK_BYTES = 1 << 18
# _seq_sums adds a sum of up to this many products in all (64 KB) in one
# accumulation call
_ONE_CALL_ENTRIES = 8192
_OUT_OF_RANGE = "induced_norm: a p = 2 operand is out of double range: "

# unit roundoff and the smallest subnormal of IEEE doubles
_U = 2.0**-53
_ETA = 2.0**-1074
# Lanczos steps per start, at most (fewer when the matrix has fewer columns)
_LANCZOS_STEPS = 30
# the multisection splits a bracket into _SHIFTS + 1 parts per round; twelve
# rounds narrow it by 2^48, far below the first rung's 1e-12 slack
_SHIFTS = 15
_SECTION_ROUNDS = 12
# rung k factors theta * (1 + _RUNG_SLACK * 10^k) I - G; past the last rung
# (or once a rung reaches it) the Frobenius rung |A|_F^2 is taken
_RUNG_SLACK = 1.0e-12
_RUNGS = 12
# covers the rounding of the few operations that form each margin
_INFLATE = 1.0 + 2.0**-48


def _gamma(k: int) -> float:
    """The rounding-error constant gamma_k = k u / (1 - k u)."""
    return k * _U / (1.0 - k * _U)


class _Stack:
    """A ``(K, rows, cols)`` stack of matrices that is never held whole:
    ``write(k, out, rows)`` writes the rows ``rows`` (a slice with a start
    and a stop) of member k into ``out``, zeroed, which has one row for
    each of them.  ``np.asarray`` writes every member into one array."""

    ndim = 3

    def __init__(self, shape, write):
        self.shape = tuple(shape)
        self.write = write

    @classmethod
    def of(cls, ms: np.ndarray) -> "_Stack":
        """The stack of the matrices of the array ``ms``, copied out."""

        def write(k, out, rows):
            out[...] = ms[k, rows]

        return cls(ms.shape, write)

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape)
        for k, slot in enumerate(out):
            self.write(k, slot, slice(0, self.shape[1]))
        return out if dtype is None else out.astype(dtype, copy=False)


def _grams(ms: _Stack, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrices A^T A of the members ``members`` of a stack as one
    ``(cols, cols, len(members))`` array, and which of those members are
    non-zero.  Slot s holds the Gram matrix of member ``members[s]``, entry
    [i, j, s] adding ``A[r, i] * A[r, j]`` over ascending rows r from 0.0,
    as :func:`_seq_sums` adds.  Each block of Gram rows is accumulated from
    its diagonal rightwards, and the lower triangle is then copied from the
    upper: the products commute bitwise, so each Gram matrix is exactly
    symmetric either way.  The members are gathered one block of rows at a
    time through the stack's ``write``, never whole: besides the result it
    holds that block and one product buffer of a block of Gram rows, each
    at most 256 KB or one row of every member, whichever is larger.  A
    non-finite entry is refused as it is gathered."""
    rows, cols = ms.shape[1:]
    k = len(members)
    g = np.zeros((cols, cols, k))
    nonzero = np.zeros(k, dtype=bool)
    fit = _GRAM_BLOCK_BYTES // (8 * cols * k)
    block = max(1, min(cols, fit))
    prod = np.empty((block, cols, k))
    height = max(1, min(rows, fit))
    gathered = np.empty((height, cols, k))  # row r of member s at [r, :, s]
    names = list(enumerate(members.tolist()))
    for lo in range(0, rows, height):
        rb = gathered[: min(height, rows - lo)]
        rb.fill(0.0)
        for s, member in names:
            ms.write(member, rb[:, :, s], slice(lo, lo + len(rb)))
        if not np.isfinite(rb).all():
            raise ValueError("induced_norm operand: entries must be finite")
        nonzero |= rb.any(axis=(0, 1))
        for row in rb:
            for i in range(0, cols, block):
                gb = g[i : i + block, i:]
                pb = prod[: len(gb), : cols - i]
                np.multiply(row[i : i + block, None], row[None, i:], out=pb)
                gb += pb
    for i in range(1, cols):
        g[i, :i] = g[:i, i]
    return g, nonzero


def _start_vector(index: int, cols: int) -> np.ndarray:
    """Lanczos start ``index``: the all-ones vector, then the ramp
    1 + i/(cols+1), then each coordinate vector in turn."""
    if index == 0:
        return np.ones(cols)
    if index == 1:
        return 1.0 + np.arange(cols) / (cols + 1.0)
    return np.eye(cols)[index - 2]


def _reorthogonalise(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Subtract from each column of ``w`` its components along the
    vectors ``basis[:, i]`` (``basis`` is ``(cols, j, K)``), classical
    Gram-Schmidt in place, and return the coefficients ``(j, K)``: each
    coefficient adds its products over ascending entries, and the
    correction the scaled vectors in ascending order."""
    coef = _seq_sums(basis, 0, w[:, None])
    w -= _seq_sums(basis, 1, coef)
    return coef


def _lanczos(
    g: np.ndarray, v0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lanczos tridiagonalisation of every Gram matrix of ``g`` (``(cols,
    cols, K)``) from the start columns ``v0`` (``(cols, K)``), with full
    reorthogonalisation: after the three-term recurrence, one classical
    Gram-Schmidt pass against the whole basis.

    Runs min(30, cols) steps and returns the tridiagonals' diagonals and
    off-diagonals, ``(steps, K)`` and ``(steps - 1, K)``, and which members
    broke down before the Krylov space reached dimension cols: the
    Gram-Schmidt pass left less than half of the recurrence's vector
    (Kahan's test, in Parlett, "The Symmetric Eigenvalue Problem", section
    6-9), so it lies in the span up to rounding and its off-diagonal is
    set to 0.0.  A member that broke down continues from the zero vector,
    which appends zeros to its tridiagonal and leaves its largest
    eigenvalue (>= 0) alone.  A non-finite value is refused."""
    cols, _, k = g.shape
    steps = min(_LANCZOS_STEPS, cols)
    basis = np.empty((cols, steps, k))
    v = basis[:, 0]
    v[...] = v0 / np.sqrt(_seq_sums(v0 * v0, 0))
    alpha = np.empty((steps, k))
    beta = np.empty((steps - 1, k))
    recurrence = np.empty_like(beta)  # |w| before the Gram-Schmidt pass
    for j in range(steps):
        w = _seq_sums(g, 0, v[:, None])  # G_k v[:, k]: g[j] is column j of each G_k
        alpha[j] = _seq_sums(v * w, 0)
        if j + 1 == steps:
            break
        w -= alpha[j] * v
        if j:
            w -= beta[j - 1] * basis[:, j - 1]
        recurrence[j] = np.sqrt(_seq_sums(w * w, 0))
        _reorthogonalise(basis[:, : j + 1], w)
        b = beta[j]
        b[...] = np.sqrt(_seq_sums(w * w, 0))
        b[b < 0.5 * recurrence[j]] = 0.0
        v = basis[:, j + 1]
        v[...] = 0.0
        np.divide(w, b, out=v, where=b > 0.0)
    # a non-finite value reaches alpha, beta or the recurrence norms
    if not (np.isfinite(alpha).all() and np.isfinite(recurrence).all()):
        raise ValueError(_OUT_OF_RANGE + "the Lanczos run overflows")
    return alpha, beta, (beta == 0.0).any(axis=0)


def _top_ritz_values(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric tridiagonal (diagonal
    ``alpha[:, k]``, off-diagonal ``beta[:, k]``), by Sturm multisection.

    The bracket starts at [max diagonal, Gershgorin bound]; each round
    counts the negative pivots of T - xI at 15 evenly spaced shifts x for
    every member at once and keeps the part between the last shift below
    the top eigenvalue and the first above it.  Each tridiagonal is first
    scaled by a power of two (exactly), so no square overflows, and a zero
    off-diagonal square is replaced by the smallest subnormal, so no pivot
    is 0/0; a zero pivot divides to an infinity, which IEEE arithmetic
    carries through the count (Demmel, Dhillon & Ren, ETNA 3, 1995).
    Returns the upper end of the final bracket."""
    m, k = alpha.shape
    radius = np.zeros((m, k))
    radius[:-1] += np.abs(beta)
    radius[1:] += np.abs(beta)
    hi = (alpha + radius).max(axis=0)
    lo = alpha.max(axis=0)
    top = np.maximum(np.abs(lo), np.abs(hi))
    scale = np.where(top > 0.0, np.ldexp(1.0, -np.frexp(top)[1]), 1.0)
    a = (alpha * scale)[:, None, :]
    b2 = np.square(beta * scale)
    b2[b2 == 0.0] = _ETA
    # row 0 holds the bracket's lower end, the last row its upper end, and
    # the rows between them the shifts
    ends = np.empty((_SHIFTS + 2, k))
    ends[0], ends[-1] = lo * scale, hi * scale
    frac = (np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1.0))[:, None]
    members = np.arange(k)
    pivots = np.empty((m, _SHIFTS, k))
    term = np.empty((_SHIFTS, k))
    for _ in range(_SECTION_ROUNDS):
        x = ends[1:-1]
        np.multiply(ends[-1] - ends[0], frac, out=x)
        x += ends[0]
        np.subtract(a, x, out=pivots)
        for i in range(1, m):
            np.divide(b2[i - 1], pivots[i - 1], out=term)
            pivots[i] -= term
        # every pivot negative: every eigenvalue lies below the shift; the
        # shifts with an eigenvalue at or above them come first
        under = _SHIFTS - (pivots < 0.0).all(axis=0).sum(axis=0)
        ends[0], ends[-1] = ends[under, members], ends[under + 1, members]
    return ends[-1] / scale


def _cholesky_rung(
    g: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor ``shift[k] I - G_k`` for every Gram matrix of ``g`` by a
    right-looking Cholesky, in place: ``g`` is negated, shifted and
    overwritten.  Returns which members factored (every pivot positive)
    and, per member, the trace and the largest diagonal entry of the
    matrix actually factored (the rounded ``shift - G[i, i]``), taken
    before the factorisation.  Only the lower triangle is updated; blocks
    of at most n rows bound the product buffer to 256 KB, or one row of
    every member."""
    n, _, k = g.shape
    diag = np.arange(n)
    np.negative(g, out=g)
    g[diag, diag] += shift
    shifted = np.abs(g[diag, diag])
    trace = _seq_sums(shifted, 0)
    ok = np.ones(k, dtype=bool)
    block = max(1, min(n, _GRAM_BLOCK_BYTES // (8 * n * k)))
    prod = np.empty((block, n, k))
    for j in range(n):
        pivot = g[j, j]
        ok &= pivot > 0.0
        # a member that failed goes on with a unit pivot; its values are unread
        root = np.sqrt(np.where(ok, pivot, 1.0))
        col = g[j + 1 :, j]
        col /= root
        for i in range(j + 1, n, block):
            rows = g[i : i + block, j + 1 : i + block]
            pb = prod[: rows.shape[0], : rows.shape[1]]
            np.multiply(g[i : i + block, j, None], col[None, : rows.shape[1]], out=pb)
            rows -= pb
    return ok, trace, shifted.max(axis=0)


def _top_eigenvalue_bounds(ms: _Stack, members: np.ndarray) -> np.ndarray:
    """Certified upper bound on the top eigenvalue of A^T A for every
    member A of a stack that ``members`` names; 0.0 for a zero A.

    A Lanczos run from the all-ones start gives a guess theta (its top
    Ritz value, :func:`_top_ritz_values`); one Cholesky rung then factors
    s I - G, s = theta (1 + 1e-12), in the computed Gram array G itself.
    If every pivot is positive, Rump's verification ("Verification of
    positive definiteness", BIT 2006; Demmel's Cholesky error bound)
    certifies

        lambda_max(A^T A) <= s + u max_i f_ii + eta            (the shift's rounding)
                    + gamma_{cols+1} / (1 - gamma_{cols+1}) tr(F)    (the factorisation)
                    + 4 cols (2 (cols + 1) + max_i f_ii) eta         (its underflow)
                    + gamma_rows |A|_F^2 + rows cols eta             (G's rounding)

    where F is the matrix factored, u = 2^-53, eta the smallest subnormal,
    and every term is rounded up.  A member whose rung fails (only it)
    climbs a ladder: after a Lanczos breakdown it restarts from the next
    start (the ramp, then each coordinate vector) and keeps the larger
    theta; otherwise the rung's slack grows tenfold.  The last rung,
    reached after 12 slacks or when a rung would exceed it, is |A|_F^2
    itself, which always bounds the top eigenvalue; every result is at
    most that.

    Each member runs the same operations alone as in any stack.  This
    function builds the Gram matrices of the members, one slot each,
    gathered from the stack a block of rows at a time (:func:`_grams`),
    and owns them: the rung overwrites the Gram array.  If some members
    are zero, the array is dropped and built again for the others.  A
    member that reaches the Frobenius rung leaves the ladder by index: it
    keeps its slot, the rung factors it with the others, and its result
    is not read.  The members that go on to another rung have their Gram
    matrices built again in the same way.  So the batch holds one Gram
    array, one block of rows and, during a Lanczos run, its basis; never
    its operators together.  The out-of-range refusals are those of
    :func:`_spectral_norms`."""
    out = np.zeros(len(members))
    g, nonzero = _grams(ms, members)
    todo = np.flatnonzero(nonzero)
    if todo.size == 0:
        return out
    if todo.size < len(members):
        del g
        g = _grams(ms, members[todo])[0]
    if not np.isfinite(g).all():
        raise ValueError(_OUT_OF_RANGE + "A^T A overflows")
    if not g.any(axis=(0, 1)).all():
        raise ValueError(_OUT_OF_RANGE + "A^T A underflows to zero")
    rows, cols = ms.shape[1:]
    diag = np.arange(cols)
    # a Gram matrix whose diagonal is below 1/2 is scaled up by a power of
    # two (exactly, and by at most 2^1000, which stays finite), so no square
    # in the Lanczos run underflows; everything below works on the scaled
    # matrices, down to the final division
    # a Gram matrix whose trace reaches 2^511 is scaled down the same way,
    # so no |G v|^2 in the Lanczos run overflows (|G v| <= lambda_max <=
    # the trace); entries that the down-scaling pushes below the normal
    # range lose at most eta / 2 each, which the underflow term covers
    peak = g[diag, diag].max(axis=0)
    exponent = np.clip(-np.frexp(peak)[1], 0, 1000)
    shrink = _seq_sums(g[diag, diag], 0) >= 2.0**511
    exponent[shrink] = -np.frexp(peak[shrink])[1]
    scale = np.ldexp(1.0, exponent)
    g *= scale
    # the Gram products' underflow, scaled, or the down-scaling's
    tiny = np.maximum(scale, 1.0) * (rows * cols * _ETA)
    # |A|_F^2 from the Gram diagonal: each entry sums squares, so it is low
    # by at most gamma_rows relative plus the products' underflow, and the
    # trace of the rounded entries by at most gamma_cols relative
    trace = _seq_sums(g[diag, diag], 0)
    frobenius = _INFLATE * (
        (trace / (1.0 - _gamma(cols)) + tiny) / (1.0 - _gamma(rows))
    )
    gram_error = _gamma(rows) * frobenius + tiny
    found = frobenius.copy()  # the last rung, unless a Cholesky rung certifies
    start = np.zeros(todo.size, dtype=np.int64)
    rung = np.zeros(todo.size, dtype=np.int64)
    ones = _start_vector(0, cols)[:, None]
    alpha, beta, broke = _lanczos(g, np.broadcast_to(ones, (cols, todo.size)))
    theta = _top_ritz_values(alpha, beta)
    live = np.arange(todo.size)  # the member in each slot of g
    while True:
        shift = theta[live] * (1.0 + _RUNG_SLACK * 10.0 ** rung[live])
        if not np.isfinite(shift).all():
            raise ValueError(_OUT_OF_RANGE + "the Cholesky rung overflows")
        climbing = (rung[live] < _RUNGS) & (shift < frobenius[live])
        if not climbing.any():
            break
        ok, factored, largest = _cholesky_rung(g, shift)
        del g
        # the factored trace is a left-to-right sum, low by at most gamma_cols
        margin = (
            _U * largest
            + _ETA
            + _gamma(cols + 1) / (1.0 - _gamma(cols + 1))
            * factored
            / (1.0 - _gamma(cols))
            + 4 * cols * (2 * (cols + 1) + largest) * _ETA
            + gram_error[live]
        )
        bound = np.nextafter(shift + _INFLATE * margin, np.inf)
        ok &= climbing  # the members that left are not read
        if not np.isfinite(bound[ok]).all():
            raise ValueError(_OUT_OF_RANGE + "the Cholesky rung overflows")
        done = live[ok]
        found[done] = np.minimum(bound[ok], frobenius[done])
        live = live[climbing & ~ok]
        if live.size == 0:
            break
        g = _grams(ms, members[todo[live]])[0]
        g *= scale[live]
        restart = broke[live] & (start[live] < cols + 1)
        rung[live[~restart]] += 1
        if restart.any():
            again = live[restart]
            start[again] += 1
            v0 = np.stack([_start_vector(t, cols) for t in start[again]], axis=1)
            alpha, beta, broke[again] = _lanczos(g.compress(restart, axis=2), v0)
            theta[again] = np.maximum(theta[again], _top_ritz_values(alpha, beta))
    # dividing by the scale is exact unless the result is subnormal, or
    # overflows: a squared norm past the double range is refused
    value = found / scale
    if not np.isfinite(value).all():
        raise ValueError(_OUT_OF_RANGE + "its squared norm overflows")
    out[todo] = np.where(value * scale < found, np.nextafter(value, np.inf), value)
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # refused below
def _spectral_norms(ms: _Stack) -> np.ndarray:
    """Certified upper bound on the largest singular value of every member
    of a stack: the square root, rounded up, of
    :func:`_top_eigenvalue_bounds`.  It is at least the exact value and,
    when the first rung holds on a matrix of up to about 250 rows and
    columns, at most 1e-11 relative above it (about 1e-12 at 64 x 64).

    The routine is fully deterministic and positive whenever A != 0; a
    zero matrix gives 0.0.  A non-zero matrix whose Gram matrix or
    Lanczos run or Cholesky rung leaves the double range (a Gram entry
    overflows, the whole Gram matrix underflows to zero, a Lanczos or
    Cholesky value is not finite, or the squared norm itself overflows) is
    refused with a ValueError rather than given a norm.  The stack is
    processed in chunks of at most 2^20 Gram entries (or of one matrix, if
    its Gram is larger); no member's bits depend on the stack around it.
    """
    k, _, cols = ms.shape
    out = np.empty(k)
    step = max(1, _GRAM_ENTRIES // (cols * cols))
    for lo in range(0, k, step):
        chunk = np.arange(lo, min(k, lo + step))
        out[lo : lo + step] = _top_eigenvalue_bounds(ms, chunk)
    root = np.sqrt(out)
    return np.where(out > 0.0, np.nextafter(root, np.inf), root)


def induced_norm(a, p: PNorm):
    """Induced (operator) norm of a matrix on l_p, or of every matrix of a
    ``(K, rows, cols)`` stack.

    A matrix gives a float, a stack an array of K norms, each the same bits
    as the norm of that matrix alone.  p = 1 is the maximum absolute column
    sum, p = inf the maximum absolute row sum (both exact).  p = 2 is a
    certified upper bound on the largest singular value: never below it,
    and above it by about 1e-12 relative for a 64 x 64 matrix (the first
    rung's 1e-12 slack on the squared norm, plus rounding margins that grow
    with the matrix size; see :func:`_top_eigenvalue_bounds`).  The whole
    stack is processed at once; at p = 2 its members are read one block of
    rows at a time, so the stack :func:`stacked_norms` passes is never
    written whole (``np.asarray`` of it is the zero-padded stack).  Any
    other exponent has no closed form and is refused.
    """
    written = isinstance(a, _Stack) and p.p == 2.0
    m = a if written else np.asarray(a, dtype=np.float64)
    if m.ndim not in (2, 3) or 0 in m.shape:
        raise ValueError(
            "induced_norm operand: expected a matrix or a (K, rows, cols) stack "
            f"with every dimension >= 1, got shape {m.shape}"
        )
    # a written stack's entries are checked as they are gathered
    if not written and not np.isfinite(m).all():
        raise ValueError("induced_norm operand: entries must be finite")
    stack = m if m.ndim == 3 else m[None]
    if p.p == 1.0:
        out = _seq_sums(np.abs(stack), 1).max(axis=1)
    elif p.is_inf:
        out = _seq_sums(np.abs(stack), 2).max(axis=1)
    elif p.p == 2.0:
        out = _spectral_norms(stack if written else _Stack.of(stack))
    else:
        raise ValueError(
            "induced_norm: exact induced norms exist only for p in {1, 2, inf}; "
            f"got p = {p}. For 1 < p < inf, |A|_1^(1/p) |A|_inf^(1-1/p) bounds "
            "the norm from above (Riesz-Thorin)."
        )
    return float(out[0]) if m.ndim == 2 else out


def stacked_norms(shapes, write, p: PNorm) -> list[float]:
    """Induced norms of ``len(shapes)`` matrices that are never held as
    arrays of their own: ``write(i, out, rows)`` writes the rows ``rows``
    (a slice with a start and a stop) of matrix i, zero-padded to
    ``shapes[i]``, into ``out``, zeroed, which has one row for each.  One
    :func:`induced_norm` call per shape, in order of first appearance, on
    a stack of that shape.  At p = 2 the stack writes its members on
    demand, one block of rows of every member at a time, so a batch holds
    its Gram array, its Lanczos basis and one block of rows, never its
    operators together; ``np.asarray`` of the stack writes them all into
    one zero-padded array.  At p = 1 and p = inf that array is built."""
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(tuple(shape), []).append(i)
    out = [0.0] * len(shapes)
    for shape, idx in groups.items():
        stack = _Stack(
            (len(idx), *shape), lambda k, slot, rows, idx=idx: write(idx[k], slot, rows)
        )
        for i, v in zip(idx, induced_norm(stack, p).tolist()):
            out[i] = v
    return out


# ---------------------------------------------------------------------------
# eventually-constant sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventuallyConstSeq:
    """A real sequence with finitely many free entries followed by a constant.

    Entry i is ``head[i]`` for ``i < len(head)`` and ``tail`` afterwards.
    These are the states of constant-padded convolutional
    recursions: the l_inf norm is ``max(|head|_inf, |tail|)``, and the
    sequence lies in l_p for finite p exactly when the tail is zero.

    A batch of S sequences of one head length has a ``(h, S)`` head and a
    length-S tail (a scalar tail is broadcast), one sequence per column;
    every method then acts column by column and returns per-column results.
    """

    head: np.ndarray
    tail: float | np.ndarray

    def __post_init__(self):
        self._adopt(np.array(self.head, dtype=np.float64, copy=True), self.tail)

    @classmethod
    def _of_filled(cls, head: np.ndarray, tail) -> "EventuallyConstSeq":
        """The sequence over ``head``, a float64 array its caller has just
        filled: the head is not copied but read through a read-only view, so
        it stays valid only while the caller leaves that memory alone.  It
        is refused as the constructor refuses it (non-finite entries)."""
        seq = object.__new__(cls)
        seq._adopt(head.view(), tail)
        return seq

    def _adopt(self, arr: np.ndarray, tail) -> None:
        if arr.ndim not in (1, 2):
            raise ValueError(f"sequence head must be 1-d or 2-d, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("sequence head entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "head", arr)
        t = np.array(np.broadcast_to(tail, arr.shape[1:]), dtype=np.float64)
        if not np.isfinite(t).all():
            raise ValueError("sequence tail must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "tail", float(t) if arr.ndim == 1 else t)

    @property
    def head_len(self) -> int:
        return int(self.head.shape[0])

    def truncated(self, count: int) -> np.ndarray:
        """First ``count`` entries as a dense vector (rows of a batch)."""
        if count < 0:
            raise ValueError("truncated: count must be >= 0")
        out = np.empty((count, *self.head.shape[1:]), dtype=np.float64)
        out[...] = self.tail
        k = min(count, self.head_len)
        out[:k] = self.head[:k]
        return out

    def norm(self, p: PNorm):
        """l_p(N) norm; +inf for finite p when the tail is nonzero."""
        if p.is_inf:
            out = np.maximum(vector_norm(self.head, p), np.abs(self.tail))
        else:
            out = np.where(self.tail != 0.0, math.inf, vector_norm(self.head, p))
        return float(out) if self.head.ndim == 1 else out

    def copy(self) -> "EventuallyConstSeq":
        """The same sequence over a head of its own."""
        return EventuallyConstSeq(self.head, self.tail)

    def __sub__(self, other: "EventuallyConstSeq") -> "EventuallyConstSeq":
        """The entrywise difference, both heads read to the longer one."""
        n = max(self.head_len, other.head_len)
        return EventuallyConstSeq._of_filled(
            self.truncated(n) - other.truncated(n), self.tail - other.tail
        )


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


def apply_banded(mask, x: EventuallyConstSeq, *, out=None) -> EventuallyConstSeq:
    """Apply the semi-infinite constant-padded Toeplitz operator of ``mask``
    to a sequence or a batch of sequences.

    The head grows by tau entries; every row past the new head sees only the
    constant tail, so the output tail is ``sum(mask) * x.tail``.  Row i sums
    ``mask[k] * x[i - k]`` for k descending to 0 (column order) from 0.0,
    adding one shifted slice of the padded input per k, as :func:`_seq_sums`
    adds.  It keeps a loop of its own: its terms land at row offsets (term
    k from row k on), and it writes into the caller's workspace.  The
    operator's induced l_1 and l_inf norms both equal the absolute mask sum
    (``dnclab.network.MaskSeq.abs_sum``), which also bounds every
    intermediate p.

    ``out`` is a float64 workspace of shape ``(3, rows, ...)``: the padded
    input, the sum and the shifted products, each written in its top
    ``x.head_len + tau`` rows only.  The result's head is then a view of
    the sum's top rows, valid until the workspace is written again;
    without ``out`` the workspace is fresh.
    """
    mask = as_vector(mask, name="Toeplitz mask")
    tau = mask.size - 1
    size = x.head_len + tau
    if out is None:
        out = np.empty((3, size, *x.head.shape[1:]))
    padded, total, shifted = (a[:size] for a in out)
    padded[: x.head_len] = x.head
    padded[x.head_len :] = x.tail  # the head, then tau copies of the tail
    total.fill(0.0)
    for k in range(tau, -1, -1):
        np.multiply(mask[k], padded[: size - k], out=shifted[: size - k])
        total[k:] += shifted[: size - k]
    return EventuallyConstSeq._of_filled(total, seq_sum(mask) * x.tail)
