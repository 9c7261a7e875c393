"""Independent oracles for the test suite.

Everything here is written the dumb way on purpose — literal loops, numpy's
LAPACK-backed SVD, mpmath's arbitrary-precision SVD, textbook definitions —
so that agreement with the library is evidence, not circularity.
"""


import math

import mpmath
import numpy as np


def svd_spectral_norm(a) -> float:
    """Largest singular value straight from LAPACK."""
    return float(np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)[0])


def mp_spectral_norm(a, dps: int = 40) -> mpmath.mpf:
    """Largest singular value of the double matrix ``a``, exact to about
    ``dps`` digits: mpmath's SVD of the same entries (a double converts to
    an mpf exactly), at ``dps`` significant digits."""
    a = np.asarray(a, dtype=np.float64)
    with mpmath.workdps(dps):
        m = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in a])
        return max(mpmath.svd_r(m, compute_uv=False))


def norm_upper_bound(a, p) -> float:
    """Interpolation upper bound |A|_1^(1/p) * |A|_inf^(1-1/p), 1 < p < inf.

    This bounds the induced l_p norm for every intermediate exponent
    (Riesz-Thorin between the two exact endpoints); at p = 2 it reduces to
    the familiar sqrt(|A|_1 |A|_inf) >= largest singular value.
    """
    if p.p <= 1.0 or p.is_inf:
        raise ValueError("norm_upper_bound covers 1 < p < inf only")
    t = 1.0 / p.p
    return (abs_col_sum_norm(a) ** t) * (abs_row_sum_norm(a) ** (1.0 - t))


def abs_col_sum_norm(a) -> float:
    """Max absolute column sum, accumulated left to right (the order every
    reduction in the library is specified to use)."""
    a = np.asarray(a, dtype=np.float64)
    best = 0.0
    for j in range(a.shape[1]):
        total = 0.0
        for i in range(a.shape[0]):
            total += abs(a[i, j])
        best = max(best, total)
    return best


def abs_row_sum_norm(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    best = 0.0
    for i in range(a.shape[0]):
        total = 0.0
        for j in range(a.shape[1]):
            total += abs(a[i, j])
        best = max(best, total)
    return best


def zero_pad_matrix(w, size: int, *, keep_cols: bool = False) -> np.ndarray:
    """Embed ``w`` in the top-left corner of a larger zero matrix: ``size``
    x ``size`` by default (the fixed-width embedding of a layer matrix), or
    with ``keep_cols=True`` only rows padded (the first-layer form, where
    the input dimension is left alone)."""
    m = np.asarray(w, dtype=np.float64)
    rows, cols = m.shape
    if size < rows or (not keep_cols and size < cols):
        raise ValueError(f"target size {size} smaller than source {rows}x{cols}")
    out = np.zeros((size, cols if keep_cols else size))
    out[:rows, :cols] = m
    return out


def conv_full(mask, x) -> np.ndarray:
    """Full discrete convolution by literal double loop (len(x)+tau outputs)."""
    mask = np.asarray(mask, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.size + mask.size - 1)
    for i in range(out.size):
        for k in range(mask.size):
            j = i - k
            if 0 <= j < x.size:
                out[i] += mask[k] * x[j]
    return out


def toeplitz_window(mask, rows: int, cols: int) -> np.ndarray:
    """T[i, j] = mask[i - j] for 0 <= i-j <= tau, assembled entry by entry."""
    mask = np.asarray(mask, dtype=np.float64)
    t = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            k = i - j
            if 0 <= k < mask.size:
                t[i, j] = mask[k]
    return t


def nested_cumulative_product(alphas, n: int) -> float:
    """prod_{j=1..n} alpha_j, literal loop (1-based n)."""
    out = 1.0
    for j in range(n):
        out *= alphas[j]
    return out


def nested_tail_product_sum(alphas, n: int) -> float:
    """sum_{j=1..n} prod_{i=j+1..n} alpha_i, literal nested loops."""
    total = 0.0
    for j in range(1, n + 1):
        prod = 1.0
        for i in range(j + 1, n + 1):
            prod *= alphas[i - 1]
        total += prod
    return total


def nested_weighted_tail_sum(alphas, betas, n: int) -> float:
    """sum_{i=0..n-1} (prod_{j=0..i-1} alpha_{n-j}) * beta_{n-i}, literal loops."""
    total = 0.0
    for i in range(n):
        prod = 1.0
        for j in range(i):
            prod *= alphas[n - j - 1]
        total += prod * betas[n - i - 1]
    return total


# ---------------------------------------------------------------------------
# per-element kernels and the per-sample recursion: the loop forms the
# batched library kernels replaced, kept as bit-exact references
# ---------------------------------------------------------------------------


def left_to_right_sum(values) -> float:
    """0.0 + v0 + v1 + ..., one double addition at a time."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def two_copy_state_deviation(a, b, p, fill):
    """|a - b|_p with the shorter state extended by ``fill``, formed the
    way the library once did: both states copied into fresh arrays of the
    common length with ``fill`` in the new slots, then subtracted."""
    from dnclab.linalg import vector_norm

    size = max(a.shape[0], b.shape[0])
    ext = []
    for v in (a, b):
        out = np.full((size, *v.shape[1:]), float(fill))
        out[: v.shape[0]] = v
        ext.append(out)
    return vector_norm(ext[0] - ext[1], p)


def lp_norm(col, p: float) -> float:
    """(0.0 + |c_0|^p + |c_1|^p + ...)^(1/p) for one column, 1 < p < inf,
    one addition at a time: squares and math.sqrt at p = 2, numpy's powers
    and Python's root otherwise.  Where that reads inf, or below 2^(-900/p)
    for a column with a finite non-zero peak, the same loop runs over the
    column times 2^-e, where 2^(e-1) <= max|c_i| < 2^e, and its root is
    scaled back by 2^e."""
    col = np.abs(np.asarray(col, dtype=np.float64))

    def root(values):
        with np.errstate(over="ignore"):
            powers = values * values if p == 2.0 else values**p
        total = left_to_right_sum(powers)
        return math.sqrt(total) if p == 2.0 else total ** (1.0 / p)

    plain = root(col)
    peak = float(col.max(initial=0.0))
    if not (math.isinf(plain) or plain < 2.0 ** (-900.0 / p)) or peak in (0.0, math.inf):
        return plain
    e = math.frexp(peak)[1]
    try:
        return math.ldexp(root(np.array([math.ldexp(c, -e) for c in col])), e)
    except OverflowError:
        return math.inf


def rowwise_matvec(a, x) -> np.ndarray:
    """A x for one vector: one left-to-right sum per row."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.array([left_to_right_sum(row) for row in a * x], dtype=np.float64)


def nested_gram(m) -> np.ndarray:
    """A^T A with each entry a left-to-right sum over rows, filled from the
    upper triangle."""
    m = np.asarray(m, dtype=np.float64)
    cols = m.shape[1]
    gram = np.empty((cols, cols))
    for i in range(cols):
        for j in range(i, cols):
            gram[i, j] = gram[j, i] = left_to_right_sum(m[:, i] * m[:, j])
    return gram


def elementwise_apply_banded(mask, head, tail) -> tuple[np.ndarray, float]:
    """(head, tail) of the constant-padded Toeplitz operator applied to one
    eventually-constant sequence, entry by entry: row i sums
    mask[i - j] * x_j over ascending j."""
    mask = np.asarray(mask, dtype=np.float64)
    head = np.asarray(head, dtype=np.float64)
    tau = mask.size - 1

    def x(j):
        return float(head[j]) if j < head.size else float(tail)

    out = np.empty(head.size + tau)
    for i in range(out.size):
        out[i] = left_to_right_sum(
            [mask[i - j] * x(j) for j in range(max(0, i - tau), i + 1)]
        )
    return out, left_to_right_sum(mask) * float(tail)


def _later_max(a: float, b: float) -> float:
    """The larger of a and b; a NaN operand (the first, if both) is returned,
    and of equal values (such as -0.0 and +0.0) the later one, b."""
    if a != a:
        return a
    if b != b:
        return b
    return a if a > b else b


def pool_vector(op, v) -> np.ndarray:
    """One vector through a pooling operator: window means by
    :func:`left_to_right_sum` over each window, window maxima by a
    left-to-right fold of :func:`_later_max` over each window."""
    v = np.asarray(v, dtype=np.float64)
    if op.kind == "identity":
        return v.copy()
    if op.kind == "average":
        sums = [left_to_right_sum(v[i : i + op.window]) for i in range(v.size - op.mu)]
        return np.array(sums, dtype=np.float64) / op.window
    out = []
    for i in range(v.size - op.mu):
        best = float(v[i])
        for t in range(1, op.window):
            best = _later_max(best, float(v[i + t]))
        out.append(best)
    return np.array(out, dtype=np.float64)


def per_sample_trajectory(seq, act, x, n_max: int) -> list:
    """States N_1(x) .. N_{n_max}(x) of one sample, one row sum at a time,
    each product through the sequence's pooling."""
    v = np.asarray(x, dtype=np.float64)
    out = []
    for j in range(1, n_max + 1):
        w, b = seq.layer(j)
        v = act.apply(pool_vector(seq.pooling, rowwise_matvec(w, v)) + b)
        out.append(v)
    return out


def per_sample_constant_pad(seq, act, x, n_max: int) -> list:
    """(head, tail) states of one sample under constant padding: layer 1 is
    the zero-padded matrix, later layers the per-element banded operator of
    the sequence's masks."""
    w, b = seq.layer(1)
    state = (act.apply(rowwise_matvec(w, x) + b), act.value_at_zero)
    out = [state]
    for j in range(2, n_max + 1):
        head, tail = elementwise_apply_banded(seq.masks.mask(j), *state)
        state = (act.apply(head + seq.layer(j)[1]), float(act.apply(tail)))
        out.append(state)
    return out


def masked_sigmoid(x):
    """The logistic function in its two-branch masked form, z = exp(-|x|):
    1 / (1 + z) where x >= 0 and z / (1 + z) elsewhere."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


class KeptTrajectory:
    """Every state of one sweep kept, and each read computed from them on
    demand: the reference for the reads a streamed
    :class:`dnclab.analysis.Trajectory` takes as it goes.  The restart gap
    computes both products again, from the kept state and the input."""

    def __init__(self, ctx, x, depth: int):
        from dnclab.analysis import ConstantPad
        from dnclab.network import eval_extended_trajectory, eval_trajectory

        self.ctx, self.x = ctx, np.asarray(x, dtype=np.float64)
        self.padded = isinstance(ctx, ConstantPad)
        sweep = eval_extended_trajectory if self.padded else eval_trajectory
        self.states = sweep(ctx.seq, ctx.act, x, depth)

    def state_norm(self, n: int):
        return self.ctx.state_norm(self.states[n - 1])

    def deviation(self, n_small: int, n_large: int):
        return self.ctx.distance(self.states[n_large - 1], self.states[n_small - 1])

    def product_gap(self, m: int):
        from dnclab.linalg import EventuallyConstSeq, apply_banded, matvec

        seq, state = self.ctx.seq, self.states[m - 1]
        first = matvec(seq.layer(1)[0], self.x)
        if self.padded:
            product = apply_banded(seq.masks.mask(m + 1), state)
            first = EventuallyConstSeq(first, 0.0)
        else:
            product = matvec(seq.layer(m + 1)[0], state)
        return self.ctx.restart_gap(product, first)


def empirical_lipschitz(act) -> float:
    """Largest secant slope of the scalar map over 4001 points of [-5, 5].

    This is the independent check against the declared constant: the
    returned value can never exceed the true Lipschitz constant, and for the
    piecewise-linear activations it attains it exactly on any grid that
    straddles the kink at 0.
    """
    grid = np.linspace(-5.0, 5.0, 4001)
    y = act.apply(grid)
    return float(np.max(np.abs(np.diff(y)) / np.diff(grid)))


def network_lipschitz_bound(seq, act, n: int, p) -> float:
    """(L*P)^n * prod_{j<=n} |W_j|_p — a Lipschitz constant for x -> N_n(x).

    Each layer is the composition of a W-multiplication (factor |W_j|), the
    sequence's pooling (factor P), and the activation (factor L); the product
    telescopes through the recursion.  The norms are taken one matrix at a
    time, in layer order.
    """
    from dnclab.linalg import induced_norm

    factor = act.lipschitz * seq.pooling.lipschitz(p)
    acc = 1.0
    for j in range(1, n + 1):
        acc *= factor * induced_norm(seq.layer(j)[0], p)
    return acc


def apriori_bound_at(ctx, n: int, x_bound: float) -> float:
    """The a-priori bound at depth n on its own, read through the context:
    the suffix products prod_{i=j+1..n} L*P*|W_i| multiplied from layer n
    down, then the terms added left to right from 0.0 in ascending j — the
    order the library is specified to use, so agreement is bit for bit."""
    factors = [ctx.L * ctx.P * ctx.weight_norm(j) for j in range(1, n + 1)]
    suffix = [1.0] * (n + 1)  # suffix[j] = prod_{i=j+1..n} factors
    for j in range(n - 1, 0, -1):
        suffix[j] = suffix[j + 1] * factors[j]  # factors[j] is layer j + 1
    terms = [
        suffix[j] * (ctx.L * ctx.bias_norm(j) + ctx.zero_image_norm(j))
        for j in range(1, n + 1)
    ]
    return suffix[1] * factors[0] * x_bound + left_to_right_sum(terms)


def mp_apriori_bounds(seq, act, p, depth: int, x_bound: float, dps: int = 50) -> list:
    """The a-priori bounds at depths 1 .. ``depth``, from the recursion

        a_0 = x_bound,  a_j = L P |W_j| a_{j-1} + L |b_j| + |(act o pool)(0_j)|

    at ``dps`` digits, for a zero-padded network at p = 1 or p = inf: the
    norms are exact sums of the absolute entries (column sums for |W_j|
    at p = 1, row sums at p = inf), and (act o pool)(0_j) is act(0) in
    each of the width(j) coordinates (pooling maps a zero vector to
    zeros)."""
    if not (p.is_inf or p.p == 1.0):
        raise ValueError("the a-priori oracle covers p = 1 and p = inf only")
    with mpmath.workdps(dps):
        L, P = _mp_constants(seq, act, p)
        bound, out = mpmath.mpf(x_bound), []
        for j in range(1, depth + 1):
            w = np.abs(seq.layer(j)[0])
            lines = w if p.is_inf else w.T
            weight = max(mpmath.fsum(map(mpmath.mpf, line.tolist())) for line in lines)
            bias = _mp_diff_norm(seq.bias(j), (), p)
            zero = _mp_diff_norm([act.value_at_zero] * seq.width(j), (), p)
            bound = L * P * weight * bound + L * bias + zero
            out.append(bound)
        return out


# ---------------------------------------------------------------------------
# the deviation and limit bounds, written out from their formulas in mpmath
# at p = 1 and p = inf, from the loop norms and the per-sample recursion
# above; under constant padding (p = inf) from the (head, tail) states of
# :func:`per_sample_constant_pad` and the mask sums
# ---------------------------------------------------------------------------

_CONSTANT_PAD = "constant_pad"  # the config's name of the extension


def _loop_norm(a, b, p) -> float:
    """|A - B| at p = 1 or p = inf, both zero-padded to a common shape (A
    alone if ``b`` is None), by the loop column or row sums."""
    a = np.asarray(a, dtype=np.float64)
    b = np.zeros((0, 0)) if b is None else np.asarray(b, dtype=np.float64)
    diff = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
    diff[: a.shape[0], : a.shape[1]] = a
    diff[: b.shape[0], : b.shape[1]] -= b
    if p.is_inf:
        return abs_row_sum_norm(diff)
    if p.p == 1.0:
        return abs_col_sum_norm(diff)
    raise ValueError("the formula oracles cover p = 1 and p = inf only")


def _mp_diff_norm(u, v, p) -> mpmath.mpf:
    """|u - v| at p = 1 or p = inf in mpmath, the shorter vector padded
    with zeros (|u| itself for an empty ``v``)."""

    def entry(vec, i):
        return mpmath.mpf(float(vec[i]) if i < len(vec) else 0.0)

    diffs = [abs(entry(u, i) - entry(v, i)) for i in range(max(len(u), len(v)))]
    return max(diffs) if p.is_inf else mpmath.fsum(diffs)


def _mp_seq_norm(u, v) -> mpmath.mpf:
    """|u - v| in l_inf of two eventually constant sequences, each a
    (head, tail) pair whose head is continued by its tail (|u| itself for
    v = None): the largest of the entry differences over the longer head
    and the tails' difference, in mpmath."""
    hu, tu = u
    hv, tv = (np.zeros(0), 0.0) if v is None else v

    def entry(head, tail, i):
        return mpmath.mpf(float(head[i]) if i < len(head) else float(tail))

    diffs = [
        abs(entry(hu, tu, i) - entry(hv, tv, i)) for i in range(max(len(hu), len(hv)))
    ]
    return max([abs(mpmath.mpf(float(tu)) - mpmath.mpf(float(tv))), *diffs])


def _state_gap(u, v, p, extension) -> mpmath.mpf:
    """|u - v| of two states of one sample in the extension (|u| for v =
    None): zero-padded vectors at p = 1 or inf, or (head, tail) sequences
    in l_inf under constant padding."""
    if extension == _CONSTANT_PAD:
        return _mp_seq_norm(u, v)
    return _mp_diff_norm(u, () if v is None else v, p)


def _sample_states(seq, act, x, n_max: int, extension) -> list:
    """States N_1(x) .. N_{n_max}(x) of one sample in the extension."""
    if extension == _CONSTANT_PAD:
        return per_sample_constant_pad(seq, act, x, n_max)
    return per_sample_trajectory(seq, act, x, n_max)


def _operator_gap(seq, p, j: int, k, extension):
    """|W_j| (k None), |W_j - W_k| or |W_j - W*| (k = "limit") in the
    extension: the loop sums of the zero-padded matrices or, under constant
    padding, the mpmath sum of the absolute mask differences (the exact
    norm of the constant-padded Toeplitz operator; the bounds read it past
    layer 1 only)."""
    if extension != _CONSTANT_PAD:
        b = None if k is None else seq.weight_limit if k == "limit" else seq.layer(k)[0]
        return _loop_norm(seq.layer(j)[0], b, p)
    masks = seq.masks
    a = masks.mask(j)
    b = np.zeros_like(a) if k is None else masks.limit if k == "limit" else masks.mask(k)
    return mpmath.fsum(
        abs(mpmath.mpf(float(u)) - mpmath.mpf(float(v))) for u, v in zip(a, b)
    )


def _restart_gap(seq, p, x, state, m: int, extension) -> mpmath.mpf:
    """|W_{m+1} N_m(x) - W_1 x| of one sample: zero-padded products, or
    under constant padding the banded product of ``state`` against W_1 x
    continued by 0.0."""
    first = rowwise_matvec(seq.layer(1)[0], x)
    if extension == _CONSTANT_PAD:
        product = elementwise_apply_banded(seq.masks.mask(m + 1), *state)
        return _mp_seq_norm(product, (first, 0.0))
    return _mp_diff_norm(rowwise_matvec(seq.layer(m + 1)[0], state), first, p)


def _mp_constants(seq, act, p) -> tuple:
    """(L, P): the activation's declared Lipschitz constant and the pooling
    constant at p = 1 or inf, which only max pooling at p = 1 lifts above 1
    (to its window)."""
    op = seq.pooling
    lift = op.kind == "max" and not p.is_inf
    return mpmath.mpf(act.lipschitz), mpmath.mpf(op.window if lift else 1)


def mp_deviation_bound(
    seq, act, p, x, n: int, m: int, dps: int = 50, extension: str = "zero_pad"
):
    """The deviation bound on |N_{n+m}(x) - N_n(x)| of one sample, in full:

        L sum_{i=0}^{n-1} Lam_i |b_{m+n-i} - b_{n-i}|
          + L P sum_{i=0}^{n-2} Lam_i |N_{n-1-i}(x)| |W_{m+n-i} - W_{n-i}|
          + L P Lam_{n-1} |W_{m+1} N_m(x) - W_1 x|

    with Lam_i = prod_{j=0}^{i-1} L P |W_{n+m-j}|, every product and sum
    at ``dps`` digits, the operator norms by the loop sums of the
    zero-padded matrices and the states by :func:`per_sample_trajectory`;
    under constant padding the operators past layer 1 by their mask sums
    and the states by :func:`per_sample_constant_pad`.
    """
    states = _sample_states(seq, act, x, max(n - 1, m), extension)
    with mpmath.workdps(dps):
        L, P = _mp_constants(seq, act, p)

        def lam(i):
            out = mpmath.mpf(1)
            for j in range(i):
                out *= L * P * _operator_gap(seq, p, n + m - j, None, extension)
            return out

        term1 = mpmath.fsum(
            lam(i) * _mp_diff_norm(seq.bias(m + n - i), seq.bias(n - i), p)
            for i in range(n)
        )
        term2 = mpmath.fsum(
            lam(i)
            * _state_gap(states[n - 2 - i], None, p, extension)
            * _operator_gap(seq, p, m + n - i, n - i, extension)
            for i in range(n - 1)
        )
        gap = _restart_gap(seq, p, x, states[m - 1], m, extension)
        return L * term1 + L * P * term2 + L * P * lam(n - 1) * gap


def mp_limit_bound(
    seq, act, p, n: int, constants, dps: int = 50, extension: str = "zero_pad"
):
    """The limit bound J(n) in full, from the certified ``constants``
    (omega0, w = weight_sup, rho, D = x_bound):

        L sum_{i=0}^{n-1} omega0^i |b_{n-i} - b*|
          + L P rho sum_{i=0}^{n-2} omega0^i |W_{n-i} - W*|
          + L P w (rho + D) omega0^{n-1}

    at ``dps`` digits, with the differences zero-padded (E past layer 1
    by the mask sums under constant padding)."""
    with mpmath.workdps(dps):
        L, P = _mp_constants(seq, act, p)
        w0 = mpmath.mpf(constants.omega0)
        rho = mpmath.mpf(constants.rho)
        term1 = mpmath.fsum(
            w0**i * _mp_diff_norm(seq.bias(n - i), seq.bias_limit, p)
            for i in range(n)
        )
        term2 = mpmath.fsum(
            w0**i * _operator_gap(seq, p, n - i, "limit", extension)
            for i in range(n - 1)
        )
        tail = mpmath.mpf(constants.weight_sup) * (rho + mpmath.mpf(constants.x_bound))
        return L * term1 + L * P * rho * term2 + L * P * tail * w0 ** (n - 1)


# ---------------------------------------------------------------------------
# a whole study, one sample and one cell at a time, zero-padded at p = 1 or
# p = inf or constant-padded at p = inf, from the per-sample recursions and
# the bound oracles above
# ---------------------------------------------------------------------------

_STUDY_SLACK = 1.0 + 1.0e-9  # the relative slack every inequality grants


def _scan_sup(values) -> tuple[float, int]:
    """(max, first index attaining it), scanning in sample order from
    (0.0, 0); a NaN never compares greater, so it is skipped."""
    best, at = 0.0, 0
    for i, v in enumerate(values):
        if v > best:
            best, at = v, i
    return best, at


def mp_study(
    seq, act, p, domain, sampler, depths, constants, scale=1.0,
    extension: str = "zero_pad",
) -> dict:
    """Every row, state row and violation list of a
    :func:`dnclab.study.convergence_study` in ``extension``, recomputed by
    loops.

    The states come from :func:`per_sample_trajectory` (under constant
    padding from :func:`per_sample_constant_pad`, normed per sample over
    head and tail in l_inf), their norms and deviations at 50 digits;
    each sample's deviation bound from
    :func:`mp_deviation_bound`, the a-priori bound from
    :func:`apriori_bound_at` at the domain's norm bound and each limit pair
    J(n) + J(k) from :func:`mp_limit_bound` with the study's certified
    ``constants`` (None: no limit checks).  Every bound is multiplied by
    ``scale``, so a test can plant violations.  Returns the rows and the
    state rows as tuples in the fields' order, and the violation keys
    ``dominance`` (n, m, sample), ``apriori`` (n, sample) and ``limit``
    (n, k), the grid's pairs before the state rows'.
    """
    from dnclab.analysis import BoundContext

    xs = domain.samples(sampler)
    ref = depths.reference
    states = [
        _sample_states(seq, act, x, depths.max_depth, extension) for x in xs
    ]
    out = {"rows": [], "state_rows": [], "dominance": [], "apriori": [], "limit": []}

    def norms(n, k=None):
        """|N_n(x)| of each sample, or |N_k(x) - N_n(x)| given k."""
        with mpmath.workdps(50):
            return [
                float(_state_gap(s[n - 1], None if k is None else s[k - 1], p, extension))
                for s in states
            ]

    def limit(sup_dev, n, k):
        if constants is None:
            return None, None
        with mpmath.workdps(50):
            pair = float(
                mp_limit_bound(seq, act, p, n, constants, extension=extension) * scale
                + mp_limit_bound(seq, act, p, k, constants, extension=extension) * scale
            )
        ok = sup_dev <= pair * _STUDY_SLACK
        if not ok:
            out["limit"].append((n, k))
        return pair, ok

    for n in depths.n_list:
        for m in depths.m_list:
            devs = norms(n, n + m)
            bounds = [
                float(
                    mp_deviation_bound(seq, act, p, x, n, m, extension=extension)
                    * scale
                )
                for x in xs
            ]
            bad = [i for i, (d, b) in enumerate(zip(devs, bounds)) if d > b * _STUDY_SLACK]
            out["dominance"] += [(n, m, i) for i in bad]
            sup_dev, worst = _scan_sup(devs)
            pair, limit_ok = limit(sup_dev, n, n + m)
            out["rows"].append(
                (n, m, sup_dev, _scan_sup(bounds)[0], pair, not bad, limit_ok, worst)
            )

    ctx = BoundContext(seq, act, p, extension)
    for n in (*depths.n_list, ref):
        sizes = norms(n)
        apriori = apriori_bound_at(ctx, n, domain.norm_bound(p)) * scale
        bad = [i for i, v in enumerate(sizes) if v > apriori * _STUDY_SLACK]
        out["apriori"] += [(n, i) for i in bad]
        row = (n, _scan_sup(sizes)[0], apriori, not bad)
        if n == ref:
            out["state_rows"].append((*row, None, None, None))
            continue
        dev_ref = _scan_sup(norms(n, ref))[0]
        out["state_rows"].append((*row, dev_ref, *limit(dev_ref, n, ref)))
    return out


def is_rate_instance(inst) -> bool:
    """Whether the corpus ``inst`` is an exponential-drift instance dialed
    to omega = 0.6, rate = 0.5: one whose fitted convergence rate has a
    sharp prediction."""
    return (
        inst.gen.family == "exp_decay"
        and inst.omega_target == 0.6
        and inst.gen.rate == 0.5
    )
