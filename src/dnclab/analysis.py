"""Convergence conditions, theoretical bounds, and empirical probes.

This module turns the layer data into numbers on both sides of each
inequality the laboratory verifies:

* the **omega condition** lim L*P*|W_n| < 1 (:func:`check_condition`) and
  the three convolution-mask conditions (:func:`check_mask_conditions`),
  evaluated analytically when limits are declared and by labelled window
  scans otherwise; :func:`network_verdicts` gives a network every
  x-independent verdict, these and the certified limit constants;
* the **a-priori bound** on state norms (:func:`apriori_bound_ctx`);
* the three-term **deviation bound** on |N_{n+m}(x) - N_n(x)|
  (:func:`deviation_bound_ctx`), the workhorse inequality whose structure is

      L * sum_i  Lam^{i-1} * |b_{m+n-i} - b_{n-i}|
    + L*P * sum_i  Lam^{i-1} * |N_{n-1-i}(x)| * |W_{m+n-i} - W_{n-i}|
    + L*P * Lam^{n-2} * |W_{m+1} N_m(x) - W_1 x|

  with Lam^i = prod_{j=0..i} L*P*|W_{n+m-j}| and the empty product
  Lam^{-1} = 1;
* the **limit bound** J on the distance to the limit network
  (:func:`limit_bound_ctx`), with certified constants derived in
  :func:`derive_limit_constants`.  J is the deviation shape with m -> inf
  under three substitutions: Lam^{i-1} becomes omega0^i, the visited state
  norms become rho, and the restart gap becomes w * (rho + D).  One private
  engine evaluates that shape for both bounds;
* the empirical side of all samples at once (:class:`Trajectory`), the
  exponential-rate fit (:func:`fit_exponential_rate`), and exact oracles
  for the two scalar sequence lemmas behind the convergence proofs.

Every bound takes a :class:`BoundContext`, which caches the x-independent
data of one layer sequence and norm and measures in its extension, the
scheme that compares networks of different widths.  The sequence states
the recursion it runs: its pooling gives the factor P, and a convolution's
masks give the mask conditions and the constant-padded operators.  The
context class is the extension: :class:`BoundContext` itself pads weights
and biases with zeros and states with the activation's value at zero
(which literal zero padding matches exactly whenever act(0) = 0); its
subclass :class:`ConstantPad` compares constant-padded convolutional
sequences in l_inf with the exact mask-sum operator norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .activations import Activation
from .linalg import (
    INF,
    EventuallyConstSeq,
    PNorm,
    induced_norm,
    seq_sum,
    stacked_norms,
    vector_norm,
)
from .network import LayerSeq, eval_extended_trajectory, eval_trajectory

__all__ = [
    "Domain",
    "SamplerSpec",
    "ConditionVerdict",
    "check_condition",
    "check_mask_conditions",
    "network_verdicts",
    "ZERO_PAD",
    "CONSTANT_PAD",
    "ConstantPad",
    "BoundContext",
    "Trajectory",
    "state_deviation",
    "apriori_bound_ctx",
    "deviation_bound_ctx",
    "LimitConstants",
    "derive_limit_constants",
    "limit_bound_ctx",
    "RateFit",
    "fit_exponential_rate",
    "cumulative_products",
    "tail_product_sums",
    "weighted_tail_sums",
]


# ---------------------------------------------------------------------------
# sampling domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw inputs from the domain: 'uniform' (count, seed) or 'grid'."""

    kind: str = "uniform"
    count: int = 100
    seed: int = 0
    points_per_axis: int = 5

    def __post_init__(self):
        if self.kind not in ("uniform", "grid"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kind == "uniform" and self.count < 1:
            raise ValueError("uniform sampler needs count >= 1")
        if self.seed < 0:
            raise ValueError(f"sampler seed must be >= 0, got {self.seed}")
        if self.kind == "grid" and self.points_per_axis < 2:
            raise ValueError("grid sampler needs at least 2 points per axis")


@dataclass(frozen=True)
class Domain:
    """The hypercube [-bound, bound]^dim.

    Formulas that consume "the bound on |x|" must use :meth:`norm_bound`,
    not ``bound``: samples from the cube reach l_p norm bound * dim^(1/p)
    for finite p, and the a-priori/limit bounds are only dominating if they
    are evaluated at that value.  The diameter 2 * bound must be finite,
    as the uniform sampler draws from an interval of that length.
    """

    dim: int
    bound: float

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError(f"domain dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        b = float(self.bound)
        if not (b > 0.0 and math.isfinite(b)):
            raise ValueError(f"domain bound must be positive and finite, got {self.bound}")
        if not math.isfinite(2.0 * b):
            raise ValueError(f"domain diameter 2 * bound must be finite, got bound {self.bound}")
        object.__setattr__(self, "bound", b)

    def norm_bound(self, p: PNorm) -> float:
        """sup of |x|_p over the cube: bound * dim^(1/p), bound at p = inf."""
        if p.is_inf:
            return self.bound
        return self.bound * float(self.dim) ** (1.0 / p.p)

    def uniform_samples(self, count: int, seed: int) -> np.ndarray:
        """`count` uniform draws from the cube (PCG64 stream, fixed seed),
        one sample per row."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
        return _frozen(rng.uniform(-self.bound, self.bound, (int(count), self.dim)))

    def grid_samples(self, points_per_axis: int) -> np.ndarray:
        """The tensor grid with ``points_per_axis`` points per axis, one
        point per row."""
        k = int(points_per_axis)
        if k**self.dim > 20000:
            raise ValueError(
                f"grid of {k}^{self.dim} points is too large; use the uniform sampler"
            )
        axis = np.linspace(-self.bound, self.bound, k)
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return _frozen(np.stack([m.reshape(-1) for m in mesh], axis=1))

    def samples(self, spec: SamplerSpec) -> np.ndarray:
        if spec.kind == "uniform":
            return self.uniform_samples(spec.count, spec.seed)
        return self.grid_samples(spec.points_per_axis)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# condition verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a convergence-condition check.

    ``estimate`` is the limit value being tested (omega for weight-norm
    checks, the fitted rate for the exponential mask check), ``method``
    records whether it is analytic (declared limits) or a labelled window
    scan, and ``margin`` is the distance to the pass/fail threshold
    (positive iff passed, threshold - estimate for "below threshold" tests).
    """

    estimate: float
    passed: bool
    method: str
    margin: float
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


# the scan window of the condition checks when no limit is declared
_WINDOW = (8, 64)
# the last layer the limit constants scan; layers past it are capped
# through the declared decay
_SCAN_END = 48


def check_condition(ctx: BoundContext) -> ConditionVerdict:
    """Verdict on the central condition omega = lim L*P*|W_n|_p < 1 (strict).

    With declared limits the estimate is analytic: L*P*|W*|_p (norm
    continuity), or L*P*sum|w*_k| for convolutional sequences.  Otherwise it
    is the labelled maximum of L*P*|W_n|_p over the scan window [8, 64],
    taken on the finite weight matrices in either extension
    (:meth:`BoundContext.finite_weight_norms`).
    """
    lp = ctx.L * ctx.P
    masks = ctx.seq.masks
    if masks is not None:
        limit_norm = None if masks.limit is None else seq_sum(np.abs(masks.limit))
    else:
        limit_norm = ctx.weight_limit_norm
    if limit_norm is not None:
        est = lp * limit_norm
        method = "analytic"
    else:
        n0, n1 = _WINDOW
        est = max(lp * w for w in ctx.finite_weight_norms(n0, n1))
        method = f"tail-scan[{n0},{n1}]"
    return ConditionVerdict(est, est < 1.0, method, 1.0 - est)


_EXP_FIT_R2_MIN = 0.98


def check_mask_conditions(masks, act: Activation) -> dict[str, ConditionVerdict]:
    """The three mask conditions for convolutional layer sequences, scanned
    (where no limit mask is declared) over the window [8, 64].

    * ``vanishing`` — mask coefficients tend to 0 (so the zero-padded
      operators vanish in norm).  Analytic when a limit mask is declared;
      otherwise the endpoint-halving scan max|w(N1)| <= 0.5 * max|w(N0)|.
    * ``mask_sum`` — lim L * sum_k |w_k^(n)| < 1, the constant-padding
      contraction condition.  Analytic via the declared limit, else the
      window maximum of L * sum_k |w_k^(n)|.
    * ``exponential`` — max_k |w_k^(n) - w*_k| = O(r^n): always a log-linear
      fit over the window, passing iff the fitted r < 1 with R^2 >= 0.98
      (sub-exponential decay such as 1/n fails the R^2 gate).
    """
    n0, n1 = _WINDOW
    L = act.lipschitz
    out: dict[str, ConditionVerdict] = {}

    if masks.limit is not None:
        lim = masks.limit
        peak = float(np.max(np.abs(lim))) if lim.size else 0.0
        out["vanishing"] = ConditionVerdict(
            peak, peak == 0.0, "analytic", -peak, "max |limit coefficient|"
        )
        s = L * seq_sum(np.abs(lim))
        out["mask_sum"] = ConditionVerdict(
            s, s < 1.0, "analytic", 1.0 - s, "L * sum_k |w*_k|"
        )
    else:
        m0 = float(np.max(np.abs(masks.mask(n0))))
        m1 = float(np.max(np.abs(masks.mask(n1))))
        thresh = 0.5 * m0
        out["vanishing"] = ConditionVerdict(
            m1,
            m1 == 0.0 or m1 <= thresh,
            f"tail-scan[{n0},{n1}]",
            thresh - m1,
            "endpoint-halving rule: max|w(N1)| <= 0.5 max|w(N0)|",
        )
        s = max(L * masks.abs_sum(n) for n in range(n0, n1 + 1))
        out["mask_sum"] = ConditionVerdict(
            s, s < 1.0, f"tail-scan[{n0},{n1}]", 1.0 - s, "window max of L*sum|w_k|"
        )

    lim = masks.limit if masks.limit is not None else np.zeros(masks.tau + 1)
    ns = list(range(n0, n1 + 1))
    peaks = [float(np.max(np.abs(masks.mask(n) - lim))) for n in ns]
    if all(v == 0.0 for v in peaks):
        out["exponential"] = ConditionVerdict(
            0.0, True, f"fit[{n0},{n1}]", 1.0, "mask is exactly constant at its limit"
        )
    else:
        try:
            fit = fit_exponential_rate(peaks, ns)
            ok = fit.rate < 1.0 and fit.r_squared >= _EXP_FIT_R2_MIN
            out["exponential"] = ConditionVerdict(
                fit.rate,
                ok,
                f"fit[{n0},{n1}]",
                1.0 - fit.rate,
                f"log-linear fit, R^2={fit.r_squared:.6f}",
            )
        except ValueError as exc:
            out["exponential"] = ConditionVerdict(
                math.nan, False, f"fit[{n0},{n1}]", math.nan, f"fit failed: {exc}"
            )
    return out


# ---------------------------------------------------------------------------
# bound context: one formula, two extensions (zero-padded / constant-padded)
# ---------------------------------------------------------------------------

# the names of the two extensions (:meth:`BoundContext.scheme`)
ZERO_PAD = "zero_pad"
CONSTANT_PAD = "constant_pad"


def state_deviation(a: np.ndarray, b: np.ndarray, p: PNorm, fill: float):
    """|a - b|_p with the shorter state extended by the network's padding
    value ``fill`` (the activation's value at zero); per column for
    batches of states."""
    if a.shape[0] == b.shape[0]:
        return vector_norm(a - b, p)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("state_deviation: states of different widths must be finite")
    out = np.zeros(_padded_shape(a, b))
    _write_padded_diff(out, a, b, fill)
    return vector_norm(out, p)


def _padded_shape(a: np.ndarray, b: np.ndarray | None) -> tuple[int, ...]:
    """The common shape of ``a`` and ``b`` zero-padded (``a``'s, if b is None)."""
    return a.shape if b is None else tuple(map(max, a.shape, b.shape))


def _write_padded_diff(
    out: np.ndarray, a: np.ndarray, b: np.ndarray | None, fill: float = 0.0
) -> None:
    """Write a - b, both zero-padded to ``out``'s shape, into the zeroed
    ``out`` (``a`` alone if b is None); vectors or matrices.  A non-zero
    ``fill`` pads states instead, which differ in their first axis only:
    past the shorter one, the rows read a_i - fill or fill - b_i."""
    out[tuple(map(slice, a.shape))] = a
    if b is not None:
        out[tuple(map(slice, b.shape))] -= b
        if fill:  # at most one of the two tails is non-empty
            out[b.shape[0] :] -= fill
            out[a.shape[0] :] += fill


class BoundContext:
    """Caches the x-independent norm and difference data the bounds consume,
    and measures in the network's extension.

    One instance per (layer sequence, activation, p, extension); the caches
    matter because the study grid revisits the same weight-difference norms
    for every (n, m) pair and sample.  ``BoundContext(seq, act, p,
    extension)`` returns the class of the extension (:meth:`scheme`): this
    class for ``zero_pad``, :class:`ConstantPad` for ``constant_pad``.  The
    sequence says which recursion it runs (its ``pooling`` and ``masks``).

    Under zero padding states are finite in l_p: weights, biases and
    pre-activations are padded with zeros, states with act(0).  Every
    weight-operator norm, in the extension, lives in one cache keyed by its
    operator: ``("W", n)`` for W_n, ``("dW", j, k)`` for W_j - W_k and
    ``("E", k)`` for W_k - W*.  Only :meth:`prefetch` fills it, in one batch
    (:meth:`norms`); a read that misses prefetches its own key.  Biases are
    zero-padded under both schemes.  The state methods take a whole batch
    of samples (one per column) and return one value per sample.
    """

    def __new__(cls, seq, act, p, extension: str = ZERO_PAD):
        chosen = BoundContext.scheme(extension, seq, p)
        if not issubclass(chosen, cls):
            raise ValueError(f"the {extension!r} extension is not a {cls.__name__}")
        return super().__new__(chosen)

    def __init__(
        self, seq: LayerSeq, act: Activation, p: PNorm, extension: str = ZERO_PAD
    ):
        self.seq = seq
        self.act = act
        self.p = p
        self.L = act.lipschitz
        self.P = seq.pooling.lipschitz(p)
        # a vanishing conv mask has the zero operator as its limit, so there
        # |W_k - W*| is |W_k| and the two keys share one entry
        self._zero_limit = seq.masks is not None and self.weight_limit_norm == 0.0
        self._norms: dict[tuple, float] = {}

        # the caches below close over the layer data, not over the context,
        # so a dropped context is freed without the cycle collector
        @functools.cache
        def bias_gap(j, k):  # layer None stands for the declared limit b*
            # the biases are frozen and finite, so their zero-padded
            # difference is written straight into one fresh vector
            a, b = (seq.bias_limit if n is None else seq.bias(n) for n in (j, k))
            gap = np.zeros(_padded_shape(a, b))
            _write_padded_diff(gap, a, b)
            return vector_norm(gap, p)

        self._bias_gap = bias_gap
        self._bias_norm = functools.cache(lambda n: vector_norm(seq.bias(n), p))
        # |(act o pool)(0)| by pre-pooling dimension, the only input it has
        self._zero_image = functools.cache(
            lambda dim: vector_norm(act.apply(seq.pooling.pool(np.zeros(dim))), p)
        )

    @staticmethod
    def scheme(extension: str, seq: LayerSeq, p: PNorm) -> type:
        """The context class of the ``extension`` scheme, after checking
        that the scheme applies to the network and the norm."""
        if extension == ZERO_PAD:
            return BoundContext
        if extension != CONSTANT_PAD:
            raise ValueError(f"unknown extension scheme {extension!r}")
        if seq.masks is None:
            raise ValueError("constant padding applies to convolutional networks")
        if not p.is_inf:
            raise ValueError("constant-padded comparisons use the l_inf sequence metric")
        return ConstantPad

    # -- what the extension decides ----------------------------------------

    @functools.cached_property
    def weight_limit_norm(self) -> float | None:
        """|W*|, or None when the extension has no declared limit operator."""
        if self.seq.masks is not None:
            lim = self.seq.masks.limit
            # only a vanishing mask has a zero-padded limit operator
            return None if lim is None or lim.any() else 0.0
        lim = self.seq.weight_limit
        return None if lim is None else induced_norm(lim, self.p)

    @property
    def has_limits(self) -> bool:
        return self.weight_limit_norm is not None and self.seq.bias_limit is not None

    def tail_cap_refusal(self) -> str | None:
        """Why the state norms admit no certified sup, or None: padded
        coordinates carry act(0), so on the unbounded widths of a convolution
        their finite-p norm grows without limit."""
        if self.seq.masks is not None and self.act.value_at_zero and not self.p.is_inf:
            return (
                "act(0) != 0 on unbounded widths admits no finite-p tail cap; "
                "use p = inf"
            )
        return None

    def norms(self, keys) -> list[float]:
        """The norms of the operators named by ``keys``, computed afresh:
        one stack per shape, whose members are written from the weights
        a block of rows at a time, and one ``induced_norm`` call each."""
        pairs = [self._operator(*key) for key in keys]

        def write(i, out, rows):
            a, b = pairs[i]
            _write_padded_diff(out, a[rows], None if b is None else b[rows])

        return stacked_norms([_padded_shape(*pair) for pair in pairs], write, self.p)

    def _operator(self, tag: str, a: int, b: int | None = None) -> tuple:
        """The operator named by a key, as the pair (A, B) of matrices whose
        zero-padded difference it is; B is None for W_n itself."""
        w = self.seq.layer(a)[0]
        if tag == "W":
            return w, None
        if tag == "dW":
            return w, self.seq.layer(b)[0]
        if self.seq.weight_limit is None:
            raise ValueError("no declared weight limit")
        return w, self.seq.weight_limit

    def finite_weight_norms(self, lo: int, hi: int) -> list[float]:
        """|W_lo| .. |W_hi| of the finite weight matrices, whatever the
        extension.  Under zero padding these are the cache's ``("W", n)``
        entries, prefetched in one batch."""
        ns = range(lo, hi + 1)
        self.prefetch(("W", n) for n in ns)
        return [self.weight_norm(n) for n in ns]

    def zero_image_norm(self, n: int) -> float:
        """|(act o pool)(0)| at layer n — the additive constant of the
        a-priori recursion."""
        return self._zero_image(self.seq.width(n) + self.seq.pooling.mu)

    def states(self, x, depth: int, select) -> list:
        return eval_trajectory(self.seq, self.act, x, depth, select)

    def keep(self, value):
        """A product or state of the sweep held past its step: a copy, as
        the sweep may write the next layer into the same memory."""
        return value.copy()

    def restart_gap(self, product, first) -> float:
        """|W_{m+1} N_m(x) - W_1 x| from the sweep's products ``product`` =
        W_{m+1} N_m(x) and ``first`` = W_1 x, the shorter one padded with 0
        (a product has not met the activation)."""
        return state_deviation(product, first, self.p, 0.0)

    def state_norm(self, state) -> float:
        return vector_norm(state, self.p)

    def distance(self, a, b) -> float:
        return state_deviation(a, b, self.p, self.act.value_at_zero)

    # -- the caches ---------------------------------------------------------

    def _key(self, key: tuple) -> tuple:
        return ("W", key[1]) if key[0] == "E" and self._zero_limit else key

    def prefetch(self, keys) -> None:
        """Fill the norm cache for the operator ``keys`` in one batch (one
        stacked norm call per shape); entries already cached are not
        computed again."""
        missing = [
            key for key in dict.fromkeys(map(self._key, keys)) if key not in self._norms
        ]
        self._norms.update(zip(missing, self.norms(missing)))

    def _norm(self, key: tuple) -> float:
        got = self._norms.get(key)
        if got is None:
            self.prefetch([key])
            got = self._norms[key]
        return got

    def weight_norm(self, n: int) -> float:
        return self._norm(("W", n))

    def weight_diff(self, j: int, k: int) -> float:
        """|W_j - W_k| in the extension."""
        return self._norm(("dW", j, k))

    def weight_limit_diff(self, k: int) -> float:
        """E_k = |W_k - W*| in the extension."""
        return self._norm(self._key(("E", k)))

    def bias_diff(self, j: int, k: int) -> float:
        """|b_j - b_k| with zero padding across widths."""
        return self._bias_gap(j, k)

    def bias_limit_diff(self, k: int) -> float:
        """e_k = |b_k - b*| (zero-padded across widths)."""
        if self.seq.bias_limit is None:
            raise ValueError("no declared bias limit")
        return self._bias_gap(k, None)

    def bias_norm(self, n: int) -> float:
        return self._bias_norm(n)

    def lambda_products(self, top: int, count: int) -> list[float]:
        """vals[i] = Lam^{i-1} = prod_{j=0..i-1} L*P*|W_{top-j}|, vals[0]=1."""
        vals = [1.0]
        acc = 1.0
        for j in range(count):
            acc *= self.L * self.P * self.weight_norm(top - j)
            vals.append(acc)
        return vals


class ConstantPad(BoundContext):
    """Constant-padded convolutional sequences in l_inf: layer 1 keeps its
    zero-padded matrix, later layers act by their constant-padded Toeplitz
    operators, whose induced norms are the exact absolute mask sums."""

    @functools.cached_property
    def weight_limit_norm(self) -> float | None:
        lim = self.seq.masks.limit
        return None if lim is None else seq_sum(np.abs(lim))

    def norms(self, keys) -> list[float]:
        """Mask sums are exact and cheap, so they are taken one at a time."""
        return [self._mask_norm(*key) for key in keys]

    def _mask_norm(self, tag: str, a: int, b: int | None = None) -> float:
        if tag == "W":
            if a == 1:  # layer 1 keeps its zero-padded matrix
                return super().norms([(tag, a)])[0]
            return self.seq.masks.abs_sum(a)
        if tag == "dW":
            return seq_sum(np.abs(self._mask(a) - self._mask(b)))
        lim = self.seq.masks.limit
        if lim is None:
            raise ValueError("no declared mask limit")
        return seq_sum(np.abs(self._mask(a) - lim))

    def _mask(self, n: int) -> np.ndarray:
        if n < 2:
            raise ValueError(
                "constant-padded weight differences are defined for layers >= 2"
            )
        return self.seq.masks.mask(n)

    def finite_weight_norms(self, lo: int, hi: int) -> list[float]:
        """The cache holds the mask sums from layer 2 on, so those layers'
        finite matrices are normed afresh through the zero-pad operator
        path; layer 1 is its finite matrix in both and comes from the
        cache."""
        later = super().norms([("W", n) for n in range(max(lo, 2), hi + 1)])
        return [self.weight_norm(1), *later] if lo == 1 else later

    def zero_image_norm(self, n: int) -> float:
        return abs(self.act.value_at_zero)

    def states(self, x, depth: int, select) -> list:
        return eval_extended_trajectory(self.seq, self.act, x, depth, select)

    def restart_gap(self, product, first) -> float:
        return self.distance(product, first)

    def state_norm(self, state) -> float:
        return state.norm(INF)

    def distance(self, a, b) -> float:
        return _sup_distance(a, b)


def _sup_distance(a: EventuallyConstSeq, b: EventuallyConstSeq):
    """Per-column l_inf norm of ``a - b``, taken one segment at a time
    without building the difference sequence: the shared head, the longer
    head against the shorter tail, then the two tails.  The maximum of the
    segment maxima has the bits of ``(a - b).norm(INF)``, and a difference
    that overflows is refused with the message that sequence would give."""
    k = min(a.head_len, b.head_len)
    longer, shorter = (a, b) if a.head_len > b.head_len else (b, a)
    tail = np.abs(a.tail - b.tail)
    out = tail
    for d in (a.head[:k] - b.head[:k], longer.head[k:] - shorter.tail):
        if d.shape[0]:
            top = np.abs(d, out=d).max(axis=0)
            if not np.isfinite(top).all():
                raise ValueError("sequence head entries must be finite")
            out = np.maximum(top, out)
    if not np.isfinite(tail).all():
        raise ValueError("sequence tail must be finite")
    return float(out) if a.head.ndim == 1 else out


# a batch of more samples is swept in even column chunks of at most this many
_CHUNK_SAMPLES = 512


class Trajectory:
    """The reads a caller declares, taken from one recursion sweep.

    ``x`` is one input vector or a ``(dim, S)`` batch holding one sample per
    column.  The caller names every read before the sweep starts: the state
    norms |N_n(x)| at the depths in ``norms``, the deviation
    |N_b(x) - N_a(x)| of each pair (a, b) in ``pairs`` and, at each m in
    ``gaps``, the restart gap |W_{m+1} N_m(x) - W_1 x|.  One sweep to
    ``depth`` (one step per layer for the whole batch) takes each read as
    soon as its depth is reached: a norm at n, a deviation at b, a gap at
    m + 1 from the products the sweep computes anyway.  A state is held
    only from a to the last b it is paired with (and W_1 x until the last
    gap), as a copy, since the sweep's values are valid for one step.  A
    batch of more than 512 samples is swept in ceil(S / 512) even chunks
    of columns, one after the other, and each read is joined from theirs:
    a read has the same bits in any batch, so chunking changes none.  So
    memory is O(distinct a * width * min(S, 512)), not O(depth * width *
    S), and nothing is held after the sweep.  Each read is one value per
    sample (an array of S, or a float for a vector).  Reading anything
    that was not declared raises a ValueError.
    """

    def __init__(
        self, ctx: BoundContext, x, depth: int, *, norms=(), pairs=(), gaps=()
    ):
        depth = int(depth)
        norm_at = frozenset(map(int, norms))
        pairs = sorted({(int(a), int(b)) for a, b in pairs})
        gap_at = frozenset(map(int, gaps))
        reached = {*norm_at, *(n for pair in pairs for n in pair)}
        reached.update(m + 1 for m in gap_at)
        outside = sorted(n for n in reached if not 1 <= n <= depth)
        if outside:
            raise ValueError(
                f"declared reads at depths {outside} lie outside 1..{depth}"
            )
        backward = [pair for pair in pairs if pair[0] >= pair[1]]
        if backward:
            raise ValueError(f"deviation pairs {backward} need a < b")
        partners: dict[int, list[int]] = {}  # b -> the a it is compared with
        until: dict[int, int] = {}  # a -> the last b it is compared with
        for a, b in pairs:
            partners.setdefault(b, []).append(a)
            until[a] = b
        last_gap = max(gap_at, default=0)

        def sweep(x) -> tuple[dict, dict, dict]:
            norms_at, devs, gaps_at, held = {}, {}, {}, {}
            first = None

            def select(n, product, state):
                nonlocal first
                if n == 1:
                    first = ctx.keep(product) if gap_at else None
                elif n - 1 in gap_at:
                    gaps_at[n - 1] = ctx.restart_gap(product, first)
                if n > last_gap:
                    first = None  # W_1 x: no later gap reads it
                if n in norm_at:
                    norms_at[n] = ctx.state_norm(state)
                for a in partners.get(n, ()):
                    devs[a, n] = ctx.distance(state, held[a])
                    if until[a] == n:
                        del held[a]
                if n in until:
                    held[n] = ctx.keep(state)

            ctx.states(x, depth, select)  # validates x and depth
            return norms_at, devs, gaps_at

        if np.ndim(x) == 2 and np.shape(x)[1] > _CHUNK_SAMPLES:
            x = np.asarray(x)
            count = -(-x.shape[1] // _CHUNK_SAMPLES)
            edges = [x.shape[1] * i // count for i in range(count + 1)]
            parts = [sweep(x[:, lo:hi]) for lo, hi in zip(edges, edges[1:])]
            taken = []
            for pieces in zip(*parts):  # one kind of read, one dict per chunk
                keys = list(pieces[0])
                # each read joined, its chunks' pieces dropped as it is
                taken.append({k: np.concatenate([p.pop(k) for p in pieces]) for k in keys})
        else:
            taken = sweep(x)
        self._norms, self._deviations, self._gaps = taken

    def _read(self, taken: dict, key, what: str):
        try:
            return taken[key]
        except KeyError:
            raise ValueError(f"{what} was not declared") from None

    def state_norm(self, n: int):
        """|N_n(x)| in the extension's norm."""
        return self._read(self._norms, n, f"state norm at depth {n}")

    def deviation(self, n_small: int, n_large: int):
        """|N_{n_large}(x) - N_{n_small}(x)| in the extension metric."""
        key = (n_small, n_large)
        return self._read(self._deviations, key, f"deviation of depths {key}")

    def product_gap(self, m: int):
        """|W_{m+1} N_m(x) - W_1 x| — the pre-activation mismatch between
        restarting the recursion at depth m and at the input."""
        return self._read(self._gaps, m, f"restart gap at depth {m}")


# ---------------------------------------------------------------------------
# the bounds
# ---------------------------------------------------------------------------


def apriori_bound_ctx(ctx: BoundContext, n: int, x_bound: float) -> float:
    """Upper bound on |N_n(x)| over |x| <= x_bound:

        prod_{j<=n} (L*P*|W_j|) * x_bound
        + sum_{j<=n} prod_{i=j+1..n} (L*P*|W_i|) * (L*|b_j| + |(act o pool)(0_j)|)

    where 0_j is the zero vector of the layer's pre-pooling dimension.
    """
    return _apriori_bounds(ctx, (n,), x_bound)[0]


def _apriori_bounds(ctx: BoundContext, depths, x_bound: float) -> list[float]:
    """:func:`apriori_bound_ctx` at each depth of ``depths``, in order.

    The factors L*P*|W_j| and the constants L*|b_j| + |(act o pool)(0_j)|
    are formed once per layer up to the deepest depth.  Each depth n then
    takes its own suffix products prod_{i=j+1..n}, multiplied right to left
    from layer n, and its own ascending :func:`seq_sum` of the terms, so
    every bound has the bits of a separate evaluation at n.
    """
    depths = list(depths)
    if min(depths) < 1:
        raise ValueError(f"depth must be >= 1, got {min(depths)}")
    top = max(depths)
    lp = ctx.L * ctx.P
    factors = [lp * ctx.weight_norm(j) for j in range(1, top + 1)]
    consts = [
        ctx.L * ctx.bias_norm(j) + ctx.zero_image_norm(j) for j in range(1, top + 1)
    ]
    out = []
    for n in depths:
        # layer j's term, written in descending j, takes suffix =
        # prod_{i=j+1..n} factors; the loop ends with the full product
        suffix = 1.0
        terms = [0.0] * n
        for j in range(n, 0, -1):
            terms[j - 1] = suffix * consts[j - 1]
            suffix *= factors[j - 1]
        out.append(suffix * x_bound + seq_sum(terms))
    return out


def _three_term_bound(
    ctx: BoundContext, n: int, discount, bias_drift, weight_drift, state_norm, scale, gap
):
    """The three-term shape of the deviation and the limit bound:

        L * sum_{i<n} d_i * e(n-i)
          + L*P*s * sum_{i<n-1} d_i * sigma(n-1-i) * E(n-i)
          + L*P * prod(gap)

    with d_i = ``discount[i]``, e = ``bias_drift``, E = ``weight_drift``,
    sigma = ``state_norm`` (per sample, or one value) and s = ``scale``.
    Each sum runs up from 0.0 in ascending i, as :func:`seq_sum` adds, and
    the product runs left to right from L*P.  A factor of 1.0 is exact, so
    s = 1 keeps the state norms inside each term and sigma = 1 keeps s
    outside the sum, each with its own bits.

    The prefactors L, L*P*s and L*P come straight from the deviation
    estimate; wrapping the last two terms in another factor of L would
    undershoot the actual deviation whenever L < 1 (the sigmoid's 1/4).
    """
    lp = ctx.L * ctx.P
    term1 = ctx.L * seq_sum([discount[i] * bias_drift(n - i) for i in range(n)])
    weighted = 0.0
    for i in range(n - 1):
        weighted = weighted + discount[i] * state_norm(n - 1 - i) * weight_drift(n - i)
    return term1 + lp * scale * weighted + math.prod(gap, start=lp)


def deviation_bound_ctx(ctx: BoundContext, traj: Trajectory, n: int, m: int):
    """Three-term upper bound on |N_{n+m}(x) - N_n(x)| at each sample of
    ``traj`` (an array of S bounds for a batch, a float for one sample).

    Term 1 aggregates bias drifts |b_{k+m} - b_k|, term 2 weight drifts
    |W_{k+m} - W_k| weighted by the visited state norms, and term 3 charges
    the depth-m head start |W_{m+1} N_m(x) - W_1 x|; each is discounted by
    the contraction products Lam of the layers still to come.  The bound is
    tight: a scalar constant-weight network achieves equality.  ``traj``
    must declare the state norms at depths 1 .. n - 1 and the restart gap
    at m.  Lam and term 1 do not depend on x and are built once for the
    whole batch.
    """
    if n < 1 or m < 1:
        raise ValueError("deviation bound needs n >= 1 and m >= 1")
    vals = ctx.lambda_products(n + m, n - 1)  # vals[i] = Lam^{i-1}
    return _three_term_bound(
        ctx, n, vals,
        lambda k: ctx.bias_diff(m + k, k),
        lambda k: ctx.weight_diff(m + k, k),
        traj.state_norm, 1.0, (vals[n - 1], traj.product_gap(m)),
    )


# ---------------------------------------------------------------------------
# limit bound and its certified constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitConstants:
    """Certified constants for the limit bound.

    omega0: bound on L*P*|W_n| over every layer n >= 2 (strictly below 1);
    weight_sup: upper bound w on sup_n |W_n|;
    rho: upper bound on sup_{n, |x|<=D} |N_n(x)|;
    x_bound: the domain norm bound D.  ``note`` records the scan provenance.
    """

    omega0: float
    weight_sup: float
    rho: float
    x_bound: float
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _scan_keys(ctx: BoundContext) -> list[tuple]:
    """The keys of the operator norms :func:`derive_limit_constants` reads,
    in one batch: |W_1| .. |W_48| and E_48; none when the network gets no
    scan (no declared limits, or a tail-cap refusal)."""
    if not ctx.has_limits or ctx.tail_cap_refusal() is not None:
        return []
    return [*(("W", n) for n in range(1, _SCAN_END + 1)), ("E", _SCAN_END)]


def derive_limit_constants(
    ctx: BoundContext, x_bound: float
) -> tuple[LimitConstants | None, str]:
    """Derive (omega0, w, rho) from declared limits and a scan of layers
    1 .. 48.

    The unscanned tail is capped through the declared decay: past the scan
    end, |W_n| <= |W*| + E_end and |b_n| <= |b*| + e_end, and the a-priori
    recursion value(n+1) <= omega0 * value(n) + K yields the sup
    rho = max(scanned a-priori values, K / (1 - omega0)).  The caps presume
    that e_n and E_n do not grow past the scan end, which is not checked.
    The shipped families decay in the generator's ``norm_p``, but not
    always in a different study norm: ``random_convergent`` (width 4, rate
    0.9, ``norm_p`` 1) in a p = 2 study has E_49 > E_48 for seed 7 and
    e_49 > e_48 for seeds 4, 7 and 9 of seeds 0..9.  There omega0, w, rho
    and the limit bound's tail are not certified (ROADMAP item 3).
    Returns (None, reason) when no limits are declared or omega0 >= 1.
    """
    if not ctx.has_limits:
        return None, "no declared limits"
    n1 = _SCAN_END
    refusal = ctx.tail_cap_refusal()
    if refusal is not None:
        return None, refusal
    ctx.prefetch(_scan_keys(ctx))
    lp = ctx.L * ctx.P
    e_end = ctx.bias_limit_diff(n1)
    E_end = ctx.weight_limit_diff(n1)
    wlim = ctx.weight_limit_norm
    # the limit bound discounts every peeled layer k in [2, n] by omega0,
    # so omega0 must dominate L*P*|W_k| for ALL k >= 2 — scanning only a
    # tail window would miss the early layers (past n1 the analytic
    # piece L*P*(|W*| + E_end) takes over through the decaying drift)
    scan_lp = max(lp * ctx.weight_norm(n) for n in range(2, n1 + 1))
    omega0 = max(scan_lp, lp * (wlim + E_end))
    if not omega0 < 1.0:
        return None, f"omega0 = {omega0:.6g} >= 1 over layers [2,{n1}]"
    weight_sup = max(
        max(ctx.weight_norm(n) for n in range(1, n1 + 1)), wlim + E_end
    )
    blim_norm = vector_norm(ctx.seq.bias_limit, ctx.p)
    zmax = max(ctx.zero_image_norm(n) for n in range(1, n1 + 1))
    tail_cap = (ctx.L * (blim_norm + e_end) + zmax) / (1.0 - omega0)
    rho = max(max(_apriori_bounds(ctx, range(1, n1 + 1), x_bound)), tail_cap)
    note = (
        f"coverage [2,{n1}]; omega0={omega0:.12g}; e_end={e_end:.6g}; "
        f"E_end={E_end:.6g}"
    )
    return LimitConstants(omega0, weight_sup, rho, float(x_bound), note), "ok"


def network_verdicts(ctx: BoundContext, x_bound: float) -> tuple:
    """``(condition, mask_conditions, constants, constants_note)``: every
    x-independent verdict on the network of ``ctx``, computed in that
    order.  The mask conditions are None unless the network is a
    convolution; the constants and their note are those of
    :func:`derive_limit_constants` at ``x_bound``."""
    condition = check_condition(ctx)
    masks = ctx.seq.masks
    mask_conditions = None if masks is None else check_mask_conditions(masks, ctx.act)
    constants, note = derive_limit_constants(ctx, x_bound)
    return condition, mask_conditions, constants, note


def limit_bound_ctx(ctx: BoundContext, n: int, constants: LimitConstants) -> float:
    """Upper bound on the distance |N(x) - N_n(x)| to the limit network:

        L * sum_{i<n} omega0^i e_{n-i}
          + L*P*rho * sum_{i<n-1} omega0^i E_{n-i}
          + L*P*w*(rho + D) * omega0^(n-1)

    with e_k = |b_k - b*| and E_k = |W_k - W*| in the extension.  Requires
    declared limits; raises otherwise.
    """
    if not ctx.has_limits:
        raise ValueError("limit bound requires declared weight and bias limits")
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    w0, rho = constants.omega0, constants.rho
    return _three_term_bound(
        ctx, n, [w0**i for i in range(n)],
        ctx.bias_limit_diff, ctx.weight_limit_diff, lambda k: 1.0, rho,
        (constants.weight_sup, rho + constants.x_bound, w0 ** (n - 1)),
    )


# ---------------------------------------------------------------------------
# exponential-rate fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of devs ~ amplitude * rate^n on the log scale."""

    rate: float
    amplitude: float
    r_squared: float
    n_used: int
    n_excluded: int

    def as_dict(self) -> dict:
        return asdict(self)


_FIT_FLOOR = 1.0e-300


def fit_exponential_rate(devs: Sequence[float], ns: Sequence[int] | None = None) -> RateFit:
    """Fit log(dev) = log(amplitude) + n*log(rate) by closed-form least
    squares (sequential sums, no LAPACK).

    Zero, denormal, or non-finite deviations are excluded (they carry no
    slope information at double precision); fewer than 4 usable points is an
    error, and so is a rate or amplitude past the double range.  A
    constant series fits rate 1.0 with R^2 = 1.
    """
    devs = [float(v) for v in devs]
    if ns is None:
        ns = list(range(1, len(devs) + 1))
    else:
        ns = [int(n) for n in ns]
    if len(ns) != len(devs):
        raise ValueError("fit_exponential_rate: ns and devs must have equal length")
    pairs = [
        (n, v) for n, v in zip(ns, devs) if math.isfinite(v) and v > _FIT_FLOOR
    ]
    excluded = len(devs) - len(pairs)
    if len(pairs) < 4:
        raise ValueError(
            f"fit_exponential_rate: only {len(pairs)} usable points (need >= 4)"
        )
    xs = [float(n) for n, _ in pairs]
    ys = [math.log(v) for _, v in pairs]
    k = float(len(pairs))
    sx = seq_sum(xs)
    sy = seq_sum(ys)
    sxx = seq_sum([x * x for x in xs])
    sxy = seq_sum([x * y for x, y in zip(xs, ys)])
    denom = k * sxx - sx * sx
    if denom == 0.0:
        raise ValueError("fit_exponential_rate: degenerate abscissa (all n equal)")
    slope = (k * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / k
    resid = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    ss_res = seq_sum([r * r for r in resid])
    mean_y = sy / k
    ss_tot = seq_sum([(y - mean_y) ** 2 for y in ys])
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1.0e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    try:
        rate, amplitude = math.exp(slope), math.exp(intercept)
    except OverflowError:
        raise ValueError(
            f"fit_exponential_rate: the fit leaves the double range "
            f"(log rate {slope:.6g}, log amplitude {intercept:.6g})"
        ) from None
    return RateFit(rate, amplitude, r2, len(pairs), excluded)


# ---------------------------------------------------------------------------
# scalar sequence oracles
# ---------------------------------------------------------------------------


def _seq_arg(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name}: expected a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def cumulative_products(alphas) -> np.ndarray:
    """A_n = prod_{j<=n} alpha_j for n = 1..len(alphas), sequential products."""
    a = _seq_arg(alphas, "cumulative_products")
    out = np.empty(a.size)
    acc = 1.0
    for i, v in enumerate(a.tolist()):
        acc *= v
        out[i] = acc
    return out


def tail_product_sums(alphas) -> np.ndarray:
    """B_n = sum_{j<=n} prod_{i=j+1..n} alpha_i, via B_n = 1 + alpha_n*B_{n-1}.

    The recursion is the algebraic identity obtained by splitting off the
    j = n term (empty product 1); it keeps the oracle O(n) at n = 10^4 while
    tests cross-check the literal nested sum at small n.  When
    lim alpha < 1 the sequence is bounded by 1/(1 - sup tail alpha).
    """
    a = _seq_arg(alphas, "tail_product_sums")
    out = np.empty(a.size)
    acc = 0.0
    for i, v in enumerate(a.tolist()):
        acc = 1.0 + v * acc
        out[i] = acc
    return out


def weighted_tail_sums(alphas, betas) -> np.ndarray:
    """S_n = sum_{i=0}^{n-1} (prod_{j=0}^{i-1} alpha_{n-j}) * beta_{n-i},
    via the identity S_n = beta_n + alpha_n * S_{n-1}.

    This is the discounted-history sum behind the convergence proofs: it
    tends to 0 whenever lim alpha < 1 and beta_n -> 0.
    """
    a = _seq_arg(alphas, "weighted_tail_sums")
    b = _seq_arg(betas, "weighted_tail_sums betas")
    if a.size != b.size:
        raise ValueError("weighted_tail_sums: alphas and betas must have equal length")
    out = np.empty(a.size)
    acc = 0.0
    for i, (av, bv) in enumerate(zip(a.tolist(), b.tolist())):
        acc = bv + av * acc
        out[i] = acc
    return out
