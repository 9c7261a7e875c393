"""Layer sequences and the deep recursions they drive.

The hidden-state recursion is

    N_1(x) = act(pre_1(x)),      N_{n+1}(x) = act(pre_{n+1}(N_n(x))),

where the pre-activation map is ``W_n v + b_n`` for plain and convolutional
networks and ``pool(W_n v) + b_n`` when a pooling operator is attached.  No
output layer is modelled: every statement in this package concerns the
hidden-state sequence itself.

Widths may vary: ``width(n)`` is the state dimension after layer n
(``width(0)`` is the input dimension), and a pooling recursion consumes
``extra_rows = mu`` additional rows in each weight, i.e. W_n is
``(width(n) + extra_rows) x width(n-1)``.  Convolutional sequences have
``width(n) = width(0) + n * tau`` because each full banded convolution
lengthens the state by tau.

Every evaluation takes one input vector ``x`` of shape ``(dim,)`` or a
batch of S inputs as the columns of a ``(dim, S)`` array, and walks the
recursion once per layer for the whole batch.  Each column's states are the
same bits in any batch (the kernels sum in a fixed left-to-right order).
There is one copy of the recursion, a sweep that steps every layer once;
:func:`eval_trajectory` and :func:`eval_extended_trajectory` are list
wrappers over it.  By default they keep every state.  Given ``select``,
they hand each layer's product W_j N_{j-1}(x) (before pooling and bias) and
its state to the caller, which takes what it reads and holds only the
states it still needs: a deep sweep then holds a few states, not all of
them.  A product or state the sweep hands out is valid until its next
step, as the sweep may write the next layer into the same memory; a
caller that keeps one copies it (the list wrappers copy what they list).

States of different widths are compared through one of two extensions,
named ``zero_pad`` and ``constant_pad`` (in ``dnclab.analysis`` each is a
bound-context class, and any other name is refused):

* ``zero_pad`` needs no evaluation of its own.  A zero row plus a zero
  bias entry feeds 0 into the activation at every layer, so the extended
  state is the finite state of :func:`eval_trajectory` followed by act(0)
  in every padded coordinate.
* ``constant_pad`` — convolutional networks only, evaluated by
  :func:`eval_extended_trajectory`.  Layer 1 is the zero-padded finite
  matrix; layers 2, 3, ... apply their mask's constant-padded Toeplitz
  operator (``linalg.apply_banded``), so the constant tail evolves by
  ``t -> act(sum(mask) * t)`` while the head lengthens by tau per layer.
  Those layers run in workspaces allocated once per sweep at the last
  head length, layer j in their top width(j) rows, with the activation
  computed in place: the loop allocates no array whose size grows.
  Convolutional weights are the finite windows
  ``linalg.toeplitz_matrix(mask(n), width(n), width(n - 1))``; this sweep
  reads layer 1's window and the biases of layers 2, 3, ... only, so it
  builds no other window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .activations import Activation
from .linalg import (
    EventuallyConstSeq,
    apply_banded,
    as_matrix,
    as_vector,
    matvec,
    seq_sum,
    toeplitz_matrix,
)
from .pooling import PoolingOp, no_pooling

__all__ = [
    "MaskSeq",
    "LayerSeq",
    "Plain",
    "Pooled",
    "Conv",
    "NetworkKind",
    "PLAIN",
    "pool_of",
    "eval_trajectory",
    "eval_extended_trajectory",
    "cnn_layer_seq",
]


@dataclass(frozen=True)
class MaskSeq:
    """Per-layer convolution masks w^(n) = (w_0, ..., w_tau), lazily cached.

    ``limit`` optionally declares the coordinatewise limit mask; analysis
    code uses it to label verdicts analytic instead of window-based.  Masks
    are validated and cached per index, so every evaluation sees identical
    coefficients.
    """

    tau: int
    source: Callable[[int], object] = field(repr=False, compare=False)
    limit: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        tau = int(self.tau)
        if tau < 0:
            raise ValueError(f"mask band width tau must be >= 0, got {tau}")
        object.__setattr__(self, "tau", tau)
        if self.limit is not None:
            lim = as_vector(self.limit, name="mask limit")
            if lim.size != tau + 1:
                raise ValueError(
                    f"mask limit has {lim.size} coefficients, expected {tau + 1}"
                )
            object.__setattr__(self, "limit", lim)

    def mask(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"mask index must be >= 1, got {n}")
        got = self._cache.get(n)
        if got is None:
            got = as_vector(self.source(n), name=f"mask({n})")
            if got.size != self.tau + 1:
                raise ValueError(
                    f"mask({n}) has {got.size} coefficients, expected {self.tau + 1}"
                )
            self._cache[n] = got
        return got

    def abs_sum(self, n: int) -> float:
        """sum_k |w_k^(n)| — the exact induced l_1/l_inf norm of the
        constant-padded Toeplitz operator of layer n."""
        return seq_sum(np.abs(self.mask(n)))


@dataclass(frozen=True)
class Plain:
    """Fully connected recursion: state -> act(W state + b)."""


@dataclass(frozen=True)
class Pooled:
    """Pooling recursion: state -> act(pool(W state) + b)."""

    op: PoolingOp


@dataclass(frozen=True)
class Conv:
    """Banded-Toeplitz (convolutional) recursion with growing widths."""

    masks: MaskSeq


NetworkKind = Plain | Pooled | Conv
PLAIN = Plain()


def pool_of(kind: NetworkKind) -> PoolingOp:
    return kind.op if isinstance(kind, Pooled) else no_pooling()


class LayerSeq:
    """Lazily generated, cached sequence of layer parameters (W_n, b_n).

    ``weight_fn(n)`` and ``bias_fn(n)`` are each called at most once per
    index, and apart: :meth:`bias` generates b_n without W_n, so a reader of
    the biases alone (the bias norms and gaps, the constant-padded sweep
    past layer 1) builds no weight.  Each output is validated against the
    width schedule (a mismatch raises a ValueError naming the offending
    layer), frozen, and cached — so evaluations at any depths see
    bitwise-identical parameters.  :meth:`layer` returns the pair.

    ``weight_limit`` / ``bias_limit`` optionally declare limits W*, b* that
    the layers converge to (for growing-width sequences the bias limit is a
    finite vector read as zero-extended).  These power the analytic
    convergence verdicts; without them the analysis falls back to labelled
    window scans.
    """

    def __init__(
        self,
        input_dim: int,
        width_fn: Callable[[int], int],
        weight_fn: Callable[[int], object],
        bias_fn: Callable[[int], object],
        *,
        extra_rows: int = 0,
        weight_limit=None,
        bias_limit=None,
    ):
        input_dim = int(input_dim)
        if input_dim < 1:
            raise ValueError(f"input dimension must be >= 1, got {input_dim}")
        extra_rows = int(extra_rows)
        if extra_rows < 0:
            raise ValueError(f"extra_rows must be >= 0, got {extra_rows}")
        self.input_dim = input_dim
        self.extra_rows = extra_rows
        self._width_fn = width_fn
        self._weight_fn = weight_fn
        self._bias_fn = bias_fn
        self.weight_limit = (
            None if weight_limit is None else as_matrix(weight_limit, name="W* limit")
        )
        self.bias_limit = (
            None if bias_limit is None else as_vector(bias_limit, name="b* limit")
        )
        self._widths: dict[int, int] = {}
        self._weights: dict[int, np.ndarray] = {}
        self._biases: dict[int, np.ndarray] = {}

    def width(self, n: int) -> int:
        """State dimension after layer n; width(0) is the input dimension."""
        if n < 0:
            raise ValueError(f"width index must be >= 0, got {n}")
        if n == 0:
            return self.input_dim
        got = self._widths.get(n)
        if got is None:
            got = int(self._width_fn(n))
            if got < 1:
                raise ValueError(f"layer {n}: width must be >= 1, got {got}")
            self._widths[n] = got
        return got

    def layer(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(W_n, b_n)."""
        b = self.bias(n)  # validates n
        w = self._weights.get(n)
        if w is None:
            w = as_matrix(self._weight_fn(n), name=f"layer {n} weight")
            expected = (self.width(n) + self.extra_rows, self.width(n - 1))
            if w.shape != expected:
                raise ValueError(
                    f"layer {n}: weight shape {w.shape} does not chain, "
                    f"expected {expected}"
                )
            self._weights[n] = w
        return w, b

    def bias(self, n: int) -> np.ndarray:
        """b_n, generated without W_n."""
        if n < 1:
            raise ValueError(f"layer index must be >= 1, got {n}")
        b = self._biases.get(n)
        if b is None:
            b = as_vector(self._bias_fn(n), name=f"layer {n} bias")
            if b.size != self.width(n):
                raise ValueError(
                    f"layer {n}: bias length {b.size}, expected {self.width(n)}"
                )
            self._biases[n] = b
        return b


def _column(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Bias ``b`` shaped to add to ``z``, a state or a batch of columns."""
    return b if z.ndim == 1 else b[:, None]


def _input(seq: LayerSeq, kind: NetworkKind, x, n_max: int) -> np.ndarray:
    """The validated input, one vector or a batch of columns, of a
    recursion run to depth n_max."""
    if n_max < 1:
        raise ValueError(f"depth must be >= 1, got {n_max}")
    v = (as_vector if np.ndim(x) == 1 else as_matrix)(x, name="network input")
    if v.shape[0] != seq.width(0):
        raise ValueError(
            f"input has dimension {v.shape[0]}, network expects {seq.width(0)}"
        )
    if isinstance(kind, Pooled) and kind.op.mu != seq.extra_rows:
        raise ValueError(
            f"pooling window mu={kind.op.mu} does not match the layer shapes "
            f"(extra_rows={seq.extra_rows})"
        )
    if not isinstance(kind, Pooled) and seq.extra_rows != 0:
        raise ValueError("layer shapes reserve pooling rows but no pooling is attached")
    return v


def _sweep(
    seq: LayerSeq,
    kind: NetworkKind,
    act: Activation,
    x,
    n_max: int,
    padded: bool,
) -> Iterator[tuple]:
    """Walk the recursion once, yielding ``(W_j N_{j-1}(x), N_j(x))`` for
    j = 1..n_max, with N_0(x) = x: the layer's product before pooling and
    bias, and its state.  Both are finite arrays, or, if ``padded``, both
    are constant-padded :class:`EventuallyConstSeq` (layer 1 keeps its
    zero-padded finite form: product tail 0, state tail act(0); later layers
    apply their constant-padded Toeplitz operator).

    A yielded pair is valid until the next step: a caller that keeps one
    copies it.  The constant-padded layers past the first write into
    workspaces allocated once, at the final head length: layer j fills the
    top width(j) rows, and its product and state are views of them.
    """
    if padded and not isinstance(kind, Conv):
        raise ValueError("constant padding is defined for convolutional networks only")
    v = _input(seq, kind, x, n_max)
    if padded:
        # the padded input, the product, the shifted products (then the
        # activation's scratch) and the state
        rows = seq.width(1) + (n_max - 1) * kind.masks.tau
        work = np.empty((4, rows, *v.shape[1:]))
        banded, state = work[:3], work[3]
    for j in range(1, n_max + 1):
        if j > 1 and padded:
            prod = apply_banded(kind.masks.mask(j), v, out=banded)
            if prod.head_len != seq.width(j):
                raise ValueError(
                    f"layer {j}: extended head length {prod.head_len} does not "
                    f"match width {seq.width(j)}"
                )
            head = state[: prod.head_len]
            np.add(prod.head, _column(seq.bias(j), head), out=head)
            act.apply(head, out=head, scratch=banded[2, : prod.head_len])
            v = EventuallyConstSeq._of_filled(head, act.apply(prod.tail))
        else:
            w, b = seq.layer(j)
            prod = matvec(w, v)
            z = kind.op.pool(prod) if isinstance(kind, Pooled) else prod
            v = z + _column(b, z)
            act.apply(v, out=v)
            if padded:
                prod = EventuallyConstSeq._of_filled(prod, 0.0)
                v = EventuallyConstSeq._of_filled(v, act.value_at_zero)
        yield prod, v


def _listed(steps: Iterator[tuple], select) -> list:
    if select is None:
        return [state.copy() for _, state in steps]
    return [select(j, prod, state) for j, (prod, state) in enumerate(steps, 1)]


def eval_trajectory(
    seq: LayerSeq, kind: NetworkKind, act: Activation, x, n_max: int, select=None
) -> list:
    """[N_1(x), ..., N_{n_max}(x)] computed in one sweep; for a ``(dim, S)``
    batch each state is ``(width, S)``, one column per sample.

    With ``select``, entry j is ``select(j, W_j N_{j-1}(x), N_j(x))``
    instead: the sweep hands each layer's product (before pooling and
    bias) and state to the caller, and drops both unless the selected
    value holds them.  Both are valid only until the sweep's next step, so
    a ``select`` that keeps one returns a copy.
    """
    return _listed(_sweep(seq, kind, act, x, n_max, False), select)


def eval_extended_trajectory(
    seq: LayerSeq, kind: NetworkKind, act: Activation, x, n_max: int, select=None
) -> list:
    """Constant-padded states at depths 1..n_max of a convolutional network
    (sequence batches with one column per sample for a batched ``x``);
    ``select`` as in :func:`eval_trajectory`, on extended products and
    states.  The sweep reuses its workspaces from layer to layer, so
    without ``select`` each listed state is a copy; with it, what the
    caller keeps it copies."""
    return _listed(_sweep(seq, kind, act, x, n_max, True), select)


def cnn_layer_seq(
    masks: MaskSeq,
    bias_source: Callable[[int], object],
    input_dim: int,
    *,
    bias_limit=None,
) -> LayerSeq:
    """LayerSeq whose n-th weight is the finite banded Toeplitz matrix of
    mask(n), ``toeplitz_matrix(mask(n), width(n), width(n - 1))``; widths
    grow arithmetically, width(n) = input_dim + n * tau."""
    tau = masks.tau

    def width(n: int) -> int:
        return input_dim + n * tau

    def weight(n: int) -> np.ndarray:
        return toeplitz_matrix(masks.mask(n), width(n), width(n - 1))

    return LayerSeq(input_dim, width, weight, bias_source, bias_limit=bias_limit)
