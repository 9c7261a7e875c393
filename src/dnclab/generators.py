"""Reproducible layer-sequence families with exact drift envelopes.

Every family is built so that the quantities the theory consumes are known
in closed form rather than estimated:

* matrix families place a fixed core W* (optionally rescaled to a requested
  induced norm) in the top-left corner of every layer and add a drift
  ``scale * decay(n) * D_n`` with ``D_n`` of unit induced norm — so the
  zero-padded distance to the limit is |W_n - W*| = scale * decay(n)
  (exactly at p in {1, inf}; at p = 2 the unit is a certified norm, so the
  exact distance is at most that, up to rounding), and likewise
  |b_n - b*| = bias_scale * decay(n);
* convolutional families drive the masks directly
  (``limit + base * rate^n`` etc.), so mask sums and mask limits are exact
  by construction.

Randomness is drawn from per-layer PCG64 streams keyed by
(seed, role, layer index) through ``SeedSequence``, which makes every layer
a pure function of the spec — independent of evaluation order, thread
count, or how deep previous calls went.  Drift directions are normalised
in stacks, one stacked induced-norm call per shape: the per-phase
directions all at once, the per-layer directions of ``random_convergent``
one index-aligned block of layers at a time.  A stack gives each member
the same bits as alone, so this changes no layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ONE, PNorm, induced_norm, vector_norm
from .network import LayerSeq, MaskSeq, cnn_layer_seq
from .pooling import PoolingOp, no_pooling

__all__ = [
    "MATRIX_FAMILIES",
    "MASK_FAMILIES",
    "MaskSpec",
    "GenSpec",
    "build",
    "build_masks",
    "rescale_to_norm",
]

MATRIX_FAMILIES = (
    "constant",
    "exp_decay",
    "harmonic",
    "random_convergent",
    "diverging",
)
MASK_FAMILIES = (
    "vanishing_exponential",
    "vanishing_harmonic",
    "constant_limit",
    "diverging",
)

_RATE_FAMILIES = ("exp_decay", "random_convergent")
_DRIFT_FAMILIES = ("exp_decay", "harmonic", "random_convergent")
# random_convergent draws its per-layer drift directions for the layers
# 2..65, 66..129, ... of one block at a time and normalises them in one
# stacked induced-norm call per shape: the blocks are aligned to the layer
# index, so a layer's bits do not depend on which layer is asked for first
_DRIFT_BLOCK = 64


def _rng(seed: int, role: str, *index: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by (seed, role, index...).

    Keying through SeedSequence entropy (rather than jumping a shared
    stream) is what makes layer n reproducible without generating layers
    1..n-1 first.
    """
    entropy = (int(seed), int.from_bytes(role.encode("ascii"), "little"), *map(int, index))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def rescale_to_norm(w, target: float, p: PNorm) -> np.ndarray:
    """Scale a matrix, or each matrix of a ``(K, rows, cols)`` stack, by
    ``target`` over its :func:`induced_norm`.  At p in {1, inf} the norm
    then equals ``target`` up to rounding; at p = 2 the divisor is a
    certified upper bound, so the exact norm is at most ``target`` up to
    rounding and the certified norm that every bound reads is at most
    ``target`` within 1e-11 relative (up to about 250 rows and columns).  A stack takes one
    :func:`induced_norm` call, and each member gets the same bits as
    rescaled alone."""
    arr = np.asarray(w, dtype=np.float64)
    cur = np.asarray(induced_norm(arr, p))
    if (cur == 0.0).any():
        raise ValueError("rescale_to_norm: zero matrix has no rescaling")
    out = arr * (float(target) / cur)[..., None, None]
    out.flags.writeable = False
    return out


def _drift_directions(seed: int, draws: dict, p: PNorm) -> dict:
    """Unit-norm drift directions ``{key: D}``, D drawn uniform in [-1, 1]
    from the stream ("weight-drift", key) with shape ``draws[key]``: one
    stacked rescale per shape, each D the same bits as rescaled alone."""
    groups: dict[tuple, list] = {}
    for key, shape in draws.items():
        groups.setdefault(shape, []).append(key)
    out = {}
    for shape, keys in groups.items():
        stack = np.stack(
            [_rng(seed, "weight-drift", key).uniform(-1.0, 1.0, shape) for key in keys]
        )
        out.update(zip(keys, rescale_to_norm(stack, 1.0, p)))
    return out


def _unit_vector(rng: np.random.Generator, size: int, p: PNorm) -> np.ndarray:
    v = rng.uniform(-1.0, 1.0, size)
    nrm = vector_norm(v, p)
    if nrm == 0.0:  # pragma: no cover - measure zero
        v = np.ones(size)
        nrm = vector_norm(v, p)
    return v / nrm


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskSpec:
    """Convolution-mask family.

    base is the driving coefficient pattern (length tau + 1); the families
    map it to per-layer masks as

      vanishing_exponential: mask(n) = base * rate^n        (limit 0)
      vanishing_harmonic:    mask(n) = base / n             (limit 0)
      constant_limit:        mask(n) = limit + base * rate^n
      diverging:             mask(n) = base                 (limit = base)
    """

    family: str
    base: tuple[float, ...]
    rate: float | None = None
    limit: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in MASK_FAMILIES:
            raise ValueError(
                f"unknown mask family {self.family!r}; known: {MASK_FAMILIES}"
            )
        base = tuple(float(v) for v in self.base)
        if not base:
            raise ValueError("mask base must be nonempty")
        object.__setattr__(self, "base", base)
        needs_rate = self.family in ("vanishing_exponential", "constant_limit")
        if needs_rate:
            if self.rate is None or not 0.0 < float(self.rate) < 1.0:
                raise ValueError(f"{self.family} needs a rate in (0, 1), got {self.rate}")
            object.__setattr__(self, "rate", float(self.rate))
        elif self.rate is not None:
            raise ValueError(f"{self.family} does not take a rate")
        if self.family == "constant_limit":
            if self.limit is None:
                raise ValueError("constant_limit needs an explicit limit mask")
            lim = tuple(float(v) for v in self.limit)
            if len(lim) != len(base):
                raise ValueError(
                    f"limit has {len(lim)} coefficients, base has {len(base)}"
                )
            object.__setattr__(self, "limit", lim)
        elif self.limit is not None:
            raise ValueError(f"{self.family} derives its limit; do not pass one")

    @property
    def tau(self) -> int:
        return len(self.base) - 1


def build_masks(spec: MaskSpec) -> MaskSeq:
    base = np.array(spec.base, dtype=np.float64)
    tau = spec.tau
    if spec.family == "vanishing_exponential":
        r = spec.rate
        return MaskSeq(tau, lambda n: base * r**n, limit=np.zeros(tau + 1))
    if spec.family == "vanishing_harmonic":
        return MaskSeq(tau, lambda n: base / n, limit=np.zeros(tau + 1))
    if spec.family == "constant_limit":
        lim = np.array(spec.limit, dtype=np.float64)
        r = spec.rate
        return MaskSeq(tau, lambda n: lim + base * r**n, limit=lim)
    # diverging: constant mask, limit equals the mask itself
    return MaskSeq(tau, lambda n: base, limit=base)


@dataclass(frozen=True)
class GenSpec:
    """One reproducible network family.

    Matrix families need ``widths`` (an int for fixed width or a tuple for
    a cyclic schedule); ``norm_target`` rescales the core so the limit
    matrix has that induced norm_p norm (:func:`rescale_to_norm`; handy for
    dialing the contraction factor).  The convolutional family ("conv") instead takes a
    :class:`MaskSpec` and grows widths arithmetically by its band width.
    ``pooling`` is the :class:`PoolingOp` the network runs with (identity
    pooling, the default, for none): a matrix family reserves its ``mu``
    pooling rows, so weights are (width + mu) x previous width, and a
    convolution takes no pooling.
    """

    family: str
    input_dim: int
    widths: int | tuple[int, ...] | None = None
    seed: int = 0
    rate: float | None = None
    scale: float = 0.3
    bias_scale: float = 0.5
    norm_target: float | None = None
    norm_p: PNorm = ONE
    pooling: PoolingOp = no_pooling()
    mask: MaskSpec | None = None

    def __post_init__(self):
        known = MATRIX_FAMILIES + ("conv",)
        if self.family not in known:
            raise ValueError(f"unknown family {self.family!r}; known: {known}")
        if int(self.input_dim) < 1:
            raise ValueError("input_dim must be >= 1")
        object.__setattr__(self, "input_dim", int(self.input_dim))
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if not float(self.scale) >= 0.0 or not float(self.bias_scale) >= 0.0:
            raise ValueError("scale and bias_scale must be >= 0")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "bias_scale", float(self.bias_scale))
        if not isinstance(self.pooling, PoolingOp):
            raise TypeError(f"pooling must be a PoolingOp, got {self.pooling!r}")
        if self.norm_target is not None:
            t = float(self.norm_target)
            if not t > 0.0:
                raise ValueError("norm_target must be positive")
            object.__setattr__(self, "norm_target", t)

        if self.family == "conv":
            if self.mask is None:
                raise ValueError("conv family needs a MaskSpec")
            if self.widths is not None:
                raise ValueError("conv widths are derived from the mask band")
            if self.pooling.mu != 0:
                raise ValueError("pooling rows are not supported on conv families")
            if self.norm_target is not None:
                raise ValueError("conv norms are set through the mask coefficients")
            if self.rate is not None:
                r = float(self.rate)
                if not 0.0 < r < 1.0:
                    raise ValueError(f"bias drift rate must lie in (0, 1), got {r}")
                object.__setattr__(self, "rate", r)
            return

        if self.mask is not None:
            raise ValueError(f"{self.family} does not take a MaskSpec")
        if self.widths is None:
            raise ValueError(f"{self.family} needs widths")
        widths = (
            (int(self.widths),)
            if isinstance(self.widths, int)
            else tuple(int(w) for w in self.widths)
        )
        if not widths or min(widths) < 1:
            raise ValueError(f"widths must be positive, got {self.widths}")
        object.__setattr__(self, "widths", widths)
        if self.family in _RATE_FAMILIES:
            if self.rate is None or not 0.0 < float(self.rate) < 1.0:
                raise ValueError(f"{self.family} needs a rate in (0, 1), got {self.rate}")
            object.__setattr__(self, "rate", float(self.rate))
        elif self.rate is not None:
            raise ValueError(f"{self.family} does not take a rate")
        if self.family == "diverging" and self.norm_target is None:
            raise ValueError("diverging control needs an explicit norm_target")


# ---------------------------------------------------------------------------
# matrix families
# ---------------------------------------------------------------------------


def _embed(block: np.ndarray, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=np.float64)
    out[: block.shape[0], : block.shape[1]] = block
    return out


def _build_matrix_family(spec: GenSpec) -> LayerSeq:
    cycle = spec.widths  # normalised to a tuple
    period = len(cycle)
    min_w, max_w = min(cycle), max(cycle)
    s, mu, p = spec.input_dim, spec.pooling.mu, spec.norm_p
    seed = spec.seed

    def width(n: int) -> int:
        return cycle[(n - 1) % period]

    core = _rng(seed, "weight-core").uniform(-1.0, 1.0, (min_w + mu, min_w))
    if spec.norm_target is not None:
        core = np.asarray(rescale_to_norm(core, spec.norm_target, p))
    core_norm = induced_norm(core, p)
    bias_core = spec.bias_scale * _rng(seed, "bias-core").uniform(-1.0, 1.0, min_w)

    if spec.family in _RATE_FAMILIES:
        decay = lambda n: spec.scale * spec.rate**n
        bias_decay = lambda n: spec.bias_scale * spec.rate**n
    elif spec.family == "harmonic":
        decay = lambda n: spec.scale / n
        bias_decay = lambda n: spec.bias_scale / n
    else:  # constant, diverging
        decay = bias_decay = lambda n: 0.0

    # One fixed unit drift direction per width phase (layers n >= 2); the
    # random_convergent family redraws the direction at every layer instead,
    # a block of layers at a time (see _DRIFT_BLOCK).  A direction is dropped
    # once handed out: LayerSeq keeps the built weight, and asking again
    # redraws the block with the same bits.
    if spec.family == "random_convergent":
        layer_dirs: dict[int, np.ndarray] = {}

        def drift_direction(n: int) -> np.ndarray:
            if n not in layer_dirs:
                first = n - (n - 2) % _DRIFT_BLOCK
                block = range(first, first + _DRIFT_BLOCK)
                shapes = {i: (width(i) + mu, width(i - 1)) for i in block}
                layer_dirs.update(_drift_directions(seed, shapes, p))
            return layer_dirs.pop(n)

    elif spec.family in ("exp_decay", "harmonic"):
        phase_dirs = _drift_directions(
            seed,
            {
                phase: (cycle[phase] + mu, cycle[(phase - 1) % period])
                for phase in range(period)
            },
            p,
        )

        def drift_direction(n: int) -> np.ndarray:
            return phase_dirs[(n - 1) % period]

    drifting = spec.family in _DRIFT_FAMILIES

    def weight(n: int) -> np.ndarray:
        if n == 1:
            w1 = _rng(seed, "weight-first").uniform(-1.0, 1.0, (width(1) + mu, s))
            return np.asarray(rescale_to_norm(w1, core_norm, p))
        w = _embed(core, width(n) + mu, width(n - 1))
        if drifting:
            w = w + decay(n) * drift_direction(n)
        return w

    def bias(n: int) -> np.ndarray:
        b = np.zeros(width(n))
        b[:min_w] = bias_core
        if drifting:
            d = _unit_vector(_rng(seed, "bias-drift", n), width(n), p)
            b = b + bias_decay(n) * d
        return b

    return LayerSeq(
        s,
        width,
        weight,
        bias,
        pooling=spec.pooling,
        weight_limit=_embed(core, max_w + mu, max_w),
        bias_limit=bias_core,
    )


# ---------------------------------------------------------------------------
# convolutional family
# ---------------------------------------------------------------------------


def _build_conv_family(spec: GenSpec) -> LayerSeq:
    masks = build_masks(spec.mask)
    s = spec.input_dim
    seed = spec.seed
    tau = masks.tau
    bias_rate = spec.rate if spec.rate is not None else (spec.mask.rate or 0.5)
    bias_core = spec.bias_scale * _rng(seed, "bias-core").uniform(-1.0, 1.0, s + tau)

    def bias(n: int) -> np.ndarray:
        size = s + n * tau
        b = np.zeros(size)
        b[: bias_core.size] = bias_core
        # drift along a basis direction: unit in every p-norm at once, so
        # the envelope bias_scale * rate^n is exact and non-increasing no
        # matter which norm the analysis later measures in
        j = int(_rng(seed, "bias-drift", n).integers(size))
        b[j] += spec.bias_scale * bias_rate**n
        return b

    return cnn_layer_seq(masks, bias, s, bias_limit=bias_core)


def build(spec: GenSpec) -> LayerSeq:
    """Materialize a spec into a lazily generated layer sequence, which
    carries the recursion it runs: the spec's ``pooling``, or the
    ``masks`` of a convolution."""
    if spec.family == "conv":
        return _build_conv_family(spec)
    return _build_matrix_family(spec)
