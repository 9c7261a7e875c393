"""Sliding-window pooling operators (stride 1) and their Lipschitz constants.

A pooling operator with window parameter mu maps dimension d to d - mu by
scanning windows of mu + 1 consecutive entries:

* ``average`` — the window mean.  A convex combination, hence non-expansive
  for every p (its matrix has unit row sums and column sums <= 1).
* ``max`` — the window maximum, with Lipschitz constant (mu + 1)^(1/p):
  per window |max a - max b| <= max|a - b|, and each coordinate of the
  input feeds at most mu + 1 windows, which is where the factor comes from.
  At p = inf the constant is 1.
* ``identity`` — mu = 0, the do-nothing operator (plain recursions).

Operators act on a vector or, along axis 0, on a ``(dim, S)`` batch of
columns.  Window sums add the mu + 1 shifted slices left to right onto
0.0, and window maxima fold ``np.maximum`` over them in window order (a
NaN in the window gives NaN; of equal entries such as -0.0 and +0.0 the
later one is kept): fixed orders of elementwise C loops over the whole
batch, never a BLAS reduction, so a column pools to the same bits in any
batch and pooled evaluations are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PNorm

__all__ = [
    "PoolingOp",
    "no_pooling",
    "average_pooling",
    "max_pooling",
]

_KINDS = ("identity", "average", "max")


@dataclass(frozen=True)
class PoolingOp:
    kind: str
    mu: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pooling kind {self.kind!r}; known: {_KINDS}")
        mu = int(self.mu)
        object.__setattr__(self, "mu", mu)
        if self.kind == "identity" and mu != 0:
            raise ValueError("identity pooling requires mu = 0")
        if self.kind != "identity" and mu < 1:
            raise ValueError(f"{self.kind} pooling requires mu >= 1, got {mu}")

    @property
    def window(self) -> int:
        return self.mu + 1

    def out_dim(self, in_dim: int) -> int:
        if self.kind != "identity" and in_dim < self.window:
            raise ValueError(
                f"{self.kind} pooling with mu={self.mu} needs input dim >= "
                f"{self.window}, got {in_dim}"
            )
        return in_dim - self.mu

    def lipschitz(self, p: PNorm) -> float:
        """Operator Lipschitz constant on l_p: 1 except max pooling's
        (mu+1)^(1/p), which degrades to 1 at p = inf."""
        if self.kind != "max" or p.is_inf:
            return 1.0
        return float(self.window) ** (1.0 / p.p)

    def pool(self, x) -> np.ndarray:
        """Pool a vector, or each column of a ``(dim, S)`` batch."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ValueError(
                f"pool: expected a 1-d vector or a 2-d batch, got shape {arr.shape}"
            )
        self.out_dim(arr.shape[0])  # validates the window fits
        if self.kind == "identity":
            return np.array(arr)
        size = arr.shape[0] - self.mu
        if self.kind == "average":
            out = np.zeros((size, *arr.shape[1:]))
            for t in range(self.window):
                out += arr[t : t + size]
            return out / self.window
        out = np.array(arr[:size])
        for t in range(1, self.window):
            np.maximum(out, arr[t : t + size], out=out)
        return out


def no_pooling() -> PoolingOp:
    return PoolingOp("identity", 0)


def average_pooling(mu: int) -> PoolingOp:
    return PoolingOp("average", mu)


def max_pooling(mu: int) -> PoolingOp:
    return PoolingOp("max", mu)
