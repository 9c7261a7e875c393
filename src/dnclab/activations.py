"""Scalar activations with certified Lipschitz constants.

Each activation carries the sharp global Lipschitz constant of its scalar
map together with its value at zero; both enter the theoretical bounds
verbatim, so they are stored as exact attributes rather than re-estimated.

Constants at a glance (alpha/scale as parametrized):

==============  =======================  ==========
name            Lipschitz constant       sigma(0)
==============  =======================  ==========
identity        1                        0
relu            1                        0
leaky_relu      max(1, alpha)            0
prelu           max(1, alpha)            0
elu             max(1, alpha)            0
selu            scale * max(1, alpha)    0
sigmoid         1/4                      1/2
tanh            1                        0
==============  =======================  ==========

The sigmoid constant 1/4 and the tanh constant 1 are supplied by this
implementation as the exact suprema of the derivatives (analytic facts, not
fitted values); the test suite cross-checks every constant against a
secant-slope scan.  With default parameters, SELU's constant is
1.0507 * 1.67326 = 1.75809... > 1, the standard example of an expansive
Lipschitz activation alongside PReLU/ELU with alpha > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Activation",
    "identity",
    "relu",
    "leaky_relu",
    "prelu",
    "elu",
    "selu",
    "sigmoid",
    "tanh",
    "make_activation",
    "ACTIVATION_NAMES",
]


@dataclass(frozen=True)
class Activation:
    """A componentwise scalar nonlinearity with declared constants."""

    name: str
    lipschitz: float
    value_at_zero: float
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def apply(self, x) -> np.ndarray:
        """Apply componentwise to a vector (returns a fresh array)."""
        arr = np.asarray(x, dtype=np.float64)
        return np.asarray(self.fn(arr), dtype=np.float64)


def _positive(value: float, what: str) -> float:
    v = float(value)
    if not v > 0.0 or not np.isfinite(v):
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return v


def _nonnegative(value: float, what: str) -> float:
    v = float(value)
    if v < 0.0 or not np.isfinite(v):
        raise ValueError(f"{what} must be nonnegative and finite, got {value!r}")
    return v


def identity() -> Activation:
    return Activation("identity", 1.0, 0.0, lambda x: np.array(x, dtype=np.float64))


def relu() -> Activation:
    return Activation("relu", 1.0, 0.0, lambda x: np.maximum(x, 0.0))


def _ramp(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    def fn(x):
        return np.where(x >= 0.0, x, alpha * x)

    return fn


def leaky_relu(alpha: float = 0.01) -> Activation:
    alpha = _nonnegative(alpha, "leaky_relu alpha")
    return Activation("leaky_relu", max(1.0, alpha), 0.0, _ramp(alpha))


def prelu(alpha: float) -> Activation:
    """Same map as leaky_relu; the conventional name when alpha is a model
    parameter, in particular for the expansive case alpha > 1."""
    alpha = _nonnegative(alpha, "prelu alpha")
    return Activation("prelu", max(1.0, alpha), 0.0, _ramp(alpha))


def elu(alpha: float = 1.0) -> Activation:
    alpha = _positive(alpha, "elu alpha")

    def fn(x):
        # np.where evaluates both branches: clamp the exp argument so large
        # positive inputs cannot overflow in the branch that gets discarded.
        return np.where(x > 0.0, x, alpha * np.expm1(np.minimum(x, 0.0)))

    return Activation("elu", max(1.0, alpha), 0.0, fn)


def selu(scale: float = 1.0507, alpha: float = 1.67326) -> Activation:
    scale = _positive(scale, "selu scale")
    alpha = _positive(alpha, "selu alpha")

    def fn(x):
        return scale * np.where(x >= 0.0, x, alpha * np.expm1(np.minimum(x, 0.0)))

    return Activation("selu", scale * max(1.0, alpha), 0.0, fn)


def sigmoid() -> Activation:
    def fn(x):
        # Stable in both directions: exp is only taken of -|x|.  The
        # numerator is 1 for x >= 0 (z <= 1 there) and z for x < 0; a NaN
        # stays NaN through both the maximum and the division.
        z = np.exp(-np.abs(x))
        return np.maximum(z, x >= 0.0) / (1.0 + z)

    return Activation("sigmoid", 0.25, 0.5, fn)


def tanh() -> Activation:
    return Activation("tanh", 1.0, 0.0, np.tanh)


_REGISTRY: dict[str, Callable[..., Activation]] = {
    "identity": identity,
    "relu": relu,
    "leaky_relu": leaky_relu,
    "prelu": prelu,
    "elu": elu,
    "selu": selu,
    "sigmoid": sigmoid,
    "tanh": tanh,
}

ACTIVATION_NAMES = tuple(sorted(_REGISTRY))


def make_activation(name: str, **params) -> Activation:
    """Build an activation from its config name and parameters."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; known: {', '.join(ACTIVATION_NAMES)}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"activation {name!r}: {exc}") from None
