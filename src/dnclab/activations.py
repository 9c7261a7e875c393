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
    """A componentwise scalar nonlinearity with declared constants.

    ``fn(x, out, scratch)`` writes the map of the float64 array ``x`` into
    ``out``, an array of x's shape that may be ``x`` itself; a map with a
    second intermediate keeps it in ``scratch`` (or in a fresh array when
    that is None).
    """

    name: str
    lipschitz: float
    value_at_zero: float
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray | None], None] = field(
        repr=False, compare=False
    )

    def apply(self, x, out=None, *, scratch=None) -> np.ndarray:
        """Apply componentwise to a batch, a vector, a 0-d array or a float.

        Without ``out`` the result is a fresh array.  With it, the result is
        written into ``out`` (a float64 array of x's shape, possibly ``x``
        itself) and ``out`` is returned.  ``scratch``, a float64 array of
        x's shape that is neither ``x`` nor ``out``, is the working space of
        the maps that need one (the ramps, elu, selu and sigmoid), which
        otherwise allocate it.  Each way gives the same bits: the same
        ufuncs run in the same order.
        """
        arr = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.empty_like(arr)
        elif out.shape != arr.shape:
            raise ValueError(
                f"activation output has shape {out.shape}, input {arr.shape}"
            )
        self.fn(arr, out, scratch)
        return out


def _work(x: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    return np.empty_like(x) if scratch is None else scratch


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
    return Activation("identity", 1.0, 0.0, lambda x, out, _: np.copyto(out, x))


def relu() -> Activation:
    return Activation("relu", 1.0, 0.0, lambda x, out, _: np.maximum(x, 0.0, out=out))


def _ramp(alpha: float):
    def fn(x, out, scratch):
        # alpha * x, then x wherever x >= 0: np.where's choice, made in place
        s = _work(x, scratch)
        np.multiply(alpha, x, out=s)
        np.copyto(s, x, where=x >= 0.0)
        np.copyto(out, s)

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

    def fn(x, out, scratch):
        # the exp argument is clamped, so large positive inputs cannot
        # overflow in the branch that x > 0 then replaces
        s = _work(x, scratch)
        np.minimum(x, 0.0, out=s)
        np.expm1(s, out=s)
        np.multiply(alpha, s, out=s)
        np.copyto(s, x, where=x > 0.0)
        np.copyto(out, s)

    return Activation("elu", max(1.0, alpha), 0.0, fn)


def selu(scale: float = 1.0507, alpha: float = 1.67326) -> Activation:
    scale = _positive(scale, "selu scale")
    alpha = _positive(alpha, "selu alpha")

    def fn(x, out, scratch):
        s = _work(x, scratch)
        np.minimum(x, 0.0, out=s)
        np.expm1(s, out=s)
        np.multiply(alpha, s, out=s)
        np.copyto(s, x, where=x >= 0.0)
        np.multiply(scale, s, out=out)

    return Activation("selu", scale * max(1.0, alpha), 0.0, fn)


def sigmoid() -> Activation:
    def fn(x, out, scratch):
        # Stable in both directions: exp is only taken of -|x|.  The
        # numerator max(z, x >= 0) is 1 for x >= 0 (z <= 1 there) and z for
        # x < 0; a NaN stays NaN through both the maximum and the division.
        # x is read for the last time when out receives x >= 0 (1.0 or 0.0).
        z = _work(x, scratch)
        np.abs(x, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.greater_equal(x, 0.0, out=out)
        np.maximum(z, out, out=out)
        np.add(1.0, z, out=z)
        np.divide(out, z, out=out)

    return Activation("sigmoid", 0.25, 0.5, fn)


def tanh() -> Activation:
    return Activation("tanh", 1.0, 0.0, lambda x, out, _: np.tanh(x, out=out))


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
