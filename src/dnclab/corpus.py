"""The shipped verification corpus: 50 convergent instances + controls.

The corpus spans the whole parameter cube the laboratory claims to cover:

* width schedules — fixed, cyclic (bounded), and arithmetically growing
  (convolutional), the latter compared under both zero and constant padding;
* activations — relu, prelu(alpha=2), selu, sigmoid (Lipschitz constants
  1, 2, ~1.7581, 1/4; sigmoid has act(0) != 0, which exercises the
  nonzero-padding-value comparisons);
* pooling — none, average (mu=2), max (mu=1, with its p-dependent
  Lipschitz factor);
* drift families — constant, exponential decay, random directions with
  exponential envelope, vanishing and constant-limit convolution masks;
* norms — p in {1, 2, inf} round-robin on dense families; convolutional
  instances stay on {1, inf}, where banded operator norms are exact column/
  row sums (certified p = 2 norms of the growing Toeplitz sections would
  dominate the runtime without adding coverage — dense families exercise
  them).

Every instance dials the limiting contraction factor omega = L*P*|W*| to a
target strictly below 1; `controls()` returns deliberately diverging
companions (omega > 1) that must fail the condition checks while still
satisfying the bounds, which assume no convergence.

Harmonic (1/n) drift families are exercised in the unit tests but excluded
here: their deviations decay like 1/n and cannot reach the 1e-6 convergence
gate at the depths the corpus audits, so they would only document slowness,
not verify it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .activations import Activation, make_activation
from .analysis import CONSTANT_PAD, ZERO_PAD, Domain
from .generators import GenSpec, MaskSpec, build
from .linalg import INF, ONE, TWO, PNorm
from .network import LayerSeq
from .pooling import PoolingOp, average_pooling, max_pooling, no_pooling

__all__ = ["Instance", "corpus_instances", "control_instances"]

_ACTS: tuple[tuple[str, tuple[tuple[str, float], ...]], ...] = (
    ("relu", ()),
    ("prelu", (("alpha", 2.0),)),
    ("selu", ()),
    ("sigmoid", ()),
)
_P_CYCLE = (ONE, TWO, INF)


@dataclass(frozen=True)
class Instance:
    """One corpus entry: a generator spec plus the study configuration."""

    label: str
    gen: GenSpec
    act_name: str
    act_params: tuple[tuple[str, float], ...] = ()
    p: PNorm = ONE
    extension: str = ZERO_PAD
    omega_target: float | None = None

    def activation(self) -> Activation:
        return make_activation(self.act_name, **dict(self.act_params))

    def domain(self) -> Domain:
        return Domain(self.gen.input_dim, 1.0)

    def build(self) -> LayerSeq:
        """The layer sequence, ready for evaluation."""
        return build(self.gen)


def _lipschitz(act_name: str, act_params) -> float:
    return make_activation(act_name, **dict(act_params)).lipschitz


def _fixed(
    idx: int,
    label: str,
    family: str,
    act: tuple,
    p: PNorm,
    *,
    widths,
    input_dim: int,
    omega: float,
    rate: float | None,
    pooling: PoolingOp = no_pooling(),
) -> Instance:
    name, params = act
    target = omega / (_lipschitz(name, params) * pooling.lipschitz(p))
    gen = GenSpec(
        family=family,
        input_dim=input_dim,
        widths=widths,
        seed=1100 + idx,
        rate=rate,
        scale=0.3,
        bias_scale=0.5,
        norm_target=target,
        norm_p=p,
        pooling=pooling,
    )
    return Instance(
        label=label,
        gen=gen,
        act_name=name,
        act_params=params,
        p=p,
        omega_target=omega,
    )


def _conv(
    idx: int,
    label: str,
    mask: MaskSpec,
    act: tuple,
    p: PNorm,
    *,
    input_dim: int,
    extension: str,
    omega: float | None,
) -> Instance:
    name, params = act
    gen = GenSpec(
        family="conv",
        input_dim=input_dim,
        seed=1100 + idx,
        rate=0.5,
        bias_scale=0.5,
        mask=mask,
    )
    return Instance(
        label=label,
        gen=gen,
        act_name=name,
        act_params=params,
        p=p,
        extension=extension,
        omega_target=omega,
    )


def corpus_instances() -> tuple[Instance, ...]:
    """The 50 convergent instances, in a fixed deterministic order."""
    out: list[Instance] = []
    idx = 0

    def nth_p() -> PNorm:
        return _P_CYCLE[idx % 3]

    # fully connected, fixed width 4
    for family, omega, rate in (
        ("constant", 0.5, None),
        ("exp_decay", 0.6, 0.5),
        ("random_convergent", 0.45, 0.45),
    ):
        for act in _ACTS:
            p = nth_p()
            out.append(
                _fixed(
                    idx,
                    f"fixed4-{family}-{act[0]}-p{p}",
                    family,
                    act,
                    p,
                    widths=4,
                    input_dim=3,
                    omega=omega,
                    rate=rate,
                )
            )
            idx += 1

    # fixed width 5 with average pooling (mu = 2)
    for family, omega, rate in (("constant", 0.5, None), ("exp_decay", 0.6, 0.5)):
        for act in _ACTS:
            p = nth_p()
            out.append(
                _fixed(
                    idx,
                    f"avg2-{family}-{act[0]}-p{p}",
                    family,
                    act,
                    p,
                    widths=5,
                    input_dim=4,
                    omega=omega,
                    rate=rate,
                    pooling=average_pooling(2),
                )
            )
            idx += 1

    # fixed width 4 with max pooling (mu = 1; P depends on p)
    for act in _ACTS:
        p = nth_p()
        out.append(
            _fixed(
                idx,
                f"max1-exp_decay-{act[0]}-p{p}",
                "exp_decay",
                act,
                p,
                widths=4,
                input_dim=3,
                omega=0.55,
                rate=0.5,
                pooling=max_pooling(1),
            )
        )
        idx += 1

    # cyclic width schedules (bounded, non-constant widths)
    for widths, family, rate in (((5, 3, 4), "exp_decay", 0.5), ((4, 3), "random_convergent", 0.45)):
        for act in _ACTS:
            p = nth_p()
            wtag = "".join(str(w) for w in widths)
            out.append(
                _fixed(
                    idx,
                    f"cyc{wtag}-{family}-{act[0]}-p{p}",
                    family,
                    act,
                    p,
                    widths=widths,
                    input_dim=3,
                    omega=0.5,
                    rate=rate,
                )
            )
            idx += 1

    # convolutional, vanishing masks, zero-padded comparison
    for tau, base, s in ((1, (0.6, -0.4), 2), (2, (0.5, -0.3, 0.2), 3)):
        for act in _ACTS:
            # p = 2 is excluded for growing widths (see module docstring);
            # sigmoid needs p = inf for its nonzero act(0) tail.
            p = INF if act[0] == "sigmoid" else (ONE, INF)[idx % 2]
            mask = MaskSpec("vanishing_exponential", base, rate=0.5)
            out.append(
                _conv(
                    idx,
                    f"convz-t{tau}-{act[0]}-p{p}",
                    mask,
                    act,
                    p,
                    input_dim=s,
                    extension=ZERO_PAD,
                    omega=0.0,
                )
            )
            idx += 1

    # convolutional, constant-limit masks, constant-padded comparison
    for tau, pattern, s in ((1, (0.3, 0.1), 2), (2, (0.2, -0.1, 0.1), 3)):
        for act in _ACTS:
            lip = _lipschitz(*act)
            total = sum(abs(v) for v in pattern)
            lim = tuple(v * (0.4 / (lip * total)) for v in pattern)
            mask = MaskSpec("constant_limit", lim, rate=0.5, limit=lim)
            out.append(
                _conv(
                    idx,
                    f"convc-t{tau}-{act[0]}-pinf",
                    mask,
                    act,
                    INF,
                    input_dim=s,
                    extension=CONSTANT_PAD,
                    omega=0.4,
                )
            )
            idx += 1

    # deeper fixed-width exponential instances for the rate check
    for act, p in ((_ACTS[0], TWO), (_ACTS[1], INF)):
        out.append(
            _fixed(
                idx,
                f"deep6-exp_decay-{act[0]}-p{p}",
                "exp_decay",
                act,
                p,
                widths=6,
                input_dim=4,
                omega=0.6,
                rate=0.5,
            )
        )
        idx += 1

    assert len(out) == 50, f"corpus must hold exactly 50 instances, got {len(out)}"
    labels = [inst.label for inst in out]
    assert len(set(labels)) == 50, "corpus labels must be unique"
    return tuple(out)


def control_instances() -> tuple[Instance, ...]:
    """Deliberately diverging companions: the condition checks must fail,
    while the bounds (which assume nothing about convergence) still hold."""
    diverging_dense = Instance(
        label="control-diverging-dense",
        gen=GenSpec(
            family="diverging",
            input_dim=3,
            widths=4,
            seed=2000,
            norm_target=1.25,
            norm_p=ONE,
        ),
        act_name="relu",
        p=ONE,
        omega_target=1.25,
    )
    diverging_conv = Instance(
        label="control-diverging-conv",
        gen=GenSpec(
            family="conv",
            input_dim=2,
            seed=2001,
            mask=MaskSpec("diverging", (0.8, 0.6)),
        ),
        act_name="relu",
        p=INF,
        omega_target=1.4,
    )
    return (diverging_dense, diverging_conv)
