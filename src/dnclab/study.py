"""Convergence studies: sampled deviations against every bound at once.

A study takes one network family, draws inputs from the domain, evaluates
the state trajectories of all samples in one batch (one recursion sweep per
layer, taking the norms and deviations the grid reads as it goes and
holding only the states at n_list), and then audits the full grid of depth
pairs:

* per (n, m): the empirical deviation |N_{n+m}(x) - N_n(x)| against the
  three-term deviation bound (per sample — dominance is checked pointwise,
  not just for the suprema);
* per n: the state norm against the a-priori bound, the deviation to a deep
  reference network, and (when limits are declared and the certified
  constants exist) the limit bound pair J(n) + J(reference);
* the fitted exponential rate of the reference deviations.

Each cell's deviations and bounds come back as one array over the samples,
bit-identical to evaluating each sample alone, and are reduced as a scan in
sample order would: violations ascending, the first strict maximum, NaN
skipped.

Each kind of inequality checked is declared once, in ``_CHECKS``; one local
check in :func:`convergence_study` applies the slack and records violations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .activations import Activation
from .analysis import (
    ZERO_PAD,
    BoundContext,
    ConditionVerdict,
    Domain,
    LimitConstants,
    RateFit,
    SamplerSpec,
    Trajectory,
    _apriori_bounds,
    deviation_bound_ctx,
    fit_exponential_rate,
    limit_bound_ctx,
    network_verdicts,
)
from .linalg import PNorm
from .network import LayerSeq

__all__ = [
    "DepthPlan",
    "StudyRow",
    "StateRow",
    "StudyResult",
    "convergence_study",
]


@dataclass(frozen=True)
class DepthPlan:
    """Depth grid of a study: deviation pairs (n, n+m) for n in n_list and
    m in m_list, plus a reference depth for distance-to-limit proxies."""

    n_list: tuple[int, ...] = (1, 2, 3, 4, 6, 8, 10, 12)
    m_list: tuple[int, ...] = (1, 2, 4, 8)
    reference_depth: int | None = None

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_list)
        ms = tuple(int(m) for m in self.m_list)
        if not ns or not ms:
            raise ValueError("depth plan needs nonempty n_list and m_list")
        if min(ns) < 1 or min(ms) < 1:
            raise ValueError("depths must be >= 1")
        if list(ns) != sorted(set(ns)) or list(ms) != sorted(set(ms)):
            raise ValueError("n_list and m_list must be strictly increasing")
        object.__setattr__(self, "n_list", ns)
        object.__setattr__(self, "m_list", ms)
        ref = self.reference_depth
        if ref is not None:
            ref = int(ref)
            if ref <= max(ns):
                raise ValueError(
                    f"reference depth {ref} must exceed max(n_list) = {max(ns)}"
                )
        object.__setattr__(self, "reference_depth", ref)

    @property
    def reference(self) -> int:
        return self.reference_depth if self.reference_depth is not None else max(self.n_list) + 20

    @property
    def max_depth(self) -> int:
        return max(self.reference, max(self.n_list) + max(self.m_list))


@dataclass(frozen=True)
class StudyRow:
    """One (n, m) cell: empirical sup deviation vs the deviation bound.

    ``bound`` is the sample-wise bound's maximum (a valid bound for the
    sup); dominance was still checked per sample.  ``limit_pair`` is
    J(n) + J(n+m) when certified constants exist, else None.
    """

    n: int
    m: int
    empirical: float
    bound: float
    limit_pair: float | None
    dominance_ok: bool
    limit_ok: bool | None
    worst_sample: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StateRow:
    """Per-depth audit: sup state norm vs a-priori bound, and deviation to
    the reference depth vs the limit-bound pair."""

    n: int
    sup_norm: float
    apriori: float
    apriori_ok: bool
    dev_to_ref: float | None
    limit_pair: float | None
    limit_ok: bool | None

    def as_dict(self) -> dict:
        return asdict(self)


# Each kind of inequality a study checks, in the order it is recorded and
# reported, with the CLI line of one violation, formatted with its key.  The
# limit keys list the grid rows' (n, n + m) first, then the state rows'.
_CHECKS = (
    ("dominance", "DOMINANCE VIOLATION: n={} m={} sample={}"),  # (n, m, sample)
    ("apriori", "A-PRIORI VIOLATION: n={} sample={}"),  # (n, sample)
    ("limit", "LIMIT-BOUND VIOLATION: n={} vs depth {}"),  # (n, k)
)


@dataclass(frozen=True)
class StudyResult:
    label: str
    p: PNorm
    extension: str
    sample_count: int
    reference_depth: int
    condition: ConditionVerdict
    mask_conditions: dict[str, ConditionVerdict] | None
    constants: LimitConstants | None
    constants_note: str
    rows: tuple[StudyRow, ...]
    state_rows: tuple[StateRow, ...]
    rate: RateFit | None
    rate_note: str
    dominance_violations: tuple[tuple[int, int, int], ...] = field(default=())
    apriori_violations: tuple[tuple[int, int], ...] = field(default=())
    limit_violations: tuple[tuple[int, int], ...] = field(default=())

    @property
    def violations(self) -> dict[str, tuple]:
        """Each check kind's violations, in the order of ``_CHECKS``."""
        return {kind: getattr(self, f"{kind}_violations") for kind, _ in _CHECKS}

    def violation_lines(self) -> list[str]:
        """One line per violation, kind by kind."""
        return [fmt.format(*key) for kind, fmt in _CHECKS for key in self.violations[kind]]

    @property
    def bounds_ok(self) -> bool:
        """All theorem-backed inequalities held on every sample."""
        return not any(self.violations.values())

    @property
    def passed(self) -> bool:
        """Bounds held and the convergence condition verdict is positive."""
        return self.bounds_ok and self.condition.passed

    def summary(self) -> str:
        cond = "<1 ok" if self.condition.passed else ">=1 FAIL"
        parts = [
            f"{self.label or 'study'}: omega={self.condition.estimate:.6g} "
            f"({self.condition.method}, {cond})",
            f"rows={len(self.rows)} samples={self.sample_count}",
        ]
        if self.rate is not None:
            parts.append(f"rate~{self.rate.rate:.4f} (R^2={self.rate.r_squared:.4f})")
        if not self.bounds_ok:
            counts = (f"{kind}={len(v)}" for kind, v in self.violations.items())
            parts.append("VIOLATIONS " + " ".join(counts))
        return " | ".join(parts)


# the relative slack granted to the theoretical side of every inequality:
# a floating-point noise allowance, far below any meaningful violation
_DOMINANCE_RTOL = 1.0e-9


def _sup(values: np.ndarray) -> tuple[float, int]:
    """(max, first index attaining it) of the non-NaN values, floored at
    (0.0, 0): what the scan ``if v > best: best, at = v, i`` from
    (0.0, 0) in sample order returns."""
    v = np.where(np.isnan(values), -math.inf, values)
    i = int(np.argmax(v))
    return (float(v[i]), i) if v[i] > 0.0 else (0.0, 0)


def _grid_norm_keys(depths: DepthPlan, limits: bool) -> list[tuple]:
    """The keys of the weight-operator norms the audit grid reads.

    Per (n, m) the deviation bound reads |W_i| for i in [m + 2, n + m] (its
    Lam products) and |W_{k+m} - W_k| for k in [2, n]; the a-priori bound
    at depth n reads |W_1| .. |W_n|; with certified constants the limit
    bound at depth n reads E_k for k in [2, n], and the grid takes it at n,
    n + m and the reference depth.
    """
    keys = {("W", n) for n in range(1, depths.reference + 1)}
    for n in depths.n_list:
        for m in depths.m_list:
            keys.update(("W", i) for i in range(m + 2, n + m + 1))
            keys.update(("dW", k + m, k) for k in range(2, n + 1))
    if limits:
        keys.update(("E", k) for k in range(2, depths.max_depth + 1))
    return sorted(keys)


def _trajectory_reads(depths: DepthPlan) -> dict:
    """What the audit grid reads from the trajectory, as the keywords of
    :class:`Trajectory`: the state norms at n and the reference depth (the
    a-priori rows) and at 1 .. max(n_list) - 1 (the deviation bound's
    second term), the deviations of the pairs (n, n + m) and (n, reference)
    and the restart gaps at m.  Only the states at n are held, each until
    the reference depth."""
    ns, ms, ref = depths.n_list, depths.m_list, depths.reference
    pairs = [(n, n + m) for n in ns for m in ms] + [(n, ref) for n in ns]
    return {"norms": {*ns, ref, *range(1, max(ns))}, "pairs": pairs, "gaps": ms}


def convergence_study(
    seq: LayerSeq,
    act: Activation,
    p: PNorm,
    domain: Domain,
    sampler: SamplerSpec = SamplerSpec(),
    depths: DepthPlan = DepthPlan(),
    *,
    extension: str = ZERO_PAD,
    label: str = "",
) -> StudyResult:
    """Run the full audit for one network family.

    The conditions and the certified constants are those of
    :func:`dnclab.analysis.network_verdicts`, as ``dnc-lab check`` reports
    them.  Each inequality grants its theoretical side a relative slack of
    1e-9.
    """
    if domain.dim != seq.input_dim:
        raise ValueError(
            f"domain dimension {domain.dim} != network input dimension {seq.input_dim}"
        )
    ctx = BoundContext(seq, act, p, extension)
    samples = domain.samples(sampler)
    ref = depths.reference

    # the x-independent phase runs before the states exist, so the norm
    # batches' working set is freed before the trajectory is allocated
    condition, mask_conditions, constants, constants_note = network_verdicts(
        ctx, domain.norm_bound(p)
    )
    ctx.prefetch(_grid_norm_keys(depths, constants is not None))
    # one sample per column; the sweep takes the grid's reads as it goes
    traj = Trajectory(ctx, samples.T, depths.max_depth, **_trajectory_reads(depths))

    slack = 1.0 + _DOMINANCE_RTOL
    found: dict[str, list[tuple]] = {kind: [] for kind, _ in _CHECKS}

    def check(kind: str, key: tuple, values, bound) -> bool:
        """Whether ``values <= bound`` held under the slack.  Records under
        ``kind`` each failing sample i of an array as ``(*key, i)`` (a NaN
        passes), or a failing sup as ``key`` (a NaN bound fails it)."""
        if np.ndim(values):
            bad = [(*key, int(i)) for i in np.flatnonzero(values > bound * slack)]
        else:
            bad = [] if values <= bound * slack else [key]
        found[kind].extend(bad)
        return not bad

    limit_bound = functools.cache(lambda n: limit_bound_ctx(ctx, n, constants))

    def limit_check(sup_dev: float, n: int, k: int) -> tuple:
        """(J(n) + J(k), sup_dev <= it), both None without constants."""
        if constants is None:
            return None, None
        pair = limit_bound(n) + limit_bound(k)
        return pair, check("limit", (n, k), sup_dev, pair)

    rows: list[StudyRow] = []
    for n in depths.n_list:
        for m in depths.m_list:
            dev = traj.deviation(n, n + m)
            bnd = deviation_bound_ctx(ctx, traj, n, m)
            ok = check("dominance", (n, m), dev, bnd)
            sup_dev, worst = _sup(dev)
            pair, limit_ok = limit_check(sup_dev, n, n + m)
            rows.append(StudyRow(n, m, sup_dev, _sup(bnd)[0], pair, ok, limit_ok, worst))

    x_bound = domain.norm_bound(p)
    state_rows: list[StateRow] = []
    state_ns = (*depths.n_list, ref)
    for n, apri in zip(state_ns, _apriori_bounds(ctx, state_ns, x_bound)):
        norms = traj.state_norm(n)
        ok = check("apriori", (n,), norms, apri)
        sup_norm = _sup(norms)[0]
        if n == ref:
            state_rows.append(StateRow(n, sup_norm, apri, ok, None, None, None))
            continue
        dev_ref = _sup(traj.deviation(n, ref))[0]
        pair, limit_ok = limit_check(dev_ref, n, ref)
        state_rows.append(
            StateRow(n, sup_norm, apri, ok, dev_ref, pair, limit_ok)
        )

    rate: RateFit | None = None
    rate_note = ""
    ref_devs = [r.dev_to_ref for r in state_rows if r.dev_to_ref is not None]
    ref_ns = [r.n for r in state_rows if r.dev_to_ref is not None]
    try:
        rate = fit_exponential_rate(ref_devs, ref_ns)
    except ValueError as exc:
        rate_note = str(exc)

    return StudyResult(
        label=label,
        p=p,
        extension=extension,
        sample_count=len(samples),
        reference_depth=ref,
        condition=condition,
        mask_conditions=mask_conditions,
        constants=constants,
        constants_note=constants_note,
        rows=tuple(rows),
        state_rows=tuple(state_rows),
        rate=rate,
        rate_note=rate_note,
        **{f"{kind}_violations": tuple(keys) for kind, keys in found.items()},
    )
