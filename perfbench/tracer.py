"""Span tracer for the traced benchmark run.

The tracer wraps public dnc-lab functions from outside the package: every
module binding of a name is replaced (``dnclab.network.matvec`` as well as
``dnclab.linalg.matvec``), so ``src/`` carries no instrumentation.  Spans are
kept in memory, aggregated by (name, parent span name), and written out once
when the traced child exits.  A layer's self time is its span time minus the
time covered by its child spans.

Kernel work counts (matvec flops and bytes, apply_banded entries) are
computed from operand shapes, not read from hardware counters.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
import weakref

import numpy as np

_clock = time.perf_counter

# (module, attribute, span name): module-level functions wrapped in a span.
SPAN_FUNCTIONS = (
    ("dnclab.study", "convergence_study", "study"),
    ("dnclab.config", "load_config", "config.load_config"),
    ("dnclab.network", "eval_trajectory", "network.trajectory"),
    ("dnclab.network", "eval_extended_trajectory", "network.trajectory"),
    ("dnclab.linalg", "matvec", "linalg.matvec"),
    ("dnclab.linalg", "induced_norm", "linalg.induced_norm"),
    ("dnclab.linalg", "apply_banded", "linalg.apply_banded"),
    ("dnclab.linalg", "vector_norm", "linalg.vector_norm"),
    ("dnclab.analysis", "deviation_bound_ctx", "analysis.deviation_bound"),
    ("dnclab.analysis", "apriori_bound_ctx", "analysis.apriori_bound"),
    ("dnclab.analysis", "limit_bound_ctx", "analysis.limit_bound"),
    ("dnclab.analysis", "derive_limit_constants", "analysis.constants"),
    ("dnclab.analysis", "check_condition", "analysis.conditions"),
    ("dnclab.analysis", "check_mask_conditions", "analysis.conditions"),
    ("dnclab.report", "render_report", "report.render"),
    ("dnclab.report", "render_table", "report.render"),
)

# (module, class, method, span name): methods wrapped in a span.
SPAN_METHODS = (
    ("dnclab.activations", "Activation", "apply", "activations.apply"),
    ("dnclab.pooling", "PoolingOp", "pool", "pooling.pool"),
    ("dnclab.analysis", "Trajectory", "product_gap", "analysis.product_gap"),
)

# BoundContext methods whose cache hit ratio is measured.
NORM_CACHE_METHODS = ("weight_norm", "weight_diff", "weight_limit_diff")


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, time of child spans]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total, child]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._norm_frames: list[list[bool]] = []  # open norm-cache calls
        self._operands: set[bytes] = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs,
        result)`` may add counts computed from the operands or the result."""
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
            if after is not None:
                # counting is instrumentation: keep it out of the parent's self time
                t1 = _clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1][1] += _clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts computed at the call site --------------------------------

    def _after_matvec(self, args, kwargs, result):
        rows, cols = np.shape(args[0])
        self.count("linalg.matvec.flops", 2 * rows * cols)
        self.count("linalg.matvec.bytes", 8 * (rows * cols + cols + rows))

    def _after_induced_norm(self, args, kwargs, result):
        a = np.ascontiguousarray(args[0], dtype=np.float64)
        p = args[1] if len(args) > 1 else kwargs["p"]
        if p.p == 2.0:
            self.count("linalg.induced_norm.p2_calls")
        digest = hashlib.blake2b(a.tobytes(), digest_size=16)
        digest.update(repr((a.shape, p.p)).encode())
        key = digest.digest()
        if key in self._operands:
            self.count("linalg.induced_norm.repeats")
        self._operands.add(key)
        if self._norm_frames:
            self._norm_frames[-1][0] = True

    def _after_apply_banded(self, args, kwargs, result):
        self.count("linalg.apply_banded.entries", result.head_len)

    def _after_trajectory(self, args, kwargs, result):
        if self.stack and self.stack[-1][0] == "network.trajectory":
            return  # nested call (zero-pad extension); counted by the outer one
        self.count("network.trajectories")
        self.count("network.layer_steps", len(result))

    def _after_study(self, args, kwargs, result):
        self.count("study.cells", (len(result.rows) + len(result.state_rows)) * result.sample_count)

    def _after_render(self, args, kwargs, result):
        self.count("report.bytes", len(result.encode("utf-8")))

    # -- count-only and first-call wrappers ------------------------------

    def counted_seq_sum(self, fn):
        counts = self.counts
        frames = self._norm_frames
        key = "linalg.seq_sum.calls"
        counts.setdefault(key, 0)

        def seq_sum(values):
            counts[key] += 1
            if frames:
                frames[-1][0] = True
            return fn(values)

        seq_sum.__wrapped__ = fn
        return seq_sum

    def norm_cache(self, fn):
        """Count calls of a BoundContext norm method and how many of them
        computed a norm (an ``induced_norm`` or ``seq_sum`` call underneath)."""
        frames = self._norm_frames
        tracer = self

        def method(ctx, *args, **kwargs):
            frame = [False]
            frames.append(frame)
            try:
                return fn(ctx, *args, **kwargs)
            finally:
                frames.pop()
                tracer.count("analysis.norm_cache.calls")
                if frame[0]:
                    tracer.count("analysis.norm_cache.computed")
                    if frames:
                        frames[-1][0] = True

        method.__wrapped__ = fn
        return method

    def first_layer_call(self, fn):
        """Span only the first ``LayerSeq.layer`` call per (sequence, n):
        the call that generates the layer; later calls hit its cache."""
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        spanned = self.span("generators.layer_gen", fn)
        tracer = self

        def layer(seq, n):
            done = seen.get(seq)
            if done is None:
                done = seen[seq] = set()
            if n in done:
                return fn(seq, n)
            done.add(n)
            tracer.count("generators.layers_built")
            return spanned(seq, n)

        layer.__wrapped__ = fn
        return layer

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the traced names in loaded dnclab modules."""
        after = {
            "linalg.matvec": self._after_matvec,
            "linalg.induced_norm": self._after_induced_norm,
            "linalg.apply_banded": self._after_apply_banded,
            "network.trajectory": self._after_trajectory,
            "study": self._after_study,
            "report.render": self._after_render,
        }
        for mod_name, attr, name in SPAN_FUNCTIONS:
            fn = _lookup(mod_name, attr)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            _rebind(fn, self.span(name, fn, after.get(name)))
        seq_sum = _lookup("dnclab.linalg", "seq_sum")
        if seq_sum is None:
            self.missing.append("dnclab.linalg.seq_sum")
        else:
            _rebind(seq_sum, self.counted_seq_sum(seq_sum))
        for mod_name, cls_name, meth, name in SPAN_METHODS:
            cls = _lookup(mod_name, cls_name)
            fn = getattr(cls, meth, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self.span(name, fn))
        ctx_cls = _lookup("dnclab.analysis", "BoundContext")
        for meth in NORM_CACHE_METHODS:
            fn = getattr(ctx_cls, meth, None)
            if fn is None:
                self.missing.append(f"dnclab.analysis.BoundContext.{meth}")
                continue
            setattr(ctx_cls, meth, self.norm_cache(fn))
        seq_cls = _lookup("dnclab.network", "LayerSeq")
        fn = getattr(seq_cls, "layer", None)
        if fn is None:
            self.missing.append("dnclab.network.LayerSeq.layer")
        else:
            seq_cls.layer = self.first_layer_call(fn)

    def dump(self) -> dict:
        return {
            "spans": [[n, p, *rec] for (n, p), rec in sorted(self.spans.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
        }


def _lookup(mod_name: str, attr: str):
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dnclab" or name.startswith("dnclab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# ---------------------------------------------------------------------------
# per-layer metrics from a dumped trace
# ---------------------------------------------------------------------------


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced study (see perfbench/README.md)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    child_total: dict[tuple[str, str], float] = {}
    for name, parent, n, total, child in trace["spans"]:
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + total - child
        if parent != name:  # a span nested in its own kind lies inside the outer one
            total_s[name] = total_s.get(name, 0.0) + total
        if parent is not None:
            child_total[(parent, name)] = child_total.get((parent, name), 0.0) + total
    counts = trace["counts"]

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    cells = c("study.cells")
    steps = c("network.layer_steps")
    study_audit = (
        total_s.get("study", 0.0)
        - child_total.get(("study", "network.trajectory"), 0.0)
        - child_total.get(("study", "analysis.constants"), 0.0)
        - child_total.get(("study", "analysis.conditions"), 0.0)
    )
    norm_calls = c("analysis.norm_cache.calls")
    return {
        "linalg.matvec.calls": calls.get("linalg.matvec", 0),
        "linalg.matvec.self_s": self_s.get("linalg.matvec", 0.0),
        "linalg.matvec.flops": c("linalg.matvec.flops"),
        "linalg.matvec.bytes": c("linalg.matvec.bytes"),
        "linalg.induced_norm.calls": calls.get("linalg.induced_norm", 0),
        "linalg.induced_norm.p2_calls": c("linalg.induced_norm.p2_calls"),
        "linalg.induced_norm.self_s": self_s.get("linalg.induced_norm", 0.0),
        "linalg.induced_norm.repeat_ratio": ratio(
            c("linalg.induced_norm.repeats"), calls.get("linalg.induced_norm", 0)
        ),
        "linalg.apply_banded.calls": calls.get("linalg.apply_banded", 0),
        "linalg.apply_banded.self_s": self_s.get("linalg.apply_banded", 0.0),
        "linalg.apply_banded.entries": c("linalg.apply_banded.entries"),
        "linalg.vector_norm.calls": calls.get("linalg.vector_norm", 0),
        "linalg.vector_norm.self_s": self_s.get("linalg.vector_norm", 0.0),
        "linalg.seq_sum.calls": c("linalg.seq_sum.calls"),
        "network.trajectories": c("network.trajectories"),
        "network.layer_steps": steps,
        "network.trajectory.self_s": self_s.get("network.trajectory", 0.0),
        "network.us_per_layer_step": 1e6 * ratio(total_s.get("network.trajectory", 0.0), steps),
        "activations.apply.self_s": self_s.get("activations.apply", 0.0),
        "pooling.pool.self_s": self_s.get("pooling.pool", 0.0),
        "generators.layers_built": c("generators.layers_built"),
        "generators.layer_gen.self_s": self_s.get("generators.layer_gen", 0.0),
        "analysis.deviation_bound.calls": calls.get("analysis.deviation_bound", 0),
        "analysis.deviation_bound.self_s": self_s.get("analysis.deviation_bound", 0.0),
        "analysis.us_per_cell": 1e6 * ratio(study_audit, cells),
        "analysis.product_gap.calls": calls.get("analysis.product_gap", 0),
        "analysis.product_gap.self_s": self_s.get("analysis.product_gap", 0.0),
        "analysis.constants.total_s": total_s.get("analysis.constants", 0.0),
        "analysis.conditions.total_s": total_s.get("analysis.conditions", 0.0),
        "analysis.apriori_bound.calls": calls.get("analysis.apriori_bound", 0),
        "analysis.apriori_bound.self_s": self_s.get("analysis.apriori_bound", 0.0),
        "analysis.limit_bound.self_s": self_s.get("analysis.limit_bound", 0.0),
        "analysis.norm_cache.hit_ratio": (
            1.0 - ratio(c("analysis.norm_cache.computed"), norm_calls) if norm_calls else 0.0
        ),
        "study.calls": calls.get("study", 0),
        "study.cells": cells,
        "study.self_s": self_s.get("study", 0.0),
        "config.load_config.self_s": self_s.get("config.load_config", 0.0),
        "report.render.total_s": total_s.get("report.render", 0.0),
        "report.bytes": c("report.bytes"),
    }
