"""JSON experiment configuration for the command-line laboratory.

A config file describes one experiment: the generated network family, the
activation/pooling pair, the norm, the input domain and sampling plan, the
depth grid, and output names.  Example:

    {
      "schema": "dnc-lab/config/v1",
      "label": "fixed4-exp",
      "seed": 7,
      "generator": {"family": "exp_decay", "input_dim": 3, "widths": 4,
                     "rate": 0.5, "norm_target": 0.6},
      "activation": {"name": "relu"},
      "pooling": {"name": "none"},
      "norm": {"p": 2},
      "domain": {"bound": 1.0,
                  "sampler": {"kind": "uniform", "count": 100}},
      "depths": {"n_list": [1, 2, 3, 4, 6, 8, 10, 12],
                  "m_list": [1, 2, 4, 8]},
      "output": {"report": "report.json", "table": "table.csv"}
    }

Parsing is strict — unknown keys and out-of-range values raise
:class:`ConfigError` (the CLI maps it to exit code 1) rather than being
silently ignored.  The top-level seed is the only seed source; a
section-level seed, when given explicitly, wins over it.
Norms are restricted to p in {1, 2, "inf"}, the exponents with exact
induced norms — the bounds would otherwise silently lose their "computed
exactly" guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .activations import Activation, make_activation
from .analysis import CONSTANT_PAD, ZERO_PAD, BoundContext, Domain, SamplerSpec
from .generators import GenSpec, MaskSpec, build
from .linalg import INF, ONE, TWO, PNorm
from .network import LayerSeq, NetworkKind
from .pooling import PoolingOp
from .study import DepthPlan

__all__ = ["CONFIG_SCHEMA", "ConfigError", "Experiment", "load_config", "parse_config"]

CONFIG_SCHEMA = "dnc-lab/config/v1"


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class Experiment:
    """A fully resolved experiment, ready to run."""

    label: str
    seq: LayerSeq
    kind: NetworkKind
    act: Activation
    p: PNorm
    extension: str
    domain: Domain
    sampler: SamplerSpec
    depths: DepthPlan
    report_name: str
    table_name: str
    echo: dict = field(repr=False)


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _typed(value, types, noun: str, where: str):
    """``value`` if it has one of the JSON ``types``; ``bool`` never counts
    as a number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    return value


def _string(value, where: str) -> str:
    return _typed(value, str, "a string", where)


def _int(value, where: str) -> int:
    return _typed(value, int, "an integer", where)


def _real(value, where: str) -> float:
    """A JSON number; an integer must have a finite double (JSON integers
    are unbounded, and every real setting is used as a double)."""
    _typed(value, (int, float), "a number", where)
    try:
        float(value)
    except OverflowError:
        raise ConfigError(
            f"{where} must be a number within the double range, "
            f"got an integer of {value.bit_length()} bits"
        ) from None
    return value


def _optional(check, value, where: str):
    """``value`` checked by ``check``, or None when it is null or absent."""
    return None if value is None else check(value, where)


def _list_of(item, value, where: str) -> tuple:
    """The JSON array ``value`` as a tuple, each entry checked by ``item``."""
    _typed(value, list, "a list", where)
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def _exact_p(raw, where: str) -> PNorm:
    if raw == "inf":
        return INF
    if not isinstance(raw, bool) and raw in (1, 2):
        return ONE if raw == 1 else TWO
    raise ConfigError(
        f"{where} must be 1, 2, or \"inf\" (exact induced norms only), got {raw!r}"
    )


def _parse_p(doc: dict) -> PNorm:
    norm = doc.get("norm")
    if not isinstance(norm, dict):
        raise ConfigError("config needs a 'norm' section, e.g. {\"p\": 2}")
    _require_keys(norm, {"p"}, "norm")
    return _exact_p(_get(norm, "p", "norm"), "norm.p")


def _parse_mask(section: dict) -> MaskSpec:
    where = "generator.mask"
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(section, {"family", "base", "rate", "limit"}, where)
    family = _get(section, "family", where)
    base = _list_of(_real, _get(section, "base", where), f"{where}.base")
    rate = _optional(_real, section.get("rate"), f"{where}.rate")
    limit = section.get("limit")
    if limit is not None:
        limit = _list_of(_real, limit, f"{where}.limit")
    try:
        return MaskSpec(family=family, base=base, rate=rate, limit=limit)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_generator(doc: dict, master_seed: int, extra_rows: int) -> GenSpec:
    gen = doc.get("generator")
    if not isinstance(gen, dict):
        raise ConfigError("config needs a 'generator' section")
    allowed = {
        "family",
        "input_dim",
        "widths",
        "seed",
        "rate",
        "scale",
        "bias_scale",
        "norm_target",
        "mask",
        "norm_p",
    }
    _require_keys(gen, allowed, "generator")
    family = _get(gen, "family", "generator")
    widths = gen.get("widths")
    if isinstance(widths, list):
        widths = _list_of(_int, widths, "generator.widths")
    elif widths is not None:
        widths = _int(widths, "generator.widths")
    mask = _parse_mask(gen["mask"]) if gen.get("mask") is not None else None
    norm_p = ONE
    if "norm_p" in gen:
        norm_p = _exact_p(gen["norm_p"], "generator.norm_p")
    kwargs = dict(
        family=family,
        input_dim=_int(_get(gen, "input_dim", "generator"), "generator.input_dim"),
        widths=widths,
        seed=_int(gen.get("seed", master_seed), "generator.seed"),
        rate=_optional(_real, gen.get("rate"), "generator.rate"),
        norm_target=_optional(_real, gen.get("norm_target"), "generator.norm_target"),
        norm_p=norm_p,
        extra_rows=extra_rows,
        mask=mask,
    )
    for key in ("scale", "bias_scale"):
        if key in gen:
            kwargs[key] = _real(gen[key], f"generator.{key}")
    try:
        return GenSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"generator: {exc}") from exc


def _parse_activation(doc: dict) -> Activation:
    sec = doc.get("activation")
    if not isinstance(sec, dict):
        raise ConfigError("config needs an 'activation' section, e.g. {\"name\": \"relu\"}")
    name = _string(_get(sec, "name", "activation"), "activation.name")
    params = {k: _real(v, f"activation.{k}") for k, v in sec.items() if k != "name"}
    try:
        return make_activation(name, **params)
    except ValueError as exc:
        raise ConfigError(f"activation: {exc}") from exc


def _parse_pooling(doc: dict) -> PoolingOp | None:
    sec = doc.get("pooling")
    if sec is None:
        return None
    if not isinstance(sec, dict):
        raise ConfigError("pooling section must be an object")
    _require_keys(sec, {"name", "mu"}, "pooling")
    name = _get(sec, "name", "pooling")
    if name in ("none", "identity"):
        if _int(sec.get("mu", 0), "pooling.mu") != 0:
            raise ConfigError(f"pooling.mu must be absent or 0 for {name}, got {sec['mu']}")
        return None
    if name not in ("average", "max"):
        raise ConfigError(f"pooling.name must be none/average/max, got {name!r}")
    mu = _int(_get(sec, "mu", "pooling"), "pooling.mu")
    try:
        return PoolingOp(name, mu)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pooling: {exc}") from exc


def _parse_domain(
    doc: dict, dim: int, p: PNorm, master_seed: int
) -> tuple[Domain, SamplerSpec]:
    sec = doc.get("domain")
    if not isinstance(sec, dict):
        raise ConfigError("config needs a 'domain' section, e.g. {\"bound\": 1.0}")
    _require_keys(sec, {"bound", "sampler"}, "domain")
    bound = _real(_get(sec, "bound", "domain"), "domain.bound")
    try:
        domain = Domain(dim, bound)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"domain: {exc}") from exc
    # every bound of a study is taken at the cube's largest p-norm
    if not math.isfinite(domain.norm_bound(p)):
        raise ConfigError(
            f"domain: norm bound bound * dim^(1/p) must be finite, got bound "
            f"{bound}, dim {dim}, p = {p}"
        )
    samp = sec.get("sampler", {})
    if not isinstance(samp, dict):
        raise ConfigError("domain.sampler must be an object")
    _require_keys(samp, {"kind", "count", "seed", "points_per_axis"}, "domain.sampler")
    where = "domain.sampler"
    count = _int(samp.get("count", 100), f"{where}.count")
    seed = _int(samp.get("seed", master_seed + 1), f"{where}.seed")
    points = _int(samp.get("points_per_axis", 5), f"{where}.points_per_axis")
    try:
        sampler = SamplerSpec(samp.get("kind", "uniform"), count, seed, points)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"domain.sampler: {exc}") from exc
    return domain, sampler


def _parse_depths(doc: dict) -> DepthPlan:
    sec = doc.get("depths")
    if sec is None:
        return DepthPlan()
    if not isinstance(sec, dict):
        raise ConfigError("depths section must be an object")
    _require_keys(sec, {"n_list", "m_list", "reference_depth"}, "depths")
    default = DepthPlan()
    n_list = _list_of(_int, sec.get("n_list", list(default.n_list)), "depths.n_list")
    m_list = _list_of(_int, sec.get("m_list", list(default.m_list)), "depths.m_list")
    ref = _optional(_int, sec.get("reference_depth"), "depths.reference_depth")
    try:
        return DepthPlan(n_list=n_list, m_list=m_list, reference_depth=ref)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"depths: {exc}") from exc


_TOP_KEYS = {
    "schema",
    "label",
    "seed",
    "generator",
    "activation",
    "pooling",
    "norm",
    "domain",
    "depths",
    "comparison",
    "output",
}


def parse_config(doc: dict) -> Experiment:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "config")
    schema = doc.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}; this build reads {CONFIG_SCHEMA}")

    master_seed = _int(doc.get("seed", 0), "seed")

    pool = _parse_pooling(doc)
    p = _parse_p(doc)
    # a conv generator refuses the pooling rows, so it never gets a pooling
    gen_spec = _parse_generator(doc, master_seed, pool.mu if pool else 0)
    act = _parse_activation(doc)
    domain, sampler = _parse_domain(doc, gen_spec.input_dim, p, master_seed)
    depths = _parse_depths(doc)

    comparison = doc.get("comparison", {})
    if not isinstance(comparison, dict):
        raise ConfigError("comparison section must be an object")
    _require_keys(comparison, {"extension"}, "comparison")
    extension = comparison.get("extension")
    if extension is None:
        # constant-limit (and diverging) masks do not vanish, so their
        # natural comparison is the constant-padded one
        if gen_spec.family == "conv" and gen_spec.mask.family in (
            "constant_limit",
            "diverging",
        ):
            extension = CONSTANT_PAD
        else:
            extension = ZERO_PAD

    out = doc.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output section must be an object")
    _require_keys(out, {"report", "table"}, "output")
    report_name = _string(out.get("report", "report.json"), "output.report")
    table_name = _string(out.get("table", "table.csv"), "output.table")
    for key, name in (("report", report_name), ("table", table_name)):
        if not name:
            raise ConfigError(f"output.{key} must name a file, got an empty string")

    built = build(gen_spec)
    kind = built.kind(pool)
    try:
        BoundContext.scheme(extension, kind, p)
    except ValueError as exc:
        raise ConfigError(f"comparison.extension: {exc}") from exc

    echo = dict(doc)
    echo["resolved"] = {
        "seed": master_seed,
        "generator_seed": gen_spec.seed,
        "sampler_seed": sampler.seed,
        "extension": extension,
    }

    return Experiment(
        label=_string(doc.get("label", gen_spec.family), "label"),
        seq=built.seq,
        kind=kind,
        act=act,
        p=p,
        extension=extension,
        domain=domain,
        sampler=sampler,
        depths=depths,
        report_name=report_name,
        table_name=table_name,
        echo=echo,
    )


def load_config(path: str) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the digit limit, or not UTF-8
        raise ConfigError(f"config {path} cannot be parsed: {exc}") from exc
    return parse_config(doc)
