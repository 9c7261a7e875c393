"""Deterministic report and table serialization.

Reports are JSON with sorted keys and floats rendered by Python's repr
(shortest round-trip representation); tables are RFC-4180 CSV with CRLF
line endings and 17-significant-digit floats.  Both are pure functions of
the study result — thread counts, hostnames, and timings never enter the
payload, so two runs of the same experiment produce byte-identical files
apart from the single ``generated_at`` stamp, which
:func:`strip_generated_at` removes for comparisons.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone

from .study import StudyResult

__all__ = [
    "REPORT_SCHEMA",
    "format_float",
    "report_payload",
    "render_report",
    "strip_generated_at",
    "render_table",
    "verdict_fields",
]

REPORT_SCHEMA = "dnc-lab/report/v1"

_TABLE_COLUMNS = (
    "kind",
    "n",
    "m",
    "empirical_dev",
    "deviation_bound",
    "sup_state_norm",
    "apriori_bound",
    "dev_to_reference",
    "limit_bound",
    "ok",
)


def format_float(x: float | None) -> str:
    """17 significant digits — enough to round-trip any double exactly."""
    return "" if x is None else f"{x:.17g}"


def verdict_fields(condition, masks, constants, constants_note: str) -> dict:
    """The x-independent verdicts, as a report and ``verdicts.json`` hold
    them: the four values :func:`dnclab.analysis.network_verdicts` returns."""
    masks = None if masks is None else {k: v.as_dict() for k, v in masks.items()}
    return {
        "condition": condition.as_dict(),
        "mask_conditions": masks,
        "constants": None if constants is None else constants.as_dict(),
        "constants_note": constants_note,
    }


def report_payload(result: StudyResult, echo: dict) -> dict:
    """JSON-able report body with the config ``echo`` (no timestamp; add
    one with ``generated_at``)."""
    return {
        "schema": REPORT_SCHEMA,
        "label": result.label,
        "p": str(result.p),
        "extension": result.extension,
        "sample_count": result.sample_count,
        "reference_depth": result.reference_depth,
        **verdict_fields(
            result.condition, result.mask_conditions, result.constants, result.constants_note
        ),
        "rate": None if result.rate is None else result.rate.as_dict(),
        "rate_note": result.rate_note,
        "rows": [r.as_dict() for r in result.rows],
        "state_rows": [r.as_dict() for r in result.state_rows],
        "violations": {k: [list(v) for v in vs] for k, vs in result.violations.items()},
        "bounds_ok": result.bounds_ok,
        "passed": result.passed,
        "summary": result.summary(),
        "config_echo": echo,
    }


def render_report(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def strip_generated_at(text: str) -> str:
    """Re-render a report with the timestamp removed (byte-comparison aid)."""
    doc = json.loads(text)
    doc.pop("generated_at", None)
    return render_report(doc)


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def render_table(result: StudyResult) -> str:
    """CSV audit table: one row per (n, m) deviation cell, one per state
    depth.  RFC-4180: CRLF line endings, minimal quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(_TABLE_COLUMNS)
    for row in result.rows:
        ok = row.dominance_ok and row.limit_ok is not False
        writer.writerow(
            [
                "deviation",
                row.n,
                row.m,
                format_float(row.empirical),
                format_float(row.bound),
                "",
                "",
                "",
                format_float(row.limit_pair),
                "ok" if ok else "FAIL",
            ]
        )
    for srow in result.state_rows:
        ok = srow.apriori_ok and srow.limit_ok is not False
        writer.writerow(
            [
                "state",
                srow.n,
                "",
                "",
                "",
                format_float(srow.sup_norm),
                format_float(srow.apriori),
                format_float(srow.dev_to_ref),
                format_float(srow.limit_pair),
                "ok" if ok else "FAIL",
            ]
        )
    return buf.getvalue()
