"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

The traced tests run each workload twice at full size (about a minute in
all on a 2-core machine).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import layer_metrics  # noqa: E402


def _traced(name: str, seed: int, work: Path) -> dict:
    cli_args, cells = run.workload_inputs(name, seed, work)
    result = run.spawn(cli_args, "traced", work / "traced")
    reason, _ = run.check_study(name, result, work / "traced")
    assert reason is None, reason
    found = layer_metrics(result["record"]["trace"])
    assert result["record"]["trace"]["missing"] == []
    assert found["study.cells"] == cells
    return found


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    pairs = {}
    for name in run.spec()["workloads"]:
        runs = []
        for k in range(2):
            work = tmp_path_factory.mktemp(f"{name}-{k}")
            runs.append(_traced(name, run.spec()["default_seed"], work))
        pairs[name] = runs
    return pairs


def test_counts_repeat_exactly_across_traced_runs(traced_pairs):
    for name, (first, second) in traced_pairs.items():
        counts = {k: v for k, v in first.items() if isinstance(v, int)}
        assert counts, name
        assert counts == {k: second[k] for k in counts}, name


def test_workload_claims(traced_pairs):
    dense = traced_pairs["dense-scale"][0]
    conv = traced_pairs["conv-deep"][0]
    corpus = traced_pairs["corpus-selftest"][0]
    assert dense["linalg.apply_banded.calls"] == 0
    assert dense["linalg.induced_norm.p2_calls"] > 0
    assert conv["linalg.induced_norm.p2_calls"] == 0
    assert conv["linalg.apply_banded.calls"] > 0
    assert corpus["linalg.apply_banded.calls"] > 0
    assert corpus["linalg.induced_norm.p2_calls"] > 0
    assert corpus["study.calls"] == 52


def test_layer_metrics_self_time_subtracts_child_spans():
    trace = {
        "spans": [
            ["study", None, 1, 10.0, 6.0],
            ["network.trajectory", "study", 1, 4.0, 3.5],
            ["network.trajectory", "network.trajectory", 1, 1.0, 1.0],
            ["linalg.matvec", "network.trajectory", 8, 3.5, 0.0],
            ["analysis.constants", "study", 1, 2.0, 0.0],
        ],
        "counts": {"study.cells": 100, "network.layer_steps": 40},
        "missing": [],
    }
    m = layer_metrics(trace)
    assert m["study.self_s"] == 4.0
    assert m["network.trajectory.self_s"] == 0.5  # the nested call is inside the outer
    assert m["linalg.matvec.self_s"] == 3.5
    assert m["network.us_per_layer_step"] == pytest.approx(1e6 * 4.0 / 40)
    # study time outside trajectories, constants and conditions, per cell
    assert m["analysis.us_per_cell"] == pytest.approx(1e6 * (10.0 - 4.0 - 2.0) / 100)


def test_benchmark_json_matches_spec():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = run.spec()
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    for w in bench["workloads"]:
        assert w["why"] == spec["workloads"][w["name"]]["why"]
    for m in bench["end_to_end"]:
        meta = spec["end_to_end"][m["name"]]
        assert (m["unit"], m["better"]) == (meta["unit"], meta["better"])
        assert 0 < m["bound"] <= 0.25
    printed = [k for k, v in spec["per_layer"].items() if not v.get("printed_only")]
    assert [m["name"] for m in bench["per_layer"]] == printed
    for m in bench["per_layer"]:
        meta = spec["per_layer"][m["name"]]
        assert (m["unit"], m["better"]) == (meta["unit"], meta["better"])


def test_summarize_quartiles_and_tail():
    s = run.summarize([float(v) for v in range(1, 21)])
    assert s["median"] == 10.5
    assert s["n"] == 20
    assert s["tail"]["percentile"] == 50.0
    assert run.summarize([3.0])["q1"] == run.summarize([3.0])["q3"] == 3.0
