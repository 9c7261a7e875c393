"""The benchmark's hooks still find what they wrap in the package.

``perfbench/`` wraps package functions from outside: the tracer rebinds every
module binding of a traced name, and the set-up probe replaces
``dnclab.cli.convergence_study``.  A rename, or a traced function captured at
import time (class attribute, default argument, closure), silently breaks
them, so both are exercised here in fresh interpreters.  Nothing under
``perfbench/`` is modified.
"""

import json
import subprocess
import sys
from pathlib import Path

from child_env import src_env

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_tracer_finds_every_target():
    code = (
        "import sys, json\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import dnclab.cli\n"
        "from tracer import Tracer\n"
        "t = Tracer()\n"
        "t.install()\n"
        "print(json.dumps(t.missing))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


def test_setup_probe_reaches_the_study(tmp_path):
    record = tmp_path / "record.json"
    res = subprocess.run(
        [
            sys.executable,
            str(PERFBENCH / "child.py"),
            str(record),
            "setup",
            "--",
            "run",
            "--config",
            str(ROOT / "sample_configs" / "dense_exp_decay.json"),
            "--threads",
            "1",
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    rec = json.loads(record.read_text(encoding="utf-8"))
    assert rec["exit_code"] == 0
    assert "first_study_t" in rec


CONV_CONFIG = {
    "schema": "dnc-lab/config/v1",
    "label": "traced-conv",
    "seed": 4,
    "generator": {
        "family": "conv",
        "input_dim": 4,
        "mask": {
            "family": "constant_limit",
            "base": [0.2, -0.1, 0.1],
            "rate": 0.5,
            "limit": [0.2, -0.1, 0.1],
        },
    },
    "activation": {"name": "sigmoid"},
    "norm": {"p": "inf"},
    "comparison": {"extension": "constant_pad"},
    "domain": {"bound": 1.0, "sampler": {"kind": "uniform", "count": 12}},
    "depths": {"n_list": [1, 2, 4], "m_list": [1, 2], "reference_depth": 12},
}


def _traced_run(tmp_path, config: dict) -> dict:
    """Run ``dnc-lab run`` on ``config`` under the span tracer; returns the
    trace after checking the exit code."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    record = tmp_path / "record.json"
    res = subprocess.run(
        [
            sys.executable,
            str(PERFBENCH / "child.py"),
            str(record),
            "traced",
            "--",
            "run",
            "--config",
            str(cfg),
            "--threads",
            "1",
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    rec = json.loads(record.read_text(encoding="utf-8"))
    assert rec["exit_code"] == 0
    return rec["trace"]


def _span_calls(trace: dict) -> dict[str, int]:
    calls: dict[str, int] = {}
    for name, _parent, n, _total, _child in trace["spans"]:
        calls[name] = calls.get(name, 0) + n
    return calls


def test_traced_run_sees_the_batched_layers(tmp_path):
    """The per-layer run still finds every target and records spans for the
    recursion, both kernels and the activation it drives (in place on the
    sweep's workspaces) and the restart gaps it streams on a
    constant-padded convolution."""
    trace = _traced_run(tmp_path, CONV_CONFIG)
    assert trace["missing"] == []
    calls = _span_calls(trace)
    for name in (
        "network.trajectory",
        "linalg.matvec",
        "linalg.apply_banded",
        "activations.apply",
        "analysis.product_gap",
    ):
        assert calls.get(name, 0) > 0, name


DENSE_P2_CONFIG = {
    "schema": "dnc-lab/config/v1",
    "label": "traced-dense-p2",
    "seed": 5,
    "generator": {
        "family": "exp_decay",
        "input_dim": 3,
        "widths": 6,
        "rate": 0.5,
        "norm_target": 0.55,
    },
    "activation": {"name": "relu"},
    "norm": {"p": 2},
    "domain": {"bound": 1.0, "sampler": {"kind": "uniform", "count": 12}},
    "depths": {"n_list": [1, 2, 4], "m_list": [1, 2], "reference_depth": 12},
}


def test_traced_run_sees_the_stacked_p2_norms(tmp_path):
    """The tracer wraps ``induced_norm`` for stacked operands too: a p = 2
    dense run records its spans, and the p = 2 norms do not go through
    ``matvec`` (what is left is the first-layer products).  One
    norm cache makes four stacked p = 2 calls, none on an operand seen
    before: |W*|, then the constants scan (W_1 alone; W_2..W_48 with E_48),
    then the grid's drifts and limit drifts."""
    trace = _traced_run(tmp_path, DENSE_P2_CONFIG)
    assert trace["missing"] == []
    calls = _span_calls(trace)
    assert calls.get("linalg.induced_norm", 0) > 0
    assert trace["counts"].get("linalg.induced_norm.p2_calls", 0) == 4
    assert trace["counts"].get("linalg.induced_norm.repeats", 0) == 0
    assert 0 < calls.get("linalg.matvec", 0) < 100
