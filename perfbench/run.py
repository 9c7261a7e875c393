#!/usr/bin/env python3
"""dnc-lab benchmark: end-to-end and per-layer figures for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Every study runs the dnc-lab CLI in a fresh interpreter with ``--threads 1``
and one BLAS/OpenMP thread.  The load is a closed loop: the next study starts
when the previous one has exited, and studies start until ``--seconds`` have
passed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced studies and reports the per-layer metrics.
Workload inputs are generated from ``--seed``; definitions, metric units and
the seed-commit baseline live in ``perfbench/spec.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run (environment, every study, noise probe) is written under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 10  # set-up-only children per untraced run, besides the studies
MIN_STUDIES = 3  # a run makes at least this many studies, even past --seconds
# A run must end within 180 s: no study starts after RUN_LIMIT_S, and a child
# still running CHILD_TIMEOUT_S after its start is killed and counts as failed.
RUN_LIMIT_S = 90.0
CHILD_TIMEOUT_S = 80.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@functools.cache
def spec() -> dict:
    """Workload definitions and metric metadata (perfbench/spec.json)."""
    return json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))


def strip_generated_at(text: str) -> str:
    """The program's own timestamp-stripping, from the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from dnclab.report import strip_generated_at as strip

    return strip(text)


# ---------------------------------------------------------------------------
# inputs and children
# ---------------------------------------------------------------------------


def workload_inputs(name: str, seed: int, work: Path) -> tuple[list[str], int]:
    """CLI arguments (without ``--out``) and the number of audited cells."""
    wl = spec()["workloads"][name]
    if wl["command"] == "selftest":
        plan = wl["plan"]
        per_study = len(plan["n_list"]) * len(plan["m_list"]) + len(plan["n_list"]) + 1
        return ["selftest", "--threads", "1"], plan["studies"] * per_study * plan["samples"]
    config = dict(wl["config"], seed=seed)
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    depths = config["depths"]
    n_count, m_count = len(depths["n_list"]), len(depths["m_list"])
    samples = config["domain"]["sampler"]["count"]
    cells = (n_count * m_count + n_count + 1) * samples
    return ["run", "--config", str(path), "--threads", "1"], cells


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DNC_LAB_SEED", None)  # the config's seed must be the one used
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cli_args: list[str], mode: str, out: Path) -> dict:
    """Run one child to completion; wall time, set-up time and rusage."""
    out.mkdir(parents=True, exist_ok=True)
    record_path = out / "record.json"
    args = list(cli_args)
    if cli_args[0] == "run":
        args += ["--out", str(out)]
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), mode, "--", *args]
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        t0 = _now()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=child_env(), cwd=out)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted or terminated: never leave the child behind
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "mode": mode,
        "wall_s": t1 - t0,
        "exit_code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "record": None,
        "setup_s": None,
    }
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
        result["record"] = record
        if "first_study_t" in record:
            result["setup_s"] = record["first_study_t"] - t0
    return result


def calibrate() -> float:
    """Time a fixed pure-Python and numpy loop (no dnc-lab code)."""
    t0 = _now()
    acc = 0.0
    for i in range(600_000):
        acc += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(1200):
        a = np.sqrt(a * a + 1.0) - 0.5
    t1 = _now()
    if not (acc > 0.0 and np.isfinite(a).all()):
        raise RuntimeError("calibration loop produced a bad value")
    return t1 - t0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_study(name: str, result: dict, out: Path) -> tuple[str | None, str | None]:
    """(failure reason or None, digest of the deterministic outputs)."""
    if result["exit_code"] != 0:
        return f"exit code {result['exit_code']}", None
    wl = spec()["workloads"][name]
    stdout = (out / "stdout.txt").read_bytes()
    if wl["command"] == "selftest":
        lines = stdout.decode("utf-8").splitlines()
        if not lines or lines[-1] != wl["expect"]:
            return f"verdict {lines[-1] if lines else '<none>'!r}", None
        if any(line.startswith("[FAIL]") or "VIOLATIONS" in line for line in lines):
            return "a corpus instance failed", None
        return None, hashlib.sha256(stdout).hexdigest()
    try:
        report_text = (out / "report.json").read_text(encoding="utf-8")
        report = json.loads(report_text)
        table = (out / "table.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}", None
    if report.get("bounds_ok") is not True or any(report.get("violations", {}).values()):
        return "bound violations", None
    if wl["expect"] == "passed" and report.get("passed") is not True:
        return "verdict not passed", None
    digest = hashlib.sha256(strip_generated_at(report_text).encode("utf-8"))
    digest.update(table)
    return None, digest.hexdigest()


class Checker:
    """Collects per-study failures, including output bytes that differ
    between repetitions of the same workload and seed."""

    def __init__(self, name: str):
        self.name = name
        self.reference: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result: dict, out: Path) -> bool:
        self.attempted += 1
        reason, digest = check_study(self.name, result, out)
        if reason is None and result["setup_s"] is None:
            reason = "no convergence_study call recorded"
        if reason is None:
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                reason = "output bytes differ from the first repetition"
        if reason is not None:
            self.failures.append(f"{out.name} ({result['mode']}): {reason}")
        result["failure"] = reason
        return reason is None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with ten runs beyond it."""
    vals = sorted(values)
    n = len(vals)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    tail = None
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            tail = {"percentile": pct, "value": float(np.percentile(vals, pct))}
            break
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": n, "tail": tail}


def _fmt_stat(name: str, unit: str, s: dict) -> str:
    tail = "none (needs >= 20 runs for p50)" if s["tail"] is None else (
        f"p{s['tail']['percentile']:g}={s['tail']['value']:.6g}"
    )
    return (
        f"  {name:<14} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
        f"n={s['n']}, tail {tail})"
    )


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float, work: Path) -> dict:
    cli_args, cells = workload_inputs(name, seed, work)
    checker = Checker(name)
    start = _now()
    spawn(cli_args, "setup", work / "warmup")  # compiles bytecode, warms the file cache
    setups, studies, calib = [], [], []
    for k in range(SETUP_PROBES):
        probe = spawn(cli_args, "setup", work / f"probe-{k}")
        if probe["exit_code"] != 0 or probe["setup_s"] is None:
            checker.attempted += 1
            checker.failures.append(f"probe-{k}: set-up probe failed")
        else:
            setups.append(probe["setup_s"])
    deadline = start + seconds
    k = 0
    while not studies or (
        _now() - start < RUN_LIMIT_S and (len(studies) < MIN_STUDIES or _now() < deadline)
    ):
        calib.append(calibrate())
        out = work / f"study-{k}"
        result = spawn(cli_args, "full", out)
        ok = checker.add(result, out)
        studies.append(result)
        if ok:
            setups.append(result["setup_s"])
        k += 1
    good = [s for s in studies if s["failure"] is None]
    metrics = {}
    if good and setups:
        metrics = {
            "setup_s": summarize(setups),
            "verdict_s": summarize([s["wall_s"] for s in good]),
            "cells_per_s": summarize([cells / (s["wall_s"] - s["setup_s"]) for s in good]),
            "peak_rss_mb": summarize([s["peak_rss_mb"] for s in good]),
        }
    return {
        "trace": 0,
        "cells": cells,
        "metrics": metrics,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "noise": {"calib_s": summarize(calib)},
        "cpu_over_wall": summarize([s["cpu_s"] / s["wall_s"] for s in studies]),
        "studies": [_study_row(s) for s in studies],
        "setup_samples": setups,
    }


def run_traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    from tracer import layer_metrics

    cli_args, cells = workload_inputs(name, seed, work)
    checker = Checker(name)
    start = _now()
    spawn(cli_args, "setup", work / "warmup")
    plain, traced, layers = [], [], []
    missing: list[str] = []
    counts_ref = None
    k = 0
    while k == 0 or (_now() < start + seconds and _now() - start < RUN_LIMIT_S / 2):
        for mode, bucket in (("full", plain), ("traced", traced)):
            out = work / f"{mode}-{k}"
            result = spawn(cli_args, mode, out)
            if checker.add(result, out):
                bucket.append(result)
                if mode == "traced":
                    trace = result["record"]["trace"]
                    found = layer_metrics(trace)
                    found["cli.import_s"] = result["record"]["import_s"]
                    counts = {key: v for key, v in found.items() if isinstance(v, int)}
                    if counts_ref is None:
                        counts_ref = counts
                    elif counts != counts_ref:
                        checker.failures.append(f"{out.name}: call counts differ between traced runs")
                    layers.append(found)
                    missing = trace["missing"]
            k += 1
    metrics: dict = {}
    if plain and traced:
        for key in layers[0]:
            vals = [lay[key] for lay in layers]
            metrics[key] = vals[0] if isinstance(vals[0], int) else statistics.median(vals)
        metrics["trace.overhead_ratio"] = statistics.median(
            [s["wall_s"] for s in traced]
        ) / statistics.median([s["wall_s"] for s in plain])
    return {
        "trace": 1,
        "cells": cells,
        "metrics": metrics,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "untraced_verdict_s": [s["wall_s"] for s in plain],
        "traced_verdict_s": [s["wall_s"] for s in traced],
        "missing_trace_targets": missing,
    }


def _study_row(s: dict) -> dict:
    return {k: s[k] for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "exit_code", "failure")}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "threads": {var: "1" for var in THREAD_VARS} | {"--threads": "1"},
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def result_line(run: dict) -> dict:
    """The closing JSON object: exactly the metrics BENCHMARK.json lists."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = bench["per_layer"] if run["trace"] else bench["end_to_end"]
    failed = len(run["failures"])
    metrics = {}
    for m in section:
        value = run["metrics"].get(m["name"])
        if isinstance(value, dict):
            value = value["median"]
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and len(metrics) == len(section)
    return {"correct": correct, "attempted": run["attempted"], "failed": failed, "metrics": metrics}


def print_run(name: str, seed: int, run: dict) -> None:
    print(f"== {name} (seed {seed}, {'traced' if run['trace'] else 'untraced'}) ==")
    units = {k: v["unit"] for k, v in spec()["end_to_end"].items()}
    if run["trace"] == 0:
        for key, stats in run["metrics"].items():
            print(_fmt_stat(key, units[key], stats))
        attempted = run["attempted"]
        print(f"  {'failed_ratio':<14} {len(run['failures']) / attempted:.6g} failed/attempted "
              f"({len(run['failures'])}/{attempted} studies, cells per study {run['cells']})")
        print(_fmt_stat("noise.calib_s", "s", run["noise"]["calib_s"]))
        print(_fmt_stat("cpu/wall", "ratio", run["cpu_over_wall"]))
    else:
        per_layer = spec()["per_layer"]
        for key, value in run["metrics"].items():
            meta = per_layer[key]
            note = " (computed from shapes)" if meta.get("computed") else ""
            print(f"  {key:<36} {value:.6g} {meta['unit']}{note}")
        if run["missing_trace_targets"]:
            print("  trace targets not found: " + ", ".join(run["missing_trace_targets"]))
        print(f"  untraced verdict_s {run['untraced_verdict_s']}, traced {run['traced_verdict_s']}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*spec()["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=spec()["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dnclab" / "cli.py").is_file():
        print(f"perfbench: no dnc-lab sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(spec()["workloads"]) if args.workload == "all" else [args.workload]
    env = environment()
    lines = []
    for name in names:
        work = WORK / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            runner = run_traced if args.trace else run_untraced
            run = runner(name, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        run.update(workload=name, seed=args.seed, seconds=args.seconds, environment=env)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (results / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
            json.dumps(run, indent=2), encoding="utf-8"
        )
        print_run(name, args.seed, run)
        lines.append(result_line(run))
    print(f"environment: {json.dumps(env)}")
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{name}.{k}": v for name, line in zip(names, lines)
                        for k, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
