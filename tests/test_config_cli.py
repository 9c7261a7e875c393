"""Tests for the JSON config loader and the command-line interface."""

import csv
import gc
import io
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dnclab import analysis, cli, linalg, network, study
from dnclab.activations import make_activation
from dnclab.analysis import CONSTANT_PAD, ZERO_PAD, BoundContext
from dnclab.cli import main
from dnclab.config import CONFIG_SCHEMA, ConfigError, load_config, parse_config
from dnclab.corpus import corpus_instances
from dnclab.linalg import INF, ONE, TWO
from dnclab.network import MaskSeq
from dnclab.pooling import no_pooling
from dnclab.report import format_float, strip_generated_at

import oracles
from child_env import src_env

CONFIG_DIR = Path(__file__).resolve().parents[1] / "sample_configs"


def base_doc(**over):
    doc = {
        "schema": CONFIG_SCHEMA,
        "label": "cli-smoke",
        "seed": 7,
        "generator": {
            "family": "exp_decay",
            "input_dim": 3,
            "widths": 3,
            "rate": 0.5,
            "norm_target": 0.55,
        },
        "activation": {"name": "relu"},
        "pooling": {"name": "none"},
        "norm": {"p": 1},
        "domain": {"bound": 1.0, "sampler": {"kind": "uniform", "count": 8}},
        "depths": {"n_list": [1, 2, 3, 4], "m_list": [1, 2], "reference_depth": 10},
        "output": {"report": "report.json", "table": "table.csv"},
    }
    doc.update(over)
    return doc


def section(name, **over):
    """One section of ``base_doc()`` with some of its keys replaced."""
    return {name: {**base_doc()[name], **over}}


DIVERGING_DOC = base_doc(
    label="cli-diverging",
    generator={
        "family": "diverging",
        "input_dim": 3,
        "widths": 3,
        "norm_target": 1.25,
    },
)

CONV_DOC = {
    "schema": CONFIG_SCHEMA,
    "label": "cli-conv",
    "seed": 3,
    "generator": {
        "family": "conv",
        "input_dim": 2,
        "mask": {
            "family": "constant_limit",
            "base": [0.2, -0.1],
            "rate": 0.5,
            "limit": [0.2, -0.1],
        },
    },
    "activation": {"name": "sigmoid"},
    "norm": {"p": "inf"},
    "domain": {"bound": 1.0, "sampler": {"count": 6}},
    "depths": {"n_list": [1, 2, 3, 4], "m_list": [1, 2], "reference_depth": 10},
}


class TestParseConfig:
    def test_full_resolution(self):
        exp = parse_config(base_doc())
        assert exp.label == "cli-smoke"
        assert exp.extension == ZERO_PAD
        assert exp.p.p == 1.0
        assert exp.domain.dim == 3
        assert exp.sampler.count == 8
        assert exp.depths.reference == 10
        assert exp.report_name == "report.json"
        assert exp.echo["resolved"]["seed"] == 7
        assert exp.echo["resolved"]["sampler_seed"] == 8  # master + 1

    def test_conv_defaults_to_constant_pad(self):
        exp = parse_config(CONV_DOC)
        assert exp.extension == CONSTANT_PAD
        assert exp.echo["resolved"]["extension"] == CONSTANT_PAD

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base_doc(typo=1))
        bad = base_doc()
        bad["generator"]["mystery"] = True
        with pytest.raises(ConfigError, match="generator"):
            parse_config(bad)

    def test_schema_checked(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_config(base_doc(schema="dnc-lab/config/v999"))

    def test_norm_restricted_to_exact_exponents(self):
        with pytest.raises(ConfigError, match="norm.p"):
            parse_config(base_doc(norm={"p": 3}))

    def test_pooling_on_conv_rejected(self):
        doc = dict(CONV_DOC)
        doc["pooling"] = {"name": "average", "mu": 1}
        with pytest.raises(ConfigError, match="conv"):
            parse_config(doc)

    def test_constant_pad_needs_sup_norm(self):
        doc = dict(CONV_DOC)
        doc["norm"] = {"p": 1}
        with pytest.raises(ConfigError, match="inf"):
            parse_config(doc)

    def test_env_seed_is_ignored(self, monkeypatch):
        """The config's seed is the only seed source."""
        monkeypatch.setenv("DNC_LAB_SEED", "99")
        exp = parse_config(base_doc())
        assert exp.echo["resolved"]["seed"] == 7
        assert exp.echo["resolved"]["generator_seed"] == 7
        monkeypatch.setenv("DNC_LAB_SEED", "not-a-number")
        assert parse_config(base_doc()).echo["resolved"]["seed"] == 7

    def test_explicit_generator_seed_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("DNC_LAB_SEED", "99")
        doc = base_doc()
        doc["generator"]["seed"] = 5
        exp = parse_config(doc)
        assert exp.echo["resolved"]["generator_seed"] == 5

    def test_load_config_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="read"):
            load_config(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(bad)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestRunCommand:
    def test_run_produces_report_and_table(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "dnc-lab/report/v1"
        assert report["label"] == "cli-smoke"
        assert report["condition"]["passed"] is True
        assert report["violations"] == {"apriori": [], "dominance": [], "limit": []}
        table = (tmp_path / "table.csv").read_bytes()
        assert table.count(b"\r\n") >= 9  # header + deviation + state rows
        assert b"deviation_bound" in table
        assert "cli-smoke" in result.output and "<1 ok" in result.output

    def test_every_violation_kind_agrees_across_the_outputs(self, tmp_path, monkeypatch):
        """With the deviation bound scaled by 1/8, the a-priori table by 1/16
        and the limit bound by 1/32, all three kinds fire in one run: the
        violation lines, the summary's counts, the report's ``violations``
        and the table's FAIL rows name the same violations, kind by kind
        in the same order, and the run exits 2."""
        for name, scale in (("deviation_bound_ctx", 1 / 8), ("limit_bound_ctx", 1 / 32)):
            bound = getattr(study, name)
            monkeypatch.setattr(study, name, lambda *a, f=bound, s=scale: f(*a) * s)
        table = study._apriori_bounds
        monkeypatch.setattr(
            study, "_apriori_bounds", lambda *a: [b / 16 for b in table(*a)]
        )
        cfg = write_config(tmp_path, base_doc())
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2, result.output
        patterns = {
            "dominance": r"DOMINANCE VIOLATION: n=(\d+) m=(\d+) sample=(\d+)",
            "apriori": r"A-PRIORI VIOLATION: n=(\d+) sample=(\d+)",
            "limit": r"LIMIT-BOUND VIOLATION: n=(\d+) vs depth (\d+)",
        }
        summary, *lines = result.output.splitlines()
        lines = [line for line in lines if "VIOLATION" in line]
        kinds, keys = [], {kind: [] for kind in patterns}
        for line in lines:
            (kind,) = [k for k, pat in patterns.items() if re.fullmatch(pat, line)]
            kinds.append(kind)
            keys[kind].append([int(v) for v in re.fullmatch(patterns[kind], line).groups()])
        assert kinds == sorted(kinds, key=list(patterns).index)
        assert all(keys.values()), keys
        counts = " ".join(f"{kind}={len(v)}" for kind, v in keys.items())
        assert summary.endswith(f"| VIOLATIONS {counts}")

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == keys
        assert report["summary"] == summary
        assert report["bounds_ok"] is False and report["passed"] is False

        rows = list(csv.reader(io.StringIO((tmp_path / "table.csv").read_text())))
        failed = {tuple(r[:3]) for r in rows[1:] if r[-1] == "FAIL"}
        ref = base_doc()["depths"]["reference_depth"]
        want = {("deviation", str(n), str(m)) for n, m, _ in keys["dominance"]}
        want |= {("state", str(n), "") for n, _ in keys["apriori"]}
        for n, k in keys["limit"]:
            want.add(("state", str(n), "") if k == ref else ("deviation", str(n), str(k - n)))
        assert failed == want
        assert len(failed) < len(rows) - 1  # some rows pass

    def test_invalid_config_is_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(norm={"p": 7}))
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "norm.p" in result.output

    def test_require_pass_on_diverging_is_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, DIVERGING_DOC)
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(cfg), "--out", str(tmp_path), "--require-pass"],
        )
        assert result.exit_code == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["condition"]["passed"] is False
        assert report["violations"]["dominance"] == []  # bounds still hold

    def test_thread_count_never_changes_output_bytes(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        outs = {}
        for threads in (1, 8):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            result = CliRunner().invoke(
                main,
                ["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)],
            )
            assert result.exit_code == 0, result.output
            outs[threads] = (
                strip_generated_at((out / "report.json").read_text()),
                (out / "table.csv").read_bytes(),
            )
        assert outs[1][0] == outs[8][0]
        assert outs[1][1] == outs[8][1]

    def test_conv_constant_pad_run(self, tmp_path):
        cfg = write_config(tmp_path, CONV_DOC)
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["extension"] == CONSTANT_PAD
        assert report["mask_conditions"]["mask_sum"]["passed"] is True


class TestOtherCommands:
    def test_check_writes_verdicts(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        result = CliRunner().invoke(
            main, ["check", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        verdicts = json.loads((tmp_path / "verdicts.json").read_text())
        assert verdicts["condition"]["passed"] is True
        assert verdicts["constants"]["omega0"] < 1

    def test_check_require_pass_fails_on_diverging(self, tmp_path):
        cfg = write_config(tmp_path, DIVERGING_DOC)
        result = CliRunner().invoke(
            main, ["check", "--config", str(cfg), "--require-pass"]
        )
        assert result.exit_code == 2

    def test_bounds_table(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        result = CliRunner().invoke(
            main, ["bounds", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        raw = (tmp_path / "bounds.csv").read_bytes()
        assert b"apriori_bound" in raw and b"limit_bound" in raw
        # header, depths 1,2,3,4, and the reference 10 — all CRLF-terminated
        assert raw.count(b"\r\n") == 6

    @pytest.mark.parametrize("case", ["dense_exp_decay", "conv-constant-pad"])
    def test_bounds_norms_each_layer_once(self, tmp_path, monkeypatch, case):
        """The Lipschitz column is one running product over |W_1| .. |W_ref|:
        no matrix is normed twice (the a-priori and limit columns share the
        context's cache), every layer up to the reference depth is normed,
        and each entry is oracles.network_lipschitz_bound's value at its depth.
        A convolution's layers are normed as their masks' smallest windows,
        toeplitz_matrix(mask(j), c + tau, c) with c = min(width(j - 1), tau + 1):
        exactly one per layer.  Its constant-padded norms, the constants
        scan's W_2 .. W_48, E_48 and |W*| and the limit column's E_2 .. E_ref,
        are mask sums, each one 1 x (tau + 1) row; nothing else is normed."""
        if case == "conv-constant-pad":
            cfg = write_config(tmp_path, CONV_DOC)
        else:
            cfg = CONFIG_DIR / f"{case}.json"
        evaluated: Counter = Counter()
        norm = linalg.induced_norm

        def counted(a, p):
            arr = np.asarray(a, dtype=np.float64)
            for m in arr if arr.ndim == 3 else arr[None]:
                evaluated[m.shape, m.tobytes()] += 1
            return norm(a, p)

        monkeypatch.setattr(linalg, "induced_norm", counted)  # stacked_norms' call
        result = CliRunner().invoke(
            main, ["bounds", "--config", str(cfg), "--out", str(tmp_path)]
        )
        monkeypatch.undo()
        assert result.exit_code == 0, result.output
        assert max(evaluated.values()) == 1
        exp = load_config(str(cfg))
        dense = case == "dense_exp_decay"
        assert exp.extension == (ZERO_PAD if dense else CONSTANT_PAD)
        depths = range(1, exp.depths.reference + 1)
        if dense:
            layers = [exp.seq.layer(j)[0] for j in depths]
            assert all((w.shape, w.tobytes()) in evaluated for w in layers)
        else:
            tau = exp.seq.masks.tau
            cols = [min(exp.seq.width(j - 1), tau + 1) for j in depths]
            windows = [
                linalg.toeplitz_matrix(exp.seq.masks.mask(j), c + tau, c)
                for j, c in zip(depths, cols)
            ]
            masks, end = exp.seq.masks, depths[-1]
            rows = [masks.mask(j) for j in range(2, 49)]
            rows += [masks.mask(k) - masks.limit for k in (*range(2, end + 1), 48)]
            rows.append(masks.limit)
            want = [*windows, *(row[None] for row in rows)]
            assert sorted(evaluated) == sorted((w.shape, w.tobytes()) for w in want)
        rows = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
        for row in rows:
            n, lip = row.split(",")[:2]
            want = oracles.network_lipschitz_bound(exp.seq, exp.act, int(n), exp.p)
            assert lip == format_float(want), n

    def test_bounds_norms_its_limit_drifts_in_one_batch(self, tmp_path, monkeypatch):
        """With certified constants the limit column at depth n reads
        E_2 .. E_n: a dense p = 2 table norms them in one batch, none in a
        stack of its own."""
        cfg = CONFIG_DIR / "dense_exp_decay.json"
        batches = []
        norms = analysis.BoundContext.norms

        def recorded(self, keys):
            batches.append(list(keys))
            return norms(self, keys)

        monkeypatch.setattr(analysis.BoundContext, "norms", recorded)
        result = CliRunner().invoke(
            main, ["bounds", "--config", str(cfg), "--out", str(tmp_path)]
        )
        monkeypatch.undo()
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[3] for row in rows)
        exp = load_config(str(cfg))
        assert exp.p.p == 2.0 and exp.extension == ZERO_PAD
        drifts = [[k for k in keys if k[0] == "E"] for keys in batches]
        assert [("E", k) for k in range(2, exp.depths.reference + 1)] in drifts
        assert not [keys for keys in batches if len(keys) == 1 and keys[0][0] == "E"]

    def test_rates_output(self, tmp_path):
        # shallow grids are polluted by transients, so fit over deeper n
        doc = base_doc(
            depths={"n_list": [2, 4, 6, 8, 10, 12], "m_list": [1, 2], "reference_depth": 32}
        )
        doc["domain"]["sampler"]["count"] = 16
        cfg = write_config(tmp_path, doc)
        result = CliRunner().invoke(
            main, ["rates", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        rates = json.loads((tmp_path / "rates.json").read_text())
        assert 0.0 < rates["rate"]["rate"] < 1.0
        assert rates["rate"]["r_squared"] > 0.9
        assert len(rates["dev_to_reference"]) == 6

    @pytest.mark.parametrize("command", ["run", "rates", "check", "bounds"])
    def test_out_of_range_norm_is_exit_1(self, tmp_path, command):
        """Weights near 1e200 overflow the p = 2 Gram matrices: the commands
        refuse the config instead of certifying bounds on a zero norm."""
        doc = base_doc(norm={"p": 2})
        doc["generator"]["scale"] = 1e200
        cfg = write_config(tmp_path, doc)
        result = CliRunner().invoke(
            main, [command, "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: induced_norm: a p = 2 operand is out of double range" in (
            result.output
        )
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["run", "check", "bounds"])
    @pytest.mark.parametrize(
        "over, message",
        [
            ({"activation": {"name": ["relu"]}}, "activation.name must be a string"),
            ({"activation": {"name": {"relu": 1}}}, "activation.name must be a string"),
            ({"comparison": None}, "comparison section must be an object"),
            ({"comparison": ""}, "comparison section must be an object"),
            ({"comparison": 0}, "comparison section must be an object"),
            ({"comparison": []}, "comparison section must be an object"),
            ({"label": 5}, "label must be a string"),
            ({"output": {"report": ["a"]}}, "output.report must be a string"),
            ({"output": {"table": 3}}, "output.table must be a string"),
            ({"tolerances": {"dominance_rtol": 0.5}}, "config: unknown key(s) ['tolerances']"),
            # JSON values of the wrong type are refused, never coerced
            (section("depths", n_list="12"), "depths.n_list must be a list, got '12'"),
            (
                section("depths", m_list=[1.9, 2]),
                "depths.m_list[0] must be an integer, got 1.9",
            ),
            (
                section("depths", reference_depth=40.5),
                "depths.reference_depth must be an integer, got 40.5",
            ),
            (
                section("generator", widths="45"),
                "generator.widths must be an integer, got '45'",
            ),
            (
                section("generator", input_dim=3.7),
                "generator.input_dim must be an integer, got 3.7",
            ),
            (section("generator", rate="0.5"), "generator.rate must be a number, got '0.5'"),
            (
                {
                    "generator": {
                        **CONV_DOC["generator"],
                        "mask": {**CONV_DOC["generator"]["mask"], "base": "21"},
                    },
                    "norm": {"p": "inf"},
                },
                "generator.mask.base must be a list, got '21'",
            ),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"norm": {"p": True}}, 'norm.p must be 1, 2, or "inf"'),
            (
                section("domain", sampler={"count": 2.9}),
                "domain.sampler.count must be an integer, got 2.9",
            ),
            (
                section("domain", sampler={"count": "30"}),
                "domain.sampler.count must be an integer, got '30'",
            ),
            (section("domain", bound="1"), "domain.bound must be a number, got '1'"),
            (
                section("domain", sampler={"seed": -1}),
                "domain.sampler: sampler seed must be >= 0, got -1",
            ),
            (
                {"activation": {"name": "leaky_relu", "alpha": "0.1"}},
                "activation.alpha must be a number, got '0.1'",
            ),
            (
                {"activation": {"name": "leaky_relu", "alpha": False}},
                "activation.alpha must be a number, got False",
            ),
            ({"output": {"report": ""}}, "output.report must name a file"),
            ({"output": {"table": ""}}, "output.table must name a file"),
            # JSON integers are unbounded; one with no finite double is refused
            (section("domain", bound=10**400), "domain.bound must be a number within"),
            (section("generator", rate=10**400), "generator.rate must be a number within"),
            (
                section("generator", norm_target=10**400),
                "generator.norm_target must be a number within",
            ),
            (
                {"activation": {"name": "leaky_relu", "alpha": 10**400}},
                "activation.alpha must be a number within",
            ),
            (
                {
                    "generator": {
                        **CONV_DOC["generator"],
                        "mask": {**CONV_DOC["generator"]["mask"], "base": [0.2, 10**400]},
                    },
                    "norm": {"p": "inf"},
                },
                "generator.mask.base[1] must be a number within",
            ),
            *(
                (
                    {"generator": {**CONV_DOC["generator"], "mask": mask}},
                    "generator.mask must be an object",
                )
                for mask in (0, True, 1.5)
            ),
            (
                {"pooling": {"name": "none", "mu": 3}},
                "pooling.mu must be absent or 0 for none, got 3",
            ),
            (
                {"pooling": {"name": "identity", "mu": 2}},
                "pooling.mu must be absent or 0 for identity, got 2",
            ),
            ({"pooling": {"name": "none", "mu": "x"}}, "pooling.mu must be an integer, got 'x'"),
            ({"pooling": {"name": "none", "mu": 0.0}}, "pooling.mu must be an integer, got 0.0"),
            (
                {"pooling": {"name": "identity", "mu": None}},
                "pooling.mu must be an integer, got None",
            ),
        ],
        ids=[
            "name-list", "name-object", "comparison-null", "comparison-empty",
            "comparison-zero", "comparison-list", "label-number", "report-list",
            "table-number", "tolerances", "n_list-string", "m_list-real",
            "reference-real", "widths-string", "input_dim-real", "rate-string",
            "mask-base-string", "seed-bool", "p-bool", "count-real", "count-string",
            "bound-string", "sampler-seed-negative", "alpha-string", "alpha-bool",
            "report-empty", "table-empty",
            "bound-huge-int", "rate-huge-int", "norm_target-huge-int", "alpha-huge-int",
            "mask-base-huge-int", "mask-zero", "mask-bool", "mask-real",
            "none-mu", "identity-mu", "none-mu-string", "none-mu-real", "identity-mu-null",
        ],
    )
    def test_malformed_config_is_exit_1(self, tmp_path, command, over, message):
        """Ill-typed config values are refused before any output is written."""
        cfg = write_config(tmp_path, base_doc(**over))
        result = CliRunner().invoke(
            main, [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check", "rates", "bounds"])
    def test_integer_past_the_digit_limit_is_exit_1(self, tmp_path, command):
        """A JSON integer of 5,001 digits exceeds Python's integer-string
        limit inside ``json.load``; the error names the config file."""
        text = json.dumps(base_doc(domain={"bound": 0.0}))
        text = text.replace('"bound": 0.0', '"bound": 1' + "0" * 5000)
        cfg = tmp_path / "huge.json"
        cfg.write_text(text)
        result = CliRunner().invoke(
            main, [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: config {cfg} cannot be parsed" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["run", "rates", "check", "bounds"])
    @pytest.mark.parametrize("bound", [9e307, 1.7976931348623157e308])
    def test_domain_without_a_finite_diameter_is_exit_1(self, tmp_path, command, bound):
        """The uniform sampler draws from [-bound, bound], an interval whose
        length 2 * bound overflows past 8.99e307: every command refuses such
        a domain while parsing, instead of ending in numpy's OverflowError
        or certifying bounds for a domain it could not sample."""
        cfg = write_config(tmp_path, base_doc(**section("domain", bound=bound)))
        result = CliRunner().invoke(
            main, [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: domain: domain diameter 2 * bound must be finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "rates", "check", "bounds"])
    def test_domain_without_a_finite_norm_bound_is_exit_1(self, tmp_path, command):
        """At p = 1 the cube [-8.9e307, 8.9e307]^3 has a finite diameter but
        the norm bound 3 * 8.9e307 every bound is taken at overflows: every
        command refuses it while parsing, instead of certifying an infinite
        bound or ending in an OverflowError."""
        cfg = write_config(tmp_path, base_doc(**section("domain", bound=8.9e307)))
        result = CliRunner().invoke(
            main, [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: domain: norm bound bound * dim^(1/p) must be finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_values_at_the_edge_of_the_rules_parse(self):
        """The largest bounds below 2 * bound's overflow (at p = inf, where
        the norm bound is the bound itself), and mu = 0 without a pooling
        window."""
        doc = base_doc(norm={"p": "inf"}, **section("domain", bound=8.9e307))
        assert parse_config(doc).domain.bound == 8.9e307
        for name in ("none", "identity"):
            seq = parse_config(base_doc(pooling={"name": name, "mu": 0})).seq
            assert seq.pooling == no_pooling()

    @pytest.mark.parametrize(
        "command, over",
        [
            ("run", section("domain", sampler={"count": 10**15})),
            ("check", section("generator", widths=10**9)),
            ("check", section("generator", input_dim=10**15)),
            ("selftest", None),
        ],
        ids=["sampler-count", "widths", "input_dim", "selftest-samples"],
    )
    def test_unallocatable_size_is_exit_1(self, tmp_path, command, over):
        """A size whose first array needs tens of PiB or more (numpy refuses
        it before allocating anything) ends in ``Error: ...`` and exit code
        1, not in a MemoryError traceback.  ``selftest`` takes its size from
        ``--samples``."""
        if over is None:
            args = [command, "--samples", str(10**15)]
        else:
            cfg = write_config(tmp_path, base_doc(**over))
            args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: Unable to allocate" in result.stderr
        assert "Traceback" not in result.stderr

    def test_memory_error_without_text_is_named(self, tmp_path, monkeypatch):
        """A MemoryError with no text (a depth of 2^63 runs out of memory
        layer by layer) still ends in a message, never a bare ``Error:``: it
        names the exception and the inputs to reduce, with exit code 1."""

        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "convergence_study", out_of_memory)
        cfg = write_config(tmp_path, base_doc())
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        message = result.stderr.strip().removeprefix("Error:").strip()
        assert message.startswith("MemoryError; reduce the depths"), result.stderr
        assert "Traceback" not in result.stderr

    def test_overflowing_constant_padded_states_are_exit_1(self, tmp_path):
        """A relu convolution whose mask sums to 3.5 (|mask| to 7.5) drives
        its constant-padded states past the double range long before depth
        700: the sweep refuses the non-finite sequence, and ``run`` ends in
        ``Error: ...`` and exit code 1, not a traceback or a verdict."""
        doc = {
            **CONV_DOC,
            "label": "cli-conv-overflow",
            "generator": {
                "family": "conv",
                "input_dim": 2,
                "mask": {"family": "diverging", "base": [3.0, -2.0, 2.5]},
            },
            "activation": {"name": "relu"},
            "comparison": {"extension": "constant_pad"},
            "domain": {"bound": 1.0, "sampler": {"count": 5}},
            "depths": {"n_list": [1, 2, 3, 4], "m_list": [1, 2], "reference_depth": 700},
        }
        cfg = write_config(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            result = CliRunner().invoke(
                main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
            )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: sequence head entries must be finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out" / "report.json").exists()

    def test_overflowing_zero_padded_states_are_exit_1(self, tmp_path):
        """The same convolution compared under zero padding: its states
        leave the double range too, and the distance between two states of
        different widths refuses them, so ``run`` ends in exit code 1."""
        doc = {
            **CONV_DOC,
            "label": "cli-conv-overflow-zero-pad",
            "generator": {
                "family": "conv",
                "input_dim": 2,
                "mask": {"family": "diverging", "base": [3.0, -2.0, 2.5]},
            },
            "activation": {"name": "relu"},
            "comparison": {"extension": "zero_pad"},
            "domain": {"bound": 1.0, "sampler": {"count": 5}},
            "depths": {"n_list": [1, 2, 3, 4], "m_list": [1, 2], "reference_depth": 700},
        }
        cfg = write_config(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            result = CliRunner().invoke(
                main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
            )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert (
            "Error: state_deviation: states of different widths must be finite"
            in result.stderr
        )
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out" / "report.json").exists()

    def test_p2_norms_past_the_range_of_the_squares_pass(self, tmp_path):
        """At p = 2 the cube [-8.9e307, 8.9e307]^3 has the finite norm bound
        1.54e308, but its states have entries whose squares overflow: their
        norms are still finite, so ``run`` passes with no violation."""
        doc = base_doc(norm={"p": 2}, **section("domain", bound=8.9e307))
        cfg = write_config(tmp_path, doc)
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.output
        assert "VIOLATION" not in result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["violations"] == {"apriori": [], "dominance": [], "limit": []}

    @pytest.mark.parametrize("key", ["report", "table"])
    def test_unwritable_output_is_exit_1(self, tmp_path, key):
        """An output file in a missing directory ends in ``Error: ...`` and
        exit code 1, not a traceback after the study has run."""
        cfg = write_config(tmp_path, base_doc(output={key: "nodir/x.out"}))
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: " in result.stderr and "nodir" in result.stderr
        assert "Traceback" not in result.stderr

    def test_selftest_norms_no_weight_limit_alone(self, monkeypatch):
        """|W*| joins the constants scan's batch: a selftest makes 97
        certified p = 2 stacks, the generators' included (109 when each
        dense p = 2 context normed |W*| in a stack of its own), and no
        one-member stack of a context's batches holds a declared W*."""
        stacks, alone, batching = [], set(), []
        spectral, stacked = linalg._spectral_norms, analysis.stacked_norms

        def recording(ms):
            stacks.append(len(ms))
            if batching and len(ms) == 1:
                alone.add((ms.shape[1:], np.asarray(ms).tobytes()))
            return spectral(ms)

        def batch(*args):
            batching.append(True)
            try:
                return stacked(*args)
            finally:
                batching.pop()

        monkeypatch.setattr(linalg, "_spectral_norms", recording)
        monkeypatch.setattr(analysis, "stacked_norms", batch)
        result = CliRunner().invoke(main, ["selftest", "--samples", "5"])
        monkeypatch.undo()
        assert result.exit_code == 0, result.output
        assert len(stacks) == 97
        limits = {
            (w.shape, w.tobytes())
            for w in (inst.build().weight_limit for inst in corpus_instances() if inst.p == TWO)
            if w is not None
        }
        assert len(limits) == 12  # the dense p = 2 studies
        assert alone  # W_1 has a shape of its own
        assert not alone & limits

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_selftest_rejects_nonpositive_samples(self, count):
        result = CliRunner().invoke(main, ["selftest", "--samples", count])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: --samples must be >= 1" in result.output
        assert "Traceback" not in result.output

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "dnclab",
                "run",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.json").exists()

    def test_version_needs_no_install(self):
        # the version comes from the package, not from installed metadata,
        # so it prints from a checkout too
        result = CliRunner().invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert result.output == "dnc-lab, version 0.1.0\n"
        proc = subprocess.run(
            [sys.executable, "-m", "dnclab", "--version"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "dnc-lab, version 0.1.0\n"


class TestConvolutionsBuildNoWeight:
    """A convolution is its masks: no study, ``check``, ``bounds`` or
    ``rates`` path builds a dense weight or calls ``matvec`` on one.  Each
    test makes a convolution's weight function (and ``matvec``) raise."""

    @pytest.fixture(autouse=True)
    def no_dense_weights(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a convolution built a dense weight or product")

        monkeypatch.setattr(network, "toeplitz_matrix", refuse)
        monkeypatch.setattr(network, "matvec", refuse)

    @pytest.mark.parametrize(
        "p, extension",
        [(1, "zero_pad"), (2, "zero_pad"), ("inf", "zero_pad"), ("inf", "constant_pad")],
    )
    @pytest.mark.parametrize("command", ["run", "check", "bounds", "rates"])
    def test_commands(self, tmp_path, p, extension, command):
        doc = {
            **CONV_DOC,
            "activation": {"name": "tanh"},
            "norm": {"p": p},
            "comparison": {"extension": extension},
        }
        cfg = write_config(tmp_path, doc)
        result = CliRunner().invoke(
            main, [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("p", [ONE, TWO, INF])
    def test_window_scan_without_a_limit_mask(self, p):
        """``check``'s condition scans |W_8| .. |W_64| of a convolution whose
        masks declare no limit, from the masks."""
        masks = MaskSeq(1, lambda n: np.array([0.5, -0.25]) * (1.0 + 1.0 / n))
        seq = network.cnn_layer_seq(masks, lambda n: np.zeros(1 + n), 1)
        ctx = BoundContext(seq, make_activation("tanh"), p)
        verdict = analysis.check_condition(ctx)
        assert verdict.method == "tail-scan[8,64]"
        assert verdict.estimate == max(ctx.weight_norm(n) for n in range(8, 65))

    def test_a_non_vanishing_limit_is_still_refused(self):
        """Under zero padding only a vanishing mask declares W* (the zero
        operator): any other limit leaves E_k = |W_k - W*| undefined."""
        exp = parse_config({**CONV_DOC, "comparison": {"extension": "zero_pad"}})
        ctx = BoundContext(exp.seq, exp.act, exp.p, exp.extension)
        with pytest.raises(ValueError, match="no declared weight limit"):
            ctx.weight_limit_diff(3)
        with pytest.raises(ValueError, match="no declared weight limit"):
            ctx.norms([("E", 3)])


class TestExitFreeze:
    """``main`` has the interpreter freeze every tracked object at exit, so
    the final collections skip the module graph; until then nothing is
    frozen."""

    PROBE = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        "import dnclab.cli\n"
        "dnclab.cli.main(sys.argv[1:])\n"
    )

    def test_command_exits_through_the_freeze_with_unchanged_stdout(self):
        # atexit runs last-registered first, so the probe, registered
        # before the command's hook, sees the interpreter after the freeze
        args = ["check", "--config", str(CONFIG_DIR / "dense_exp_decay.json")]
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *args],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        (line,) = [s for s in proc.stderr.splitlines() if s.startswith("frozen ")]
        assert int(line.split()[1]) > 0
        in_process = CliRunner().invoke(main, args)
        assert in_process.exit_code == 0
        assert proc.stdout == in_process.output

    def test_in_process_commands_freeze_nothing_and_hook_once(self, monkeypatch):
        hooks = []

        class Registry:  # the atexit calls the group makes, on a plain list
            register = hooks.append

            def unregister(fn):
                hooks[:] = [h for h in hooks if h != fn]

        monkeypatch.setattr(cli, "atexit", Registry)
        for _ in range(2):
            result = CliRunner().invoke(
                main, ["check", "--config", str(CONFIG_DIR / "dense_exp_decay.json")]
            )
            assert result.exit_code == 0, result.output
        assert hooks == [gc.freeze]
        assert gc.get_freeze_count() == 0
