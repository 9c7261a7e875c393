"""Golden-output test: every CLI artefact keeps its exact bytes.

The SHA-256 digests below were frozen from the code before the bound engine
was consolidated; refactors must reproduce them byte for byte.  Files that
carry a ``generated_at`` stamp are compared with it stripped.

``STUDY_GOLDEN`` freezes, per study, the ``repr`` of every result-bearing
field of a :class:`~dnclab.study.StudyResult` (rows, state rows, constants,
rate and violation tuples).  ``repr`` of a float is its shortest round-trip
form, so these digests catch a last-bit drift that the CLI's rounded stdout
cannot: all 50 corpus instances and the 2 diverging controls at the
``selftest`` plan with 5 samples, plus one inline dense p = 2 study at
width 64 and one constant-padded sigmoid convolution.  They were frozen
from the per-sample evaluation path, before the recursion was batched.

To refreeze after a deliberate output change, run this file directly: it
prints the current digests in the layout of ``GOLDEN`` and ``STUDY_GOLDEN``.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from dnclab import network
from dnclab.analysis import SamplerSpec
from dnclab.cli import main
from dnclab.config import parse_config
from dnclab.corpus import control_instances, corpus_instances
from dnclab.report import strip_generated_at
from dnclab.study import DepthPlan, convergence_study

CONFIG_DIR = Path(__file__).resolve().parents[1] / "sample_configs"
CONFIGS = ("dense_exp_decay", "conv_constant_limit")
STAMPED = ("report.json", "rates.json", "verdicts.json")

GOLDEN = {
    "dense_exp_decay/run/report.json": "ca5ad0da906a91203425dc9407a8840376b30ddf72c85617aa4d03c373b2506e",
    "dense_exp_decay/run/table.csv": "b3e9813053950a2f4534a119d007b02f9076059aaa8471e77e973d1ed7a9eb45",
    "dense_exp_decay/rates/rates.json": "009a6f4223e83f39822744602681b166d5f2e2d757830e5229f73f0cc180912f",
    "dense_exp_decay/check/verdicts.json": "001dd62d1d7911222f136c7e04e1d09e5e3e7a3e2cab68ac3495dce66ed53545",
    "dense_exp_decay/bounds/bounds.csv": "ef91f550d9e05342b6ec40ff23225aa317b8f67219ce83dda58b880634fcbc9a",
    "conv_constant_limit/run/report.json": "1ca6d00d756da3f277d73cf652f7d311575fb7fdfbde415d154be62c8a639645",
    "conv_constant_limit/run/table.csv": "aa2d077e2e5e99ae43d343a27f2c0e9b3d73043e24928babc77b315201894925",
    "conv_constant_limit/rates/rates.json": "ffc899b778e1b6eb8ebb3d2443aa44a1d0a736f607aba304c84c681c18c704e5",
    "conv_constant_limit/check/verdicts.json": "a3ef8b604c44e1bbf9ec2387cbdba765ee4188abd5a35be77adc48a9626726ae",
    "conv_constant_limit/bounds/bounds.csv": "2c86d3309bdf3b51a2a1a3badde7a1727ca166cc639f5d1866f920a57a15933d",
    "selftest/stdout": "60c01aeae2b2c9f589b550a71a1955a94bd740a8715fe09206d58935c500ccc3",
}


STUDY_GOLDEN = {
    "corpus/fixed4-constant-relu-p1": "2d0707070c6458d0dc1c0c7f2d90892c2b845780e1a82f686c943fadeab553c0",
    "corpus/fixed4-constant-prelu-p2": "9290907cbff4f69dd94289749d1cda5870a58e434e2d7fee081ab02ec56b1c42",
    "corpus/fixed4-constant-selu-pinf": "34bfaf57455a1cac9e4d14ff6c8ec6da2572b7ac48d4de884c0147788bc72d32",
    "corpus/fixed4-constant-sigmoid-p1": "1b6e43953758f103aa417f9343924602f55d1e5550ae2f6d53bae296ad0d28a4",
    "corpus/fixed4-exp_decay-relu-p2": "e9b9e62678662dabde830d20236d010d2fa4fef886d170c4e18d83650404c87f",
    "corpus/fixed4-exp_decay-prelu-pinf": "ea2ef3812a9bb79f7f2effa0bd746daa21d77ae2e54a2ad62912008254a5bbf6",
    "corpus/fixed4-exp_decay-selu-p1": "bc23868048db348050bc0881e6f2ab625d02e17ec1a4a7147e13f13332500c54",
    "corpus/fixed4-exp_decay-sigmoid-p2": "806f8f7459a7ecdaa99796d20a205e3f70f63fe42b5b0269e12a40344e19cb50",
    "corpus/fixed4-random_convergent-relu-pinf": "e0e862b449433b486dd5acffed06059cf248e231a93003b5f67cb291ba85279b",
    "corpus/fixed4-random_convergent-prelu-p1": "c5dd4929b95c94323b19dc9448c9f06ba260bf5bc9a205c5505344393c4dee37",
    "corpus/fixed4-random_convergent-selu-p2": "0684804c9ddabe0cef083d7c1feb473207d35a5b40dfcb631be805c57b395fa8",
    "corpus/fixed4-random_convergent-sigmoid-pinf": "68325de86a153c6923c7770438cd146b1ff8745c174fa03cedc67f1c6f78a49d",
    "corpus/avg2-constant-relu-p1": "b6b0ada79eed8c04a1821a78214321cbb607c6ac661e3c3fd368a71a1e545a13",
    "corpus/avg2-constant-prelu-p2": "bfd3b66901564d4fd281a6973f6d1d1c00c59869adbd4efd90e715b601df455e",
    "corpus/avg2-constant-selu-pinf": "e903c52f056658f8b2c4c0edf65b1bfa761444c67adcfe3d9b4604c3ded69748",
    "corpus/avg2-constant-sigmoid-p1": "3071cb3d97a9c2fa991f08e5dc74a77e2e06c5dcd6218ab45e050c3288689709",
    "corpus/avg2-exp_decay-relu-p2": "89a7e7858b3543a519f815ff9368c5e7dca027a4331b01cec17a6968274455df",
    "corpus/avg2-exp_decay-prelu-pinf": "2c0a237ad3da662147cb7f86eb05c7232be780112cfbc2fa4d130da58776b23c",
    "corpus/avg2-exp_decay-selu-p1": "e3b36639b53150f0b15a5bfe5522d4beb8d1f56a83aba8e1ad7c6e7fed7a6661",
    "corpus/avg2-exp_decay-sigmoid-p2": "778b3d602aa4d1fd4f101de14b85e1d3213f0e5fe6c27b989057de17123583f0",
    "corpus/max1-exp_decay-relu-pinf": "f103cf15cbc03a8adc826039c7dc645d2c4db0fa5cc1f66b82066ee606beb319",
    "corpus/max1-exp_decay-prelu-p1": "bcf14da566951ab3d2e6f904f35a3b44c72449f8cc32eb23bd045db1c436e857",
    "corpus/max1-exp_decay-selu-p2": "deef54369dd37db170937dd7195c80cb86bdac4535bd2b9d8c579e194e930f0e",
    "corpus/max1-exp_decay-sigmoid-pinf": "d978e98c8f870be69b6f0345baa8d978563b0aa3c2ae5cbbb5969daac5138c95",
    "corpus/cyc534-exp_decay-relu-p1": "a72e66ff071476cd78c2c4c293e7ba432b191f2321ba4b7943f92f65408ab617",
    "corpus/cyc534-exp_decay-prelu-p2": "9909f4b8c66f7c3107d4f05687209c626b621f61abc96953c40c1d4deded89ec",
    "corpus/cyc534-exp_decay-selu-pinf": "92e00d141577372fa76fcb471a4646b889ba622d6e8410adf450f1567dcbce54",
    "corpus/cyc534-exp_decay-sigmoid-p1": "c168f6e446abbcac84e0e29ea7703122c13a31005d4d468c7b62091c1cd14013",
    "corpus/cyc43-random_convergent-relu-p2": "92cc6bc322a9319158542feaf385fd2b57e2056b37177279c63681a4b4f2bc79",
    "corpus/cyc43-random_convergent-prelu-pinf": "6c626c9ed05b14f0f4e14612c6640c3e2b26db0df96a7dba16778dd619c606b9",
    "corpus/cyc43-random_convergent-selu-p1": "5fb266b64d8d13201cd0f3324e6c652b647200d83bcb46b6a9323b9bb81e16d1",
    "corpus/cyc43-random_convergent-sigmoid-p2": "18a019a41be135b100130c19918ce5848694485151689de4b2fea83ac439c65e",
    "corpus/convz-t1-relu-p1": "ee9d31166255968792872a87972508664ea76f6a510b36bd3a28b42d74f2200c",
    "corpus/convz-t1-prelu-pinf": "e2dfded59a9375566375313f596fc0f303d5b974349f7bb5b5bcb66e9b7305c8",
    "corpus/convz-t1-selu-p1": "63b1ddfa0c26ffa526153d024fea27cd01bdaa0a890e46ccf21b4c329cec654e",
    "corpus/convz-t1-sigmoid-pinf": "53ada69bf7c51a571df893024bb6044b9cd4a04aa5345e2d88dbf73de4c5c738",
    "corpus/convz-t2-relu-p1": "9e1a05c0d53cb40f15eec8e339e97663b5568e8f86f185472ab23b9780224c08",
    "corpus/convz-t2-prelu-pinf": "51fb92715655f4049431928522f4cf39b0cf6416edd409aeb1b4858abee91791",
    "corpus/convz-t2-selu-p1": "6edfdd69905d3069d00c0426c04cc2d78844d66a7f6cc438c5b0ecf5d6229830",
    "corpus/convz-t2-sigmoid-pinf": "65b4d4b6056cd71d19f424dac8cd66fcb447bfdc692f1c03005c50449cfac750",
    "corpus/convc-t1-relu-pinf": "d4ab2e1a79522ff7fab7863c87d6243bffd5028833bdf0485a4f6e415b9ae530",
    "corpus/convc-t1-prelu-pinf": "e5ab3507e17b27fc60561082a0849b8dec9d6f94884d1cf90e0b35bf92a3b60a",
    "corpus/convc-t1-selu-pinf": "60adb455bef63fed31de412cdf05c0cca9ad5650231417d03e4119616b31ffb3",
    "corpus/convc-t1-sigmoid-pinf": "3d37f337936dac40974da7c60bdec03af498f998968d77c3c05f53d0ccbc023c",
    "corpus/convc-t2-relu-pinf": "991578033b6f6ef9e73dc4b4f910cf9c73115f86fd489e8c306970b3b181bb44",
    "corpus/convc-t2-prelu-pinf": "9b7e7a9ddaf1a2851d1bb2137173df013411249f2fe03c2607f6ae12daa9ea9e",
    "corpus/convc-t2-selu-pinf": "2347caed96139f0ff0c532a1c239e650c6b7b60f5fff17ac7a7695aa4872afff",
    "corpus/convc-t2-sigmoid-pinf": "e16bc00c0b6f1f63e66670a9c0bc96a43d0f7c505abfccc3879e483bb9ba58f8",
    "corpus/deep6-exp_decay-relu-p2": "6e867135fd27694bfcf34157aa257f355c7f66bb14643580dadbf342019f9134",
    "corpus/deep6-exp_decay-prelu-pinf": "72317455d2c1ed941a1ceb7200533bfb70c1164f137b337af717bfb9a587df72",
    "control/control-diverging-dense": "1f7521f8cb52833a1c781a5977b5205e21cfc9f975d95e0721f4d9c63f56c496",
    "control/control-diverging-conv": "33952bb1b0f9fed22cf3c2a16168353d07ef70c430013c8306903088ebc27c25",
    "inline/dense-w64-p2": "5abbfec269a9081ddfca2c6b5aa0755942f1b2e703e6028e0f26fbab3322f31e",
    "inline/conv-constant-pad-sigmoid": "e9fe56d4346b0cf838dcf7a748686742ab4f70b93a07e8ad30068d680a046f65",
}

# the selftest plan (see ``dnc-lab selftest``) at 5 samples per instance
SELFTEST_PLAN = DepthPlan(n_list=(1, 2, 3, 4, 6, 8), m_list=(1, 2, 4), reference_depth=16)

# inline geometries of the benchmark's two scale workloads, at test size
INLINE_CONFIGS = {
    "dense-w64-p2": {
        "label": "dense-w64-p2",
        "seed": 5,
        "generator": {
            "family": "exp_decay",
            "input_dim": 16,
            "widths": 64,
            "rate": 0.5,
            "norm_target": 0.55,
        },
        "activation": {"name": "relu"},
        "norm": {"p": 2},
        "domain": {"bound": 1.0, "sampler": {"kind": "uniform", "count": 50}},
        "depths": {"n_list": [1, 2, 3, 4, 6], "m_list": [1, 2, 4], "reference_depth": 24},
    },
    "conv-constant-pad-sigmoid": {
        "label": "conv-constant-pad-sigmoid",
        "seed": 9,
        "generator": {
            "family": "conv",
            "input_dim": 8,
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
        "domain": {"bound": 1.0, "sampler": {"kind": "uniform", "count": 40}},
        "depths": {
            "n_list": [1, 2, 3, 4, 6, 8, 12],
            "m_list": [1, 2, 4, 8],
            "reference_depth": 32,
        },
    },
}


def _result_digest(result) -> str:
    fields = (
        result.rows,
        result.state_rows,
        result.constants,
        result.rate,
        result.dominance_violations,
        result.apriori_violations,
        result.limit_violations,
    )
    return hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()


def compute_study_digests() -> dict[str, str]:
    """Digest every corpus, control and inline study."""
    out: dict[str, str] = {}
    for group, insts in (("corpus", corpus_instances()), ("control", control_instances())):
        for inst in insts:
            seq = inst.build()
            result = convergence_study(
                seq,
                inst.activation(),
                inst.p,
                inst.domain(),
                SamplerSpec(count=5, seed=inst.gen.seed + 7),
                SELFTEST_PLAN,
                extension=inst.extension,
                label=inst.label,
            )
            out[f"{group}/{inst.label}"] = _result_digest(result)
    for name, doc in INLINE_CONFIGS.items():
        exp = parse_config(doc)
        result = convergence_study(
            exp.seq,
            exp.act,
            exp.p,
            exp.domain,
            exp.sampler,
            exp.depths,
            extension=exp.extension,
            label=exp.label,
        )
        out[f"inline/{name}"] = _result_digest(result)
    return out


def _digest(name: str, raw: bytes) -> str:
    if name.endswith(STAMPED):
        raw = strip_generated_at(raw.decode("utf-8")).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def compute_digests(tmp: Path) -> dict[str, str]:
    """Run every command in-process and digest what it writes."""
    runner = CliRunner()
    out: dict[str, str] = {}
    for cfg in CONFIGS:
        path = str(CONFIG_DIR / f"{cfg}.json")
        for cmd, files in (
            ("run", ("report.json", "table.csv")),
            ("rates", ("rates.json",)),
            ("check", ("verdicts.json",)),
            ("bounds", ("bounds.csv",)),
        ):
            dest = tmp / cfg / cmd
            res = runner.invoke(main, [cmd, "--config", path, "--out", str(dest)])
            assert res.exit_code == 0, res.output
            for f in files:
                key = f"{cfg}/{cmd}/{f}"
                out[key] = _digest(f, (dest / f).read_bytes())
    res = runner.invoke(main, ["selftest", "--samples", "5"])
    assert res.exit_code == 0, res.output
    out["selftest/stdout"] = hashlib.sha256(res.output.encode("utf-8")).hexdigest()
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(digests, name):
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_run_bytes_ignore_seed_environment(tmp_path, cfg):
    """The config's seed is the only seed source: a ``DNC_LAB_SEED`` in the
    environment leaves the ``run`` bytes as frozen."""
    runner = CliRunner(env={"DNC_LAB_SEED": "99"})
    path = str(CONFIG_DIR / f"{cfg}.json")
    res = runner.invoke(main, ["run", "--config", path, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    for f in ("report.json", "table.csv"):
        assert _digest(f, (tmp_path / f).read_bytes()) == GOLDEN[f"{cfg}/run/{f}"], f


def test_constant_padded_run_builds_one_window(tmp_path, monkeypatch):
    """A constant-padded ``run`` reads layer 1's finite Toeplitz window and
    only the biases past it, so it builds one window in all; ``bounds``,
    whose Lipschitz column norms the finite windows, keeps its bytes."""
    calls = []
    window = network.toeplitz_matrix
    monkeypatch.setattr(
        network, "toeplitz_matrix", lambda *args: calls.append(args) or window(*args)
    )
    sample = CONFIG_DIR / "conv_constant_limit.json"
    doc = json.loads(sample.read_text(encoding="utf-8"))
    doc["comparison"] = {"extension": "constant_pad"}
    cfg = tmp_path / "constant_pad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1
    res = runner.invoke(main, ["bounds", "--config", str(sample), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    got = _digest("bounds.csv", (tmp_path / "bounds.csv").read_bytes())
    assert got == GOLDEN["conv_constant_limit/bounds/bounds.csv"]


@pytest.fixture(scope="module")
def study_digests():
    return compute_study_digests()


def test_study_golden_covers_corpus_controls_and_inline(study_digests):
    assert len(STUDY_GOLDEN) == 50 + 2 + len(INLINE_CONFIGS)
    assert sorted(study_digests) == sorted(STUDY_GOLDEN)


@pytest.mark.parametrize("name", sorted(STUDY_GOLDEN))
def test_study_results_match_golden(study_digests, name):
    assert study_digests[name] == STUDY_GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in compute_digests(Path(tmp)).items():
            print(f'    "{key}": "{value}",')
    print()
    for key, value in compute_study_digests().items():
        print(f'    "{key}": "{value}",')
