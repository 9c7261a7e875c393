"""Golden-output test: every CLI artefact keeps its exact bytes.

The SHA-256 digests below were frozen from the code before the bound engine
was consolidated; refactors must reproduce them byte for byte.  Files that
carry a ``generated_at`` stamp are compared with it stripped.  To refreeze
after a deliberate output change, run this file directly: it prints the
current digests in the layout of ``GOLDEN``.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from dnclab.cli import main
from dnclab.report import strip_generated_at

CONFIG_DIR = Path(__file__).resolve().parents[1] / "sample_configs"
CONFIGS = ("dense_exp_decay", "conv_constant_limit")
STAMPED = ("report.json", "rates.json", "verdicts.json")

GOLDEN = {
    "dense_exp_decay/run/report.json": "26098d78c9857918b1a3c415cf895d8e12dcf6d00076bbe7e494742444f2f4a4",
    "dense_exp_decay/run/table.csv": "f215605f3ed1ea24e092dcdc9e450cf644d46ed7f47bf7668a392e2e779fb098",
    "dense_exp_decay/rates/rates.json": "009a6f4223e83f39822744602681b166d5f2e2d757830e5229f73f0cc180912f",
    "dense_exp_decay/check/verdicts.json": "96eb9e599cc413746edf350f7bf40b4e48bcccb50aa041d50db5ecfa19d3f0af",
    "dense_exp_decay/bounds/bounds.csv": "3f35e7a77f3eaa7588b86cf5060f65898444565b80e3516e759ade074d7fc641",
    "conv_constant_limit/run/report.json": "1ca6d00d756da3f277d73cf652f7d311575fb7fdfbde415d154be62c8a639645",
    "conv_constant_limit/run/table.csv": "aa2d077e2e5e99ae43d343a27f2c0e9b3d73043e24928babc77b315201894925",
    "conv_constant_limit/rates/rates.json": "ffc899b778e1b6eb8ebb3d2443aa44a1d0a736f607aba304c84c681c18c704e5",
    "conv_constant_limit/check/verdicts.json": "a3ef8b604c44e1bbf9ec2387cbdba765ee4188abd5a35be77adc48a9626726ae",
    "conv_constant_limit/bounds/bounds.csv": "2c86d3309bdf3b51a2a1a3badde7a1727ca166cc639f5d1866f920a57a15933d",
    "selftest/stdout": "60c01aeae2b2c9f589b550a71a1955a94bd740a8715fe09206d58935c500ccc3",
}


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in compute_digests(Path(tmp)).items():
            print(f'    "{key}": "{value}",')
