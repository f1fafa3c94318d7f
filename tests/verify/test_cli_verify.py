"""End-to-end tests of ``tdst verify`` and ``tdst campaign --verify``."""

import json
import shutil

import pytest

from repro.cli import main
from repro.trace.stream import Trace
from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS
from repro.verify.golden import GOLDEN_DIR


@pytest.fixture
def pipeline(tmp_path):
    """A traced kernel, its rule file, and its transformed trace."""
    original = tmp_path / "orig.out"
    rules = tmp_path / "t1.rules"
    transformed = tmp_path / "trans.out"
    assert main(["trace", "1a", "--length", "16", "-o", str(original)]) == 0
    rules.write_text(RULE_T1_SOA_TO_AOS.format(length=16))
    assert (
        main(["transform", str(original), str(rules), "-o", str(transformed)])
        == 0
    )
    return original, transformed, rules


class TestVerifyPaper:
    def test_default_mode_is_paper_and_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "3/3 cases ok" in out

    def test_update_golden_into_custom_dir(self, tmp_path, capsys):
        assert (
            main(
                [
                    "verify",
                    "--paper",
                    "--update-golden",
                    "--golden-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "t1.json",
            "t2.json",
            "t3.json",
        ]
        assert "regenerated" in capsys.readouterr().out
        # The freshly regenerated corpus then verifies clean.
        assert main(["verify", "--golden-dir", str(tmp_path)]) == 0

    def test_update_golden_env_does_not_rewrite(
        self, tmp_path, monkeypatch, capsys
    ):
        """Only ``--update-golden`` regenerates; ``UPDATE_GOLDEN`` (the
        sink-golden switch of the obsv tests) leaves the corpus alone."""
        for path in GOLDEN_DIR.glob("*.json"):
            shutil.copy(path, tmp_path / path.name)
        t1 = tmp_path / "t1.json"
        doc = json.loads(t1.read_text())
        doc["trace_records"] += 1
        t1.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        monkeypatch.setenv("UPDATE_GOLDEN", "1")
        assert main(["verify", "--paper", "--golden-dir", str(tmp_path)]) == 1
        assert "verify: FAIL" in capsys.readouterr().out
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestVerifyAdHoc:
    def test_sound_transform_exits_zero(self, pipeline, capsys):
        original, transformed, rules = pipeline
        assert (
            main(["verify", str(original), str(transformed), str(rules)]) == 0
        )
        assert "SOUND" in capsys.readouterr().out

    def test_partial_positionals_are_a_usage_error(self, pipeline, capsys):
        original, transformed, _ = pipeline
        assert main(["verify", str(original), str(transformed)]) == 2
        assert "ORIGINAL TRANSFORMED RULES" in capsys.readouterr().out

    def test_tampered_transform_exits_one(self, pipeline, capsys, tmp_path):
        original, transformed, rules = pipeline
        records = list(Trace.load(transformed))
        for i, record in enumerate(records):
            if record.var is not None and record.var.base == "lAoS":
                records[i] = record.evolve(addr=record.addr + 1)
                break
        tampered = tmp_path / "tampered.out"
        Trace(records).save(tampered)
        assert (
            main(["verify", str(original), str(tampered), str(rules)]) == 1
        )
        out = capsys.readouterr().out
        assert "UNSOUND" in out
        assert "remap-address" in out


@pytest.mark.fuzz
class TestVerifyFuzz:
    def test_fuzz_mode(self, capsys):
        pytest.importorskip("hypothesis")
        assert main(["verify", "--fuzz", "12"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: PASS" in out


class TestCampaignVerifyFlag:
    def test_paper_campaign_with_verification(self, tmp_path, capsys):
        assert (
            main(
                [
                    "campaign",
                    "paper",
                    "--length",
                    "16",
                    "--dir",
                    str(tmp_path),
                    "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failed    : 0" in out or "0 failed" in out or "done" in out
