"""TDST026: an unknown top-level name or ``[campaign]`` key is ignored,
with one warning."""

import hashlib
import json

import pytest

from repro.campaign.manifest import RunManifest
from repro.campaign.spec import CampaignSpec
from repro.cli import main

pytestmark = pytest.mark.lint

SPEC_HEAD = """\
[campaign]
name = "{name}"

[[caches]]
size = 32768
block = 32
assoc = 1

[[grid]]
kernel = "1a"
length = 16
"""


def spec(name="svc-test", tail=""):
    return SPEC_HEAD.format(name=name) + tail


def tree_digest(root):
    """{relative path: sha256} over every file under ``root``."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRemovedKeys:
    """Every ``[service]`` or ``[batch]`` table, misspelled table and
    misspelled ``[campaign]`` key loads, warns once, and changes
    nothing."""

    CASES = {
        "enabled": spec(tail="[service]\nenabled = true\nshards = 4\n"),
        "chunk_parallel": spec(tail="[service]\nchunk_parallel = true\n"),
        "unknown_key": spec(tail="[service]\nsherds = 4\n"),
        # A top-level scalar must precede the first table header.
        "scalar": "service = 3\n" + spec(),
        # The loader never reads [bacth].
        "misspelled_table": spec(tail="[bacth]\nenabled = false\n"),
        # Tables a past version read: grouping and results stay as they were.
        "batch_disabled": spec(tail="[batch]\nenabled = false\n"),
        "batch_max_configs": spec(tail="[batch]\nmax_configs = 1\n"),
        # Attribution stays "base": the loader never reads attributon.
        "misspelled_campaign_key": spec().replace(
            "[campaign]\n", '[campaign]\nattributon = ["member"]\n'
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_spec_loads_lint_warns_campaign_runs(self, case, tmp_path, capsys):
        text = self.CASES[case]
        CampaignSpec.from_toml(text)

        path = tmp_path / "service.toml"
        path.write_text(text)
        assert main(["lint", str(path), "--format", "json"]) == 0
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        ignored = [d for d in diags if d["code"] == "TDST026"]
        assert len(ignored) == 1
        assert ignored[0]["severity"] == "warning"

        out = tmp_path / "out"
        code = main(["campaign", str(path), "--dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("TDST026") == 1
        assert "done: 1  failed: 0" in captured.out
        rows = RunManifest.read(out / "manifest.jsonl")
        workers = [r["worker"] for r in rows if r["event"] == "job-done"]
        assert workers and all(w >= 0 for w in workers)

        plain = tmp_path / "plain.toml"
        plain.write_text(spec())
        assert main(["campaign", str(plain), "--dir", str(tmp_path / "p")]) == 0
        assert tree_digest(out / "artifacts") == tree_digest(
            tmp_path / "p" / "artifacts"
        )
