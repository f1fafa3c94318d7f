"""TDST026: the ``[service]`` table pass and cross-spec socket collisions."""

import tempfile
from pathlib import Path

import pytest

from repro.campaign.spec import REMOVED_SERVICE_KEYS, CampaignSpec
from repro.cli import main
from repro.lint import lint_paths, lint_spec_text

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
length = 64
"""


def spec(name="svc-test", service=""):
    return SPEC_HEAD.format(name=name) + service


def by_code(report, code):
    return [d for d in report.diagnostics if d.code == code]


class TestServiceTable:
    def test_clean_service_table(self):
        report = lint_spec_text(
            spec(service="[service]\nenabled = true\nshards = 4\n")
        )
        assert not by_code(report, "TDST026")
        assert report.ok

    def test_unknown_key_is_an_error(self):
        report = lint_spec_text(
            spec(service="[service]\nenabled = true\nsherds = 4\n")
        )
        diags = by_code(report, "TDST026")
        assert diags and diags[0].severity == "error"
        assert "known [service] keys" in (diags[0].hint or "")
        assert not report.ok

    def test_bad_shard_count_is_an_error(self):
        report = lint_spec_text(
            spec(service="[service]\nenabled = true\nshards = -2\n")
        )
        diags = by_code(report, "TDST026")
        assert diags and diags[0].severity == "error"

    def test_bad_table_does_not_mask_rest_of_spec(self):
        # The service table is stripped after the error so the campaign
        # spec itself still parses and gets its own passes.
        report = lint_spec_text(
            spec(service="[service]\nenabled = true\nsherds = 4\n")
        )
        assert all(
            d.code == "TDST026" or d.severity != "error"
            for d in report.diagnostics
        )

    def test_knobs_without_enabled_warn(self):
        report = lint_spec_text(
            spec(service="[service]\nshards = 8\n")
        )
        diags = by_code(report, "TDST026")
        assert diags and diags[0].severity == "warning"
        assert "no effect" in diags[0].message

    def test_bare_disabled_table_is_silent(self):
        report = lint_spec_text(spec(service="[service]\nenabled = false\n"))
        assert not by_code(report, "TDST026")

    def test_queue_capacity_below_shards_warns(self):
        report = lint_spec_text(
            spec(
                service=(
                    "[service]\nenabled = true\nshards = 8\n"
                    "queue_capacity = 2\n"
                )
            )
        )
        diags = by_code(report, "TDST026")
        assert any("queue_capacity" in d.message for d in diags)

    def test_deep_campaign_dir_overflows_socket_budget(self, tmp_path):
        deep = tmp_path.joinpath(*["deep-segment"] * 10)
        deep.mkdir(parents=True)
        path = deep / "spec.toml"
        text = spec(
            name="a-rather-long-campaign-name",
            service="[service]\nenabled = true\n",
        )
        path.write_text(text)
        tree_before = sorted(tmp_path.rglob("*"))
        tmp_before = sorted(Path(tempfile.gettempdir()).glob("tdst-svc-*"))
        report = lint_spec_text(text, path=str(path))
        diags = by_code(report, "TDST026")
        assert any("sun_path" in d.message for d in diags)
        assert all(d.severity == "warning" for d in diags)
        # Linting measures the would-be socket path; it creates nothing.
        assert sorted(tmp_path.rglob("*")) == tree_before
        assert (
            sorted(Path(tempfile.gettempdir()).glob("tdst-svc-*"))
            == tmp_before
        )


class TestRemovedKeys:
    """Keys of the retired chunk-parallel stage load, warn, and are ignored."""

    VALUES = {
        "chunk_parallel": "true",
        "chunk_shards": "3",
        "min_chunk_records": "64",
    }

    @pytest.mark.parametrize("key", REMOVED_SERVICE_KEYS)
    def test_spec_loads_lint_warns_campaign_runs(self, key, tmp_path, capsys):
        service = f"[service]\nenabled = true\n{key} = {self.VALUES[key]}\n"
        text = spec(name="removed", service=service).replace(
            "length = 64", "length = 16"
        )
        loaded = CampaignSpec.from_toml(text)
        assert loaded.service.enabled

        report = lint_spec_text(text)
        diags = [d for d in by_code(report, "TDST026") if key in d.message]
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert report.ok

        path = tmp_path / "removed.toml"
        path.write_text(text)
        code = main(["campaign", str(path), "--dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "TDST026" in captured.err and key in captured.err
        assert "done: 1  failed: 0" in captured.out


class TestCrossSpecCollisions:
    def _write(self, directory, stem, name, enabled=True):
        path = directory / f"{stem}.toml"
        path.write_text(
            spec(
                name=name,
                service=f"[service]\nenabled = {str(enabled).lower()}\n",
            )
        )
        return path

    def test_same_name_two_enabled_specs_collide(self, tmp_path):
        a = self._write(tmp_path, "a", "shared")
        b = self._write(tmp_path, "b", "shared")
        report = lint_paths([a, b])
        diags = [d for d in report.diagnostics if d.code == "TDST026"]
        assert len(diags) == 2  # one per colliding file
        assert {d.path for d in diags} == {str(a), str(b)}
        assert all("service.sock" in d.message for d in diags)

    def test_distinct_names_do_not_collide(self, tmp_path):
        a = self._write(tmp_path, "a", "one")
        b = self._write(tmp_path, "b", "two")
        report = lint_paths([a, b])
        assert not any(
            "collide" in d.message
            for d in report.diagnostics
            if d.code == "TDST026"
        )

    def test_disabled_spec_does_not_collide(self, tmp_path):
        a = self._write(tmp_path, "a", "shared")
        b = self._write(tmp_path, "b", "shared", enabled=False)
        report = lint_paths([a, b])
        assert not any(
            "collide" in d.message
            for d in report.diagnostics
            if d.code == "TDST026"
        )
