"""End-to-end tests of ``tdst campaign`` and the campaign report."""

from pathlib import Path

import pytest

from repro.analysis.report import campaign_report
from repro.cli import main

SPEC_TOML = """\
[campaign]
name = "cli-mini"

[[caches]]
size = 2048
block = 32
assoc = 1

[[grid]]
kernel = "1a"
length = 64
rules = ["baseline", "t1"]
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML)
    return path


class TestCampaignCommand:
    def test_run_writes_manifest_and_reports(self, spec_file, tmp_path, capsys):
        directory = tmp_path / "out"
        assert (
            main(["campaign", str(spec_file), "--dir", str(directory)]) == 0
        )
        out = capsys.readouterr().out
        assert "done: 2" in out
        assert "vs base" in out
        assert (directory / "manifest.jsonl").exists()
        assert (directory / "artifacts").is_dir()

    def test_rerun_reports_full_cache_hits(self, spec_file, tmp_path, capsys):
        directory = tmp_path / "out"
        argv = ["campaign", str(spec_file), "--dir", str(directory)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "done: 2  failed: 0\n" in out
        assert "hit rate: 100.0% (2/2 points)" in out
        assert "artifact-cache simulation hits: 2/2" in out

    def test_report_only_mode(self, spec_file, tmp_path, capsys):
        directory = tmp_path / "out"
        assert main(["campaign", str(spec_file), "--dir", str(directory)]) == 0
        capsys.readouterr()
        assert (
            main(
                ["campaign", str(spec_file), "--dir", str(directory), "--report"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "totals: 2 done" in out

    def test_report_needs_no_spec(self, spec_file, tmp_path, capsys):
        directory = tmp_path / "out"
        assert main(["campaign", str(spec_file), "--dir", str(directory)]) == 0
        capsys.readouterr()
        assert main(["campaign", "--dir", str(directory), "--report"]) == 0
        assert "totals: 2 done" in capsys.readouterr().out

    def test_no_spec_without_report_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "SPEC" in err
        assert not (tmp_path / "out").exists()

    def test_report_without_manifest_errors(self, spec_file, tmp_path, capsys):
        assert (
            main(
                [
                    "campaign",
                    str(spec_file),
                    "--dir",
                    str(tmp_path / "nothing"),
                    "--report",
                ]
            )
            == 1
        )
        assert "no manifest" in capsys.readouterr().out

    def test_builtin_paper_spec(self, tmp_path, capsys):
        directory = tmp_path / "out"
        assert (
            main(
                [
                    "campaign",
                    "paper",
                    "--dir",
                    str(directory),
                    "--length",
                    "64",
                    "--jobs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "done: 6" in out
        for rule in ("t1", "t2", "t3"):
            assert f"/{rule}/" in out

    def test_bad_spec_prints_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.toml"
        spec.write_text("[campaign]\nname='x'\n[[grid]]\nkernel='1a'\nrules=['t9']\n")
        assert main(["campaign", str(spec), "--dir", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        # The pre-flight lint catches it before the scheduler starts.
        assert "error" in out and "t9" in out
        assert "pre-flight" in out
        # --no-lint falls through to the spec loader's own clean error.
        assert (
            main(
                ["campaign", str(spec), "--no-lint", "--dir", str(tmp_path / "o")]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "t9" in out

    def test_missing_spec_file_prints_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.toml"
        assert main(["campaign", str(missing), "--dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().out.startswith("error:")

    def test_failed_point_does_not_fail_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("in:\nbroken {{{\n")
        spec = tmp_path / "spec.toml"
        spec.write_text(
            "[campaign]\nname='x'\n[[caches]]\nsize=2048\n"
            "[[grid]]\nkernel='1a'\nlength=64\n"
            f"rules=['baseline', 'file:{bad}']\n"
        )
        # --no-lint: the pre-flight would (correctly) reject the broken
        # rule file up front; this test is about *runtime* job failures.
        assert (
            main(
                [
                    "campaign",
                    str(spec),
                    "--no-lint",
                    "--dir",
                    str(tmp_path / "out"),
                    "--backoff",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failed: 1" in out
        assert "done: 1" in out


class TestCampaignReport:
    def test_before_after_delta(self):
        rows = [
            {
                "event": "job-done",
                "job_id": "1a-L64/baseline/2048B-32b-1w-lru/base",
                "result": {
                    "accesses": 100,
                    "misses": 50,
                    "miss_ratio": 0.5,
                    "cache_hits": {"simulation": False},
                },
            },
            {
                "event": "job-done",
                "job_id": "1a-L64/t1/2048B-32b-1w-lru/base",
                "result": {
                    "accesses": 100,
                    "misses": 25,
                    "miss_ratio": 0.25,
                    "cache_hits": {"simulation": True},
                },
            },
        ]
        text = campaign_report(rows)
        assert "-50.0%" in text
        assert "artifact-cache simulation hits: 1/2" in text

    def test_failed_rows_render_placeholders(self):
        rows = [
            {"event": "job-failed", "job_id": "1a-L64/t1/2048B-32b-1w-lru/base"}
        ]
        text = campaign_report(rows)
        assert "failed" in text
        assert "totals: 0 done, 1 failed" in text

    def test_file_rule_ids_with_slashes_parse(self):
        rows = [
            {
                "event": "job-done",
                "job_id": "1a-L64/file:/a/b/c.rules/2048B-32b-1w-lru/base",
                "result": {
                    "accesses": 10,
                    "misses": 1,
                    "miss_ratio": 0.1,
                    "cache_hits": {},
                },
            }
        ]
        text = campaign_report(rows)
        assert "file:/a/b/c.rules" in text

    def test_trace_stage_rows_excluded(self):
        rows = [
            {"event": "job-done", "job_id": "trace/1a-L64", "result": {}},
        ]
        text = campaign_report(rows)
        assert "trace/1a-L64" not in text


class TestExampleCampaigns:
    def test_relative_rule_file_runs_from_any_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        """A relative ``file:`` reference is read against the spec's
        directory, as the pre-flight lint reads it, not the cwd."""
        import shutil

        examples = Path(__file__).parents[2] / "examples" / "campaigns"
        shutil.copytree(examples, tmp_path / "campaigns")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        spec = tmp_path / "campaigns" / "custom_rules.toml"
        assert main(["campaign", str(spec), "--dir", str(tmp_path / "out")]) == 0
        assert "done: 2  failed: 0" in capsys.readouterr().out


TWO_CACHE_SPEC = """\
[campaign]
name = "two-caches"

[[caches]]
size = 1024
block = 32
assoc = 1

[[caches]]
size = 2048
block = 32
assoc = 2

[[grid]]
kernel = "1a"
length = 16
"""


def artifact_tree(directory):
    """{relative path: bytes} over a campaign's artifact store."""
    root = directory / "artifacts"
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestNoFast:
    """``--no-fast`` is one campaign's choice, not process state."""

    def test_no_fast_reaches_batched_points_and_leaks_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        import os

        from repro.simbatch.kernel import MultiConfigSimulator

        feeds = []
        feed = MultiConfigSimulator.feed

        def counting(sim, *args, **kwargs):
            feeds.append(len(sim.configs))
            return feed(sim, *args, **kwargs)

        monkeypatch.setattr(MultiConfigSimulator, "feed", counting)
        spec = tmp_path / "two.toml"
        spec.write_text(TWO_CACHE_SPEC)
        env = dict(os.environ)

        reference = tmp_path / "reference"
        assert main(["campaign", str(spec), "--dir", str(reference), "--no-fast"]) == 0
        assert feeds == []
        assert dict(os.environ) == env

        # The next campaign in the same process is back on the fast path:
        # both caches share its one kernel pass.
        fast = tmp_path / "fast"
        assert main(["campaign", str(spec), "--dir", str(fast)]) == 0
        assert feeds and set(feeds) == {2}
        assert "done: 2" in capsys.readouterr().out
        assert artifact_tree(reference) == artifact_tree(fast)


class TestImports:
    #: Modules only the pipeline needs: a fully warm campaign loads none.
    PIPELINE = (
        "numpy",
        "repro.tracer.interp",
        "repro.transform.engine",
        "repro.cache.simulator",
        "repro.simbatch.kernel",
    )

    @staticmethod
    def _probe(code):
        """Run ``code`` in a fresh interpreter; returns its stdout."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    def _loaded(self, argv):
        """A probe running ``tdst argv`` that prints what it imported."""
        return (
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "names = ('multiprocessing', 'repro.campaign.jobs')"
            f" + {self.PIPELINE!r}\n"
            "print('LOADED', sorted(m for m in names if m in sys.modules))\n"
        )

    def test_warm_campaign_never_loads_the_pipeline(self, spec_file, tmp_path):
        """A rerun whose points are all stored is answered in the parent:
        no pipeline import, no worker process, one done row per point."""
        import json

        out = tmp_path / "out"
        argv = ["campaign", str(spec_file), "--dir", str(out), "--jobs", "2"]
        primed = self._probe(self._loaded(argv))
        assert "repro.campaign.jobs" in primed and "numpy" in primed

        assert "LOADED []" in self._probe(self._loaded(argv))
        rows = [
            json.loads(line)
            for line in (out / "manifest.jsonl").read_text().splitlines()
        ]
        events = [r["event"] for r in rows]
        assert events.count("job-start") == 0
        done = [r for r in rows if r["event"] == "job-done"]
        assert sorted(r["job_id"] for r in done) == [
            "1a-L64/baseline/2048B-32b-1w-lru/base",
            "1a-L64/t1/2048B-32b-1w-lru/base",
        ]
        assert all(r["worker"] == -1 for r in done)
        assert all(r["result"]["route"] == "store" for r in done)

    def test_report_and_summarize_load_no_numpy(self, spec_file, tmp_path):
        out = tmp_path / "out"
        profile = tmp_path / "p.jsonl"
        self._probe(
            self._loaded(
                ["campaign", str(spec_file), "--dir", str(out),
                 "--profile", str(profile)]
            )
        )
        for argv in (
            ["campaign", str(spec_file), "--dir", str(out), "--report"],
            ["obsv", "summarize", str(profile)],
        ):
            assert "LOADED []" in self._probe(self._loaded(argv)), argv

    def test_mixed_run_traces_only_missing_programs(self, spec_file, tmp_path):
        """Store grid A, then run A+B: the parent serves A's points, and
        B's one task traces B's program."""
        import json

        out = tmp_path / "out"
        self._probe(self._loaded(["campaign", str(spec_file), "--dir", str(out)]))
        wider = tmp_path / "wider.toml"
        wider.write_text(
            SPEC_TOML + '\n[[grid]]\nkernel = "2a"\nlength = 64\n'
            'rules = ["baseline"]\n'
        )
        mixed = self._probe(
            self._loaded(["campaign", str(wider), "--dir", str(out), "--jobs", "2"])
        )
        assert "repro.campaign.jobs" in mixed
        rows = [
            json.loads(line)
            for line in (out / "manifest.jsonl").read_text().splitlines()
        ]
        starts = [r["job_id"] for r in rows if r["event"] == "job-start"]
        assert starts == ["2a-L64/baseline/2048B-32b-1w-lru/base"]
        done = {r["job_id"]: r for r in rows if r["event"] == "job-done"}
        served = sorted(
            job_id for job_id, row in done.items() if row["worker"] == -1
        )
        assert served == [
            "1a-L64/baseline/2048B-32b-1w-lru/base",
            "1a-L64/t1/2048B-32b-1w-lru/base",
        ]
        ran = done["2a-L64/baseline/2048B-32b-1w-lru/base"]["result"]
        assert ran["cache_hits"]["trace"] is False


def _json_artifacts(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted((directory / "artifacts").rglob("*.json"))
    }


class TestOneTraceStore:
    """Campaign traces and transforms are trace-store commits; the v1
    ``binformat`` container is an exchange format only."""

    def test_cold_paper_campaign_never_touches_v1(
        self, tmp_path, monkeypatch, capsys
    ):
        import sys

        import repro.campaign.jobs  # noqa: F401 - bind every import first
        from repro.trace import binformat

        for name in ("save_binary", "load_binary"):
            original = getattr(binformat, name)

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"campaign called binformat.{_name}")

            for module in list(sys.modules.values()):
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, refuse)
        directory = tmp_path / "out"
        argv = ["campaign", "paper", "--dir", str(directory), "--length", "64"]
        assert main([*argv, "--jobs", "2"]) == 0
        assert "done: 6  failed: 0" in capsys.readouterr().out
        assert not list(directory.rglob("*.trace.tdst"))
        assert sorted(p.name for p in directory.iterdir()) == [
            "artifacts", "manifest.jsonl", "tracestore"
        ]

    def test_v1_campaign_directory_resumes_cold(
        self, tmp_path, monkeypatch, capsys
    ):
        """``tests/data/campaign_v1`` was written by ``tdst campaign
        spec.toml`` while traces were v1 artifacts beside the payloads,
        by a trace stage with manifest rows of its own.  ``--report``
        reads its table as it always did.  Rerun with a second cache, its
        stored points are served as they are, and the points it lacks
        are traced afresh without opening any ``.trace.tdst`` file or
        writing a ``trace/`` row."""
        import builtins
        import io
        import json
        import shutil

        fixture = Path(__file__).parents[1] / "data" / "campaign_v1"
        old = tmp_path / "old"
        shutil.copytree(fixture, old)
        v1 = {p: p.read_bytes() for p in old.rglob("*.trace.tdst")}
        assert len(v1) == 2
        fixture_rows = (fixture / "manifest.jsonl").read_text().splitlines()
        assert any('"trace/1a-L16"' in line for line in fixture_rows)
        capsys.readouterr()
        assert main(["campaign", "--dir", str(old), "--report"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "point                                                     "
            "status  accesses  misses   ratio  vs base",
            "1a-L16/baseline/1024B-32b-1w-lru/base                       "
            "done       132       7  0.0530        -",
            "1a-L16/t1/1024B-32b-1w-lru/base                             "
            "done       132       9  0.0682   +28.6%",
            "totals: 2 done, 0 failed, 0 skipped; "
            "artifact-cache simulation hits: 0/2",
        ]
        spec = tmp_path / "wider.toml"
        spec.write_text(
            (fixture / "spec.toml").read_text()
            + "\n[[caches]]\nsize = 2048\nblock = 32\nassoc = 1\n"
        )
        opened = []
        real_open = io.open

        def spying(file, *args, **kwargs):
            if str(file).endswith(".trace.tdst"):
                opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spying)
        monkeypatch.setattr(io, "open", spying)
        assert main(["campaign", str(spec), "--dir", str(old)]) == 0
        monkeypatch.undo()
        assert opened == []
        rows = [json.loads(line) for line in (old / "manifest.jsonl").open()]
        routes = {
            row["job_id"]: row["result"]["route"]
            for row in rows
            if row["event"] == "job-done" and row["result"]["kind"] == "simulation"
        }
        assert routes == {
            "1a-L16/baseline/1024B-32b-1w-lru/base": "store",
            "1a-L16/t1/1024B-32b-1w-lru/base": "store",
            "1a-L16/baseline/2048B-32b-1w-lru/base": "fast",
            "1a-L16/t1/2048B-32b-1w-lru/base": "fast",
        }
        assert not [row for row in rows if row.get("job_id", "").startswith("trace/")]
        assert {p: p.read_bytes() for p in old.rglob("*.trace.tdst")} == v1
        fresh = tmp_path / "fresh"
        assert main(["campaign", str(spec), "--dir", str(fresh)]) == 0
        assert "done: 4  failed: 0" in capsys.readouterr().out
        assert _json_artifacts(old) == _json_artifacts(fresh)
