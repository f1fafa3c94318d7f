"""End-to-end tests of ``tdst campaign`` and the campaign report."""

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

    def test_resume_reports_full_cache_hits(self, spec_file, tmp_path, capsys):
        directory = tmp_path / "out"
        assert main(["campaign", str(spec_file), "--dir", str(directory)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "campaign",
                    str(spec_file),
                    "--dir",
                    str(directory),
                    "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skipped: 2" in out
        assert "100.0%" in out

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

        import repro.campaign.jobs as jobs
        import repro.simbatch.runner as runner
        from repro.simbatch.kernel import MultiConfigSimulator

        monkeypatch.delenv("TDST_NO_FAST", raising=False)
        calls = {"batch": 0, "fast_trace_counts": 0, "kernel": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            runner,
            "batch_simulation_fields",
            counting("batch", runner.batch_simulation_fields),
        )
        monkeypatch.setattr(
            jobs,
            "fast_trace_counts",
            counting("fast_trace_counts", jobs.fast_trace_counts),
        )
        monkeypatch.setattr(
            MultiConfigSimulator,
            "feed",
            counting("kernel", MultiConfigSimulator.feed),
        )
        spec = tmp_path / "two.toml"
        spec.write_text(TWO_CACHE_SPEC)
        env = dict(os.environ)

        reference = tmp_path / "reference"
        assert main(["campaign", str(spec), "--dir", str(reference), "--no-fast"]) == 0
        assert calls == {"batch": 0, "fast_trace_counts": 0, "kernel": 0}
        assert dict(os.environ) == env

        # The next campaign in the same process is back on the fast path.
        fast = tmp_path / "fast"
        assert main(["campaign", str(spec), "--dir", str(fast)]) == 0
        assert calls["batch"] == 1 and calls["kernel"] >= 1
        assert "done: 2" in capsys.readouterr().out
        assert artifact_tree(reference) == artifact_tree(fast)


class TestImports:
    def test_process_pool_campaign_skips_the_service_package(self, tmp_path):
        """A plain ``tdst campaign`` never imports asyncio or the service."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        probe = (
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(['campaign', 'paper', '--length', '16', '--jobs', '2',"
            f" '--dir', {str(tmp_path / 'out')!r}])\n"
            "assert code == 0, code\n"
            "loaded = sorted(m for m in ('asyncio', 'repro.campaign.service')"
            " if m in sys.modules)\n"
            "print('LOADED', loaded)\n"
        )
        src = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("TDST_NO_SERVICE", None)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "LOADED []" in out.stdout

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
        for name in ("TDST_NO_SERVICE", "TDST_NO_FAST", "TDST_NO_BATCH"):
            env.pop(name, None)
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
        """Store grid A, then run A+B without --resume: the parent serves
        A's points and only B's program gets a trace task."""
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
        assert starts == ["trace/2a-L64", "2a-L64/baseline/2048B-32b-1w-lru/base"]
        served = sorted(
            r["job_id"]
            for r in rows
            if r["event"] == "job-done" and r["worker"] == -1
        )
        assert served == [
            "1a-L64/baseline/2048B-32b-1w-lru/base",
            "1a-L64/t1/2048B-32b-1w-lru/base",
        ]
