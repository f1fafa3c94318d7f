"""End-to-end instrumentation: CLI profiling, hooks, campaign telemetry."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obsv.sinks import read_jsonl_profile
from repro.obsv.summary import phase_coverage
from repro.obsv.telemetry import get_telemetry

pytestmark = pytest.mark.obsv


class TestCliProfiling:
    def test_profile_flag_writes_both_sinks(self, tmp_path, capsys):
        profile = tmp_path / "p.jsonl"
        trace_file = tmp_path / "tr.json"
        rc = main(
            [
                "trace",
                "1a",
                "--length",
                "64",
                "-o",
                str(tmp_path / "t.out"),
                "--profile",
                str(profile),
                "--profile-trace",
                str(trace_file),
            ]
        )
        assert rc == 0
        snapshot = read_jsonl_profile(profile)
        names = [s["name"] for s in snapshot["spans"]]
        assert "tdst.trace" in names
        assert "trace.program" in names
        assert snapshot["counters"]["trace.records"] == 516
        assert snapshot["gauges"]["rss.peak_kb"] > 0
        doc = json.loads(trace_file.read_text(encoding="utf-8"))
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == len(
            snapshot["spans"]
        )
        assert "summary" in capsys.readouterr().err
        # The CLI owned the registry for the run and released it.
        assert not get_telemetry().enabled

    def test_profile_written_even_when_the_command_fails(self, tmp_path, capsys):
        """A crashing subcommand still leaves a complete, parseable
        profile behind (the sink write runs in main's finally block)."""
        profile = tmp_path / "p.jsonl"
        with pytest.raises(OSError):
            main(
                [
                    "stats",
                    str(tmp_path / "missing.out"),
                    "--profile",
                    str(profile),
                ]
            )
        snapshot = read_jsonl_profile(profile)
        assert "tdst.stats" in [s["name"] for s in snapshot["spans"]]
        assert not get_telemetry().enabled

    @pytest.mark.parametrize("binary, built", [(True, 0), (False, 516)])
    def test_trace_profile_shows_where_records_are_built(
        self, tmp_path, capsys, binary, built
    ):
        """The tracer symbolises in one post-run span and builds no
        records; only the text writer asks for them."""
        profile = tmp_path / "p.jsonl"
        args = ["trace", "1a", "--length", "64", "-o", str(tmp_path / "t")]
        rc = main(args + (["--binary"] if binary else []) + ["--profile", str(profile)])
        assert rc == 0
        snapshot = read_jsonl_profile(profile)
        spans = {s["name"]: s for s in snapshot["spans"]}
        assert spans["trace.symbolize"]["parent"] == spans["trace.program"]["id"]
        assert snapshot["counters"]["trace.records"] == 516
        assert snapshot["counters"].get("trace.records_built", 0) == built

    def test_simulate_profile_counts_cache_lookups(self, tmp_path, capsys):
        out = tmp_path / "t.out"
        assert main(["trace", "1a", "--length", "32", "-o", str(out)]) == 0
        profile = tmp_path / "p.jsonl"
        rc = main(["simulate", str(out), "--profile", str(profile)])
        assert rc == 0
        snapshot = read_jsonl_profile(profile)
        assert snapshot["counters"]["simulate.cache_lookups"] > 0
        assert "simulate.reference" in [s["name"] for s in snapshot["spans"]]

    def test_transform_profile_counts_records(self, tmp_path, capsys):
        out = tmp_path / "t.out"
        assert main(["trace", "1a", "--length", "16", "-o", str(out)]) == 0
        rules = tmp_path / "rules.txt"
        from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS

        rules.write_text(RULE_T1_SOA_TO_AOS.format(length=16), encoding="utf-8")
        profile = tmp_path / "p.jsonl"
        rc = main(
            [
                "transform",
                str(out),
                str(rules),
                "-o",
                str(tmp_path / "x.out"),
                "--profile",
                str(profile),
            ]
        )
        assert rc == 0
        counters = read_jsonl_profile(profile)["counters"]
        assert counters["transform.records_in"] > 0
        assert counters["transform.records_out"] > 0
        assert "transform.injected" in counters

    def test_obsv_summarize_renders_a_profile(self, tmp_path, capsys):
        profile = tmp_path / "p.jsonl"
        assert (
            main(
                [
                    "trace",
                    "1a",
                    "--length",
                    "16",
                    "-o",
                    str(tmp_path / "t.out"),
                    "--profile",
                    str(profile),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obsv", "summarize", str(profile)]) == 0
        out = capsys.readouterr().out
        assert "phase coverage" in out
        assert "trace.records" in out

    def test_obsv_summarize_rejects_non_profiles(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not a profile\n", encoding="utf-8")
        assert main(["obsv", "summarize", str(bogus)]) == 1
        assert "error" in capsys.readouterr().out

    def test_obsv_export_trace(self, tmp_path, capsys):
        profile = tmp_path / "p.jsonl"
        assert (
            main(
                [
                    "trace",
                    "1a",
                    "--length",
                    "16",
                    "-o",
                    str(tmp_path / "t.out"),
                    "--profile",
                    str(profile),
                ]
            )
            == 0
        )
        out = tmp_path / "chrome.json"
        assert main(["obsv", "export-trace", str(profile), "-o", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["otherData"]["generator"] == "tdst-obsv"


class TestHookNoOpByDefault:
    def test_pipeline_records_nothing_without_enable(self):
        from repro.cache.config import CacheConfig
        from repro.cache.simulator import simulate
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        registry = get_telemetry()
        assert not registry.enabled
        registry.reset()  # drop leftovers from earlier profiled tests
        trace = trace_program(paper_kernel("1a", length=16))
        simulate(trace, CacheConfig(size=1024, block_size=32))
        snap = registry.snapshot()
        assert snap["spans"] == []
        assert snap["counters"] == {}


class TestCampaignTelemetry:
    SPEC = """
[campaign]
name = "obsv-test"
profile = "profile.jsonl"
profile_trace = "trace.json"

[[grid]]
kernel = "1a"
length = 64
rules = ["baseline", "t1"]
"""

    def test_spec_parses_profile_keys(self):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec.from_toml(self.SPEC)
        assert spec.profile == "profile.jsonl"
        assert spec.profile_trace == "trace.json"
        bare = CampaignSpec.from_toml(
            '[[grid]]\nkernel = "1a"\nrules = ["baseline"]\n'
        )
        assert bare.profile is None and bare.profile_trace is None

    def _run(self, tmp_path, workers):
        from repro.campaign import CampaignSpec, Scheduler

        spec = CampaignSpec.from_toml(self.SPEC)
        directory = tmp_path / "camp"
        result = Scheduler(spec, directory, workers=workers).run()
        assert result.n_done == 2
        return directory, read_jsonl_profile(directory / "profile.jsonl")

    def test_serial_campaign_profile_covers_wall_time(self, tmp_path):
        directory, snapshot = self._run(tmp_path, workers=1)
        assert phase_coverage(snapshot) >= 0.95
        names = {s["name"] for s in snapshot["spans"]}
        assert {"campaign.run", "campaign.grid", "campaign.job"} <= names
        assert snapshot["counters"]["campaign.points_done"] == 2
        assert (directory / "trace.json").exists()
        # The scheduler owned the registry and released it afterwards.
        assert not get_telemetry().enabled

    def test_serial_manifest_records_telemetry_event(self, tmp_path):
        from repro.campaign import RunManifest

        directory, snapshot = self._run(tmp_path, workers=1)
        rows = RunManifest.read(directory / "manifest.jsonl")
        (row,) = [r for r in rows if r["event"] == "telemetry"]
        assert row["counters"]["campaign.points_done"] == 2
        assert row["spans"] > 0
        # Full span data lives in the profile, not the manifest.
        assert "start_us" not in json.dumps(row)

    def test_parallel_campaign_merges_worker_telemetry(self, tmp_path):
        directory, snapshot = self._run(tmp_path, workers=2)
        pids = {s["pid"] for s in snapshot["spans"]}
        assert len(pids) > 1, "expected spans from worker processes"
        assert snapshot["counters"]["campaign.points_done"] == 2
        assert snapshot["counters"]["trace.records"] > 0
        job_spans = [s for s in snapshot["spans"] if s["name"] == "campaign.job"]
        assert len(job_spans) == 2
        # Job payloads in the manifest must not carry telemetry blobs.
        from repro.campaign import RunManifest

        for row in RunManifest.read(directory / "manifest.jsonl"):
            if row["event"] == "job-done":
                assert "telemetry" not in (row.get("result") or {})

    def test_summarize_renders_campaign_profile(self, tmp_path, capsys):
        directory, _ = self._run(tmp_path, workers=1)
        capsys.readouterr()
        assert main(["obsv", "summarize", str(directory / "profile.jsonl")]) == 0
        assert "campaign.run" in capsys.readouterr().out


class TestCampaignRecordsBuilt:
    """A campaign job decodes, transforms, saves and simulates columns:
    every paper point, the PPC440's round-robin ones included, runs on
    the kernel, so no record is built."""

    def _profile(self, tmp_path, *args):
        profile = tmp_path / "p.jsonl"
        argv = ["campaign", *args, "--dir", str(tmp_path / "camp")]
        assert main([*argv, "--jobs", "2", "--profile", str(profile)]) == 0
        return read_jsonl_profile(profile)["counters"]

    def test_direct_mapped_campaign_builds_no_records(self, tmp_path, capsys):
        spec = tmp_path / "spec.toml"
        spec.write_text(
            '[[grid]]\nkernel = "1a"\nlength = 64\nrules = ["baseline", "t1"]\n',
            encoding="utf-8",
        )
        counters = self._profile(tmp_path, str(spec))
        assert counters["campaign.points_done"] == 2
        assert counters["transform.records_in"] > 0
        assert counters.get("trace.records_built", 0) == 0

    def test_paper_campaign_builds_no_records(self, tmp_path, capsys):
        counters = self._profile(tmp_path, "paper", "--length", "64")
        assert counters["campaign.points_done"] == 6
        assert counters["transform.records_in"] > 0
        assert counters.get("trace.records_built", 0) == 0


class TestCampaignCommandSpans:
    """``tdst campaign --profile`` times its own work under the root."""

    def _children(self, profile):
        from repro.obsv.telemetry import span_forest

        snapshot = read_jsonl_profile(profile)
        roots = [
            root
            for roots in span_forest(snapshot["spans"]).values()
            for root in roots
            if root["name"] == "tdst.campaign"
        ]
        (root,) = roots
        return [child["name"] for child in root["children"]], snapshot

    def test_run_phases_nest_under_the_root(self, tmp_path, capsys):
        spec = tmp_path / "spec.toml"
        spec.write_text(
            '[[grid]]\nkernel = "1a"\nlength = 32\nrules = ["baseline"]\n',
            encoding="utf-8",
        )
        profile = tmp_path / "p.jsonl"
        argv = ["campaign", str(spec), "--dir", str(tmp_path / "camp")]
        assert main([*argv, "--profile", str(profile)]) == 0
        children, snapshot = self._children(profile)
        assert children == [
            "campaign.preflight",
            "campaign.setup",
            "campaign.run",
            "campaign.report",
        ]
        plan = [s for s in snapshot["spans"] if s["name"] == "campaign.plan"]
        run = [s for s in snapshot["spans"] if s["name"] == "campaign.run"]
        assert [s["parent"] for s in plan] == [s["id"] for s in run]

    def test_report_mode_times_the_report(self, tmp_path, capsys):
        argv = ["campaign", "paper", "--dir", str(tmp_path / "camp")]
        assert main([*argv, "--length", "16"]) == 0
        profile = tmp_path / "p.jsonl"
        assert main([*argv, "--report", "--profile", str(profile)]) == 0
        children, _ = self._children(profile)
        assert children == ["campaign.report"]


class TestVerifyRunnerHooks:
    def test_verify_case_counts_and_spans(self, global_telemetry, tmp_path):
        from repro.verify.golden import paper_cases
        from repro.verify.runner import verify_case

        case = paper_cases()[0]
        outcome = verify_case(case, update_golden=True, golden_dir=tmp_path)
        assert outcome.updated
        snap = global_telemetry.snapshot()
        assert snap["counters"]["verify.cases"] == 1
        assert "verify.case" in {s["name"] for s in snap["spans"]}
