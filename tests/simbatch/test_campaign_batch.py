"""Campaign batching: grouping, execution parity, resume, lint, CLI."""

import json
from dataclasses import replace

import pytest

from repro.errors import CampaignError
from repro.campaign.jobs import (
    NO_BATCH_ENV,
    BatchJob,
    execute_batch_job,
    execute_job,
    expand_jobs,
    group_batch_jobs,
)
from repro.campaign.manifest import RunManifest
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import BatchOptions, CacheSpec, CampaignSpec, GridEntry

pytestmark = pytest.mark.simbatch


def grid_spec(**overrides):
    """12 points: 1 kernel x 2 rules x 3 caches x 2 attribution modes."""
    defaults = dict(
        name="batchy",
        grid=(GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),),
        caches=(
            CacheSpec(size=1024, block=32, assoc=1),
            CacheSpec(size=2048, block=32, assoc=2),
            CacheSpec(size=4096, block=32, assoc=4),
        ),
        attribution=("base", "member"),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def payload_key(payload):
    """Job payload minus the route-dependent bookkeeping fields."""
    return {
        k: v
        for k, v in payload.items()
        if k not in ("cache_hits", "compute_seconds")
    }


class TestBatchOptions:
    def test_defaults(self):
        opts = BatchOptions()
        assert opts.enabled and opts.chunk > 0 and opts.max_configs > 1

    @pytest.mark.parametrize(
        "data",
        [
            {"chunk": 0},
            {"chunk": -1},
            {"max_configs": 0},
            {"chunk": "big"},
            {"chunk": True},
            {"enabled": 1},
            {"unknown_key": 1},
            5,
        ],
    )
    def test_rejects(self, data):
        with pytest.raises(CampaignError):
            BatchOptions.from_dict(data)

    def test_from_toml_table(self):
        spec = CampaignSpec.from_toml(
            """
            [campaign]
            name = "x"
            [batch]
            enabled = true
            chunk = 1024
            max_configs = 8
            [[grid]]
            kernel = "1a"
            length = 16
            """
        )
        assert spec.batch == BatchOptions(enabled=True, chunk=1024, max_configs=8)


class TestGrouping:
    def test_same_trace_points_group(self):
        _, jobs = expand_jobs(grid_spec())
        tasks = group_batch_jobs(jobs)
        batches = [t for t in tasks if isinstance(t, BatchJob)]
        # one batch per (rule, attribution) pair: 2 rules x 2 modes
        assert len(batches) == 4
        assert all(len(b.members) == 3 for b in batches)
        assert {j.job_id for j in jobs} == {
            mid for b in batches for mid in b.member_ids
        }

    def test_max_configs_splits(self):
        _, jobs = expand_jobs(grid_spec(attribution=("base",)))
        tasks = group_batch_jobs(jobs, max_configs=2)
        batches = [t for t in tasks if isinstance(t, BatchJob)]
        singles = [t for t in tasks if not isinstance(t, BatchJob)]
        # 3 caches with max 2 per batch: each rule gives one pair + one single
        assert len(batches) == 2 and len(singles) == 2

    def test_ineligible_policy_stays_single(self):
        spec = grid_spec(
            caches=(
                CacheSpec(size=1024, block=32, assoc=2),
                CacheSpec(size=2048, block=32, assoc=2),
                CacheSpec(size=2048, block=32, assoc=2, policy="fifo"),
            ),
            attribution=("base",),
        )
        _, jobs = expand_jobs(spec)
        tasks = group_batch_jobs(jobs)
        batches = [t for t in tasks if isinstance(t, BatchJob)]
        assert all(
            all(m.cache.policy != "fifo" for m in b.members) for b in batches
        )

    def test_batch_requires_two_members(self):
        _, jobs = expand_jobs(grid_spec(attribution=("base",)))
        with pytest.raises(ValueError):
            BatchJob(members=(jobs[0],))

    def test_reference_only_jobs_stay_single(self):
        """Jobs forced onto the reference simulator never batch."""
        _, jobs = expand_jobs(grid_spec(attribution=("base",)))
        opted_out = [replace(job, fast=False) for job in jobs]
        assert group_batch_jobs(opted_out) == opted_out
        with pytest.raises(ValueError, match="reference simulator"):
            BatchJob(members=tuple(opted_out[:2]))


class TestExecutionParity:
    def test_batch_payloads_equal_single_route(self, tmp_path):
        _, jobs = expand_jobs(grid_spec())
        tasks = group_batch_jobs(jobs)
        batches = [t for t in tasks if isinstance(t, BatchJob)]
        single = {
            j.job_id: execute_job(j, tmp_path / "single") for j in jobs
        }
        for batch in batches:
            result = execute_batch_job(batch, tmp_path / "batched")
            assert result["kind"] == "batch"
            for member_id, payload in result["members"].items():
                assert payload_key(payload) == payload_key(single[member_id])

    def test_cached_members_short_circuit(self, tmp_path):
        _, jobs = expand_jobs(grid_spec(attribution=("base",)))
        (batch,) = [
            t
            for t in group_batch_jobs(jobs)
            if isinstance(t, BatchJob) and "baseline" in t.job_id
        ]
        first = execute_batch_job(batch, tmp_path / "s")
        again = execute_batch_job(batch, tmp_path / "s")
        for member_id in batch.member_ids:
            assert again["members"][member_id]["cache_hits"]["simulation"]
            assert payload_key(again["members"][member_id]) == payload_key(
                first["members"][member_id]
            )


class TestScheduledCampaign:
    def test_batched_equals_unbatched(self, tmp_path):
        spec = grid_spec()
        batched = run_campaign(spec, tmp_path / "b")
        unbatched = run_campaign(spec, tmp_path / "u", batch=False)
        key = lambda result: sorted(
            (o.job_id, o.result["misses"], o.result["hits"])
            for o in result.outcomes
        )
        assert key(batched) == key(unbatched)
        assert batched.n_done == unbatched.n_done == 12

    def test_parallel_batched(self, tmp_path):
        spec = grid_spec()
        serial = run_campaign(spec, tmp_path / "s")
        parallel = run_campaign(spec, tmp_path / "p", workers=2)
        key = lambda result: sorted(
            (o.job_id, o.result["misses"]) for o in result.outcomes
        )
        assert key(serial) == key(parallel)

    def test_manifest_has_per_member_rows(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(grid_spec(), directory)
        rows = RunManifest.read(directory / "manifest.jsonl")
        done = [
            r["job_id"]
            for r in rows
            if r["event"] == "job-done" and "trace/" not in r["job_id"]
        ]
        _, jobs = expand_jobs(grid_spec())
        assert sorted(done) == sorted(j.job_id for j in jobs)

    def test_resume_skips_everything(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(grid_spec(), directory)
        again = run_campaign(grid_spec(), directory, resume=True)
        assert again.n_done == 0 and again.n_failed == 0

    def test_no_batch_env(self, tmp_path, monkeypatch):
        from repro.campaign.scheduler import Scheduler

        monkeypatch.setenv(NO_BATCH_ENV, "1")
        scheduler = Scheduler(grid_spec(), tmp_path / "c")
        assert scheduler.batch is False

    def test_spec_disable(self, tmp_path):
        from repro.campaign.scheduler import Scheduler

        spec = grid_spec(batch=BatchOptions(enabled=False))
        scheduler = Scheduler(spec, tmp_path / "c")
        assert scheduler.batch is False


class TestLintBatch:
    def test_invalid_batch_is_tdst024_only(self):
        from repro.lint import lint_spec_text

        report = lint_spec_text(
            """
            [campaign]
            name = "x"
            [batch]
            chunk = -3
            [[grid]]
            kernel = "1a"
            length = 16
            """
        )
        assert report.codes() == ["TDST024"]

    def test_singleton_batch_warns_tdst025(self):
        from repro.lint import lint_spec_text

        report = lint_spec_text(
            """
            [campaign]
            name = "x"
            [batch]
            max_configs = 1
            [[grid]]
            kernel = "1a"
            length = 16
            """
        )
        assert "TDST025" in report.codes() and report.ok

    def test_no_eligible_geometry_warns(self):
        from repro.lint import lint_spec_text

        report = lint_spec_text(
            """
            [campaign]
            name = "x"
            [[caches]]
            size = 2048
            block = 32
            assoc = 4
            policy = "fifo"
            [[grid]]
            kernel = "1a"
            length = 16
            """
        )
        assert "TDST025" in report.codes()


class TestCli:
    def test_simbatch_json(self, tmp_path, capsys):
        from repro.cli import main
        from repro.trace.columnar import save_columnar
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        trace = trace_program(paper_kernel("1a", length=32))
        path = save_columnar(trace, tmp_path / "t.tdst")
        code = main(
            [
                "simbatch",
                str(path),
                "--sets", "16", "32",
                "--assocs", "1", "2",
                "--blocks", "32",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 4
        for row in doc["results"]:
            assert row["misses"] + row["hits"] == row["accesses"]

    def test_campaign_no_batch_flag(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "c.toml"
        spec.write_text(
            """
            [campaign]
            name = "cli"
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
            length = 32
            """
        )
        code = main(
            ["campaign", str(spec), "--dir", str(tmp_path / "out"), "--no-batch"]
        )
        assert code == 0
        rows = RunManifest.read(tmp_path / "out" / "manifest.jsonl")
        assert not any("batch/" in r.get("job_id", "") for r in rows)
