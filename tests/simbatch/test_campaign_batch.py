"""Campaign grid tasks: grouping, execution parity, resume, CLI."""

import json

import pytest

from repro.campaign.jobs import (
    execute_grid_task,
    execute_job,
    expand_jobs,
    plan_tasks,
)
from repro.campaign.manifest import RunManifest
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry

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
        if k not in (
            "cache_hits", "compute_seconds", "route", "route_reason", "kernel"
        )
    }


def artifact_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted((directory / "artifacts").rglob("*.json"))
    }


class TestGrouping:
    def test_same_trace_points_group(self):
        jobs = expand_jobs(grid_spec())
        tasks = plan_tasks(jobs, fast=True)
        # one task per (rule, attribution) pair: 2 rules x 2 modes
        assert len(tasks) == 4
        assert all(len(t.members) == 3 for t in tasks)
        assert {t.route for t in tasks} == {"fast"}
        assert {j.job_id for j in jobs} == {
            m.job_id for t in tasks for m in t.members
        }

    def test_ineligible_policy_stays_single(self):
        spec = grid_spec(
            caches=(
                CacheSpec(size=1024, block=32, assoc=2),
                CacheSpec(size=2048, block=32, assoc=2),
                CacheSpec(size=2048, block=32, assoc=2, policy="plru"),
            ),
            attribution=("base",),
        )
        jobs = expand_jobs(spec)
        tasks = plan_tasks(jobs, fast=True)
        plru = [t for t in tasks if t.members[0].cache.policy == "plru"]
        assert [len(t.members) for t in plru] == [1, 1]
        assert {t.route for t in plru} == {"reference"}
        assert all("plru" in t.route_reason for t in plru)
        assert all(
            all(m.cache.policy != "plru" for m in t.members)
            for t in tasks
            if t.route == "fast"
        )

    def test_fifo_members_join_the_kernel_task(self, tmp_path):
        """FIFO and round-robin caches fold into the fast task with the
        LRU caches, and each done payload names its kernel pass."""
        spec = grid_spec(
            caches=(
                CacheSpec(size=1024, block=32, assoc=2),
                CacheSpec(size=2048, block=32, assoc=2, policy="fifo"),
                CacheSpec(size=2048, block=32, assoc=4, policy="round-robin"),
            ),
            attribution=("base",),
        )
        jobs = expand_jobs(spec)
        tasks = plan_tasks(jobs, fast=True)
        assert [len(t.members) for t in tasks] == [3, 3]
        assert {t.route for t in tasks} == {"fast"}
        (task,) = [t for t in tasks if "baseline" in t.job_id]
        members = execute_grid_task(task, tmp_path / "s")["members"]
        kernels = {
            job.cache.policy: members[job.job_id]["kernel"]
            for job in task.members
        }
        assert kernels == {"lru": "stack", "fifo": "fifo", "round-robin": "fifo"}
        for blob in artifact_bytes(tmp_path / "s").values():
            assert b"kernel" not in blob and b"route" not in blob

    def test_reference_only_jobs_stay_single(self):
        """With the kernel off every point is a reference task of its own."""
        jobs = expand_jobs(grid_spec(attribution=("base",)))
        tasks = plan_tasks(jobs, fast=False)
        assert [t.members for t in tasks] == [(job,) for job in jobs]
        assert [t.job_id for t in tasks] == [job.job_id for job in jobs]
        assert {t.route for t in tasks} == {"reference"}
        assert all("--no-fast" in t.route_reason for t in tasks)


class TestExecutionParity:
    def test_batch_payloads_equal_single_route(self, tmp_path):
        jobs = expand_jobs(grid_spec())
        single = {
            j.job_id: execute_job(j, tmp_path / "single") for j in jobs
        }
        for task in plan_tasks(jobs, fast=True):
            result = execute_grid_task(task, tmp_path / "batched")
            assert result["kind"] == "grid"
            assert len(result["members"]) == 3
            for member_id, payload in result["members"].items():
                assert payload["route"] == "fast"
                assert payload_key(payload) == payload_key(single[member_id])

    def test_cached_members_short_circuit(self, tmp_path):
        jobs = expand_jobs(grid_spec(attribution=("base",)))
        (task,) = [
            t for t in plan_tasks(jobs, fast=True) if "baseline" in t.job_id
        ]
        first = execute_grid_task(task, tmp_path / "s")
        again = execute_grid_task(task, tmp_path / "s")
        for member in task.members:
            payload = again["members"][member.job_id]
            assert payload["cache_hits"]["simulation"]
            assert payload["route"] == "store"
            assert payload_key(payload) == payload_key(
                first["members"][member.job_id]
            )


class TestScheduledCampaign:
    def test_batched_equals_unbatched(self, tmp_path):
        """The 12-point grid stores the artifacts the reference oracle
        (``fast=False``, every point a task of its own) stores for it,
        byte for byte."""
        spec = grid_spec()
        grouped = run_campaign(spec, tmp_path / "b")
        reference = run_campaign(spec, tmp_path / "r", fast=False)
        key = lambda result: sorted(
            (o.job_id, o.result["misses"], o.result["hits"])
            for o in result.outcomes
        )
        assert key(grouped) == key(reference)
        assert grouped.n_done == reference.n_done == 12
        assert artifact_bytes(tmp_path / "b") == artifact_bytes(tmp_path / "r")
        assert len(artifact_bytes(tmp_path / "b")) == 12

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
        jobs = expand_jobs(grid_spec())
        assert sorted(done) == sorted(j.job_id for j in jobs)

    def test_resume_skips_everything(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(grid_spec(), directory)
        again = run_campaign(grid_spec(), directory, resume=True)
        assert again.n_done == 0 and again.n_failed == 0

    def test_spec_disable(self):
        """A ``[batch] enabled = false`` table no longer turns grouping
        off: the loader ignores it (``tdst lint`` warns, TDST026)."""
        spec = CampaignSpec.from_toml(
            "[batch]\nenabled = false\n"
            "[[caches]]\nsize = 1024\n"
            "[[caches]]\nsize = 2048\nassoc = 2\n"
            '[[grid]]\nkernel = "1a"\nlength = 16\n'
        )
        jobs = expand_jobs(spec)
        (task,) = plan_tasks(jobs, fast=True)
        assert task.members == tuple(jobs) and task.route == "fast"

    def test_no_batch_env(self, tmp_path, monkeypatch):
        """Routes come from a point's inputs: the retired ``TDST_NO_*``
        variables change no route and no artifact."""
        from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS

        names = ("TDST_NO_FAST", "TDST_NO_BATCH", "TDST_NO_TRACESTORE")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        rules = tmp_path / "t1.rules"
        rules.write_text(RULE_T1_SOA_TO_AOS.format(length=64), encoding="utf-8")
        spec = grid_spec(
            grid=(
                GridEntry(
                    kernel="1a", length=64, rules=("baseline", f"file:{rules}")
                ),
            ),
            caches=grid_spec().caches
            + (CacheSpec(size=2048, block=32, assoc=2, policy="plru"),),
            attribution=("base",),
        )
        clean = run_campaign(spec, tmp_path / "clean")
        for name in names:
            monkeypatch.setenv(name, "1")
        env = run_campaign(spec, tmp_path / "env")

        def routes(result):
            return {o.job_id: o.result["route"] for o in result.outcomes}

        assert routes(env) == routes(clean)
        assert set(routes(clean).values()) == {"fast", "tracestore", "reference"}
        assert artifact_bytes(tmp_path / "env") == artifact_bytes(
            tmp_path / "clean"
        )


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

    @pytest.mark.parametrize("container", ["text", "columnar"])
    @pytest.mark.parametrize("attribution", ["base", "member"])
    def test_simbatch_json_rows_equal_simulation_fields(
        self, tmp_path, capsys, container, attribution
    ):
        """``--json`` rows are the campaign's payload fields: the same
        values the reference simulator gives for each config."""
        from repro.cache.config import CacheConfig
        from repro.campaign.jobs import simulation_fields
        from repro.cli import main
        from repro.trace.columnar import save_columnar
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        trace = trace_program(paper_kernel("1a", length=32))
        path = tmp_path / "t.trace"
        if container == "columnar":
            save_columnar(trace, path)
        else:
            trace.save(path)
        argv = ["simbatch", str(path), "--sets", "4", "16",
                "--assocs", "1", "2", "--blocks", "32", "--json"]
        assert main(argv + ["--by-variable", "--attribution", attribution]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        configs = [
            CacheConfig(size=32 * n_sets * ways, block_size=32,
                        associativity=ways, policy="lru")
            for n_sets in (4, 16)
            for ways in (1, 2)
        ]
        assert rows == simulation_fields(
            trace, configs, attribution, use_fast=False
        )
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)["results"]
        assert plain == [
            {k: v for k, v in row.items() if k != "by_variable_misses"}
            for row in rows
        ]

    def test_simbatch_json_skips_labels_of_misc_records(self, tmp_path, capsys):
        from repro.cli import main
        from repro.ctypes_model.path import VariablePath
        from repro.trace.columnar import save_columnar
        from repro.trace.record import AccessType, TraceRecord
        from repro.trace.stream import Trace

        def rec(op, name):
            return TraceRecord(op, 0x1000, 4, "main", scope="GS",
                               var=VariablePath.parse(name))

        trace = Trace([rec(AccessType.LOAD, "lA"), rec(AccessType.MISC, "lX")])
        path = save_columnar(trace, tmp_path / "t.tdst")
        argv = ["simbatch", str(path), "--sets", "4", "--assocs", "1",
                "--blocks", "32", "--json", "--by-variable"]
        assert main(argv) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert row["by_variable_misses"] == {"lA": 1}

    def test_campaign_no_batch_flag(self, tmp_path, capsys):
        """``--no-fast`` is the one route switch left on ``tdst campaign``."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert "--no-fast" in usage
        assert "--no-batch" not in usage and "--no-tracestore" not in usage
        for flag in ("--no-batch", "--no-tracestore"):
            with pytest.raises(SystemExit) as exit_info:
                main(["campaign", "paper", "--dir", str(tmp_path), flag])
            assert exit_info.value.code == 2
