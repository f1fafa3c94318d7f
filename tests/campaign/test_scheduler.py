"""Tests for the campaign scheduler: parallelism, retries, reruns."""

import pytest

from repro.campaign.manifest import RunManifest
from repro.campaign.scheduler import Scheduler, run_campaign
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry


def mini_spec(**overrides):
    defaults = dict(
        name="mini",
        grid=(
            GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),
            GridEntry(kernel="3a", length=64, rules=("baseline",)),
        ),
        caches=(CacheSpec(size=2048),),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSerialRun:
    def test_all_points_done(self, tmp_path):
        result = run_campaign(mini_spec(), tmp_path / "c")
        assert result.n_done == 3
        assert result.n_failed == 0
        assert all(o.ok for o in result.outcomes)
        # 1a and 3a, each traced once: by its program's first task
        traces = [o.result["cache_hits"]["trace"] for o in result.outcomes]
        assert sorted(traces) == [False, False, True]

    def test_manifest_written(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        rows = RunManifest.read(directory / "manifest.jsonl")
        events = [r["event"] for r in rows]
        assert events[0] == "campaign-start"
        assert events[-1] == "campaign-end"
        # 3 points in 3 tasks, one start and one done each; the tasks
        # that miss a program's trace trace it, so no row is a trace's.
        assert events.count("job-start") == 3
        assert events.count("job-done") == 3
        assert not [r for r in rows if r.get("job_id", "").startswith("trace/")]

    def test_results_carry_simulation_counters(self, tmp_path):
        result = run_campaign(mini_spec(), tmp_path / "c")
        for outcome in result.outcomes:
            assert outcome.result["accesses"] > 0
            assert 0.0 <= outcome.result["miss_ratio"] <= 1.0

    def test_summary_text(self, tmp_path):
        result = run_campaign(mini_spec(), tmp_path / "c")
        text = result.summary()
        assert "done: 3" in text
        assert "artifact-cache hit rate" in text


class TestParallelRun:
    def test_matches_serial_results(self, tmp_path):
        serial = run_campaign(mini_spec(), tmp_path / "s", workers=1)
        parallel = run_campaign(mini_spec(), tmp_path / "p", workers=3)
        key = lambda r: sorted(
            (o.job_id, o.result["misses"]) for o in r.outcomes
        )
        assert key(serial) == key(parallel)

    def test_worker_ids_recorded(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory, workers=2)
        rows = RunManifest.read(directory / "manifest.jsonl")
        workers = {r["worker"] for r in rows if r["event"] == "job-done"}
        assert workers  # at least one worker id observed

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_kills_and_records(self, tmp_path, workers):
        # A kernel big enough to blow a 100 ms budget deterministically.
        # A timeout runs on the process pool even at one worker: inline
        # execution could not enforce it.
        spec = CampaignSpec(
            name="slow",
            grid=(GridEntry(kernel="1a", length=20000, rules=("baseline",)),),
            caches=(CacheSpec(),),
        )
        result = run_campaign(
            spec, tmp_path / "c", workers=workers, timeout=0.1, retries=0
        )
        assert result.n_failed == 1
        (failed,) = result.by_status("failed")
        assert "timeout" in failed.error


class TestGracefulDegradation:
    def test_bad_rule_file_fails_point_not_campaign(self, tmp_path):
        rules = tmp_path / "broken.rules"
        rules.write_text("in:\nnot a rule {{{\n")
        spec = mini_spec(
            grid=(
                GridEntry(
                    kernel="1a",
                    length=64,
                    rules=("baseline", f"file:{rules}"),
                ),
                GridEntry(kernel="3a", length=64, rules=("baseline",)),
            )
        )
        directory = tmp_path / "c"
        result = run_campaign(spec, directory, retries=1, backoff=0.0)
        assert result.n_done == 2
        assert result.n_failed == 1
        (failed,) = result.by_status("failed")
        assert failed.attempts == 2  # first try + one retry
        rows = RunManifest.read(directory / "manifest.jsonl")
        events = [r["event"] for r in rows]
        assert events.count("job-retry") == 1
        assert events.count("job-failed") == 1

    def test_invalid_geometry_fails_point_not_campaign(self, tmp_path):
        """A geometry no cache can have (lint's TDST023) fails its own
        points inside their tasks; planning their route does not raise."""
        spec = mini_spec(caches=(CacheSpec(size=2048), CacheSpec(size=1000)))
        result = run_campaign(spec, tmp_path / "c", retries=0)
        assert result.n_done == 3
        assert result.n_failed == 3
        assert all("/1000B-" in o.job_id for o in result.by_status("failed"))

    def test_retries_bounded(self, tmp_path):
        rules = tmp_path / "broken.rules"
        rules.write_text("in:\nnope {{{\n")
        spec = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=64, rules=(f"file:{rules}",)),
            )
        )
        result = run_campaign(spec, tmp_path / "c", retries=3, backoff=0.0)
        (failed,) = result.by_status("failed")
        assert failed.attempts == 4


class TestResume:
    """A campaign resumes by running again into the same directory: the
    store answers every point it holds, and only the rest run."""

    def test_resume_runs_only_new_points(self, tmp_path):
        """A rerun of a widened grid runs only the new point."""
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        wider = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),
                GridEntry(kernel="3a", length=64, rules=("baseline", "t3")),
            )
        )
        result = run_campaign(wider, directory)
        assert result.n_done == 4 and result.n_failed == 0
        ran = [
            o for o in result.outcomes if o.result["route"] != "store"
        ]
        assert [o.job_id for o in ran] == [
            "3a-L64/t3/2048B-32b-1w-lru/base"
        ]
        # Its program's trace was already committed by the first run.
        assert ran[0].result["cache_hits"]["trace"] is True
        starts = [
            r["job_id"]
            for r in RunManifest.read(directory / "manifest.jsonl")
            if r["event"] == "job-start"
        ]
        assert starts == [ran[0].job_id]

    def test_without_resume_reruns_but_still_hits_artifacts(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        again = run_campaign(mini_spec(), directory)
        assert again.n_done == 3
        assert again.cache_hit_rate() == 1.0  # simulation artifacts reused


class TestSchedulerObject:
    def test_store_and_manifest_locations(self, tmp_path):
        scheduler = Scheduler(mini_spec(), tmp_path / "c")
        assert scheduler.store.root == tmp_path / "c" / "artifacts"
        assert scheduler.manifest_path == tmp_path / "c" / "manifest.jsonl"


def done_rows(directory):
    """``{job_id: manifest row}`` of the run's grid-point ``job-done`` rows."""
    return {
        r["job_id"]: r
        for r in RunManifest.read(directory / "manifest.jsonl")
        if r["event"] == "job-done"
    }


def traced(run):
    """``run()`` under fresh telemetry; returns ``(its result, the number
    of ``trace.program`` spans)``, worker spans merged in."""
    from repro.obsv.telemetry import get_telemetry

    tele = get_telemetry()
    tele.reset()
    tele.enable()
    try:
        result = run()
        spans = tele.snapshot()["spans"]
    finally:
        tele.disable()
        tele.reset()
    return result, sum(1 for span in spans if span["name"] == "trace.program")


def stored_json(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted((directory / "artifacts").rglob("*.json"))
    }


class TestPlanning:
    """Stored points are answered by the parent before any work starts."""

    def test_warm_rerun_starts_nothing(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory, workers=2)
        again = run_campaign(mini_spec(), directory, workers=2)
        assert again.n_done == 3
        rows = RunManifest.read(directory / "manifest.jsonl")
        events = [r["event"] for r in rows]
        assert events.count("job-start") == 0
        assert events.count("job-done") == 3
        for row in done_rows(directory).values():
            assert row["worker"] == -1 and row["attempt"] == 1
            assert "recovered" not in row
            assert row["result"]["cache_hits"] == {"simulation": True}

    def test_only_missing_programs_are_traced(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        wider = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),
                GridEntry(kernel="3a", length=64, rules=("baseline",)),
                GridEntry(kernel="2a", length=64, rules=("baseline", "t2")),
            )
        )
        result, tracers = traced(lambda: run_campaign(wider, directory))
        assert tracers == 1
        rows = done_rows(directory)
        served = {job_id for job_id, row in rows.items() if row["worker"] == -1}
        assert served == {
            "1a-L64/baseline/2048B-32b-1w-lru/base",
            "1a-L64/t1/2048B-32b-1w-lru/base",
            "3a-L64/baseline/2048B-32b-1w-lru/base",
        }
        hits = {
            job_id: row["result"]["cache_hits"]["trace"]
            for job_id, row in rows.items()
            if job_id.startswith("2a-")
        }
        assert hits == {
            "2a-L64/baseline/2048B-32b-1w-lru/base": False,
            "2a-L64/t2/2048B-32b-1w-lru/base": True,
        }
        assert result.n_done == 5

    def test_served_points_count_as_artifact_hits(self, tmp_path):
        from repro.obsv.telemetry import get_telemetry

        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        tele = get_telemetry()
        tele.reset()
        tele.enable()
        try:
            run_campaign(mini_spec(), directory)
            counters = tele.snapshot()["counters"]
        finally:
            tele.disable()
        assert counters["campaign.artifact_hits"] == 3
        assert "campaign.orphans_recovered" not in counters


class TestRouteProvenance:
    """Each done row says which route produced its result; the stored
    artifact does not."""

    def test_paper_grid_routes(self, tmp_path):
        """Every paper point, the PPC440's round-robin ones included,
        takes the kernel; a PLRU point added to the grid is declined
        with its reason."""
        import dataclasses

        from repro.campaign.spec import paper_figures_spec

        directory = tmp_path / "c"
        paper = paper_figures_spec(length=32)
        plru = CacheSpec(size=32 * 1024, block=32, assoc=64, policy="plru")
        spec = dataclasses.replace(
            paper,
            grid=paper.grid
            + (GridEntry(kernel="3a", length=32, rules=("baseline",),
                         caches=(plru,)),),
        )
        run_campaign(spec, directory)
        cold = stored_json(directory)
        rows = done_rows(directory)
        assert len(rows) == 7
        for job_id, row in rows.items():
            result = row["result"]
            if f"/{plru.label()}/" in job_id:
                assert result["route"] == "reference"
                assert "plru" in result["route_reason"]
                assert "kernel" not in result
            else:
                assert result["route"] == "fast"
                assert "route_reason" not in result
                kernel = "fifo" if "/ppc440/" in job_id else "stack"
                assert result["kernel"] == kernel

        run_campaign(spec, directory)
        assert {r["result"]["route"] for r in done_rows(directory).values()} == {
            "store"
        }
        assert stored_json(directory) == cold
        for blob in cold.values():
            assert b"route" not in blob and b"cache_hits" not in blob
            assert b'"kernel"' not in blob

    def test_no_fast_and_batch_routes(self, tmp_path):
        spec = mini_spec(
            grid=(GridEntry(kernel="1a", length=32, rules=("baseline",)),),
            caches=(CacheSpec(size=1024), CacheSpec(size=2048, assoc=2)),
        )
        run_campaign(spec, tmp_path / "b")
        routes = {r["result"]["route"] for r in done_rows(tmp_path / "b").values()}
        assert routes == {"fast"}
        run_campaign(spec, tmp_path / "r", fast=False)
        for row in done_rows(tmp_path / "r").values():
            assert row["result"]["route"] == "reference"
            assert "--no-fast" in row["result"]["route_reason"]
        assert stored_json(tmp_path / "b") == stored_json(tmp_path / "r")

    def test_one_byte_blocks_take_the_reference(self, tmp_path):
        """The kernels keep block id -1 for an empty way, which 1-byte
        blocks would spend on address 2**64-1: the planner declines them."""
        spec = mini_spec(
            grid=(GridEntry(kernel="1a", length=32, rules=("baseline",)),),
            caches=(CacheSpec(size=1024, block=1, assoc=2),),
        )
        run_campaign(spec, tmp_path / "c")
        (row,) = done_rows(tmp_path / "c").values()
        assert row["result"]["route"] == "reference"
        assert "1-byte blocks" in row["result"]["route_reason"]


def rotated_paper_spec(shift, length=64):
    """The paper grid, one grid entry per point, rotated by ``shift``
    points: every point gets to be its program's first task."""
    import dataclasses

    from repro.campaign.grid import expand_jobs
    from repro.campaign.spec import paper_figures_spec

    paper = paper_figures_spec(length=length)
    jobs = expand_jobs(paper)
    jobs = jobs[shift:] + jobs[:shift]
    return dataclasses.replace(
        paper,
        grid=tuple(
            GridEntry(kernel=j.kernel, length=j.length, rules=(j.rule,),
                      caches=(j.cache,))
            for j in jobs
        ),
    )


def assert_later_tasks_wait(rows):
    """Each program's later tasks start only after its first task's
    first attempt has ended, in manifest order and by ``ts``."""
    ended = {}
    for i, row in enumerate(rows):
        program = row.get("job_id", "").split("/")[0]
        if row["event"] == "job-start":
            if program in ended:
                first_end = ended[program]
                assert first_end is not None, row["job_id"]
                assert rows[first_end]["ts"] <= row["ts"]
            else:
                ended[program] = None
        elif (
            row["event"] in ("job-done", "job-retry", "job-failed")
            and ended.get(program, 0) is None
        ):
            ended[program] = i


class TestOneTracePerProgram:
    """No trace stage: a task that misses its program's trace makes it,
    and the program's other tasks wait for that task."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_rotation_traces_each_program_once(self, tmp_path, workers):
        for shift in range(6):
            directory = tmp_path / f"r{shift}"
            spec = rotated_paper_spec(shift)
            result, tracers = traced(
                lambda: run_campaign(spec, directory, workers=workers)
            )
            assert (shift, result.n_done) == (shift, 6)
            assert (shift, tracers) == (shift, 3)
            rows = RunManifest.read(directory / "manifest.jsonl")
            assert not [
                r for r in rows if r.get("job_id", "").startswith("trace/")
            ]
            assert_later_tasks_wait(rows)

    def test_first_tasks_go_first(self):
        """Every program's first task is handed out ahead of any
        program's later task, and holds back its program's others."""
        from repro.campaign.grid import expand_jobs, plan_tasks
        from repro.campaign.scheduler import _dispatch_order

        spec = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),
                GridEntry(kernel="1a", length=64, rules=("baseline",)),
                GridEntry(kernel="3a", length=64, rules=("t3", "baseline")),
            ),
        )
        tasks, held = _dispatch_order(plan_tasks(expand_jobs(spec), fast=True))
        assert [t.job_id.split("/")[:2] for t in tasks] == [
            ["1a-L64", "baseline"],
            ["3a-L64", "t3"],
            ["1a-L64", "t1"],
            ["3a-L64", "baseline"],
        ]
        assert held == {0: [2], 1: [3]}

    def test_cold_paper_campaign_decodes_each_trace_once(
        self, tmp_path, monkeypatch
    ):
        """A program's baseline points simulate the trace their task just
        made, in memory: only the rule points' ``apply_rules`` opens a
        chunk, one per program."""
        from repro.campaign.spec import paper_figures_spec
        from repro.tracestore.store import TraceStore

        opened = []
        open_blob = TraceStore.open_blob
        monkeypatch.setattr(
            TraceStore, "open_blob",
            lambda store, bid: opened.append(bid) or open_blob(store, bid),
        )
        result = run_campaign(paper_figures_spec(1024), tmp_path / "c")
        assert result.n_done == 6
        assert len(opened) == 3

    def test_failing_first_task_fails_only_its_point(self, tmp_path):
        """The program's first task names a missing rule file: it fails
        before tracing, the baseline point then traces the program, once."""
        missing = tmp_path / "missing.rules"
        spec = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=64,
                          rules=(f"file:{missing}", "baseline")),
            ),
        )
        directory = tmp_path / "c"
        result, tracers = traced(
            lambda: run_campaign(spec, directory, retries=1, backoff=0.0)
        )
        (failed,) = result.by_status("failed")
        assert failed.job_id.startswith("1a-L64/file:")
        assert "FileNotFoundError" in failed.error
        (done,) = result.by_status("done")
        assert done.job_id == "1a-L64/baseline/2048B-32b-1w-lru/base"
        assert tracers == 1
        assert_later_tasks_wait(RunManifest.read(directory / "manifest.jsonl"))

    def test_timed_out_first_task_lets_the_others_trace(
        self, tmp_path, monkeypatch
    ):
        """A first task killed at its deadline releases its program's
        other tasks, which trace the program on their own."""
        import time

        from repro.campaign import scheduler

        execute = scheduler.execute_task

        def stalled(task, directory):
            # Forked workers inherit this patch; only the baseline stalls.
            if task.members[0].is_baseline:
                time.sleep(60)
            return execute(task, directory)

        monkeypatch.setattr(scheduler, "execute_task", stalled)
        spec = mini_spec(
            grid=(GridEntry(kernel="1a", length=32, rules=("baseline", "t1")),),
        )
        result = run_campaign(
            spec, tmp_path / "c", workers=2, timeout=1.0, retries=0
        )
        (failed,) = result.by_status("failed")
        assert failed.job_id == "1a-L32/baseline/2048B-32b-1w-lru/base"
        assert "timeout" in failed.error
        (done,) = result.by_status("done")
        assert done.job_id == "1a-L32/t1/2048B-32b-1w-lru/base"
        assert done.result["cache_hits"]["trace"] is False


class TestInlineSlot:
    """``workers <= 1`` without a timeout runs each task in the parent,
    through the same dispatch loop as the pool."""

    def test_runs_in_the_parent(self, tmp_path, monkeypatch):
        """No process starts, the parent's telemetry is neither reset
        nor merged into, every row names worker 0, and a retry waits its
        backoff."""
        from repro.campaign import scheduler
        from repro.obsv.telemetry import get_telemetry

        def no_pool():
            raise AssertionError("an inline run asked for a process pool")

        monkeypatch.setattr(scheduler, "_mp_context", no_pool)
        rules = tmp_path / "broken.rules"
        rules.write_text("in:\nnope {{{\n")
        spec = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=32,
                          rules=("baseline", f"file:{rules}")),
            ),
        )
        tele = get_telemetry()
        tele.reset()
        tele.enable()
        try:
            tele.add("test.before_run")
            result = run_campaign(spec, tmp_path / "c", retries=1, backoff=0.05)
            counters = tele.snapshot()["counters"]
        finally:
            tele.disable()
            tele.reset()
        assert (result.n_done, result.n_failed) == (1, 1)
        assert counters["test.before_run"] == 1
        # the baseline task's simulation and trace misses, counted once
        assert counters["campaign.artifact_misses"] == 2
        rows = RunManifest.read(tmp_path / "c" / "manifest.jsonl")
        assert {r["worker"] for r in rows if "worker" in r} == {0}
        (retry,) = [r for r in rows if r["event"] == "job-retry"]
        assert retry["backoff"] == 0.05
        (again,) = [
            r for r in rows
            if r["event"] == "job-start" and r["attempt"] == 2
        ]
        assert again["ts"] - retry["ts"] >= 0.05 - 0.002

    def test_lets_an_interrupt_through(self, tmp_path, monkeypatch):
        from repro.campaign import scheduler

        def interrupted(task, directory):
            raise KeyboardInterrupt

        monkeypatch.setattr(scheduler, "execute_task", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(mini_spec(), tmp_path / "c", retries=3)
        rows = RunManifest.read(tmp_path / "c" / "manifest.jsonl")
        assert [r["event"] for r in rows][-1] == "job-start"
