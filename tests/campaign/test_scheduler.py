"""Tests for the campaign scheduler: parallelism, retries, resume."""

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
        assert len(result.trace_outcomes) == 2  # 1a and 3a, deduplicated
        assert all(o.ok for o in result.outcomes)

    def test_manifest_written(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        rows = RunManifest.read(directory / "manifest.jsonl")
        events = [r["event"] for r in rows]
        assert events[0] == "campaign-start"
        assert events[-1] == "campaign-end"
        # 2 trace stages + 3 points, one start and one done each.
        assert events.count("job-start") == 5
        assert events.count("job-done") == 5

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

    def test_timeout_kills_and_records(self, tmp_path):
        # A kernel big enough to blow a 100 ms budget deterministically.
        spec = CampaignSpec(
            name="slow",
            grid=(GridEntry(kernel="1a", length=20000, rules=("baseline",)),),
            caches=(CacheSpec(),),
        )
        result = run_campaign(
            spec, tmp_path / "c", workers=2, timeout=0.1, retries=0
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
    def test_second_run_skips_and_hits_cache(self, tmp_path):
        directory = tmp_path / "c"
        first = run_campaign(mini_spec(), directory)
        assert first.cache_hit_rate() == 0.0
        second = run_campaign(mini_spec(), directory, resume=True)
        assert second.n_skipped == 3
        assert second.n_done == 0
        assert second.cache_hit_rate() == 1.0
        assert second.wall_seconds < first.wall_seconds

    def test_resume_preserves_results_in_manifest(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        run_campaign(mini_spec(), directory, resume=True)
        rows = RunManifest.result_rows(
            RunManifest.read(directory / "manifest.jsonl")
        )
        skipped = [r for r in rows if r["event"] == "job-skipped"]
        assert skipped and all(r["result"]["accesses"] > 0 for r in skipped)

    def test_resume_runs_only_new_points(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        wider = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),
                GridEntry(kernel="3a", length=64, rules=("baseline", "t3")),
            )
        )
        result = run_campaign(wider, directory, resume=True)
        assert result.n_skipped == 3
        assert result.n_done == 1  # only the new t3 point
        (done,) = result.by_status("done")
        assert "/t3/" in done.job_id
        # Its trace stage was already cached from the first run.
        assert done.result["cache_hits"]["trace"] is True

    def test_without_resume_reruns_but_still_hits_artifacts(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        again = run_campaign(mini_spec(), directory)  # no resume flag
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
        if r["event"] == "job-done" and not r["job_id"].startswith("trace/")
    }


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
        assert again.trace_outcomes == []
        rows = RunManifest.read(directory / "manifest.jsonl")
        events = [r["event"] for r in rows]
        assert events.count("job-start") == 0
        assert events.count("job-done") == 3
        for row in done_rows(directory).values():
            assert row["worker"] == -1 and row["attempt"] == 1
            assert "recovered" not in row
            assert row["result"]["cache_hits"] == {"simulation": True}

    def test_only_missing_programs_get_trace_tasks(self, tmp_path):
        directory = tmp_path / "c"
        run_campaign(mini_spec(), directory)
        wider = mini_spec(
            grid=(
                GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),
                GridEntry(kernel="3a", length=64, rules=("baseline",)),
                GridEntry(kernel="2a", length=64, rules=("baseline", "t2")),
            )
        )
        result = run_campaign(wider, directory)
        assert [o.job_id for o in result.trace_outcomes] == ["trace/2a-L64"]
        served = {
            job_id
            for job_id, row in done_rows(directory).items()
            if row["worker"] == -1
        }
        assert served == {
            "1a-L64/baseline/2048B-32b-1w-lru/base",
            "1a-L64/t1/2048B-32b-1w-lru/base",
            "3a-L64/baseline/2048B-32b-1w-lru/base",
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
        from repro.campaign.spec import paper_figures_spec

        directory = tmp_path / "c"
        spec = paper_figures_spec(length=32)
        run_campaign(spec, directory)
        cold = stored_json(directory)
        rows = done_rows(directory)
        assert len(rows) == 6
        for job_id, row in rows.items():
            result = row["result"]
            if "/ppc440/" in job_id:
                assert result["route"] == "reference"
                assert "round-robin" in result["route_reason"]
            else:
                assert result["route"] == "fast"
                assert "route_reason" not in result

        run_campaign(spec, directory)
        assert {r["result"]["route"] for r in done_rows(directory).values()} == {
            "store"
        }
        assert stored_json(directory) == cold
        for blob in cold.values():
            assert b"route" not in blob and b"cache_hits" not in blob

    def test_no_fast_and_batch_routes(self, tmp_path):
        spec = mini_spec(
            grid=(GridEntry(kernel="1a", length=32, rules=("baseline",)),),
            caches=(CacheSpec(size=1024), CacheSpec(size=2048, assoc=2)),
        )
        run_campaign(spec, tmp_path / "b")
        routes = {r["result"]["route"] for r in done_rows(tmp_path / "b").values()}
        assert routes == {"batch"}
        run_campaign(spec, tmp_path / "r", fast=False)
        for row in done_rows(tmp_path / "r").values():
            assert row["result"]["route"] == "reference"
            assert "--no-fast" in row["result"]["route_reason"]
        assert stored_json(tmp_path / "b") == stored_json(tmp_path / "r")
