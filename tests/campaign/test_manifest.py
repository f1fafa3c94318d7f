"""Tests for the JSONL run manifest."""

from repro.campaign.manifest import (
    EVENT_JOB_DONE,
    EVENT_JOB_FAILED,
    EVENT_JOB_SKIPPED,
    RunManifest,
)


class TestWriteRead:
    def test_round_trip_in_order(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with RunManifest(path) as manifest:
            manifest.record("campaign-start", campaign="x", points=2)
            manifest.record(EVENT_JOB_DONE, job_id="a", result={"misses": 1})
            manifest.record(EVENT_JOB_FAILED, job_id="b", error="boom")
        rows = RunManifest.read(path)
        assert [r["event"] for r in rows] == [
            "campaign-start",
            EVENT_JOB_DONE,
            EVENT_JOB_FAILED,
        ]
        assert all("ts" in r for r in rows)

    def test_truncate_mode_starts_fresh(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with RunManifest(path) as manifest:
            manifest.record(EVENT_JOB_DONE, job_id="a")
        with RunManifest(path) as manifest:
            manifest.record(EVENT_JOB_DONE, job_id="b")
        rows = RunManifest.read(path)
        assert len(rows) == 1 and rows[0]["job_id"] == "b"

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with RunManifest(path) as manifest:
            manifest.record(EVENT_JOB_DONE, job_id="a")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "job-done", "job_id": "tr')  # crash mid-write
        rows = RunManifest.read(path)
        assert len(rows) == 1


class TestQueries:
    """``result_rows`` still reads the ``job-skipped`` rows that older
    runs wrote when they carried a manifest's rows forward."""

    def test_result_rows_terminal_only(self):
        rows = [
            {"event": "campaign-start"},
            {"event": "job-start", "job_id": "a", "attempt": 1},
            {"event": EVENT_JOB_DONE, "job_id": "a"},
            {"event": EVENT_JOB_SKIPPED, "job_id": "b"},
            {"event": "job-retry", "job_id": "c"},
            {"event": EVENT_JOB_FAILED, "job_id": "c"},
        ]
        terminal = RunManifest.result_rows(rows)
        assert {r["job_id"] for r in terminal} == {"a", "b", "c"}

    def test_result_rows_latest_terminal_state(self):
        rows = [
            {"event": EVENT_JOB_DONE, "job_id": "a", "result": {"misses": 1}},
            {"event": EVENT_JOB_SKIPPED, "job_id": "a", "result": {"misses": 1}},
        ]
        (row,) = RunManifest.result_rows(rows)
        assert row["event"] == EVENT_JOB_SKIPPED
