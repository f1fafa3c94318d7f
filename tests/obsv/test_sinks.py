"""Schema snapshot tests for the telemetry sinks, plus atomicity.

The on-disk event schema is pinned by golden files; regenerate after an
intentional schema change (and bump ``SCHEMA_VERSION``) with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obsv/test_sinks.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.obsv.atomic import atomic_write
from repro.obsv.sinks import (
    GENERATOR,
    chrome_trace_document,
    profile_events,
    read_jsonl_profile,
    write_chrome_trace,
    write_jsonl_profile,
)
from repro.obsv.telemetry import SCHEMA_VERSION

pytestmark = pytest.mark.obsv

GOLDEN_DIR = Path(__file__).parent / "golden"


def _check_golden(name: str, text: str) -> None:
    """Compare ``text`` against the checked-in golden (or regenerate)."""
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden {path}; create it with UPDATE_GOLDEN=1"
    )
    assert text == path.read_text(encoding="utf-8")


class TestJsonlProfile:
    def test_every_line_is_json_and_meta_leads(self, sample_snapshot, tmp_path):
        path = write_jsonl_profile(sample_snapshot, tmp_path / "p.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "meta"
        assert events[0]["schema_version"] == SCHEMA_VERSION
        assert events[0]["generator"] == GENERATOR
        kinds = {e["event"] for e in events}
        assert kinds == {"meta", "counter", "gauge", "span"}

    def test_round_trips_through_the_reader(self, sample_snapshot, tmp_path):
        path = write_jsonl_profile(sample_snapshot, tmp_path / "p.jsonl")
        assert read_jsonl_profile(path) == sample_snapshot

    def test_matches_golden(self, sample_snapshot, tmp_path):
        path = write_jsonl_profile(sample_snapshot, tmp_path / "p.jsonl")
        _check_golden("profile.jsonl", path.read_text(encoding="utf-8"))

    def test_unknown_events_are_skipped(self, sample_snapshot, tmp_path):
        path = write_jsonl_profile(sample_snapshot, tmp_path / "p.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "from-the-future", "x": 1}\n')
        assert read_jsonl_profile(path) == sample_snapshot

    def test_torn_final_line_is_dropped(self, sample_snapshot, tmp_path):
        path = write_jsonl_profile(sample_snapshot, tmp_path / "p.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "span", "name": "tru')
        assert read_jsonl_profile(path) == sample_snapshot

    def test_rejects_files_without_meta(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"event": "counter", "name": "c", "value": 1}\n')
        with pytest.raises(ObservabilityError, match="no meta"):
            read_jsonl_profile(path)

    def test_rejects_newer_schema_versions(self, sample_snapshot, tmp_path):
        newer = dict(sample_snapshot, schema_version=SCHEMA_VERSION + 1)
        path = write_jsonl_profile(newer, tmp_path / "p.jsonl")
        with pytest.raises(ObservabilityError, match="newer"):
            read_jsonl_profile(path)

    def test_event_stream_order_is_canonical(self, sample_snapshot):
        events = list(profile_events(sample_snapshot))
        counter_names = [e["name"] for e in events if e["event"] == "counter"]
        assert counter_names == sorted(counter_names)


class TestChromeTrace:
    def test_document_round_trips_json(self, sample_snapshot, tmp_path):
        path = write_chrome_trace(sample_snapshot, tmp_path / "t.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc == chrome_trace_document(sample_snapshot)

    def test_structure_loads_in_perfetto_terms(self, sample_snapshot):
        doc = chrome_trace_document(sample_snapshot)
        assert doc["otherData"]["schema_version"] == SCHEMA_VERSION
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(sample_snapshot["spans"])
        for event in complete:
            assert {"name", "cat", "pid", "tid", "ts", "dur"} <= set(event)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {
            s["pid"] for s in sample_snapshot["spans"]
        }
        counter_events = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counter_events} == set(
            sample_snapshot["counters"]
        )

    def test_matches_golden(self, sample_snapshot, tmp_path):
        path = write_chrome_trace(sample_snapshot, tmp_path / "t.json")
        _check_golden("chrome_trace.json", path.read_text(encoding="utf-8"))


class TestAtomicity:
    def test_no_partial_file_after_forced_crash(self, tmp_path):
        target = tmp_path / "out" / "p.jsonl"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("half a profi")
                raise RuntimeError("power loss")
        assert not target.exists()
        assert list(target.parent.glob("*.tmp")) == []

    def test_crash_leaves_the_previous_artifact_intact(self, tmp_path):
        target = tmp_path / "p.jsonl"
        target.write_text("previous good profile\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("torn")
                raise RuntimeError("crash")
        assert target.read_text(encoding="utf-8") == "previous good profile\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_sink_crash_mid_serialisation(self, sample_snapshot, tmp_path):
        """An unserialisable snapshot value crashes json mid-stream; the
        sink must leave neither the target nor a temp file behind."""
        poisoned = dict(sample_snapshot, counters={"bad": object()})
        target = tmp_path / "p.jsonl"
        with pytest.raises(TypeError):
            write_jsonl_profile(poisoned, target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_rejects_unsupported_modes(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_write(tmp_path / "x", mode="a"):
                pass

    def test_success_replaces_atomically(self, tmp_path):
        target = tmp_path / "p.txt"
        target.write_text("old", encoding="utf-8")
        with atomic_write(target) as handle:
            handle.write("new")
        assert target.read_text(encoding="utf-8") == "new"
        assert list(tmp_path.iterdir()) == [target]

    def test_binary_mode(self, tmp_path):
        target = tmp_path / "b.bin"
        with atomic_write(target, "wb") as handle:
            handle.write(b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"


class TestWritersAreAtomicEverywhere:
    """The pre-existing artifact writers now share the same guarantee."""

    def test_trace_writer_crash_leaves_nothing(self, tmp_path):
        from repro.trace.format import write_trace

        class Exploding:
            def __iter__(self):
                raise RuntimeError("boom")

        target = tmp_path / "t.out"
        with pytest.raises(RuntimeError):
            write_trace(Exploding(), target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_gzip_trace_writer_round_trips(self, tmp_path):
        from repro.trace.format import read_trace, write_trace
        from repro.trace.record import AccessType, TraceRecord

        records = [TraceRecord(AccessType.LOAD, 0x1000, 4, "main")]
        target = tmp_path / "t.out.gz"
        write_trace(records, target)
        assert [r.addr for r in read_trace(target)] == [0x1000]
        assert list(tmp_path.iterdir()) == [target]
