"""TraceStore on-disk behaviour: dedupe, idempotence, refs, snapshots."""

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.tracestore import TraceStore
from repro.tracestore.chain import KIND_SNAPSHOT
from repro.workloads.paper_kernels import paper_kernel

pytestmark = pytest.mark.tracestore


@pytest.fixture(scope="module")
def trace_64():
    return trace_program(paper_kernel("1a", length=64))


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "ts")


class TestBlobs:
    def test_put_chunk_dedupes(self, store, trace_64):
        records = list(trace_64)[:50]
        meta1 = store.put_chunk(records)
        before = sorted(p.name for p in (store.root / "blobs").rglob("*"))
        meta2 = store.put_chunk(records)
        after = sorted(p.name for p in (store.root / "blobs").rglob("*"))
        assert meta1 == meta2
        assert before == after

    def test_read_chunk_round_trip(self, store, trace_64):
        records = list(trace_64)[:50]
        meta = store.put_chunk(records)
        assert store.read_chunk(meta.blob) == Trace(records)

    def test_missing_blob_raises(self, store):
        with pytest.raises(TraceFormatError):
            store.read_chunk("0" * 64)


class TestCommits:
    def test_commit_trace_idempotent(self, store, trace_64):
        a = store.commit_trace(trace_64, chunk_records=100)
        b = store.commit_trace(trace_64, chunk_records=100)
        assert a.id == b.id
        assert a.kind == KIND_SNAPSHOT
        assert a.records == len(trace_64)

    def test_checkout_round_trip(self, store, trace_64):
        commit = store.commit_trace(trace_64, chunk_records=100)
        assert list(store.checkout(commit)) == list(trace_64)

    def test_checkout_builds_no_records(self, store, trace_64):
        """A 3-chunk commit checks out as one columns-backed trace equal
        to the committed one (absent functions and variables included),
        and no record is built to get it."""
        from repro.obsv.telemetry import get_telemetry
        from repro.tracestore.chain import blob_id

        records = list(trace_64)
        middle = len(records) // 2
        records[middle] = records[middle].evolve(func="", var=None)
        committed = Trace(records)
        commit = store.commit_trace(committed, chunk_records=-(-len(records) // 3))
        assert len(commit.chunks) == 3
        tele = get_telemetry()
        tele.reset()
        tele.enable()
        try:
            out = store.checkout(commit)
            columns = out.columns()
            built = tele.counters().get("trace.records_built", 0)
        finally:
            tele.disable()
            tele.reset()
        assert built == 0
        assert len(columns.functions) == 3 and len(columns.paths) > len(
            committed.columns().paths
        )
        assert out == committed
        assert blob_id(out) == blob_id(committed)

    def test_chunking_boundary_independent_of_container(self, store, trace_64):
        # Committing the same records from a Trace or a plain list is
        # identical: chunk boundaries are positional.
        a = store.commit_trace(trace_64, chunk_records=100)
        b = store.commit_trace(list(trace_64), chunk_records=100)
        assert a.id == b.id

    def test_log_walks_parents(self, store, trace_64):
        from repro.tracestore import apply_rules
        from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS

        base = store.commit_trace(trace_64, chunk_records=100)
        applied = apply_rules(
            store, base, RULE_T1_SOA_TO_AOS.format(length=64)
        )
        chain = list(store.log(applied.commit))
        assert [c.id for c in chain] == [applied.commit.id, base.id]

    def test_missing_commit_raises(self, store):
        with pytest.raises(TraceFormatError):
            store.read_commit("1" * 64)


class TestRefs:
    def test_set_get_refs(self, store, trace_64):
        commit = store.commit_trace(trace_64, chunk_records=100)
        store.set_ref("trace/main", commit.id)
        assert store.get_ref("trace/main") == commit.id
        assert store.refs() == {"trace/main": commit.id}

    def test_ref_to_missing_commit_rejected(self, store):
        with pytest.raises(TraceFormatError):
            store.set_ref("bad", "2" * 64)

    @pytest.mark.parametrize(
        "name", ["../escape", "/abs", ".hidden", "a//b", ""]
    )
    def test_invalid_ref_names_rejected(self, store, name):
        with pytest.raises(ValueError):
            store._ref_path(name)

    def test_resolve_by_ref_id_and_prefix(self, store, trace_64):
        commit = store.commit_trace(trace_64, chunk_records=100)
        store.set_ref("trace/main", commit.id)
        assert store.resolve(commit.id).id == commit.id
        assert store.resolve("trace/main").id == commit.id
        assert store.resolve(commit.id[:8]).id == commit.id
        with pytest.raises(TraceFormatError):
            store.resolve("deadbeef")


class TestSnapshots:
    def test_round_trip(self, store):
        state = {
            "a": np.arange(5, dtype=np.int64),
            "b": np.zeros((2, 3), dtype=np.uint64),
        }
        sid = "ab" * 32
        store.put_snapshot(sid, state)
        assert store.has_snapshot(sid)
        loaded = store.get_snapshot(sid)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], state["a"])
        np.testing.assert_array_equal(loaded["b"], state["b"])

    def test_missing_returns_none(self, store):
        assert store.get_snapshot("cd" * 32) is None

    def test_stats_counts_objects(self, store, trace_64):
        commit = store.commit_trace(trace_64, chunk_records=100)
        store.set_ref("trace/main", commit.id)
        stats = store.stats()
        assert stats["commits"] == 1
        assert stats["blobs"] == len(commit.chunks)
        assert stats["refs"] == 1
        assert stats["blobs_bytes"] > 0
