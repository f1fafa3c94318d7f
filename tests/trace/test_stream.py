"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.ctypes_model.path import VariablePath
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace


def _rec(op, addr, size=4, func="main", var=None, scope=None):
    local = scope is not None and not scope.startswith("G")
    return TraceRecord(
        op, addr, size, func,
        scope=scope,
        frame=0 if local else None,
        thread=1 if local else None,
        var=VariablePath.parse(var) if var else None,
    )


@pytest.fixture
def small_trace():
    return Trace(
        [
            _rec(AccessType.STORE, 0x100, var="a[0]", scope="LS"),
            _rec(AccessType.LOAD, 0x104, var="a[1]", scope="LS"),
            _rec(AccessType.LOAD, 0x200, var="i", scope="LV"),
            _rec(AccessType.MODIFY, 0x200, var="i", scope="LV"),
            _rec(AccessType.MISC, 0x300),
            _rec(AccessType.LOAD, 0x400, func="foo", var="g", scope="GV"),
        ]
    )


class TestSequenceProtocol:
    def test_len_iter_getitem(self, small_trace):
        assert len(small_trace) == 6
        assert small_trace[0].addr == 0x100
        assert [r.addr for r in small_trace][-1] == 0x400

    def test_slice_returns_trace(self, small_trace):
        window = small_trace[1:3]
        assert isinstance(window, Trace)
        assert len(window) == 2

    def test_equality(self, small_trace):
        assert small_trace == Trace(list(small_trace))
        assert small_trace != small_trace[1:]


class TestFilters:
    def test_only_ops(self, small_trace):
        loads = small_trace.only_ops(AccessType.LOAD)
        assert len(loads) == 3

    def test_data_accesses_drops_misc(self, small_trace):
        assert len(small_trace.data_accesses()) == 5

    def test_in_function(self, small_trace):
        assert len(small_trace.in_function("foo")) == 1

    def test_touching_variable(self, small_trace):
        assert len(small_trace.touching_variable("a")) == 2
        assert len(small_trace.touching_variable("i")) == 2

    def test_with_scope(self, small_trace):
        assert len(small_trace.with_scope("GV")) == 1
        assert len(small_trace.with_scope("LV", "LS")) == 4

    def test_symbolized(self, small_trace):
        assert len(small_trace.symbolized()) == 5

    def test_window(self, small_trace):
        assert [r.addr for r in small_trace.window(2, 2)] == [0x200, 0x200]

    def test_map(self, small_trace):
        shifted = small_trace.map(lambda r: r.evolve(addr=r.addr + 0x10))
        assert shifted[0].addr == 0x110
        assert small_trace[0].addr == 0x100

    def test_concat(self, small_trace):
        assert len(small_trace.concat(small_trace)) == 12


class TestProjections:
    def test_addresses_dtype(self, small_trace):
        addrs = small_trace.addresses()
        assert addrs.dtype == np.uint64
        assert addrs[0] == 0x100

    def test_write_mask(self, small_trace):
        mask = small_trace.write_mask()
        assert mask.tolist() == [True, False, False, True, False, False]

    def test_sizes(self, small_trace):
        assert small_trace.sizes().tolist() == [4] * 6


class TestQueries:
    def test_functions(self, small_trace):
        assert small_trace.functions() == ("main", "foo")

    def test_variable_names(self, small_trace):
        assert small_trace.variable_names() == ("a", "i", "g")

    def test_address_range(self, small_trace):
        assert small_trace.address_range() == (0x100, 0x404)
        assert Trace().address_range() is None


class TestPersistence:
    def test_save_load(self, small_trace, tmp_path):
        path = tmp_path / "t.out"
        small_trace.save(path)
        assert Trace.load(path) == small_trace


class TestIterRecords:
    def test_streams_text_file(self, small_trace, tmp_path):
        from repro.trace.stream import iter_records

        path = tmp_path / "t.out"
        small_trace.save(path)
        streamed = iter_records(path)
        assert not isinstance(streamed, list)  # lazy, not materialized
        assert Trace(streamed) == small_trace

    def test_streams_binary_file(self, small_trace, tmp_path):
        from repro.trace.binformat import save_binary
        from repro.trace.stream import iter_records

        path = tmp_path / "t.tdst"
        save_binary(small_trace, path)
        assert Trace(iter_records(path)) == small_trace

    def test_passes_iterables_through(self, small_trace):
        from repro.trace.stream import iter_records

        assert list(iter_records(small_trace)) == list(small_trace)


class TestIterChunks:
    """Chunked streaming: :func:`iter_record_chunks` (the trace store's
    blobs, every record kept) and the batched kernel's record feeder
    (demand accesses only)."""

    def test_chunking_covers_stream_in_order(self, tmp_path):
        from repro.trace.stream import iter_record_chunks

        records = [_rec(AccessType.LOAD, a * 8, size=4) for a in range(25)]
        chunks = list(iter_record_chunks(records, 10))
        assert [len(c) for c in chunks] == [10, 10, 5]
        assert [r for c in chunks for r in c] == records

    def test_data_only_drops_misc(self):
        from repro.cache.config import CacheConfig
        from repro.simbatch import simulate_batch
        from repro.trace.stream import iter_record_chunks

        records = [
            _rec(AccessType.LOAD, 0),
            _rec(AccessType.MISC, 4),
            _rec(AccessType.STORE, 8),
        ]
        config = CacheConfig.paper_direct_mapped()
        result = simulate_batch(records, [config], chunk_records=10)
        assert (result.accesses, result.chunks) == (2, 1)
        (raw,) = iter_record_chunks(records, 10)
        assert len(raw) == 3

    def test_modify_marked_as_write(self):
        """A Modify is one demand access, as in the reference simulator."""
        from repro.cache.config import CacheConfig
        from repro.simbatch import simulate_batch

        config = CacheConfig.paper_direct_mapped()
        result = simulate_batch([_rec(AccessType.MODIFY, 0)], [config])
        (counts,) = result.results
        assert result.accesses == counts.demand_accesses == 1

    def test_exact_multiple_has_no_empty_tail(self):
        from repro.trace.stream import iter_record_chunks

        records = [_rec(AccessType.LOAD, a) for a in range(20)]
        assert [len(c) for c in iter_record_chunks(records, 10)] == [10, 10]

    def test_empty_stream_yields_nothing(self):
        from repro.trace.stream import iter_record_chunks

        assert list(iter_record_chunks([], 10)) == []

    def test_rejects_nonpositive_chunk_size(self):
        from repro.cache.config import CacheConfig
        from repro.simbatch import simulate_batch
        from repro.trace.stream import iter_record_chunks

        with pytest.raises(ValueError):
            list(iter_record_chunks([], 0))
        with pytest.raises(ValueError):
            simulate_batch(
                [], [CacheConfig.paper_direct_mapped()], chunk_records=0
            )

    def test_chunks_from_file_match_loaded_trace(self, small_trace, tmp_path):
        from repro.trace.stream import iter_record_chunks

        path = tmp_path / "t.out"
        small_trace.save(path)
        chunks = list(iter_record_chunks(path, 4))
        assert [len(c) for c in chunks] == [4, 2]
        assert Trace(r for c in chunks for r in c) == small_trace
