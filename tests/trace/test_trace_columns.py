"""A columns-backed ``Trace`` behaves like a record-backed one.

``trace_program`` returns a trace that carries
:class:`~repro.trace.columns.TraceColumns` and builds its record list
only on first record access.  Length, projections, slices and both
writers must never build records; everything else must match a
record-backed trace of the same records.
"""

import numpy as np
import pytest

from repro.ctypes_model.path import VariablePath
from repro.obsv.telemetry import get_telemetry
from repro.trace.binformat import save_binary
from repro.trace.columnar import ColumnarTrace, save_columnar
from repro.trace.columns import ABSENT, TraceColumns, intern_order
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.workloads.paper_kernels import paper_kernel
from repro.workloads.synthetic import linked_list_traversal


@pytest.fixture
def program():
    return linked_list_traversal(12, shuffled=True, seed=3, passes=2)


@pytest.fixture
def columns_trace(program):
    return trace_program(program, emit_instruction_fetches=True)


@pytest.fixture
def records_trace(program):
    return Trace(list(trace_program(program, emit_instruction_fetches=True)))


@pytest.fixture
def telemetry():
    """The process-wide registry, enabled for one test."""
    registry = get_telemetry()
    registry.reset()
    registry.enable()
    yield registry
    registry.disable()
    registry.reset()


@pytest.fixture
def no_records(monkeypatch):
    """Fail the test if anything builds records."""

    def boom(self):
        raise AssertionError("records were built")

    monkeypatch.setattr(TraceColumns, "records", boom)


class TestNoRecordsBuilt:
    def test_len_projections_and_slices(self, columns_trace, no_records):
        assert len(columns_trace) > 0
        columns_trace.addresses()
        columns_trace.sizes()
        columns_trace.write_mask()
        assert len(columns_trace[3:17]) == 14
        assert repr(columns_trace).startswith("<Trace of ")

    def test_writers(self, columns_trace, no_records, tmp_path):
        save_columnar(columns_trace, tmp_path / "t.v2")
        save_binary(columns_trace, tmp_path / "t.v1")
        save_columnar(columns_trace[5:40], tmp_path / "slice.v2")

    def test_records_built_once_and_counted(self, columns_trace, telemetry):
        first = list(columns_trace)
        second = list(columns_trace)
        assert first == second
        assert all(a is b for a, b in zip(first, second))
        assert telemetry.counters()["trace.records_built"] == len(first)


class TestMatchesRecordBacked:
    def test_equality(self, columns_trace, records_trace):
        assert columns_trace == records_trace
        assert records_trace == columns_trace
        assert columns_trace != Trace(list(records_trace)[:-1])

    @pytest.mark.parametrize(
        "window",
        [
            slice(0, 10),
            slice(7, 7),
            slice(5, 2),
            slice(-20, -3),
            slice(100, 10_000),
            slice(None, None, 2),
            slice(None, None, -3),
        ],
        ids=str,
    )
    def test_slicing(self, columns_trace, records_trace, window):
        got = columns_trace[window]
        want = records_trace[window]
        assert isinstance(got, Trace)
        assert got == want
        assert list(got) == list(want)

    def test_indexing(self, columns_trace, records_trace):
        for i in (0, 5, -1):
            assert columns_trace[i] == records_trace[i]

    def test_append_and_extend(self, columns_trace, records_trace, tmp_path):
        extra = TraceRecord(AccessType.LOAD, 0x1234, 4, "main")
        columns_trace.append(extra)
        records_trace.append(extra)
        assert columns_trace == records_trace
        columns_trace.extend([extra, extra])
        records_trace.extend([extra, extra])
        assert len(columns_trace) == len(records_trace)
        # The columns follow the appended records.
        save_columnar(columns_trace, tmp_path / "a")
        save_columnar(records_trace, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_projections(self, columns_trace, records_trace):
        for name, dtype in (
            ("addresses", np.uint64),
            ("sizes", np.uint32),
            ("write_mask", np.bool_),
        ):
            got = getattr(columns_trace, name)()
            want = getattr(records_trace, name)()
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), name

    def test_projections_are_copies(self, columns_trace):
        addrs = columns_trace.addresses()
        addrs[:] = 0
        assert columns_trace.addresses().any()

    def test_queries(self, columns_trace, records_trace):
        assert columns_trace.functions() == records_trace.functions()
        assert columns_trace.variable_names() == records_trace.variable_names()
        assert columns_trace.address_range() == records_trace.address_range()


class TestColumns:
    def test_from_records_round_trips(self, records_trace):
        cols = TraceColumns.from_records(records_trace)
        assert cols.records() == list(records_trace)
        assert len(cols.functions) == len(set(cols.functions))
        assert list(cols.variables) == [str(p) for p in cols.paths]

    def test_tracer_columns_match_derived_columns(self, columns_trace, records_trace):
        got = columns_trace.columns()
        want = records_trace.columns()
        for name in (
            "kind", "addr", "size", "scope", "frame", "thread", "func_id", "var_id"
        ):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.functions == want.functions
        assert got.variables == want.variables
        assert got.paths == want.paths

    def test_absent_fields_are_minus_one(self):
        cols = TraceColumns.from_records([TraceRecord(AccessType.STORE, 8, 8, "")])
        assert cols.frame[0] == cols.thread[0] == ABSENT
        assert cols.func_id[0] == cols.var_id[0] == ABSENT
        assert cols.records() == [TraceRecord(AccessType.STORE, 8, 8, "")]

    def test_columnar_file_reads_back_window_by_window(
        self, columns_trace, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.trace.columnar.DEFAULT_CHUNK_RECORDS", 7)
        path = save_columnar(columns_trace, tmp_path / "t.tdst")
        with ColumnarTrace(path) as columnar:
            assert list(columnar.iter_records()) == list(columns_trace)
            assert columnar.to_trace() == columns_trace


class TestInternOrder:
    def test_canonical_column_is_returned_unchanged(self):
        ids = np.array([0, -1, 1, 0, 2], dtype=np.int32)
        got, table = intern_order(ids, ["a", "b", "c"])
        assert got is ids
        assert table == ["a", "b", "c"]

    def test_reinterns_in_first_appearance_order(self):
        ids = np.array([2, -1, 0, 2, 3], dtype=np.int32)
        got, table = intern_order(ids, ["a", "unused", "c", "a"])
        assert table == ["c", "a"]
        assert got.tolist() == [0, -1, 1, 0, 1]
        assert got.dtype == np.int32

    def test_all_absent(self):
        ids = np.full(3, ABSENT, dtype=np.int32)
        got, table = intern_order(ids, ["dropped"])
        assert table == []
        assert got.tolist() == [-1, -1, -1]


def test_slice_of_columns_writes_like_records(tmp_path):
    trace = trace_program(paper_kernel("2a", length=8))
    window = trace[40:90]
    save_columnar(window, tmp_path / "a")
    save_columnar(Trace(list(window)), tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert window[0].var == VariablePath.parse(str(window[0].var))
