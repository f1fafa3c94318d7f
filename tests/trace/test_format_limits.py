"""Both binary formats refuse values their narrow fields cannot hold.

v1 and v2 store frame and thread in one byte and function ids in two,
with the top value (0xFF, 0xFFFF) meaning "absent"; v1 stores sizes in
two bytes.  A real value at or above the marker would read back as
``None``, and a wider one would wrap, so both writers raise
:class:`TraceFormatError` naming the field, the value and the record
index, and write nothing.  In-memory traces holding such values keep
working.
"""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.errors import TraceFormatError
from repro.trace.binformat import load_binary, save_binary
from repro.trace.columnar import load_columnar, save_columnar
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.workloads.paper_kernels import paper_kernel

FORMATS = {"v1": (save_binary, load_binary), "v2": (save_columnar, load_columnar)}


def _records(**fields):
    """Three records; the last one carries ``fields``."""
    base = TraceRecord(AccessType.LOAD, 0x1000, 4, "main", "LV", 0, 1)
    return [base, base.evolve(addr=0x1004), base.evolve(addr=0x1008, **fields)]


def _many_functions(n):
    """``n`` records, each in a function of its own (ids 0..n-1)."""
    return [TraceRecord(AccessType.LOAD, 8 * i, 4, f"f{i}") for i in range(n)]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize(
    "field, value, records, index",
    [
        ("frame", 255, _records(frame=255), 2),
        ("frame", 300, _records(frame=300), 2),
        ("thread", 255, _records(thread=255), 2),
        ("thread", 300, _records(thread=300), 2),
        ("function id", 0xFFFF, _many_functions(0x10000), 0xFFFF),
    ],
    ids=["frame-255", "frame-300", "thread-255", "thread-300", "function-id-0xffff"],
)
def test_out_of_range_field_is_refused(fmt, field, value, records, index, tmp_path):
    save, _ = FORMATS[fmt]
    target = tmp_path / "t.tdst"
    with pytest.raises(TraceFormatError) as info:
        save(records, target)
    message = str(info.value)
    assert f"{field} {value} at record {index}" in message
    assert fmt in message
    assert not target.exists()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("thread", [255, 300])
def test_traced_thread_at_the_marker_is_refused(fmt, thread, tmp_path):
    """The tracer's own thread stamp, saved through either writer."""
    trace = trace_program(paper_kernel("1a", length=4), thread=thread)
    with pytest.raises(TraceFormatError, match=rf"thread {thread} at record 0\b"):
        FORMATS[fmt][0](trace, tmp_path / "t.tdst")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_in_range_values_round_trip(fmt, tmp_path):
    save, load = FORMATS[fmt]
    records = _records(frame=254, thread=254, size=65535)
    save(records, tmp_path / "t.tdst")
    assert list(load(tmp_path / "t.tdst")) == records


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_most_functions_the_format_holds(fmt, tmp_path):
    save, load = FORMATS[fmt]
    records = _many_functions(0xFFFF)  # ids 0..0xFFFE
    save(records, tmp_path / "t.tdst")
    assert list(load(tmp_path / "t.tdst")) == records


def test_v1_size_above_two_bytes_is_refused(tmp_path):
    with pytest.raises(TraceFormatError, match="size 65536 at record 2: the v1"):
        save_binary(_records(size=65536), tmp_path / "t.tdst")
    # v2 stores sizes in four bytes.
    save_columnar(_records(size=65536), tmp_path / "t2.tdst")
    assert list(load_columnar(tmp_path / "t2.tdst")) == _records(size=65536)
    with pytest.raises(TraceFormatError, match=f"size {1 << 32} at record 2: the v2"):
        save_columnar(_records(size=1 << 32), tmp_path / "t3.tdst")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("field", ["frame", "thread"])
def test_negative_field_is_refused(fmt, field, tmp_path):
    with pytest.raises(TraceFormatError, match=rf"{field} -1 at record 2 is negative"):
        FORMATS[fmt][0](_records(**{field: -1}), tmp_path / "t.tdst")


def test_in_memory_trace_with_wide_values_keeps_working():
    """The failure stays at save: nothing else looks at the width."""
    trace = trace_program(paper_kernel("1a", length=4), thread=300)
    assert {r.thread for r in trace} == {300, None}
    assert trace == Trace(list(trace))
    assert len(trace.columns()) == len(trace)
    assert simulate(trace, CacheConfig.paper_direct_mapped()).stats.accesses > 0
    records = Trace(_records(frame=1000, size=1 << 20))
    assert records[2].frame == 1000
    assert records.sizes()[2] == 1 << 20
