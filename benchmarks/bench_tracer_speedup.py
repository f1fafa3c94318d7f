"""Infrastructure bench: the column-emitting tracer vs the per-record emitter.

The tracer appends raw fields per access and symbolises after the run,
once per symbol and once per distinct (symbol, offset).  The per-record
emitter it replaced (``tests/reference.py``) symbolises every access as
it happens and builds one ``TraceRecord`` per access.  This bench traces
the six paper kernels through both and asserts (a) byte-equal v1 and v2
output and (b) a speedup floor.  Both emitters run in the same process,
alternating, and each side keeps its best round, so host speed cancels
out of the ratio.  Measured on a 2-vCPU VM: 2.2-2.3x at LEN=1024 and
2.3-3.1x at LEN=256 (``--quick``); the floor leaves margin for noise.
"""

import time

import pytest

from repro.trace.binformat import save_binary
from repro.trace.columnar import save_columnar
from repro.tracer.interp import trace_program
from repro.workloads.paper_kernels import paper_kernel
from tests.reference import reference_trace_program

KERNELS = ("1a", "1b", "2a", "2b", "3a", "3b")
SPEEDUP_FLOOR = 1.5
ROUNDS = 5


@pytest.fixture(scope="module")
def programs(quick):
    length = 256 if quick else 1024
    return [paper_kernel(k, length=length) for k in KERNELS]


def _trace_all(tracer, programs):
    return [tracer(program) for program in programs]


def test_column_tracer(benchmark, programs):
    traces = benchmark(_trace_all, trace_program, programs)
    assert all(len(t) > 0 for t in traces)


def test_output_is_byte_equal(programs, tmp_path):
    for program, ours, theirs in zip(
        programs,
        _trace_all(trace_program, programs),
        _trace_all(reference_trace_program, programs),
    ):
        for name, save in (("v1", save_binary), ("v2", save_columnar)):
            save(ours, tmp_path / f"columns.{name}")
            save(theirs, tmp_path / f"records.{name}")
            assert (tmp_path / f"columns.{name}").read_bytes() == (
                tmp_path / f"records.{name}"
            ).read_bytes(), (program.main.name, name)


def test_speedup_factor(programs):
    best = {trace_program: float("inf"), reference_trace_program: float("inf")}
    for _ in range(ROUNDS):
        for tracer in best:
            t0 = time.perf_counter()
            _trace_all(tracer, programs)
            best[tracer] = min(best[tracer], time.perf_counter() - t0)
    columns, records = best[trace_program], best[reference_trace_program]
    records_n = sum(len(t) for t in _trace_all(trace_program, programs))
    print(
        f"\nper-record emitter {records * 1e3:.0f} ms, column tracer "
        f"{columns * 1e3:.0f} ms, speedup {records / columns:.2f}x on "
        f"{records_n:,} records"
    )
    assert records / columns > SPEEDUP_FLOOR
