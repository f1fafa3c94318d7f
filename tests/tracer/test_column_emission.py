"""The column tracer against the per-record emitter it replaced.

``trace_program`` appends raw fields per access and symbolises after the
run, once per symbol and once per distinct (symbol, offset).
:class:`tests.reference.RecordInterpreter` symbolises every access as it
happens and builds one record per access, as the tracer used to.  For
every program and option set here the two must give equal records and
byte-identical ``save_columnar`` (v2) and ``save_binary`` (v1) files.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.ctypes_model.types import DOUBLE, INT, ArrayType, PointerType, StructType
from repro.trace.binformat import save_binary
from repro.trace.columnar import save_columnar
from repro.tracer.expr import AddrOf, Cast, Const, V
from repro.tracer.interp import trace_program
from repro.tracer.program import Function, Parameter, Program
from repro.tracer.stmt import (
    Assign,
    AugAssign,
    Call,
    CallAssign,
    DeclLocal,
    HeapAlloc,
    Return,
    StartInstrumentation,
    StopInstrumentation,
    simple_for,
)
from repro.verify.fuzz import build_soa_case
from repro.verify.golden import paper_cases
from repro.workloads.paper_kernels import listing1_program, paper_kernel
from repro.workloads.synthetic import (
    linked_list_traversal,
    matrix_multiply,
    stencil_2d,
)
from tests.reference import reference_trace_program
from tests.transform.test_address_map_properties import soa_cases

#: ``_zzq_result`` on and off, instruction fetches off and on, the
#: default thread and another one.
OPTION_SETS = [
    {"emit_zzq": zzq, "emit_instruction_fetches": fetches, "thread": thread}
    for zzq, fetches, thread in itertools.product(
        (True, False), (False, True), (1, 7)
    )
]


def nested_calls_program() -> Program:
    """main -> middle -> leaf, where leaf writes main's local struct
    through a pointer (frame distance 2), a heap object (frame 0) and
    globals (no frame)."""
    pair = StructType("Pair", [("a", INT), ("b", ArrayType(DOUBLE, 4))])
    program = Program()
    program.register_struct("Pair", pair)
    program.add_global("gTotal", INT)
    program.add_global("gPairs", ArrayType(pair, 2))
    program.add_function(
        Function(
            "leaf",
            params=[Parameter("p", PointerType("Pair")), Parameter("k", INT)],
            body=[
                Assign(V("p").arrow("a"), V("k")),
                Assign(V("p")[Const(0)].fld("b")[V("k")], Cast(DOUBLE, V("k"))),
                AugAssign(V("gTotal"), "+", V("p").arrow("a")),
                Return(V("k") + 1),
            ],
        )
    )
    program.add_function(
        Function(
            "middle",
            params=[Parameter("q", PointerType("Pair"))],
            body=[
                DeclLocal("j", INT),
                DeclLocal("r", INT),
                *simple_for(
                    "j", 0, 3, [CallAssign(V("r"), "leaf", [V("q"), V("j")])]
                ),
                Assign(V("gPairs")[Const(1)].fld("a"), V("r")),
            ],
        )
    )
    program.add_function(
        Function(
            "main",
            body=[
                DeclLocal("s", pair),
                DeclLocal("h", PointerType("Pair")),
                HeapAlloc(V("h"), "hPair", pair),
                StartInstrumentation(),
                Call("middle", [AddrOf(V("s"))]),
                Call("middle", [V("h")]),
                StopInstrumentation(),
            ],
        )
    )
    return program


def explicit_programs():
    programs = {
        f"kernel-{k}": paper_kernel(k, length=16)
        for k in ("1a", "1b", "2a", "2b", "3a", "3b")
    }
    programs["listing1"] = listing1_program()
    for case in paper_cases():
        programs[f"golden-{case.name}"] = paper_kernel(
            case.kernel, length=case.length
        )
    programs["matrix-multiply"] = matrix_multiply(5)
    programs["stencil-2d"] = stencil_2d(6)
    programs["shuffled-list"] = linked_list_traversal(
        24, shuffled=True, seed=5, passes=2
    )
    programs["nested-calls"] = nested_calls_program()
    return programs


PROGRAMS = explicit_programs()


def assert_same_trace(program, tmp_path, **options):
    """Column tracer == per-record emitter: v2 bytes, v1 bytes, records."""
    got = trace_program(program, **options)
    want = reference_trace_program(program, **options)
    # Save first: the column tracer's writers must read the columns.
    for name, save in (("v2", save_columnar), ("v1", save_binary)):
        ours, theirs = tmp_path / f"columns.{name}", tmp_path / f"records.{name}"
        save(got, ours)
        save(want, theirs)
        assert ours.read_bytes() == theirs.read_bytes(), name
    assert len(got) == len(want)
    assert list(got) == list(want)
    return got


@pytest.mark.parametrize(
    "options",
    OPTION_SETS,
    ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_explicit_programs(name, options, tmp_path):
    assert_same_trace(PROGRAMS[name], tmp_path, **options)


def test_cases_cover_heap_and_frame_distance(tmp_path):
    """The explicit cases exercise what only the post-run pass derives."""
    nested = assert_same_trace(PROGRAMS["nested-calls"], tmp_path)
    assert max(r.frame for r in nested if r.frame is not None) == 2
    assert {r.scope for r in nested} >= {"LS", "LV", "GV", "GS", "HS"}
    assert any(r.var is None for r in nested)
    heap = assert_same_trace(PROGRAMS["shuffled-list"], tmp_path)
    assert any(r.scope == "HS" and r.frame == 0 for r in heap)


@pytest.mark.fuzz
@given(case=soa_cases(), options=st.sampled_from(OPTION_SETS))
@settings(max_examples=40, deadline=None)
def test_random_programs(case, options, tmp_path_factory):
    program, _ = build_soa_case(*case)
    assert_same_trace(program, tmp_path_factory.mktemp("soa"), **options)
