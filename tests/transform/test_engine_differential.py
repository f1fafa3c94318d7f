"""The columnar transform engine against the per-record engine it replaced.

:class:`~repro.transform.engine.TransformEngine` works out one plan per
distinct variable path and rewrites the trace's columns.
:class:`tests.reference.RecordEngine` matches, translates and checks
every record on its own, as the engine used to.  For every input here
the two must produce equal records (and byte-identical v1 files), equal
report counters and allocations, or the same :class:`TransformError`
with the same message — and the columnar engine must give the same
answer when the trace reaches it in pieces, one ``transform`` call per
piece, as :func:`repro.tracestore.transform.apply_rules` feeds chunks.
"""

from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from repro.ctypes_model.path import VariablePath
from repro.errors import ReproError, TransformError
from repro.trace.binformat import save_binary
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.transform.engine import TransformEngine
from repro.transform.paper_rules import (
    RULE_T1_SOA_TO_AOS,
    RULE_T2_OUTLINE,
    RULE_T3_STRIDE,
)
from repro.transform.rule_parser import parse_rules
from repro.verify.fuzz import build_soa_case, mutate_text, probe_trace_for
from repro.workloads.paper_kernels import paper_kernel
from tests.reference import RecordEngine
from tests.transform.test_address_map_properties import soa_cases

RULE_CORPUS = Path(__file__).resolve().parents[1] / "data" / "rules" / "valid"

#: Pools five heap nodes into three slots: the last two stay uncovered.
POOL_RULES = """pool:
struct Node { int value; Node *next; };
objects node* : nodePool[3];
"""

TILE_RULES = """tile:
struct lAoS { int x; double y; }[8];
by 4 as lAoSoA;
"""

#: A stride rule whose ``existing`` inject re-reads ``lI``.
STRIDE_EXISTING = """in:
int lA[8]:lB;
out:
int lB[64(lI*8)];
inject:
L lTmp 4 x2
L lI 4 x1 existing
"""


def paper_rule_text(rule: str, length: int) -> str:
    if rule == "t1":
        return RULE_T1_SOA_TO_AOS.format(length=length)
    if rule == "t2":
        return RULE_T2_OUTLINE.format(length=length)
    return RULE_T3_STRIDE.format(
        length=length, out_length=length * 16, ipl=8, sets=16
    )


def outcome(engine_cls, rule_text, pieces, *, strict=False):
    """What one engine makes of a trace fed as ``pieces``: the records,
    report and allocations, or the message of the error it raised."""
    engine = engine_cls(parse_rules(rule_text), strict=strict)
    records = []
    try:
        for piece in pieces:
            records.extend(engine.transform(piece).trace)
    except TransformError as exc:
        return ("error", str(exc))
    return ("ok", records, engine.report, engine.allocations)


def cut(trace, cuts):
    """``trace`` split at the sorted positions ``cuts``."""
    bounds = [0, *sorted(set(cuts)), len(trace)]
    return [trace[a:b] for a, b in zip(bounds, bounds[1:])]


def assert_engines_agree(rule_text, trace, *, strict=False, cuts=()):
    """Columnar == per-record on the whole trace, and in pieces."""
    want = outcome(RecordEngine, rule_text, [trace], strict=strict)
    assert outcome(TransformEngine, rule_text, [trace], strict=strict) == want
    if cuts:
        pieces = cut(trace, cuts)
        assert (
            outcome(TransformEngine, rule_text, pieces, strict=strict) == want
        ), cuts
    return want


def node_trace():
    """Five heap nodes touched in an interleaved order, with a loop
    counter between them."""
    records = []
    for step, node in enumerate((0, 3, 1, 4, 2, 0, 3, 1, 4, 2)):
        records.append(
            TraceRecord(
                AccessType.LOAD, 0x5000_0000 + 64 * step, 4, "main", "LV", 0, 1,
                VariablePath.parse("lI"),
            )
        )
        for field, size, offset in (("value", 4, 0), ("next", 8, 8)):
            records.append(
                TraceRecord(
                    AccessType.STORE if step % 2 else AccessType.LOAD,
                    0x6000_0000 + 0x100 * node + offset,
                    size,
                    "main",
                    "HS",
                    0,
                    1,
                    VariablePath.parse(f"node{node}.{field}"),
                )
            )
    return Trace(records)


class TestPaperKernels:
    @pytest.mark.parametrize(
        "kernel,rule", [("1a", "t1"), ("2a", "t2"), ("3a", "t3")]
    )
    def test_records_report_and_v1_bytes(self, kernel, rule, tmp_path):
        trace = trace_program(paper_kernel(kernel, length=64))
        text = paper_rule_text(rule, 64)
        want = assert_engines_agree(text, trace, cuts=(1, 100, 333))
        assert want[0] == "ok" and want[2].transformed > 0
        ours = TransformEngine(parse_rules(text)).transform(trace).trace
        theirs = RecordEngine(parse_rules(text)).transform(trace).trace
        save_binary(ours, tmp_path / "columns.tdst")
        save_binary(theirs, tmp_path / "records.tdst")
        assert (tmp_path / "columns.tdst").read_bytes() == (
            tmp_path / "records.tdst"
        ).read_bytes()

    def test_output_is_columns_backed(self):
        trace = trace_program(paper_kernel("3a", length=16))
        result = TransformEngine(parse_rules(paper_rule_text("t3", 16))).transform(
            trace
        )
        assert result.trace._list is None  # no record was built


class TestRuleKinds:
    @pytest.mark.parametrize(
        "path", sorted(RULE_CORPUS.glob("*.rules")), ids=lambda p: p.stem
    )
    def test_corpus_rules_on_probe_traces(self, path):
        text = path.read_text()
        trace = Trace(probe_trace_for(parse_rules(text)))
        want = assert_engines_agree(text, trace, cuts=(1, len(trace) // 2))
        assert want[0] == "ok" and want[2].transformed > 0

    def test_pool_that_fills_up(self):
        want = assert_engines_agree(POOL_RULES, node_trace(), cuts=(4, 9, 17))
        assert want[0] == "ok"
        report = want[2]
        assert report.transformed == 12 and report.uncovered == 8

    def test_tile(self):
        trace = Trace(probe_trace_for(parse_rules(TILE_RULES)))
        want = assert_engines_agree(TILE_RULES, trace, cuts=(3, 7))
        assert want[2].transformed == len(trace)

    def test_existing_inject_carries_across_pieces(self):
        records = [
            TraceRecord(AccessType.STORE, 0x100 + 4 * i, 4, "main", "LV", 0, 1,
                        VariablePath.parse("lI"))
            if i % 3 == 0
            else TraceRecord(AccessType.LOAD, 0x1000 + 4 * (i % 8), 4, "main",
                             "LS", 0, 1, VariablePath.parse(f"lA[{i % 8}]"))
            for i in range(24)
        ]
        want = assert_engines_agree(
            STRIDE_EXISTING, Trace(records), cuts=(1, 2, 4, 11)
        )
        assert want[2].inserted == 16 * 3

    @pytest.mark.parametrize("first_counter", [None, 5])
    def test_existing_inject_before_its_variable(self, first_counter):
        records = [
            TraceRecord(AccessType.LOAD, 0x1000 + 4 * i, 4, "main", "LS", 0, 1,
                        VariablePath.parse(f"lA[{i}]"))
            for i in range(8)
        ]
        if first_counter is not None:
            records.insert(
                first_counter,
                TraceRecord(AccessType.STORE, 0x100, 4, "main", "LV", 0, 1,
                            VariablePath.parse("lI")),
            )
        want = assert_engines_agree(STRIDE_EXISTING, Trace(records), cuts=(3,))
        assert want == (
            "error",
            "inject references 'lI' which has not appeared in the trace",
        )


class TestStrict:
    """Anomalies: counted, or (strict) the same first error."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_size_then_base_order(self, strict):
        text = (RULE_CORPUS / "t1_soa_to_aos.rules").read_text()
        records = list(probe_trace_for(parse_rules(text)))
        records[3] = records[3].evolve(size=records[3].size + 4, addr=records[3].addr + 64)
        records[6] = records[6].evolve(addr=records[6].addr + 8)
        # A piece starting at the shifted record must still compare it
        # against the base learned from the first piece.
        want = assert_engines_agree(text, Trace(records), strict=strict, cuts=(2, 6))
        if strict:
            assert want[0] == "error" and "access size" in want[1]
        else:
            assert want[2].size_mismatches == 1
            assert want[2].base_inconsistencies == 2


@st.composite
def perturbed_probe(draw):
    """A corpus rule, its probe trace with some sizes and addresses
    nudged, and cut points."""
    path = draw(st.sampled_from(sorted(RULE_CORPUS.glob("*.rules"))))
    text = path.read_text()
    records = list(probe_trace_for(parse_rules(text)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(records) - 1))
        records[i] = records[i].evolve(
            size=records[i].size + draw(st.sampled_from([0, 0, 4])),
            addr=records[i].addr + draw(st.sampled_from([0, 8, 64])),
        )
    cuts = draw(st.lists(st.integers(1, max(1, len(records) - 1)), max_size=3))
    return text, Trace(records), cuts


@pytest.mark.fuzz
@given(case=perturbed_probe(), strict=st.booleans())
@settings(max_examples=40, deadline=None)
def test_random_anomalies(case, strict):
    text, trace, cuts = case
    assert_engines_agree(text, trace, strict=strict, cuts=cuts)


@st.composite
def mutated_soa_cases(draw):
    """A ``build_soa_case`` program, its rule file (maybe mutated) and
    cut points."""
    program, text = build_soa_case(*draw(soa_cases()))
    for _ in range(draw(st.integers(0, 2))):
        text = mutate_text(
            text,
            draw(st.integers(0, 4)),
            draw(st.integers(0, 10_000)),
            draw(st.integers(0, 10_000)),
        )
    return program, text, draw(st.lists(st.integers(1, 200), max_size=3))


@pytest.mark.fuzz
@given(case=mutated_soa_cases(), strict=st.booleans())
@settings(max_examples=40, deadline=None)
def test_random_programs_and_rule_mutants(case, strict):
    program, text, cuts = case
    try:
        parse_rules(text)
    except ReproError:
        assume(False)  # the mutant does not parse: nothing to transform
    trace = trace_program(program)
    assert_engines_agree(
        text, trace, strict=strict, cuts=[c for c in cuts if c < len(trace)]
    )
