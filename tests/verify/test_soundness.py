"""Tests for the transform soundness checker (the independent oracle).

The mutation-smoke tests at the bottom are the whole point of the
subsystem: a deliberately corrupted engine — an off-by-one slipped into
the address materialisation — must be *caught* by the checker, proving
the oracle really is independent of the code under test.
"""

import numpy as np
import pytest

from repro.ctypes_model.path import Field, Index, VariablePath
from repro.trace.record import AccessType, TraceRecord
from repro.tracer.interp import trace_program
from repro.transform.engine import ARENA_BASE, TransformEngine
from repro.transform.paper_rules import paper_rule
from repro.transform.rule_parser import parse_rules
from repro.verify.soundness import check_result, check_transform
from repro.workloads.paper_kernels import paper_kernel

RULE = """
in:
struct lSoA {
    int mX[4];
    int mY[4];
};
out:
struct lAoS {
    int mX;
    int mY;
}[4];
"""

BASE = 0x20000  # well below the transformation arena


def make_original(extra=()):
    records = []
    for i in range(4):
        records.append(
            TraceRecord(
                AccessType.LOAD,
                BASE + 4 * i,
                4,
                func="main",
                scope="LS",
                var=VariablePath("lSoA", (Field("mX"), Index(i))),
            )
        )
        records.append(
            TraceRecord(
                AccessType.STORE,
                BASE + 16 + 4 * i,
                4,
                func="main",
                scope="LS",
                var=VariablePath("lSoA", (Field("mY"), Index(i))),
            )
        )
    records.extend(extra)
    return records


@pytest.fixture
def case():
    rules = parse_rules(RULE)
    result = TransformEngine(rules).transform(make_original())
    return result, rules


class TestSoundTransforms:
    def test_hand_built_t1_is_sound(self, case):
        result, rules = case
        report = check_result(result, rules)
        assert report.ok
        assert report.total_violations == 0
        assert "SOUND" in report.summary()

    def test_counters(self, case):
        result, rules = case
        report = check_result(result, rules)
        assert report.records_in == 8
        assert report.records_out == 8
        assert report.transformed == 8
        assert report.inserted == 0
        assert report.passthrough == 0

    def test_allocations_reconstructed(self, case):
        result, rules = case
        report = check_result(result, rules)
        assert report.allocations == {"lAoS": (ARENA_BASE, 32)}

    def test_rule_text_accepted_directly(self, case):
        result, _ = case
        report = check_transform(result.original, result.trace, RULE)
        assert report.ok

    def test_paper_t2_pipeline_with_inserts(self):
        trace = trace_program(paper_kernel("2a", length=16))
        rules = paper_rule("t2", length=16)
        result = TransformEngine(rules).transform(trace)
        report = check_result(result, rules)
        assert report.ok, report.summary()
        assert report.inserted > 0

    def test_paper_t3_pipeline_with_injection(self):
        trace = trace_program(paper_kernel("3a", length=32))
        rules = paper_rule("t3", length=32)
        result = TransformEngine(rules).transform(trace)
        report = check_result(result, rules)
        assert report.ok, report.summary()


def _tampered(result, index, **changes):
    records = list(result.trace)
    records[index] = records[index].evolve(**changes)
    return records


class TestViolations:
    def test_shifted_address(self, case):
        result, rules = case
        out = _tampered(result, 3, addr=list(result.trace)[3].addr + 1)
        report = check_transform(result.original, out, rules)
        assert not report.ok
        assert "remap-address" in report.categories()

    def test_resized_access_breaks_byte_conservation(self, case):
        result, rules = case
        out = _tampered(result, 3, size=8)
        report = check_transform(result.original, out, rules)
        categories = report.categories()
        assert "remap-size" in categories
        assert "byte-conservation" in categories

    def test_wrong_operation(self, case):
        result, rules = case
        out = _tampered(result, 0, op=AccessType.STORE)
        report = check_transform(result.original, out, rules)
        assert "remap-op" in report.categories()

    def test_wrong_variable(self, case):
        result, rules = case
        out = _tampered(result, 0, var=VariablePath("lWrong"))
        report = check_transform(result.original, out, rules)
        assert "remap-var" in report.categories()

    def test_truncated_stream(self, case):
        result, rules = case
        report = check_transform(result.original, list(result.trace)[:-1], rules)
        assert "stream-truncated" in report.categories()

    def test_extra_trailing_records(self, case):
        result, rules = case
        out = list(result.trace) + [list(result.trace)[-1]]
        report = check_transform(result.original, out, rules)
        assert "stream-extra" in report.categories()

    def test_live_record_colliding_with_arena(self):
        rules = parse_rules(RULE)
        intruder = TraceRecord(
            AccessType.LOAD,
            ARENA_BASE + 4,
            4,
            func="main",
            scope="LV",
            var=VariablePath("lUnrelated"),
        )
        result = TransformEngine(rules).transform(make_original([intruder]))
        report = check_result(result, rules)
        assert "arena-collision" in report.categories()

    def test_engine_allocation_mismatch(self, case):
        result, rules = case
        report = check_transform(
            result.original,
            result.trace,
            rules,
            allocations={"lAoS": ARENA_BASE + 64},
        )
        assert "allocation-mismatch" in report.categories()

    def test_undeclared_engine_allocation(self, case):
        result, rules = case
        report = check_transform(
            result.original,
            result.trace,
            rules,
            allocations={"lAoS": ARENA_BASE, "lGhost": 0x1234},
        )
        assert "allocation-mismatch" in report.categories()

    def test_recording_cap_counts_the_rest(self, case):
        result, rules = case
        out = [r.evolve(addr=r.addr + 1) for r in result.trace]
        report = check_transform(
            result.original, out, rules, max_recorded=3
        )
        assert len(report.violations) == 3
        assert report.suppressed > 0
        assert not report.ok
        assert report.total_violations == 3 + report.suppressed

    def test_violation_str_carries_position(self, case):
        result, rules = case
        out = _tampered(result, 3, addr=list(result.trace)[3].addr + 1)
        report = check_transform(result.original, out, rules)
        assert "@3" in str(report.violations[0])
        assert "UNSOUND" in report.summary()


class TestMutationSmoke:
    """Corrupt the engine itself; the checker must notice (ISSUE
    acceptance criterion: the oracle is independent of the engine)."""

    @pytest.fixture
    def corrupted_engine(self, monkeypatch):
        pristine = TransformEngine._target_addresses

        def off_by_one(addr, shifted, plan_addr):
            return pristine(addr, shifted, plan_addr) + np.uint64(1)

        monkeypatch.setattr(
            TransformEngine, "_target_addresses", staticmethod(off_by_one)
        )

    def test_off_by_one_remap_is_caught(self, corrupted_engine):
        rules = parse_rules(RULE)
        result = TransformEngine(rules).transform(make_original())
        report = check_result(result, rules)
        assert not report.ok
        assert "remap-address" in report.categories()
        # Every transformed record is shifted, so every one is flagged.
        assert report.total_violations >= report.transformed

    def test_off_by_one_on_paper_pipeline(self, corrupted_engine):
        trace = trace_program(paper_kernel("1a", length=16))
        rules = paper_rule("t1", length=16)
        result = TransformEngine(rules).transform(trace)
        report = check_result(result, rules)
        assert not report.ok
        assert "remap-address" in report.categories()

    def test_corrupted_allocation_cursor_is_caught(self, monkeypatch):
        rules = parse_rules(RULE)
        engine = TransformEngine(rules)
        engine.allocations["lAoS"] += 8  # simulate a bookkeeping bug
        result = engine.transform(make_original())
        report = check_result(result, rules)
        assert not report.ok
        assert "allocation-mismatch" in report.categories()
