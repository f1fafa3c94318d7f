"""Tests for displacement rules."""

import pytest

from repro.errors import RuleError, TransformError
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.ctypes_model.path import VariablePath
from repro.trace.record import AccessType, TraceRecord
from repro.tracer.interp import trace_program
from repro.transform.displace import DisplaceRule, parse_displacements
from repro.transform.engine import transform_trace
from repro.transform.rule_parser import parse_rules
from repro.workloads.paper_kernels import paper_kernel


class TestParsing:
    def test_basic_lines(self):
        rules = parse_displacements("a + 64\nb - 32\n")
        assert [(r.in_name, r.offset) for r in rules] == [("a", 64), ("b", -32)]

    def test_rename(self):
        (rule,) = parse_displacements("x + 128 as y")
        assert rule.new_name == "y"
        assert rule.out_names() == ("y",)

    def test_comments_and_blanks(self):
        rules = parse_displacements("# note\n\na + 1\n// more\n")
        assert len(rules) == 1

    @pytest.mark.parametrize("bad", ["a", "a ++ 3", "+ 4", "a + x"])
    def test_malformed(self, bad):
        with pytest.raises(RuleError):
            parse_displacements(bad)

    def test_zero_offset_rejected(self):
        with pytest.raises(RuleError):
            DisplaceRule("a", 0)

    def test_via_rule_file_section(self):
        rules = parse_rules("displace:\nlArr + 4096\n")
        assert len(rules) == 1


class TestEngineIntegration:
    @pytest.fixture
    def trace(self):
        return trace_program(paper_kernel("3a", length=64))

    def test_constant_shift(self, trace):
        result = transform_trace(trace, [DisplaceRule("lContiguousArray", 4096)])
        olds = [r for r in trace if r.base_name == "lContiguousArray"]
        news = [r for r in result.trace if r.base_name == "lContiguousArray"]
        assert len(olds) == len(news) == result.report.transformed
        assert all(n.addr - o.addr == 4096 for o, n in zip(olds, news))

    def test_negative_shift(self, trace):
        result = transform_trace(trace, [DisplaceRule("lContiguousArray", -64)])
        olds = [r for r in trace if r.base_name == "lContiguousArray"]
        news = [r for r in result.trace if r.base_name == "lContiguousArray"]
        assert all(n.addr - o.addr == -64 for o, n in zip(olds, news))

    def test_rename(self, trace):
        result = transform_trace(
            trace, [DisplaceRule("lContiguousArray", 32, new_name="lShifted")]
        )
        assert all(r.base_name != "lContiguousArray" for r in result.trace if r.var)
        shifted = [r for r in result.trace if r.base_name == "lShifted"]
        assert len(shifted) == 64
        # element paths preserved
        assert str(shifted[0].var) == "lShifted[0]"

    def test_other_records_untouched(self, trace):
        result = transform_trace(trace, [DisplaceRule("lContiguousArray", 32)])
        olds = [r for r in trace if r.base_name != "lContiguousArray"]
        news = [r for r in result.trace if r.base_name != "lContiguousArray"]
        assert olds == news

    def test_no_allocation_in_arena(self, trace):
        result = transform_trace(trace, [DisplaceRule("lContiguousArray", 32)])
        assert result.allocations == {}

    def test_displacement_moves_cache_sets(self, trace):
        """The paper's own use: displacement selects different sets."""
        cfg = CacheConfig(size=1024, block_size=32, associativity=1)
        base = simulate(trace, cfg).stats.per_var_set["lContiguousArray"]
        shifted_trace = transform_trace(
            trace, [DisplaceRule("lContiguousArray", 32)]
        ).trace
        shifted = simulate(shifted_trace, cfg).stats.per_var_set[
            "lContiguousArray"
        ]
        import numpy as np

        b = np.nonzero(base.hits + base.misses)[0]
        s = np.nonzero(shifted.hits + shifted.misses)[0]
        assert set((b + 1) % cfg.n_sets) == set(s)

    def test_resolves_alias_conflicts(self):
        """Two arrays that alias in a direct-mapped cache stop conflicting
        when one is displaced by a block — the conflict-matrix workflow."""
        from repro.ctypes_model.types import ArrayType, INT
        from repro.tracer.expr import V
        from repro.tracer.program import Function, Program
        from repro.tracer.stmt import (
            Assign,
            DeclLocal,
            StartInstrumentation,
            simple_for,
        )

        n = 256  # 1 KiB arrays in a 1 KiB direct-mapped cache: full alias
        body = [
            DeclLocal("a", ArrayType(INT, n)),
            DeclLocal("b", ArrayType(INT, n)),
            DeclLocal("i", INT),
            StartInstrumentation(),
            *simple_for(
                "i",
                0,
                n,
                [
                    Assign(V("a")[V("i")], V("i")),
                    Assign(V("b")[V("i")], V("i")),
                ],
            ),
        ]
        program = Program()
        program.add_function(Function("main", body=body))
        trace = trace_program(program)
        cfg = CacheConfig(size=1024, block_size=32, associativity=1)
        before = simulate(trace, cfg)
        conflicts_before = before.conflicts.cross_conflicts().get(("a", "b"), 0)
        # a and b are 1 KiB apart on the stack -> alias set-for-set.
        assert conflicts_before > 0
        displaced = transform_trace(trace, [DisplaceRule("b", 32)]).trace
        after = simulate(displaced, cfg)
        conflicts_after = after.conflicts.cross_conflicts().get(("a", "b"), 0)
        assert conflicts_after < conflicts_before
        assert after.stats.misses < before.stats.misses


class TestAddressRange:
    """A displacement must keep every address inside [0, 2**64)."""

    @staticmethod
    def access(addr, name="x"):
        return TraceRecord(
            AccessType.LOAD, addr, 4, "main", "LV", var=VariablePath.parse(name)
        )

    def test_shift_below_zero_raises(self):
        trace = [self.access(0x2000, "y"), self.access(0x1000)]
        with pytest.raises(TransformError) as info:
            transform_trace(trace, "displace:\nx - 8192\n")
        message = str(info.value)
        assert message.startswith("displace:x-8192: displacing x at record 1")
        assert "0x1000 to -0x1000" in message

    def test_shift_past_the_top_raises(self):
        with pytest.raises(TransformError, match=r"record 0 .* 0x10000000000000010"):
            transform_trace(
                [self.access(2**64 - 16)], [DisplaceRule("x", 32)]
            )

    def test_shift_to_either_end_is_allowed(self):
        trace = [self.access(8192), self.access(2**64 - 1, "z")]
        rules = [DisplaceRule("x", -8192), DisplaceRule("z", -(2**64 - 1))]
        result = transform_trace(trace, rules)
        assert [r.addr for r in result.trace] == [0, 0]
        top = transform_trace([self.access(0)], [DisplaceRule("x", 2**64 - 1)])
        assert [r.addr for r in top.trace] == [2**64 - 1]
