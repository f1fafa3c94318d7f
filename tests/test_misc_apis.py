"""Coverage for small public APIs not exercised elsewhere."""

import pytest

from repro.ctypes_model.path import VariablePath
from repro.trace.record import AccessType, TraceRecord


class TestPrimitiveNames:
    def test_registry_listing(self):
        from repro.ctypes_model.types import primitive, primitive_names

        names = primitive_names()
        assert "int" in names and "unsigned long long" in names
        for name in names:
            assert primitive(name).size > 0


class TestIterPhysical:
    def test_streaming_matches_batch(self):
        from repro.memory.paging import PageTable
        from repro.trace.physical import iter_physical, to_physical

        records = [
            TraceRecord(AccessType.LOAD, 0x4000 + i * 8, 8, "f")
            for i in range(20)
        ]
        batch = to_physical(records, PageTable("sequential"))
        streamed = list(iter_physical(records, PageTable("sequential")))
        assert streamed == list(batch)


class TestBuildParser:
    def test_parser_builds_and_lists_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        help_text = parser.format_help()
        for command in (
            "trace",
            "stats",
            "simulate",
            "threec",
            "transform",
            "diff",
            "heatmap",
            "advise",
            "convert",
            "figure",
        ):
            assert command in help_text

    def test_missing_subcommand_errors(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSmallValueObjects:
    def test_label_counts(self):
        from repro.cache.stats import LabelCounts

        c = LabelCounts(hits=3, misses=1)
        assert c.accesses == 4
        assert c.miss_ratio == 0.25
        assert LabelCounts().miss_ratio == 0.0

    def test_per_set_counts_rows(self):
        import numpy as np

        from repro.cache.stats import PerSetCounts

        counts = PerSetCounts.zeros(4)
        counts.hits[1] = 5
        counts.misses[3] = 2
        assert counts.as_rows() == ((1, 5, 0), (3, 0, 2))

    def test_access_outcome_misses(self):
        from repro.cache.cache import SetAssociativeCache
        from repro.cache.config import CacheConfig

        cache = SetAssociativeCache(
            CacheConfig(size=64, block_size=16, associativity=1)
        )
        outcome = cache.access(12, 8, False)  # straddles two blocks
        assert outcome.misses == 2
        assert not outcome.hit

    def test_symbolized_scope_codes(self):
        from repro.ctypes_model.types import INT
        from repro.memory.symbols import Segment, Symbol, Symbolized

        sym = Symbol("x", INT, 0x100, Segment.HEAP)
        resolved = Symbolized(sym, VariablePath("x"), 0)
        assert resolved.scope_code == "HV"

    def test_pointer_value_repr(self):
        from repro.ctypes_model.types import INT
        from repro.tracer.expr import PointerValue

        assert "0x10" in repr(PointerValue(0x10, INT))
        assert "void" in repr(PointerValue(0x10))

    def test_fast_counts_properties(self):
        import numpy as np

        from repro.cache.config import CacheConfig
        from repro.cache.fastsim import fast_trace_counts

        counts = fast_trace_counts(
            np.array([0, 0, 64], dtype=np.uint64),
            CacheConfig(size=128, block_size=32, associativity=1),
        ).counts
        assert counts.accesses == 3
        assert 0 < counts.miss_ratio < 1

    def test_trace_stats_top_variables_ordering(self):
        from repro.trace.stats import TraceStats

        stats = TraceStats()
        stats.by_variable = {"b": 5, "a": 5, "c": 9}
        assert stats.top_variables(2) == (("c", 9), ("a", 5))


class TestKernelDefaults:
    def test_default_lengths(self):
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import kernel_1b, kernel_2a, kernel_3a

        assert len(trace_program(kernel_1b())) > 0
        assert len(trace_program(kernel_2a())) > 0
        assert len(trace_program(kernel_3a(64))) > 0


class TestTileParserErrors:
    def test_missing_by_line(self):
        from repro.errors import RuleError
        from repro.transform.tile import parse_tile_rules

        with pytest.raises(RuleError):
            parse_tile_rules("struct a { int x; }[4];")

    def test_count_mismatch(self):
        from repro.errors import RuleError
        from repro.transform.tile import parse_tile_rules

        with pytest.raises(RuleError):
            parse_tile_rules(
                "struct a { int x; }[4];\nby 2 as t1;\nby 2 as t2;\n"
            )


class TestReproErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
            ):
                assert issubclass(obj, errors.ReproError), name

    def test_catchable_as_base(self):
        from repro.errors import ReproError
        from repro.transform.formula import FormulaError, IndexFormula

        with pytest.raises(ReproError):
            IndexFormula("i +")
