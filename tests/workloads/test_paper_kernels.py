"""Tests for the paper's kernels as programs."""

import pytest

from repro.trace.record import AccessType
from repro.trace.stats import compute_stats
from repro.tracer.interp import trace_program
from repro.workloads.paper_kernels import (
    PAPER_KERNELS,
    kernel_1a,
    kernel_2b,
    kernel_3b,
    paper_kernel,
)


class TestRegistry:
    def test_all_kernels_trace(self):
        for name in PAPER_KERNELS:
            trace = trace_program(paper_kernel(name, length=4))
            assert len(trace) > 0, name

    def test_names_module_matches_registry(self):
        """Specs and the CLI check kernel names against the light list."""
        from repro.workloads.names import PAPER_KERNEL_NAMES

        assert tuple(PAPER_KERNELS) == PAPER_KERNEL_NAMES

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            paper_kernel("9z")

    def test_case_insensitive(self):
        assert len(trace_program(paper_kernel("1A", length=4))) > 0


class TestKernelShapes:
    @pytest.mark.parametrize("length", [4, 16, 64])
    def test_1a_store_counts(self, length):
        trace = trace_program(kernel_1a(length))
        stats = compute_stats(trace)
        assert stats.by_variable["lSoA"] == 2 * length

    def test_1a_1b_same_access_counts(self):
        a = compute_stats(trace_program(paper_kernel("1a", length=16)))
        b = compute_stats(trace_program(paper_kernel("1b", length=16)))
        assert a.total == b.total
        assert a.by_variable["lSoA"] == b.by_variable["lAoS"]

    def test_2a_touches_three_fields_per_element(self):
        trace = trace_program(paper_kernel("2a", length=8))
        stores = [
            str(r.var)
            for r in trace
            if r.base_name == "lS1" and r.op is AccessType.STORE
        ]
        assert stores[:3] == [
            "lS1[0].mFrequentlyUsed",
            "lS1[0].mRarelyUsed.mY",
            "lS1[0].mRarelyUsed.mZ",
        ]
        assert len(stores) == 24

    def test_2b_pointer_setup_not_instrumented(self):
        trace = trace_program(kernel_2b(8))
        # No stores of the pointer member inside the measured region.
        ptr_stores = [
            r
            for r in trace
            if r.base_name == "lS2"
            and r.op is AccessType.STORE
            and "mRarelyUsed" in str(r.var)
        ]
        assert ptr_stores == []

    def test_2b_indirection_loads_counted(self):
        trace = trace_program(kernel_2b(8))
        ptr_loads = [
            r
            for r in trace
            if r.base_name == "lS2" and r.op is AccessType.LOAD
        ]
        assert len(ptr_loads) == 16  # 2 cold accesses per element

    def test_3b_writes_strided_indices(self):
        trace = trace_program(kernel_3b(16))
        stores = [
            str(r.var)
            for r in trace
            if r.base_name == "lSetHashingArray" and r.op is AccessType.STORE
        ]
        assert stores[0] == "lSetHashingArray[0]"
        assert stores[8] == "lSetHashingArray[128]"
        assert len(stores) == 16

    def test_3b_matches_transformed_3a_indices(self):
        """Native 3B and engine-transformed 3A write the same elements."""
        from repro.transform.engine import transform_trace
        from repro.transform.paper_rules import rule_t3

        native = trace_program(kernel_3b(32))
        auto = transform_trace(
            trace_program(paper_kernel("3a", length=32)), rule_t3(32)
        )

        def stored(trace):
            return [
                str(r.var)
                for r in trace
                if r.base_name == "lSetHashingArray"
                and r.op is AccessType.STORE
            ]

        assert stored(native) == stored(auto.trace)
