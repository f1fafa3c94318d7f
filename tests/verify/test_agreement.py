"""Tests for the reference-vs-fast kernel agreement check."""

from dataclasses import replace

import pytest

from repro.cache.config import CacheConfig
from repro.tracer.interp import trace_program
from repro.verify.agreement import AgreementReport, check_kernel_agreement
from repro.workloads.paper_kernels import paper_kernel


@pytest.fixture(scope="module")
def trace():
    return trace_program(paper_kernel("1a", length=32))


class TestAgreement:
    def test_kernels_agree_on_paper_config(self, trace):
        report = check_kernel_agreement(
            trace, CacheConfig.paper_direct_mapped()
        )
        assert report.ok
        assert not report.skipped
        assert report.checked > 0
        assert "kernel agreement: ok" in report.summary()

    def test_kernels_agree_on_lru_config(self, trace):
        config = CacheConfig(
            size=4 * 1024, block_size=32, associativity=2, policy="lru"
        )
        report = check_kernel_agreement(trace, config)
        assert report.ok
        assert not report.skipped

    def test_uncovered_config_is_skipped_not_failed(self, trace):
        # PLRU replacement: no fast kernel covers it, so there is
        # nothing to cross-check.
        plru = CacheConfig(size=32 * 1024, block_size=32, associativity=64,
                           policy="plru")
        report = check_kernel_agreement(trace, plru)
        assert report.skipped
        assert report.ok
        assert report.checked == 0
        assert "skipped" in report.summary()

    def test_limit_bounds_the_window(self, trace):
        report = check_kernel_agreement(
            trace, CacheConfig.paper_direct_mapped(), limit=10
        )
        assert report.checked == 10
        assert report.ok


class TestDivergenceDetection:
    def test_fast_kernel_drift_is_reported(self, trace, monkeypatch):
        import repro.cache.fastsim as fastsim

        real = fastsim.fast_trace_counts

        def drifted(addrs, config, sizes=None, var_ids=None):
            result = real(addrs, config, sizes, var_ids)
            counts = replace(result.counts, hits=result.counts.hits + 1)
            return replace(result, counts=counts)

        monkeypatch.setattr(fastsim, "fast_trace_counts", drifted)
        report = check_kernel_agreement(
            trace, CacheConfig.paper_direct_mapped()
        )
        assert not report.ok
        assert any("block hits" in m for m in report.mismatches)
        assert "FAILED" in report.summary()

    def test_empty_report_defaults(self):
        report = AgreementReport(config="x")
        assert report.ok
        assert report.checked == 0
