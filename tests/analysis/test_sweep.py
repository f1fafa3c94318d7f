"""Tests for the configuration sweep: one kernel pass for the covered
configs, the reference simulator for the rest, the same rows either way."""

import pytest

from repro.analysis.sweep import (
    SweepPoint,
    associativity_sweep,
    sweep_configs,
    sweep_table,
)
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate


def reference_point(trace, config, attribution="base"):
    """One row built straight from the reference simulator."""
    stats = simulate(trace, config, attribution=attribution).stats
    return SweepPoint(
        config=config,
        accesses=stats.accesses,
        hits=stats.hits,
        misses=stats.misses,
        miss_ratio=stats.miss_ratio,
        evictions=stats.evictions,
        compulsory_misses=stats.compulsory_misses,
        by_variable_misses=tuple(
            sorted((n, c.misses) for n, c in stats.by_variable.items())
        ),
    )


class TestAssociativitySweepHelper:
    def test_doubles_up_to_max(self):
        configs = associativity_sweep(4096, 32, max_ways=16)
        assert [c.ways for c in configs] == [1, 2, 4, 8, 16]

    def test_capped_by_block_count(self):
        configs = associativity_sweep(128, 32, max_ways=64)
        assert [c.ways for c in configs] == [1, 2, 4]


class TestSweep:
    @pytest.fixture(scope="class")
    def trace(self):
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        return trace_program(paper_kernel("1a", length=128))

    def test_serial_sweep(self, trace):
        configs = associativity_sweep(2048, 32, max_ways=4)
        points = sweep_configs(trace, configs)
        assert len(points) == 3
        assert all(isinstance(p, SweepPoint) for p in points)
        assert all(p.accesses == points[0].accesses for p in points)

    @pytest.mark.parametrize("sweep", ["lru", "fifo", "direct-mapped"])
    @pytest.mark.parametrize("attribution", ["base", "member"])
    def test_matches_per_config_simulate(self, trace, sweep, attribution):
        """Every row, the unrounded miss ratio included, equals a
        reference simulation of its config alone."""
        if sweep == "direct-mapped":
            configs = [
                CacheConfig(size=size, block_size=32, associativity=1)
                for size in (512, 1024, 2048, 4096)
            ]
        else:
            configs = associativity_sweep(2048, 32, max_ways=16, policy=sweep)
        points = sweep_configs(trace, configs, attribution=attribution)
        assert points == [
            reference_point(trace, config, attribution) for config in configs
        ]

    def test_mixed_routes_keep_config_order(self, trace):
        configs = [
            CacheConfig(size=2048, block_size=32, associativity=4,
                        policy="fifo"),
            CacheConfig(size=2048, block_size=32, associativity=4),
            CacheConfig.ppc440(),
            CacheConfig(size=1024, block_size=64, associativity=1),
        ]
        points = sweep_configs(list(trace), configs)
        assert [p.config for p in points] == configs
        assert points == [reference_point(trace, c) for c in configs]

    def test_lru_sweep_is_one_kernel_pass(self, trace, monkeypatch):
        import repro.analysis.sweep as sweep_mod
        from repro.simbatch import runner

        built = []

        class Counting(runner.MultiConfigSimulator):
            def __init__(self, configs):
                built.append(list(configs))
                super().__init__(configs)

        def no_reference(*_args, **_kwargs):
            raise AssertionError("an LRU sweep needs no reference simulation")

        monkeypatch.setattr(runner, "MultiConfigSimulator", Counting)
        monkeypatch.setattr(sweep_mod, "simulate", no_reference)
        configs = associativity_sweep(2048, 32, max_ways=16)
        points = sweep_configs(trace, configs)
        assert built == [configs]
        assert len(points) == len(configs)

    def test_monotone_misses_for_fully_assoc_growth(self, trace):
        """Growing a fully associative LRU cache never increases misses
        — the stack property, observed through the sweep API."""
        configs = [
            CacheConfig(size=s, block_size=32, associativity=0)
            for s in (512, 1024, 2048, 4096)
        ]
        points = sweep_configs(trace, configs)
        misses = [p.misses for p in points]
        assert misses == sorted(misses, reverse=True)

    def test_variable_misses_lookup(self, trace):
        configs = associativity_sweep(2048, 32, max_ways=1)
        (point,) = sweep_configs(trace, configs)
        assert point.variable_misses("lSoA") > 0
        assert point.variable_misses("ghost") == 0

    def test_table_rendering(self, trace):
        configs = associativity_sweep(2048, 32, max_ways=2)
        table = sweep_table(sweep_configs(trace, configs))
        assert "ratio" in table
        assert table.count("\n") == 2


class TestSweepFailurePaths:
    @pytest.fixture(scope="class")
    def trace(self):
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        return trace_program(paper_kernel("1a", length=32))

    def test_empty_config_list(self, trace):
        assert sweep_configs(trace, []) == []

    def test_serial_worker_exception_propagates(self, trace):
        configs = associativity_sweep(2048, 32, max_ways=1)
        with pytest.raises(ValueError, match="attribution"):
            sweep_configs(trace, configs, attribution="bogus")

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_bad_attribution_propagates_from_either_route(self, trace, policy):
        # 2 and 4 ways: the kernel's for LRU, the reference's for FIFO.
        configs = associativity_sweep(2048, 32, max_ways=4, policy=policy)[1:]
        with pytest.raises(ValueError, match="attribution"):
            sweep_configs(trace, configs, attribution="bogus")


class TestGzipTraces:
    def test_gz_round_trip(self, tmp_path):
        from repro.tracer.interp import trace_program
        from repro.trace.stream import Trace
        from repro.workloads.paper_kernels import paper_kernel

        trace = trace_program(paper_kernel("1a", length=16))
        path = tmp_path / "t.out.gz"
        trace.save(path)
        assert Trace.load(path) == trace
        # It is actually compressed (gzip magic).
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_gz_streaming(self, tmp_path):
        from repro.trace.format import iter_trace_lines
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        trace = trace_program(paper_kernel("1a", length=8))
        path = tmp_path / "t.out.gz"
        trace.save(path)
        assert list(iter_trace_lines(path)) == list(trace)
