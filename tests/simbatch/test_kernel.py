"""Batched multi-config kernel: bit-identity against the reference.

The whole batching argument rests on one invariant: the shared
stack-distance pass answers every member config *exactly* as if it had
run alone.  The single-config fast path is a batch of one on the same
kernel, so the oracle here is the per-record reference
:class:`CacheSimulator`, on random streams, straddling accesses, and the
paper's transformed traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CacheConfigError
from repro.cache.config import AllocatePolicy, CacheConfig
from repro.cache.simulator import simulate
from repro.simbatch import (
    MultiConfigSimulator,
    batch_trace_counts,
    plan_batch,
)
from repro.trace.record import AccessType, TraceRecord
from tests.reference import assert_matches_reference, reference_counts

pytestmark = pytest.mark.simbatch


def grid_configs():
    """A 12-config grid spanning 4 geometry groups."""
    return [
        CacheConfig(size=n_sets * block * assoc, block_size=block,
                    associativity=assoc)
        for block in (16, 32)
        for n_sets in (16, 32)
        for assoc in (1, 2, 4)
    ]


def assert_counts_equal(batched, single):
    assert batched.counts.hits == single.counts.hits
    assert batched.counts.misses == single.counts.misses
    assert batched.counts.compulsory_misses == single.counts.compulsory_misses
    assert np.array_equal(batched.counts.per_set.hits, single.counts.per_set.hits)
    assert np.array_equal(
        batched.counts.per_set.misses, single.counts.per_set.misses
    )
    assert batched.demand_hits == single.demand_hits
    assert batched.demand_misses == single.demand_misses
    assert batched.evictions == single.evictions
    assert batched.per_variable == single.per_variable


class TestPlan:
    def test_groups_by_geometry(self):
        configs = grid_configs()
        plan = plan_batch(configs)
        assert plan.n_configs == len(configs)
        assert plan.n_batched == len(configs)
        assert len(plan.groups) == 4  # 2 blocks x 2 set counts
        for group in plan.groups:
            assert group.depth == max(m.ways for m in group.members)
            for member in group.members:
                cfg = configs[member.index]
                assert cfg.block_size == group.block_size
                assert cfg.n_sets == group.n_sets

    def test_ineligible_separated(self):
        lru = CacheConfig(size=1024, block_size=32, associativity=2)
        plru = CacheConfig(size=1024, block_size=32, associativity=2,
                           policy="plru")
        plan = plan_batch([lru, plru])
        assert plan.n_batched == 1
        assert [m.index for m in plan.ineligible] == [1]

    def test_describe_mentions_groups(self):
        text = plan_batch(grid_configs()).describe()
        assert "group" in text


class TestAgainstFastPath:
    """The batched fast path against the reference simulator."""

    def test_random_straddling_stream(self):
        rng = np.random.default_rng(7)
        n = 4000
        addrs = rng.integers(0, 1 << 16, n, dtype=np.uint64)
        sizes = rng.choice([1, 2, 4, 8, 16], n).astype(np.uint32)
        var_ids = rng.integers(-1, 5, n, dtype=np.int64)
        configs = grid_configs()
        batched = batch_trace_counts(addrs, configs, sizes, var_ids)
        for cfg, got in zip(configs, batched):
            want = reference_counts(cfg, addrs, sizes, var_ids)
            assert_matches_reference(got, want)

    def test_chunked_equals_whole(self):
        rng = np.random.default_rng(11)
        n = 3000
        addrs = rng.integers(0, 1 << 14, n, dtype=np.uint64)
        sizes = rng.choice([1, 4, 8], n).astype(np.uint32)
        configs = grid_configs()
        whole = batch_trace_counts(addrs, configs, sizes)
        sim = MultiConfigSimulator(configs)
        for start in range(0, n, 700):
            sim.feed(addrs[start : start + 700], sizes[start : start + 700])
        for cfg, a, b in zip(configs, sim.results(), whole):
            assert_counts_equal(a, b)
            assert_matches_reference(a, reference_counts(cfg, addrs, sizes))

    def test_duplicate_configs_allowed(self):
        addrs = np.arange(0, 4096, 8, dtype=np.uint64)
        cfg = CacheConfig(size=1024, block_size=32, associativity=2)
        a, b = batch_trace_counts(addrs, [cfg, cfg])
        assert_counts_equal(a, b)
        assert_matches_reference(a, reference_counts(cfg, addrs))

    def test_ineligible_config_raises(self):
        no_allocate = CacheConfig(
            size=1024, block_size=32, associativity=2, policy="fifo",
            allocate_policy=AllocatePolicy.NO_WRITE_ALLOCATE,
        )
        with pytest.raises(CacheConfigError, match="no fast path"):
            MultiConfigSimulator([no_allocate])

    def test_empty_feed(self):
        configs = grid_configs()
        sim = MultiConfigSimulator(configs)
        sim.feed(np.empty(0, dtype=np.uint64))
        for counts in sim.results():
            assert counts.demand_accesses == 0


class TestRestore:
    """``restore`` guards snapshots read back from disk."""

    @pytest.mark.parametrize("cut", ["rows", "ways"])
    def test_rejects_misshapen_stacks(self, cut):
        configs = grid_configs()
        addrs = np.arange(0, 1 << 13, 24, dtype=np.uint64)
        sim = MultiConfigSimulator(configs)
        sim.feed(addrs)
        state = sim.state()
        stacks = state["stacks"]
        state["stacks"] = stacks[:-1] if cut == "rows" else stacks[:, :-1]
        fresh = MultiConfigSimulator(configs)
        with pytest.raises(CacheConfigError, match="stacks"):
            fresh.restore(state)
        # The refused snapshot left the simulator cold.
        fresh.feed(addrs)
        for a, b in zip(fresh.results(), batch_trace_counts(addrs, configs)):
            assert_counts_equal(a, b)


class TestAgainstReference:
    @given(
        st.lists(st.integers(0, 1 << 12), min_size=1, max_size=120),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_streams(self, addr_list, assoc):
        addrs = np.array(addr_list, dtype=np.uint64)
        cfg = CacheConfig(size=512 * assoc, block_size=32,
                          associativity=assoc)
        (got,) = batch_trace_counts(addrs, [cfg])
        recs = [TraceRecord(AccessType.LOAD, int(a), 1, "f") for a in addr_list]
        stats = simulate(recs, cfg).stats
        assert got.counts.hits == stats.block_hits
        assert got.counts.misses == stats.block_misses
        assert got.counts.compulsory_misses == stats.compulsory_misses
        assert got.demand_hits == stats.hits
        assert got.demand_misses == stats.misses

    def test_straddling_accesses(self):
        recs = [
            TraceRecord(AccessType.LOAD, a, s, "f")
            for a, s in [(30, 8), (62, 4), (0, 16), (30, 8), (1020, 8)]
        ]
        addrs = np.array([r.addr for r in recs], dtype=np.uint64)
        sizes = np.array([r.size for r in recs], dtype=np.uint32)
        cfg = CacheConfig(size=512, block_size=32, associativity=2)
        (got,) = batch_trace_counts(addrs, [cfg], sizes)
        stats = simulate(recs, cfg).stats
        assert got.demand_hits == stats.hits
        assert got.demand_misses == stats.misses


class TestPaperTraces:
    """Bit-identity on the paper's transformed traces (T1/T2/T3)."""

    @pytest.mark.parametrize(
        "kernel,rule,length",
        [("1a", "t1", 16), ("2a", "t2", 16), ("3a", "t3", 64)],
    )
    def test_transformed_traces(self, kernel, rule, length, request):
        from repro.simbatch.runner import simulate_batch
        from repro.transform.engine import transform_trace
        from repro.transform.paper_rules import paper_rule
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        trace = trace_program(paper_kernel(kernel, length=length))
        transformed = transform_trace(trace, paper_rule(rule, length=length))
        configs = grid_configs()
        for source in (trace, transformed.trace):
            data = [r for r in source if r.op is not AccessType.MISC]
            addrs = np.array([r.addr for r in data], dtype=np.uint64)
            sizes = np.array([r.size for r in data], dtype=np.uint32)
            result = simulate_batch(source, configs)
            for cfg, got in zip(configs, result.results):
                want = reference_counts(cfg, addrs, sizes)
                assert_matches_reference(got, want)


class TestImports:
    def test_simulate_batch_never_imports_numpy_ma(self):
        """The kernel's distinct-block count is a sort, not a bare
        ``np.unique``, which imports ``numpy.ma`` (~15 ms) on first use."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys\n"
            "from repro.cache.config import CacheConfig\n"
            "from repro.simbatch.runner import simulate_batch\n"
            "from repro.tracer.interp import trace_program\n"
            "from repro.workloads.paper_kernels import paper_kernel\n"
            "trace = trace_program(paper_kernel('1a', length=64))\n"
            "configs = [CacheConfig(size=1024, block_size=32, associativity=a)"
            " for a in (1, 4)]\n"
            "result = simulate_batch(trace, configs, attribution='member')\n"
            "assert result.results[0].demand_accesses > 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
