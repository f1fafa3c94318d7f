"""Cross-validation of the vectorized fast path against the reference.

Every shape of the batched kernel (direct-mapped closed form,
set-associative LRU stacks, the FIFO pass) and every entry point (global counts,
per-variable attribution, a chunked one-config
``MultiConfigSimulator``) must agree
*exactly* — hit/miss/per-set/demand/eviction equality — with
:class:`repro.cache.simulator.CacheSimulator` on random streams,
straddling accesses and the paper's kernel traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CacheConfigError
from repro.cache.config import AllocatePolicy, CacheConfig
from repro.cache.fastsim import fast_trace_counts
from repro.cache.simulator import simulate
from repro.simbatch.kernel import MultiConfigSimulator
from repro.simbatch.plan import fast_path_declined, supports_fast_path
from repro.trace.record import AccessType, TraceRecord
from tests.reference import assert_matches_reference, reference_counts


def make_records(addrs, sizes=None):
    if sizes is None:
        sizes = [1] * len(addrs)
    return [
        TraceRecord(AccessType.LOAD, int(a), int(s), "f")
        for a, s in zip(addrs, sizes)
    ]


def reference_stats(addrs, cfg, sizes=None):
    return simulate(make_records(addrs, sizes), cfg).stats


def assert_counts_match(fast, stats):
    """Block-level equality of a FastCounts against reference CacheStats."""
    assert fast.hits == stats.block_hits
    assert fast.misses == stats.block_misses
    assert fast.compulsory_misses == stats.compulsory_misses
    assert np.array_equal(fast.per_set.hits, stats.per_set.hits)
    assert np.array_equal(fast.per_set.misses, stats.per_set.misses)


def small_cfg(assoc=1):
    return CacheConfig(size=512, block_size=32, associativity=assoc)


class TestSupportsFastPath:
    def test_direct_mapped_any_policy(self):
        for policy in ("lru", "fifo", "round-robin", "random", "plru"):
            cfg = CacheConfig(size=512, block_size=32, associativity=1,
                              policy=policy)
            assert supports_fast_path(cfg)

    def test_associative_lru_only(self):
        # Of the recency policies only true LRU takes the stack pass;
        # PLRU and random stay on the reference simulator.
        assert supports_fast_path(small_cfg(4))
        for policy in ("plru", "random"):
            cfg = CacheConfig(size=512, block_size=32, associativity=4,
                              policy=policy)
            assert not supports_fast_path(cfg)

    @pytest.mark.parametrize("policy", ["fifo", "round-robin", "rr", "FIFO"])
    @pytest.mark.parametrize("assoc", [2, 4, 0])
    def test_fifo_and_round_robin_covered(self, policy, assoc):
        # The FIFO pass's cost does not depend on the set count, so
        # fully associative (assoc 0) is covered too.
        cfg = CacheConfig(size=512, block_size=32, associativity=assoc,
                          policy=policy)
        assert supports_fast_path(cfg)

    def test_ppc440_covered(self, ppc440_cache):
        # 64-way round-robin: the FIFO pass.
        assert supports_fast_path(ppc440_cache)

    def test_plru_not_covered(self):
        # 64-way PLRU, the PPC440's geometry: needs the reference simulator.
        cfg = CacheConfig(size=32 * 1024, block_size=32, associativity=64,
                          policy="plru")
        assert not supports_fast_path(cfg)
        assert "plru" in fast_path_declined(cfg)

    def test_fully_associative_not_covered(self):
        cfg = CacheConfig(size=512, block_size=32, associativity=0)
        assert not supports_fast_path(cfg)

    def test_no_write_allocate_not_covered(self):
        cfg = CacheConfig(size=512, block_size=32, associativity=1,
                          allocate_policy=AllocatePolicy.NO_WRITE_ALLOCATE)
        assert not supports_fast_path(cfg)


class TestDirectMapped:
    def test_simple_stream(self):
        addrs = np.array([0, 4, 32, 0, 512, 0], dtype=np.uint64)
        cfg = small_cfg()
        fast = fast_trace_counts(addrs, cfg).counts
        assert_counts_match(fast, reference_stats(addrs, cfg))

    @given(
        st.lists(st.integers(0, 4095), min_size=0, max_size=300),
        st.sampled_from([(256, 32), (512, 32), (1024, 64), (128, 16)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_streams_match_reference(self, addr_list, geometry):
        size, block = geometry
        cfg = CacheConfig(size=size, block_size=block, associativity=1)
        addrs = np.array(addr_list, dtype=np.uint64)
        fast = fast_trace_counts(addrs, cfg).counts
        assert_counts_match(fast, reference_stats(addrs, cfg))

    def test_kernel_trace_matches_reference(self, trace_1a_16, paper_cache):
        data = trace_1a_16.data_accesses()
        fast = fast_trace_counts(
            data.addresses(), paper_cache, data.sizes()
        ).counts
        stats = simulate(trace_1a_16, paper_cache).stats
        assert_counts_match(fast, stats)

    def test_straddling_accesses_expand(self):
        cfg = small_cfg()
        addrs = np.array([30], dtype=np.uint64)  # bytes 30..37 span 2 blocks
        sizes = np.array([8], dtype=np.uint32)
        fast = fast_trace_counts(addrs, cfg, sizes).counts
        assert fast.accesses == 2

    def test_empty(self):
        fast = fast_trace_counts(
            np.array([], dtype=np.uint64), small_cfg()
        ).counts
        assert fast.accesses == 0
        assert fast.miss_ratio == 0.0


class TestLRU:
    @pytest.mark.parametrize("assoc", [2, 4, 8, 16])
    def test_thrashing_pattern(self, assoc):
        # assoc+1 blocks mapping to one set thrash true LRU: after the
        # warm-up pass every revisit misses.
        cfg = small_cfg(assoc)
        stride = cfg.n_sets * cfg.block_size
        addrs = np.array(
            [i * stride for i in range(assoc + 1)] * 4, dtype=np.uint64
        )
        fast = fast_trace_counts(addrs, cfg).counts
        assert fast.hits == 0
        assert_counts_match(fast, reference_stats(addrs, cfg))

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    def test_reuse_within_ways_hits(self, assoc):
        cfg = small_cfg(assoc)
        stride = cfg.n_sets * cfg.block_size
        window = [i * stride for i in range(assoc)]
        addrs = np.array(window * 5, dtype=np.uint64)
        fast = fast_trace_counts(addrs, cfg).counts
        assert fast.misses == assoc  # compulsory only
        assert_counts_match(fast, reference_stats(addrs, cfg))

    @given(
        st.lists(
            st.tuples(st.integers(0, 8191), st.integers(1, 64)),
            min_size=0,
            max_size=250,
        ),
        st.sampled_from([2, 4, 8]),
        st.sampled_from([(256, 32), (1024, 32), (2048, 64)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_streams_mixed_sizes(self, accesses, assoc, geometry):
        size, block = geometry
        cfg = CacheConfig(size=size, block_size=block, associativity=assoc)
        addrs = np.array([a for a, _ in accesses], dtype=np.uint64)
        sizes = np.array([s for _, s in accesses], dtype=np.uint32)
        fast = fast_trace_counts(addrs, cfg, sizes).counts
        assert_counts_match(fast, reference_stats(addrs, cfg, sizes))

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    def test_kernel_traces_match_reference(
        self, assoc, trace_1a_16, trace_2a_16, trace_3a_64
    ):
        cfg = CacheConfig(size=32 * 1024, block_size=32, associativity=assoc)
        for trace in (trace_1a_16, trace_2a_16, trace_3a_64):
            data = trace.data_accesses()
            fast = fast_trace_counts(data.addresses(), cfg, data.sizes()).counts
            assert_counts_match(fast, simulate(trace, cfg).stats)

    def test_skewed_set_pressure(self):
        # One hot set much deeper than the rest exercises the
        # longest-stream-first prefix logic of the time-step loop.
        cfg = small_cfg(2)
        stride = cfg.n_sets * cfg.block_size
        hot = [i * stride for i in (0, 1, 2, 0, 1, 2, 0)] * 10
        cold = [cfg.block_size]  # one access to set 1
        addrs = np.array(hot + cold, dtype=np.uint64)
        fast = fast_trace_counts(addrs, cfg).counts
        assert_counts_match(fast, reference_stats(addrs, cfg))

    def test_rejects_non_lru_policy(self):
        cfg = CacheConfig(size=512, block_size=32, associativity=2,
                          policy="plru")
        with pytest.raises(CacheConfigError):
            fast_trace_counts(np.array([0], dtype=np.uint64), cfg)

    def test_dispatcher_routes_by_ways(self):
        addrs = np.array([0, 32, 0], dtype=np.uint64)
        assert fast_trace_counts(addrs, small_cfg()).counts.accesses == 3
        assert fast_trace_counts(addrs, small_cfg(4)).counts.accesses == 3


class TestTraceCounts:
    """Demand-level and eviction accounting of fast_trace_counts."""

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_demand_counts_match_reference(self, trace_2a_16, assoc):
        cfg = CacheConfig(size=2048, block_size=32, associativity=assoc)
        data = trace_2a_16.data_accesses()
        result = fast_trace_counts(data.addresses(), cfg, data.sizes())
        stats = simulate(trace_2a_16, cfg).stats
        assert result.demand_hits == stats.hits
        assert result.demand_misses == stats.misses
        assert result.demand_accesses == stats.accesses
        assert result.evictions == stats.evictions

    def test_straddler_demand_vs_block(self):
        cfg = small_cfg()
        # Access 0 straddles blocks 0|1; access 1 re-reads block 0 only.
        addrs = np.array([30, 0], dtype=np.uint64)
        sizes = np.array([8, 4], dtype=np.uint32)
        result = fast_trace_counts(addrs, cfg, sizes)
        assert result.counts.accesses == 3  # expanded blocks
        assert result.demand_accesses == 2  # CPU accesses
        # First access misses both blocks; second hits its single block.
        assert result.demand_misses == 1
        assert result.demand_hits == 1

    def test_empty(self):
        result = fast_trace_counts(np.array([], dtype=np.uint64), small_cfg())
        assert result.demand_accesses == 0
        assert result.demand_miss_ratio == 0.0
        assert result.per_variable == {}


class TestPerVariable:
    def test_totals_partition(self):
        cfg = small_cfg()
        addrs = np.array([0, 0, 512, 512, 0], dtype=np.uint64)
        ids = np.array([1, 1, 2, 2, 1], dtype=np.int64)
        result = fast_trace_counts(addrs, cfg, var_ids=ids)
        counts, per_var = result.counts, result.per_variable
        total = sum(h + m for h, m in per_var.values())
        assert total == counts.accesses
        h1, m1 = per_var[1]
        assert (h1, m1) == (1, 2)  # 0 miss, 0 hit, 0 miss again after evict

    def test_straddling_totals_sum_to_global(self):
        # Regression: sizes used to be ignored, so expanded blocks were
        # dropped from the per-variable totals and the partition broke on
        # any trace with straddling accesses.
        cfg = small_cfg()
        addrs = np.array([30, 62, 0, 94], dtype=np.uint64)
        sizes = np.array([8, 16, 4, 64], dtype=np.uint32)
        ids = np.array([1, 2, 1, 2], dtype=np.int64)
        result = fast_trace_counts(addrs, cfg, sizes, ids)
        counts, per_var = result.counts, result.per_variable
        assert counts.accesses > len(addrs)  # straddlers really expanded
        assert sum(h + m for h, m in per_var.values()) == counts.accesses
        assert sum(h for h, _ in per_var.values()) == counts.hits
        assert sum(m for _, m in per_var.values()) == counts.misses

    @pytest.mark.parametrize("assoc", [1, 4])
    def test_kernel_trace_matches_reference_by_variable(
        self, trace_1a_16, assoc
    ):
        from repro.cache.simulator import attribution_label

        cfg = CacheConfig(size=1024, block_size=32, associativity=assoc)
        data = trace_1a_16.data_accesses()
        name_ids = {}
        var_ids = np.array(
            [
                -1 if (label := attribution_label(r, "base")) is None
                else name_ids.setdefault(label, len(name_ids))
                for r in data
            ],
            dtype=np.int64,
        )
        per_var = fast_trace_counts(
            data.addresses(), cfg, data.sizes(), var_ids
        ).per_variable
        stats = simulate(trace_1a_16, cfg).stats
        for name, vid in name_ids.items():
            h, m = per_var[vid]
            assert h == stats.by_variable[name].hits, name
            assert m == stats.by_variable[name].misses, name

    def test_negative_ids_kept_separate(self):
        cfg = small_cfg()
        addrs = np.array([0, 32], dtype=np.uint64)
        ids = np.array([-1, 3], dtype=np.int64)
        per_var = fast_trace_counts(addrs, cfg, var_ids=ids).per_variable
        assert set(per_var) == {-1, 3}


class TestFastSimulator:
    """The chunked single-config fast simulator: a one-config
    :class:`MultiConfigSimulator` fed chunk by chunk."""

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
    def test_chunked_equals_batch(self, assoc, chunk):
        rng = np.random.default_rng(assoc * 1000 + chunk)
        addrs = rng.integers(0, 1 << 14, size=500).astype(np.uint64)
        sizes = rng.integers(1, 65, size=500).astype(np.uint32)
        cfg = CacheConfig(size=1024, block_size=32, associativity=assoc)
        batch = fast_trace_counts(addrs, cfg, sizes)
        sim = MultiConfigSimulator([cfg])
        for lo in range(0, len(addrs), chunk):
            sim.feed(addrs[lo : lo + chunk], sizes[lo : lo + chunk])
        (chunked,) = sim.results()
        assert chunked.counts.hits == batch.counts.hits
        assert chunked.counts.misses == batch.counts.misses
        assert chunked.counts.compulsory_misses == batch.counts.compulsory_misses
        assert chunked.demand_hits == batch.demand_hits
        assert chunked.demand_misses == batch.demand_misses
        assert chunked.evictions == batch.evictions
        assert np.array_equal(
            chunked.counts.per_set.hits, batch.counts.per_set.hits
        )
        assert np.array_equal(
            chunked.counts.per_set.misses, batch.counts.per_set.misses
        )

    def test_residency_carries_across_chunks(self):
        cfg = small_cfg(2)
        sim = MultiConfigSimulator([cfg])
        sim.feed(np.array([0], dtype=np.uint64))
        (second,) = sim.feed(np.array([0], dtype=np.uint64))
        assert second.hits == 1  # resident from the previous chunk

    def test_compulsory_not_double_counted(self):
        sim = MultiConfigSimulator([small_cfg()])
        sim.feed(np.array([0, 512], dtype=np.uint64))  # 512 evicts 0
        sim.feed(np.array([0], dtype=np.uint64))  # conflict, not compulsory
        (totals,) = sim.results()
        assert totals.counts.compulsory_misses == 2
        assert totals.counts.misses == 3

    def test_chunks_fed(self):
        sim = MultiConfigSimulator([small_cfg()])
        sim.feed(np.array([0], dtype=np.uint64))
        sim.feed(np.array([], dtype=np.uint64))
        assert sim.chunks_fed == 2

    def test_rejects_uncovered_config(self):
        random_64 = CacheConfig(size=32 * 1024, block_size=32,
                                associativity=64, policy="random")
        with pytest.raises(CacheConfigError, match="random"):
            MultiConfigSimulator([random_64])


def feed_with_round_trip(cfg, addrs, sizes, var_ids, cuts, resume_at):
    """Feed a one-config ``MultiConfigSimulator`` the chunks between
    ``cuts``, rebuilding it from its own ``state()`` just before chunk
    ``resume_at``."""
    bounds = [0, *cuts, len(addrs)]
    sim = MultiConfigSimulator([cfg])
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if i == resume_at:
            state = sim.state()
            sim = MultiConfigSimulator([cfg])
            sim.restore(state)
        sim.feed(addrs[lo:hi], sizes[lo:hi], var_ids[lo:hi])
    (totals,) = sim.results()
    return totals


class TestChunkedAgainstReference:
    """Chunked feeding with a snapshot round-trip at an arbitrary cut
    answers exactly what the per-record reference simulator answers."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4095),
                st.sampled_from([1, 4, 8, 40]),
                st.integers(-1, 2),
            ),
            max_size=200,
        ),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 4, 16]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_cuts_and_round_trip(self, accesses, ways, n_sets, data):
        cfg = CacheConfig(size=n_sets * 32 * ways, block_size=32,
                          associativity=ways)
        addrs = np.array([a for a, _, _ in accesses], dtype=np.uint64)
        sizes = np.array([s for _, s, _ in accesses], dtype=np.uint32)
        ids = np.array([v for _, _, v in accesses], dtype=np.int64)
        n = len(accesses)
        cuts = sorted(
            data.draw(st.sets(st.integers(0, n), max_size=6), label="cuts")
        )
        resume_at = data.draw(
            st.integers(0, len(cuts)), label="resume_at"
        )
        got = feed_with_round_trip(cfg, addrs, sizes, ids, cuts, resume_at)
        assert_matches_reference(got, reference_counts(cfg, addrs, sizes, ids))

    def test_direct_mapped_one_set_ping_pong(self):
        # Two blocks of one set alternate: every access evicts the other
        # block and nothing repeats its predecessor, so no run collapses.
        cfg = CacheConfig(size=32, block_size=32, associativity=1)
        addrs = np.array([0, 32] * 50, dtype=np.uint64)
        sizes = np.ones(len(addrs), dtype=np.uint32)
        ids = np.zeros(len(addrs), dtype=np.int64)
        got = feed_with_round_trip(cfg, addrs, sizes, ids, [1, 37, 64], 2)
        assert got.counts.hits == 0
        assert_matches_reference(got, reference_counts(cfg, addrs, sizes, ids))

    def test_two_way_three_block_cycle(self):
        # A, B, C cycle through one 2-way set: true LRU always evicts the
        # block needed next, and no access repeats its predecessor.
        cfg = CacheConfig(size=64, block_size=32, associativity=2)
        addrs = np.array([0, 32, 64] * 40, dtype=np.uint64)
        sizes = np.ones(len(addrs), dtype=np.uint32)
        ids = np.arange(len(addrs), dtype=np.int64) % 3
        got = feed_with_round_trip(cfg, addrs, sizes, ids, [2, 50, 51], 1)
        assert got.counts.hits == 0
        assert_matches_reference(got, reference_counts(cfg, addrs, sizes, ids))
