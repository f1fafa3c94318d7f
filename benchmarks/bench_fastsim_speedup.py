"""Infrastructure bench: vectorized fast path vs reference simulator.

The repro band notes "slow simulation of large traces" as the main risk
of a Python reproduction; the numpy fast path is the mitigation.  This
bench measures both implementations on the same large trace — for a
direct-mapped config (the stack-position kernel's closed-form depth-1
branch) and a 4-way LRU config (its time-step loop) — and asserts the
fast path (a) agrees exactly and (b) clears its speedup floor (5x
direct-mapped, 10x 4-way LRU; relaxed to parity under ``--quick``,
where streams are too short to amortize numpy dispatch).  The
block-expansion helper is benched on its own because every straddling
trace pays it before the kernel runs.
"""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.fastsim import fast_trace_counts
from repro.cache.simulator import simulate
from repro.simbatch.kernel import _expand_blocks
from repro.trace.record import AccessType, TraceRecord

#: Acceptance floor for the 4-way LRU kernel on the 200k-access stream.
LRU_SPEEDUP_FLOOR = 10.0
DM_SPEEDUP_FLOOR = 5.0


@pytest.fixture(scope="module")
def stream_len(quick):
    return 20_000 if quick else 200_000


@pytest.fixture(scope="module")
def big_stream(stream_len):
    rng = np.random.default_rng(42)
    n = stream_len
    # A mix of sequential and random traffic over 1 MiB.
    seq = np.arange(n, dtype=np.uint64) * 8 % (1 << 20)
    rnd = rng.integers(0, 1 << 20, size=n, dtype=np.uint64)
    mix = np.where(rng.random(n) < 0.7, seq, rnd)
    return mix


@pytest.fixture(scope="module")
def cfg():
    return CacheConfig.paper_direct_mapped()


@pytest.fixture(scope="module")
def lru_cfg():
    return CacheConfig(size=32 * 1024, block_size=32, associativity=4)


def _records(stream):
    return [TraceRecord(AccessType.LOAD, int(a), 1, "f") for a in stream]


def _reference_seconds(stream, config):
    import time

    records = _records(stream)
    t0 = time.perf_counter()
    stats = simulate(records, config).stats
    return time.perf_counter() - t0, stats


def test_fast_path(benchmark, big_stream, cfg):
    counts = benchmark(fast_trace_counts, big_stream, cfg).counts
    assert counts.accesses == len(big_stream)


def test_reference_path(benchmark, big_stream, cfg):
    records = _records(big_stream)

    stats = benchmark(lambda: simulate(records, cfg).stats)
    fast = fast_trace_counts(big_stream, cfg).counts
    assert stats.block_hits == fast.hits
    assert stats.block_misses == fast.misses
    assert np.array_equal(stats.per_set.hits, fast.per_set.hits)


def test_speedup_factor(benchmark, big_stream, cfg, quick):
    reference, _ = _reference_seconds(big_stream, cfg)
    benchmark(fast_trace_counts, big_stream, cfg)
    fast = benchmark.stats["mean"]
    print(
        f"\nreference {reference * 1e3:.1f} ms, fast {fast * 1e3:.1f} ms, "
        f"speedup {reference / fast:.1f}x on {len(big_stream):,} accesses"
    )
    assert reference / fast > (1.0 if quick else DM_SPEEDUP_FLOOR)


def test_lru_fast_path(benchmark, big_stream, lru_cfg):
    counts = benchmark(fast_trace_counts, big_stream, lru_cfg).counts
    assert counts.accesses == len(big_stream)


def test_lru_speedup_factor(benchmark, big_stream, lru_cfg, quick):
    """The PR's acceptance claim: >= 10x on a 200k-access 4-way stream."""
    reference, stats = _reference_seconds(big_stream, lru_cfg)
    counts = benchmark(fast_trace_counts, big_stream, lru_cfg).counts
    fast = benchmark.stats["mean"]
    print(
        f"\nreference {reference * 1e3:.1f} ms, fast {fast * 1e3:.1f} ms, "
        f"speedup {reference / fast:.1f}x on {len(big_stream):,} accesses "
        f"(4-way LRU)"
    )
    assert counts.hits == stats.block_hits
    assert counts.misses == stats.block_misses
    assert reference / fast > (1.0 if quick else LRU_SPEEDUP_FLOOR)


def test_expand_blocks(benchmark, stream_len):
    """Block expansion of an all-straddling stream (worst case: every
    access spans blocks, so the vectorized ramp path always runs)."""
    rng = np.random.default_rng(7)
    addrs = rng.integers(0, 1 << 20, size=stream_len, dtype=np.uint64)
    sizes = rng.integers(1, 65, size=stream_len).astype(np.uint32)
    blocks, access_index = benchmark(_expand_blocks, addrs, sizes, 32)
    assert len(blocks) == len(access_index)
    assert len(blocks) >= stream_len
