"""Shared helpers for the static cost-model test suite.

The single ground truth the interval tests compare against: block-level
miss counts from the batched kernel when it covers the geometry (its
FIFO pass answers FIFO and round-robin), and from the reference
simulator otherwise (fully associative LRU, PLRU, random).  Both skip
``X`` records, exactly as the digest does.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fastsim import fast_trace_counts
from repro.cache.simulator import simulate
from repro.simbatch.plan import supports_fast_path
from repro.trace.record import AccessType, TraceRecord


def data_records(records: Iterable[TraceRecord]) -> List[TraceRecord]:
    return [r for r in records if r.op is not AccessType.MISC]


def true_block_misses(records: Iterable[TraceRecord], config: CacheConfig) -> int:
    """Block-level demand misses, via whichever simulator is exact."""
    data = data_records(records)
    if supports_fast_path(config):
        addrs = np.array([r.addr for r in data], dtype=np.uint64)
        sizes = np.array([r.size for r in data], dtype=np.uint32)
        return int(fast_trace_counts(addrs, config, sizes).counts.misses)
    return int(simulate(data, config).stats.per_set.misses.sum())
