"""The reference simulator as an oracle for the vectorized fast path.

Every fast-path entry point (``fast_trace_counts``, ``FastSimulator``,
``MultiConfigSimulator``) runs the one stack-position kernel, so checking
them against each other proves nothing about the kernel.  This helper
runs the per-record reference :class:`~repro.cache.simulator.CacheSimulator`
instead and shapes its totals like a
:class:`~repro.simbatch.kernel.FastTraceCounts`, so one equality checks
every field the fast path reports.
"""

import numpy as np

from repro.cache.simulator import simulate
from repro.ctypes_model.path import VariablePath
from repro.simbatch.kernel import FastCounts, FastTraceCounts
from repro.trace.record import AccessType, TraceRecord


def reference_counts(config, addrs, sizes=None, var_ids=None):
    """Reference totals of a load stream; ``var_ids`` >= 0 label accesses
    (negative = unattributed, which the reference does not tally)."""
    n = len(addrs)
    sizes = np.ones(n, dtype=np.uint32) if sizes is None else sizes
    var_ids = np.full(n, -1) if var_ids is None else var_ids
    records = [
        TraceRecord(
            AccessType.LOAD,
            int(addr),
            int(size),
            "f",
            var=None if vid < 0 else VariablePath.parse(f"v{vid}"),
        )
        for addr, size, vid in zip(addrs, sizes, var_ids)
    ]
    stats = simulate(records, config).stats
    counts = FastCounts(
        stats.block_hits,
        stats.block_misses,
        stats.compulsory_misses,
        stats.per_set,
    )
    return FastTraceCounts(
        counts=counts,
        demand_hits=stats.hits,
        demand_misses=stats.misses,
        evictions=stats.evictions,
        per_variable={
            int(name[1:]): (c.hits, c.misses)
            for name, c in stats.by_variable.items()
        },
    )


def assert_matches_reference(got, want):
    """Field-by-field equality of fast-path totals against
    :func:`reference_counts` (unattributed fast-path ids are skipped)."""
    assert got.counts.hits == want.counts.hits
    assert got.counts.misses == want.counts.misses
    assert got.counts.compulsory_misses == want.counts.compulsory_misses
    assert np.array_equal(got.counts.per_set.hits, want.counts.per_set.hits)
    assert np.array_equal(
        got.counts.per_set.misses, want.counts.per_set.misses
    )
    assert got.demand_hits == want.demand_hits
    assert got.demand_misses == want.demand_misses
    assert got.evictions == want.evictions
    attributed = {
        vid: hm for vid, hm in got.per_variable.items() if vid >= 0
    }
    assert attributed == want.per_variable
