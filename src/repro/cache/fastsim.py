"""Single-config vectorized cache simulation: a batch of one.

Large traces make per-record Python loops the bottleneck ("no optimization
without measuring" — and we measured: the fast path runs 1-2 orders of
magnitude faster than the reference simulator on a 200k-access stream;
see ``benchmarks/bench_fastsim_speedup.py`` for the live numbers on your
machine).  There is one batched kernel, :mod:`repro.simbatch.kernel`
(its stack-position pass and its FIFO pass), and one carried-state type,
:class:`~repro.simbatch.kernel.MultiConfigSimulator`.  This module keeps
its one-shot single-config face, :func:`fast_trace_counts`, for callers
that already hold address arrays; trace files, traces and record streams
go through :func:`repro.simbatch.simulate_batch` (one config or many).

Coverage (:func:`repro.simbatch.plan.supports_fast_path`): direct-mapped
caches, which the kernel answers in closed form (an access hits iff the
previous access to its set had the same block); set-associative
true-LRU caches, where an access hits iff its block is among the ``ways``
most-recently-used distinct blocks of its set; and FIFO and round-robin
caches at any set count (the PowerPC 440's L1D included), where an
access hits iff its block is among the last ``ways`` blocks its set
filled.  All assume write-allocate.

The fast path is cross-validated against the reference simulator in
``tests/cache/test_fastsim.py`` on random and kernel traces, with exact
hit/miss/per-set equality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.kernel import FastTraceCounts, batch_trace_counts


def fast_trace_counts(
    addrs: np.ndarray,
    config: CacheConfig,
    sizes: Optional[np.ndarray] = None,
    var_ids: Optional[np.ndarray] = None,
) -> FastTraceCounts:
    """Everything the vectorized pass can attribute, in one sweep.

    Parameters
    ----------
    addrs:
        ``uint64`` array of access addresses, in trace order.
    config:
        Any config for which
        :func:`~repro.simbatch.plan.supports_fast_path` holds.
    sizes:
        Optional access sizes (defaults to all-1, i.e. no straddling).
    var_ids:
        Optional integer label per access (e.g. an index into a name
        table; negative = unattributed).  Expanded blocks inherit the
        label of the access that produced them, so per-variable totals
        always sum to the global block-level counts.
    """
    tele = get_telemetry()
    if not tele.enabled:
        return _fast_trace_counts(addrs, config, sizes, var_ids)
    with tele.span("simulate.fast_kernel", cat="simulate"):
        result = _fast_trace_counts(addrs, config, sizes, var_ids)
    tele.add("simulate.cache_lookups", len(addrs))
    return result


def _fast_trace_counts(
    addrs: np.ndarray,
    config: CacheConfig,
    sizes: Optional[np.ndarray] = None,
    var_ids: Optional[np.ndarray] = None,
) -> FastTraceCounts:
    """Uninstrumented :func:`fast_trace_counts` body (the overhead baseline)."""
    (result,) = batch_trace_counts(addrs, [config], sizes, var_ids)
    return result
