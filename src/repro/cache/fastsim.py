"""Single-config vectorized cache simulation: a batch of one.

Large traces make per-record Python loops the bottleneck ("no optimization
without measuring" — and we measured: the fast path runs 1-2 orders of
magnitude faster than the reference simulator on a 200k-access stream;
see ``benchmarks/bench_fastsim_speedup.py`` for the live numbers on your
machine).  There is one vectorized kernel, the stack-position pass of
:mod:`repro.simbatch.kernel`, and one carried-state type,
:class:`~repro.simbatch.kernel.MultiConfigSimulator`.  This module is its
single-config face: :func:`fast_trace_counts` is a one-shot batch of one
config, :class:`FastSimulator` a chunked one, and :func:`simulate_stream`
feeds a :class:`FastSimulator` from a trace file in bounded memory.

Coverage (:func:`repro.simbatch.plan.supports_fast_path`): direct-mapped
caches, which the kernel answers in closed form (an access hits iff the
previous access to its set had the same block), and set-associative
true-LRU caches, where an access hits iff its block is among the ``ways``
most-recently-used distinct blocks of its set.  Both assume
write-allocate.

The fast path is cross-validated against the reference simulator in
``tests/cache/test_fastsim.py`` on random and kernel traces, with exact
hit/miss/per-set equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.kernel import (
    FastCounts,
    FastTraceCounts,
    MultiConfigSimulator,
    batch_trace_counts,
)
from repro.trace.record import TraceRecord
from repro.trace.stream import DEFAULT_CHUNK_RECORDS, TraceChunk, iter_chunks


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


class FastSimulator:
    """Stateful fast path: feed one config a trace in bounded-size chunks.

    A one-config :class:`~repro.simbatch.kernel.MultiConfigSimulator`:
    residency (the per-set LRU stacks, one way wide when direct-mapped),
    the compulsory-miss block set and every running total live in that
    batch and are carried between :meth:`feed` calls, so chunked totals
    are exactly equal to a single whole-trace pass.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._batch = MultiConfigSimulator([config])

    def feed(
        self,
        addrs: np.ndarray,
        sizes: Optional[np.ndarray] = None,
        var_ids: Optional[np.ndarray] = None,
    ) -> FastCounts:
        """Simulate one chunk; returns that chunk's block-level counts.

        ``var_ids`` optionally labels each access (as in
        :func:`fast_trace_counts`); per-variable totals accumulate across
        chunks and surface through :meth:`trace_counts`.
        """
        tele = get_telemetry()
        if not tele.enabled:
            return self._batch.feed(addrs, sizes, var_ids)[0]
        with tele.span("simulate.fast_chunk", cat="simulate"):
            counts = self._batch.feed(addrs, sizes, var_ids)[0]
        tele.add("simulate.cache_lookups", len(addrs))
        return counts

    # -- residency snapshots ---------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        """The complete simulator state as flat numpy arrays
        (see :meth:`~repro.simbatch.kernel.MultiConfigSimulator.state`)."""
        return self._batch.state()

    @classmethod
    def from_state(
        cls, config: CacheConfig, state: Dict[str, np.ndarray]
    ) -> "FastSimulator":
        """Rebuild a simulator from a :meth:`state` snapshot."""
        sim = cls(config)
        sim._batch.restore(state)
        return sim

    # -- accumulated views ---------------------------------------------------

    @property
    def chunks_fed(self) -> int:
        return self._batch.chunks_fed

    def counts(self) -> FastCounts:
        """Block-level totals over everything fed so far."""
        return self.trace_counts().counts

    def trace_counts(self) -> FastTraceCounts:
        """Totals at both granularities over everything fed so far."""
        return self._batch.results()[0]


# -- bounded-memory streaming simulation --------------------------------------


@dataclass(frozen=True)
class StreamResult:
    """What one :func:`simulate_stream` pass produced."""

    config: CacheConfig
    #: totals at block and demand granularity (fast-path accounting)
    totals: FastTraceCounts
    #: records simulated (demand accesses; ``X`` records are dropped)
    records: int
    #: chunks fed — peak record residency was ``records / chunks``-ish
    chunks: int

    @property
    def counts(self) -> FastCounts:
        """Block-level totals (hits/misses/compulsory/per-set)."""
        return self.totals.counts

    def summary(self) -> str:
        """Config line plus a compact statistics report."""
        c = self.counts
        t = self.totals
        return "\n".join(
            [
                self.config.describe(),
                f"demand accesses : {t.demand_accesses}",
                f"demand misses   : {t.demand_misses} "
                f"(miss rate {t.demand_miss_ratio:.4f})",
                f"block hits      : {c.hits}",
                f"block misses    : {c.misses} "
                f"(compulsory {c.compulsory_misses})",
                f"evictions       : {t.evictions}",
                f"chunks          : {self.chunks}",
            ]
        )


def simulate_stream(
    source: Union[str, Path, Iterable[TraceRecord]],
    config: Optional[CacheConfig] = None,
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    on_chunk: Optional[Callable[[TraceChunk, FastCounts], None]] = None,
) -> StreamResult:
    """Simulate a trace in bounded memory via the vectorized fast paths.

    ``source`` is a trace file path (text, gzipped text, or ``TDST``
    binary — auto-detected) or any record iterable.  Records stream
    through in ``chunk_records``-sized batches; residency is carried
    between batches, so the totals are exactly equal to a whole-trace
    pass.  Peak record residency is one chunk, never the full trace.

    ``config`` must be fast-path-eligible (see
    :func:`repro.simbatch.plan.supports_fast_path`); other configs need
    the reference :class:`~repro.cache.simulator.CacheSimulator`, which
    has no bounded-memory mode.  ``on_chunk`` is invoked after each batch
    with the chunk and its block-level counts — useful for progress
    output and for observing memory-bounded execution in tests.
    """
    cfg = config if config is not None else CacheConfig.paper_direct_mapped()
    sim = FastSimulator(cfg)
    records = 0
    tele = get_telemetry()
    with tele.span("simulate.fast_stream", cat="simulate"):
        for chunk in iter_chunks(source, chunk_records):
            chunk_counts = sim.feed(chunk.addrs, chunk.sizes)
            records += len(chunk)
            if on_chunk is not None:
                on_chunk(chunk, chunk_counts)
    tele.add("simulate.chunks", sim.chunks_fed)
    return StreamResult(
        config=cfg,
        totals=sim.trace_counts(),
        records=records,
        chunks=sim.chunks_fed,
    )
