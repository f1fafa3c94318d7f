"""Driving traces through a cache: the simulator front-end.

:func:`simulate` / :class:`CacheSimulator` consume any iterable of
:class:`~repro.trace.record.TraceRecord` and produce a
:class:`SimulationResult` bundling the statistics and the conflict
matrix.  A ``Modify`` record is a *single* dirtying access (cachegrind's
convention, not DineroIV's read-then-write expansion): the read and
write touch the same line, so the hit/miss outcome is decided once and
the access is counted once, under ``writes`` in
:class:`~repro.cache.stats.CacheStats`, since it leaves the line dirty.
``X`` records are skipped, as the paper disables instruction tracing.

Covered configs (direct-mapped, set-associative LRU, FIFO and
round-robin with write-allocate; see
:func:`repro.simbatch.plan.supports_fast_path`) also run, in bounded
memory and without building records, through the batched kernel's
:func:`repro.simbatch.simulate_batch`, which streams any trace file.
This simulator stays the oracle they are checked against, and the only
simulator for PLRU, random and no-write-allocate caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.conflict import ConflictMatrix
from repro.cache.stats import CacheStats
from repro.obsv.telemetry import get_telemetry
from repro.trace.columns import path_label
from repro.trace.record import AccessType, TraceRecord


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    config: CacheConfig
    stats: CacheStats
    conflicts: ConflictMatrix
    #: the cache object (still warm) for residency inspection
    cache: SetAssociativeCache

    def summary(self) -> str:
        """Config line plus the DineroIV-style statistics report."""
        return "\n".join(
            [self.config.describe(), self.stats.summary()]
        )


def attribution_label(record: TraceRecord, mode: str) -> Optional[str]:
    """The attribution key of one record under a given mode (``None``
    for a record without a variable; see
    :func:`repro.trace.columns.path_label` for the modes)."""
    if record.var is None:
        return None
    return path_label(record.var, mode)


class CacheSimulator:
    """Reusable simulator wrapper around one cache instance.

    ``warm`` simulations can call :meth:`feed` repeatedly; statistics
    accumulate until :meth:`result` is taken.  ``attribution`` selects the
    per-variable key granularity (see :func:`attribution_label`).
    """

    def __init__(self, config: CacheConfig, *, attribution: str = "base") -> None:
        self.config = config
        self.cache = SetAssociativeCache(config)
        self.stats = CacheStats(config.n_sets)
        self.conflicts = ConflictMatrix()
        self.attribution = attribution
        self._seen_blocks: set[int] = set()

    def feed(self, records: Iterable[TraceRecord]) -> None:
        """Simulate all records (Modify = one dirtying access)."""
        cache = self.cache
        stats = self.stats
        conflicts = self.conflicts
        seen = self._seen_blocks
        mode = self.attribution
        for record in records:
            if record.op is AccessType.MISC:
                continue
            variable = attribution_label(record, mode)
            function = record.func or None
            # Modify counts as a single dirtying access (cachegrind's
            # convention; see the module docstring): the read and write
            # touch the same line, so the hit/miss outcome is decided once
            # and CacheStats books the access under `writes`.
            is_write = record.op in (AccessType.STORE, AccessType.MODIFY)
            outcome = cache.access(
                record.addr, record.size, is_write, owner=variable
            )
            stats.record_access(is_write, outcome.hit)
            for event in outcome.events:
                compulsory = not event.hit and event.block not in seen
                if event.filled or event.hit:
                    seen.add(event.block)
                stats.record_block(
                    event.set_index,
                    event.hit,
                    variable=variable,
                    function=function,
                    compulsory=compulsory,
                    evicted=event.evicted,
                    writeback=event.writeback,
                )
                if event.evicted:
                    conflicts.record(event.victim_owner, variable)

    def result(self) -> SimulationResult:
        """Snapshot the accumulated statistics and warm cache."""
        return SimulationResult(
            config=self.config,
            stats=self.stats,
            conflicts=self.conflicts,
            cache=self.cache,
        )


def simulate(
    records: Iterable[TraceRecord],
    config: Optional[CacheConfig] = None,
    *,
    attribution: str = "base",
) -> SimulationResult:
    """Simulate a trace against ``config`` (paper's direct-mapped default)."""
    cfg = config if config is not None else CacheConfig.paper_direct_mapped()
    sim = CacheSimulator(cfg, attribution=attribution)
    tele = get_telemetry()
    with tele.span("simulate.reference", cat="simulate"):
        sim.feed(records)
    tele.add("simulate.cache_lookups", sim.stats.accesses)
    return sim.result()
