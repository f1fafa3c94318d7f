"""Parameter sweeps over cache configurations: one trace, many configs.

The configs the batched kernel covers
(:func:`repro.simbatch.plan.supports_fast_path`: direct-mapped, LRU,
FIFO and round-robin) share one
:func:`~repro.simbatch.runner.simulate_batch` pass; the rest (PLRU,
random, fully associative LRU, no-write-allocate, ...) run through the
reference simulator one after another.  Both routes give the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.simbatch.plan import supports_fast_path
from repro.simbatch.runner import kernel_fields, simulate_batch
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace


@dataclass(frozen=True)
class SweepPoint:
    """One result row of a sweep."""

    config: CacheConfig
    accesses: int
    hits: int
    misses: int
    miss_ratio: float
    evictions: int
    compulsory_misses: int
    by_variable_misses: Tuple[Tuple[str, int], ...]

    def variable_misses(self, name: str) -> int:
        """Miss count attributed to one variable (0 when absent)."""
        for label, count in self.by_variable_misses:
            if label == name:
                return count
        return 0


def _kernel_point(config: CacheConfig, fields: Dict[str, Any]) -> SweepPoint:
    """A row from :func:`~repro.simbatch.runner.kernel_fields`, with the
    unrounded miss ratio a reference row carries."""
    accesses, misses = fields["accesses"], fields["misses"]
    return SweepPoint(
        config, accesses, fields["hits"], misses,
        misses / accesses if accesses else 0.0,
        fields["evictions"], fields["compulsory_misses"],
        tuple(fields["by_variable_misses"].items()),
    )


def _reference_point(
    trace: Trace, config: CacheConfig, attribution: str
) -> SweepPoint:
    stats = simulate(trace, config, attribution=attribution).stats
    return SweepPoint(
        config, stats.accesses, stats.hits, stats.misses, stats.miss_ratio,
        stats.evictions, stats.compulsory_misses,
        tuple(sorted((n, c.misses) for n, c in stats.by_variable.items())),
    )


def sweep_configs(
    records: Iterable[TraceRecord],
    configs: Sequence[CacheConfig],
    *,
    attribution: str = "base",
) -> List[SweepPoint]:
    """Simulate ``records`` against every config; rows in config order."""
    trace = records if isinstance(records, Trace) else Trace(records)
    covered = [i for i, c in enumerate(configs) if supports_fast_path(c)]
    points: Dict[int, SweepPoint] = {}
    if covered:
        batch = simulate_batch(
            trace, [configs[i] for i in covered], attribution=attribution
        )
        for i, counts in zip(covered, batch.results):
            fields = kernel_fields(configs[i], counts, batch.names)
            points[i] = _kernel_point(configs[i], fields)
    return [
        points[i] if i in points else _reference_point(trace, config, attribution)
        for i, config in enumerate(configs)
    ]


def sweep_table(points: Iterable[SweepPoint]) -> str:
    """Render sweep results as an aligned text table."""
    rows = [
        f"{'config':<58s}{'accesses':>10s}{'misses':>8s}{'ratio':>8s}"
    ]
    for p in points:
        rows.append(
            f"{p.config.describe():<58s}{p.accesses:>10d}"
            f"{p.misses:>8d}{p.miss_ratio:>8.4f}"
        )
    return "\n".join(rows)


def associativity_sweep(
    size: int, block_size: int, *, max_ways: int = 64, policy: str = "lru"
) -> List[CacheConfig]:
    """Convenience config list: associativity 1,2,4,... up to ``max_ways``."""
    configs = []
    ways = 1
    while ways <= max_ways and ways <= size // block_size:
        configs.append(
            CacheConfig(
                size=size,
                block_size=block_size,
                associativity=ways,
                policy=policy,
                name=f"{ways}-way",
            )
        )
        ways *= 2
    return configs
