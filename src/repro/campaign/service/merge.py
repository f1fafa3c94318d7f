"""The shard-merge algebra: chunk-parallel simulation, exact totals.

The campaign service splits one large trace into contiguous *shards*
(chunk ranges), simulates each shard on a different worker, and merges
per-shard statistics into totals **bit-identical** to a single
whole-trace pass of :func:`repro.cache.fastsim.fast_trace_counts`.  Two
algebraic structures make that possible:

**Residency effects** solve the sequential dependency.  A set-associative
LRU cache's hit/miss decisions depend on the residency the preceding
accesses left behind, so shards cannot be simulated independently from
cold state.  But the *state transformation* a shard applies is tiny and
composable: after a shard runs, each set holds that shard's distinct
blocks in most-recently-used order, and any ways the shard did not fill
pass the incoming residency through.  :class:`ResidencyEffect` captures
exactly that (an ``(n_sets, ways)`` matrix, MRU-first, ``-1`` = pass
through), and it is nothing but the fast path's own carried state: the
stack-position kernel's final stacks after running the shard from an
empty cache (:mod:`repro.simbatch.kernel`).  :func:`compose_effects` is
associative with :func:`identity_effect` as identity — so boundary
states for all shards come from one cheap sequential prefix-scan over
per-shard effects, each of which was computed *in parallel* from the
shard alone.

**Shard statistics** form a commutative monoid.  Once every shard is
simulated against its true incoming residency, its counts are final;
:func:`merge_stats` combines them with plain sums (scalars, per-set
arrays, per-variable dicts) and one set union (distinct blocks, from
which the merged compulsory-miss count is rebuilt — a block's first
touch is compulsory globally, not per shard).  Merging is associative,
commutative, and lossless, mirroring
:func:`repro.obsv.telemetry.merge_snapshots`; evictions and miss ratios
are *derived* at finalisation, never summed, because they are nonlinear
in the merged counts.

Both laws — ``merge == whole-trace`` over random splits, and the
monoid/composition properties — are pinned by the hypothesis suite in
``tests/campaign/test_shard_merge.py`` before the service trusts the
fast path.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fastsim import FastSimulator
from repro.cache.simulator import attribution_label
from repro.cache.stats import PerSetCounts
from repro.errors import CacheConfigError
from repro.simbatch.kernel import (
    MultiConfigSimulator,
    _evictions_from,
    _expand_blocks,
)
from repro.simbatch.plan import supports_fast_path
from repro.trace.record import AccessType

__all__ = [
    "ResidencyEffect",
    "ShardStats",
    "compose_effects",
    "empty_stats",
    "finalize_fields",
    "identity_effect",
    "merge_stats",
    "shard_effect",
    "shard_ranges",
    "sharded_simulation_fields",
    "simulate_shard",
]


# -- residency effects --------------------------------------------------------


@dataclass(frozen=True)
class ResidencyEffect:
    """The residency transformation one shard applies to a cache.

    ``blocks`` is ``(n_sets, ways)`` int64, MRU-first; ``-1`` entries are
    *transparent*: they take whatever the incoming residency holds there
    after the shard's own distinct blocks are installed.  Because a
    shard's effect depends only on the shard (never on what ran before),
    effects for all shards are computable in parallel.
    """

    blocks: np.ndarray

    @property
    def n_sets(self) -> int:
        """Number of cache sets this effect spans."""
        return self.blocks.shape[0]

    @property
    def ways(self) -> int:
        """Associativity this effect was built for."""
        return self.blocks.shape[1]

    def __eq__(self, other: object) -> bool:
        """Structural equality (matrix equality)."""
        if not isinstance(other, ResidencyEffect):
            return NotImplemented
        return self.blocks.shape == other.blocks.shape and bool(
            np.array_equal(self.blocks, other.blocks)
        )

    def __hash__(self) -> int:  # pragma: no cover - dict keys unused
        """Hash over the matrix bytes (frozen dataclass contract)."""
        return hash(self.blocks.tobytes())


def identity_effect(config: CacheConfig) -> ResidencyEffect:
    """The do-nothing effect (every way transparent): compose identity."""
    return ResidencyEffect(
        blocks=np.full((config.n_sets, config.ways), -1, dtype=np.int64)
    )


def shard_effect(
    addrs: np.ndarray,
    sizes: Optional[np.ndarray],
    config: CacheConfig,
) -> ResidencyEffect:
    """The residency effect of one shard, computed from the shard alone.

    The stack-position kernel's final stacks after running the shard
    from an empty cache: for every set, the shard's distinct blocks in
    most-recently-used order (capped at ``ways``); ways the shard
    leaves unfilled stay ``-1``, i.e. transparent.
    """
    sim = MultiConfigSimulator([config])
    sim.feed(addrs, sizes)
    return ResidencyEffect(blocks=sim.residency())


def compose_effects(
    first: ResidencyEffect, then: ResidencyEffect
) -> ResidencyEffect:
    """The effect of running ``first``'s shard, then ``then``'s shard.

    Per set: ``then``'s blocks stay on top (they ran last), followed by
    ``first``'s blocks not shadowed by ``then``, truncated to ``ways``.
    Associative, with :func:`identity_effect` as two-sided identity —
    exactly the law the prefix scan in
    :func:`sharded_simulation_fields` relies on.
    """
    if first.blocks.shape != then.blocks.shape:
        raise CacheConfigError(
            f"cannot compose effects of shapes {first.blocks.shape} "
            f"and {then.blocks.shape}"
        )
    ways = then.ways
    # A first-shard block already present in then's row is shadowed
    # (it was re-touched later); drop it rather than duplicate it.
    shadowed = (
        (first.blocks[:, :, None] == then.blocks[:, None, :])
        & (first.blocks[:, :, None] != -1)
    ).any(axis=2)
    tail = np.where(shadowed, -1, first.blocks)
    cat = np.concatenate([then.blocks, tail], axis=1)
    # Compact each row's valid entries to the front, preserving order.
    order = np.argsort(cat == -1, axis=1, kind="stable")
    compacted = np.take_along_axis(cat, order, axis=1)
    return ResidencyEffect(blocks=np.ascontiguousarray(compacted[:, :ways]))


# -- shard statistics ---------------------------------------------------------


@dataclass(frozen=True)
class ShardStats:
    """Final statistics of one simulated shard (or a merge of several).

    All fields are *linear* in the trace except ``seen_blocks``, which
    merges by set union; derived quantities (evictions, compulsory
    misses, miss ratios) are computed at finalisation only.
    """

    #: block-level hit/miss events (one per touched cache block)
    block_hits: int
    block_misses: int
    #: CPU-access-level counts (an access hits iff all its blocks hit)
    demand_hits: int
    demand_accesses: int
    #: per-set block-level events, length ``n_sets``
    per_set_hits: np.ndarray
    per_set_misses: np.ndarray
    #: ``{attribution label: (block_hits, block_misses)}``
    per_variable: Dict[str, Tuple[int, int]]
    #: sorted distinct block numbers this shard touched
    seen_blocks: np.ndarray

    @property
    def demand_misses(self) -> int:
        """Accesses with at least one missing block."""
        return self.demand_accesses - self.demand_hits


def empty_stats(config: CacheConfig) -> ShardStats:
    """The monoid identity: zero counts over ``config``'s set space."""
    return ShardStats(
        block_hits=0,
        block_misses=0,
        demand_hits=0,
        demand_accesses=0,
        per_set_hits=np.zeros(config.n_sets, dtype=np.int64),
        per_set_misses=np.zeros(config.n_sets, dtype=np.int64),
        per_variable={},
        seen_blocks=np.empty(0, dtype=np.int64),
    )


def merge_stats(*stats: ShardStats) -> ShardStats:
    """Merge shard statistics: sums, array sums, dict sums, set union.

    Associative and commutative, and never loses counts — every scalar
    and per-set total of the result is the sum over inputs, every
    per-variable pair the pairwise sum, and ``seen_blocks`` the sorted
    union (property-tested in ``tests/campaign/test_shard_merge.py``).
    """
    if not stats:
        raise ValueError("merge_stats needs at least one ShardStats")
    n_sets = len(stats[0].per_set_hits)
    per_set_hits = np.zeros(n_sets, dtype=np.int64)
    per_set_misses = np.zeros(n_sets, dtype=np.int64)
    per_variable: Dict[str, Tuple[int, int]] = {}
    seen: List[np.ndarray] = []
    block_hits = block_misses = demand_hits = demand_accesses = 0
    for s in stats:
        if len(s.per_set_hits) != n_sets:
            raise CacheConfigError(
                "cannot merge shard stats over different set spaces "
                f"({len(s.per_set_hits)} vs {n_sets} sets)"
            )
        block_hits += s.block_hits
        block_misses += s.block_misses
        demand_hits += s.demand_hits
        demand_accesses += s.demand_accesses
        per_set_hits += s.per_set_hits
        per_set_misses += s.per_set_misses
        for name, (h, m) in s.per_variable.items():
            old = per_variable.get(name, (0, 0))
            per_variable[name] = (old[0] + h, old[1] + m)
        if len(s.seen_blocks):
            seen.append(s.seen_blocks)
    merged_seen = (
        np.unique(np.concatenate(seen)) if seen else np.empty(0, dtype=np.int64)
    )
    return ShardStats(
        block_hits=block_hits,
        block_misses=block_misses,
        demand_hits=demand_hits,
        demand_accesses=demand_accesses,
        per_set_hits=per_set_hits,
        per_set_misses=per_set_misses,
        per_variable=per_variable,
        seen_blocks=merged_seen,
    )


# -- shard simulation ---------------------------------------------------------


def simulate_shard(
    addrs: np.ndarray,
    sizes: Optional[np.ndarray],
    labels: Optional[Sequence[Optional[str]]],
    config: CacheConfig,
    incoming: Optional[ResidencyEffect] = None,
) -> ShardStats:
    """Simulate one shard against its true incoming residency.

    ``labels`` optionally names each access (``None`` = unattributed);
    per-variable totals key by label so shards need no shared id table.
    ``incoming`` is the composed effect of every preceding shard
    (``None`` = cold cache, i.e. the first shard).
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    n = len(addrs)
    if sizes is None:
        sizes = np.ones(n, dtype=np.uint32)
    sim = FastSimulator(config)
    if incoming is not None:
        sim.prime(incoming.blocks)
    var_ids = None
    names: List[str] = []
    if labels is not None:
        if len(labels) != n:
            raise ValueError(
                f"got {len(labels)} labels for {n} accesses"
            )
        name_ids: Dict[str, int] = {}
        var_ids = np.empty(n, dtype=np.int64)
        for i, label in enumerate(labels):
            if label is None:
                var_ids[i] = -1
            else:
                var_ids[i] = name_ids.setdefault(label, len(name_ids))
        names = list(name_ids)
    sim.feed(addrs, sizes, var_ids)
    totals = sim.trace_counts()
    blocks, _ = _expand_blocks(addrs, sizes, config.block_size)
    per_variable = {
        names[vid]: hm
        for vid, hm in totals.per_variable.items()
        if vid >= 0
    }
    return ShardStats(
        block_hits=totals.counts.hits,
        block_misses=totals.counts.misses,
        demand_hits=totals.demand_hits,
        demand_accesses=totals.demand_accesses,
        per_set_hits=totals.counts.per_set.hits,
        per_set_misses=totals.counts.per_set.misses,
        per_variable=per_variable,
        seen_blocks=np.unique(blocks.astype(np.int64)),
    )


def finalize_fields(stats: ShardStats, config: CacheConfig) -> Dict[str, Any]:
    """Derive the simulation-payload fields from merged shard stats.

    Field-identical to :func:`repro.campaign.jobs.simulation_fields` on
    the whole trace: evictions come from the merged per-set misses,
    compulsory misses from the merged distinct-block count, and the miss
    ratio from the merged demand totals — none of them is a sum of
    per-shard values.
    """
    per_set = PerSetCounts(
        hits=stats.per_set_hits.astype(np.int64),
        misses=stats.per_set_misses.astype(np.int64),
    )
    n = stats.demand_accesses
    return {
        "config": config.describe(),
        "accesses": n,
        "hits": stats.demand_hits,
        "misses": stats.demand_misses,
        "miss_ratio": round(stats.demand_misses / n, 6) if n else 0.0,
        "evictions": _evictions_from(per_set, config.ways),
        "compulsory_misses": int(len(stats.seen_blocks)),
        "by_variable_misses": {
            name: stats.per_variable[name][1]
            for name in sorted(stats.per_variable)
        },
    }


# -- orchestration ------------------------------------------------------------


def shard_ranges(n: int, n_shards: int) -> List[Tuple[int, int]]:
    """Split ``n`` records into up to ``n_shards`` contiguous ranges.

    Ranges are balanced to within one record and never empty; fewer
    ranges come back when ``n < n_shards``.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    n_shards = min(n_shards, n) or 1
    bounds = np.linspace(0, n, n_shards + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_shards)
        if bounds[i] < bounds[i + 1] or n == 0
    ][: max(1, n_shards)]


def sharded_simulation_fields(
    trace,
    config: CacheConfig,
    attribution: str = "base",
    *,
    n_shards: int = 4,
    pool: Optional[Executor] = None,
) -> Dict[str, Any]:
    """Chunk-parallel replacement for ``simulation_fields`` (fast path).

    Three phases:

    1. *effects* (parallel) — every shard's :func:`shard_effect`, each
       from the shard alone;
    2. *boundaries* (sequential, cheap) — prefix-compose the effects so
       shard *k* knows the exact residency shards ``0..k-1`` leave;
    3. *counts* (parallel) — :func:`simulate_shard` per shard against
       its boundary state, then one :func:`merge_stats` fold and
       :func:`finalize_fields`.

    ``pool`` is any :class:`concurrent.futures.Executor` for phases 1
    and 3 (``None`` = run them inline).  The result is field-identical
    to the one-shot path for every config ``supports_fast_path`` covers.
    """
    if not supports_fast_path(config):
        raise CacheConfigError(
            f"no fast path covers {config.describe()!r}; "
            "chunk-parallel simulation requires one"
        )
    data = [r for r in trace if r.op is not AccessType.MISC]
    n = len(data)
    addrs = np.fromiter((r.addr for r in data), dtype=np.uint64, count=n)
    sizes = np.fromiter((r.size for r in data), dtype=np.uint32, count=n)
    labels = [attribution_label(r, attribution) for r in data]
    ranges = shard_ranges(n, n_shards)
    shards = [
        (addrs[lo:hi], sizes[lo:hi], labels[lo:hi]) for lo, hi in ranges
    ]

    def _effect(shard):
        return shard_effect(shard[0], shard[1], config)

    if pool is None:
        effects = [_effect(s) for s in shards]
    else:
        effects = list(pool.map(_effect, shards))
    # Prefix scan: boundary state of shard k = effect of shards 0..k-1
    # applied to the cold cache (identity).
    boundaries = [identity_effect(config)]
    for effect in effects[:-1]:
        boundaries.append(compose_effects(boundaries[-1], effect))

    def _counts(pair):
        (a, s, lab), incoming = pair
        return simulate_shard(a, s, lab, config, incoming)

    paired = list(zip(shards, boundaries))
    if pool is None:
        stats = [_counts(p) for p in paired]
    else:
        stats = list(pool.map(_counts, paired))
    merged = merge_stats(*stats) if stats else empty_stats(config)
    return finalize_fields(merged, config)
