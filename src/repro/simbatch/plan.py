"""Batch planning: group cache configurations by shared geometry.

The batching algebra rests on two facts:

1. **Set indexing depends only on geometry.**  The set of a block is
   ``block & (n_sets - 1)`` and the block of an address is
   ``addr // block_size`` — so every config sharing ``(block_size,
   n_sets)`` sees the *identical* per-set access streams.

2. **LRU stack inclusion** (Mattson et al., 1970).  A ``w``-way LRU set
   always holds exactly the ``w`` most-recently-used distinct blocks of
   its stream — the top ``w`` entries of the unbounded LRU stack.  One
   stack-distance pass at depth ``max(ways)`` therefore answers *every*
   associativity in the group at once: an access hits a ``w``-way cache
   iff its block sits at stack position ``< w``, and direct-mapped is
   the ``w == 1`` special case.

So a grid of N configs collapses to one block expansion per distinct
``block_size`` and one stack pass per distinct ``(block_size, n_sets)``
— the per-config work left over is bincount bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.cache.config import AllocatePolicy, CacheConfig


def supports_fast_path(config: CacheConfig) -> bool:
    """Whether the stack-position kernel reproduces ``config`` exactly.

    Coverage matrix: direct-mapped (any replacement policy — it is never
    consulted at associativity 1) and set-associative true-LRU caches,
    both requiring write-allocate so the hit/miss stream is independent
    of the write mask.  Fully associative configs are excluded: with one
    set the time-step kernel degenerates to a per-access Python loop and
    the reference simulator is the better tool.
    """
    return fast_path_declined(config) is None


def fast_path_declined(config: CacheConfig) -> Optional[str]:
    """Why the kernel does not cover ``config``, or ``None`` when it does
    (the coverage matrix of :func:`supports_fast_path`)."""
    if config.allocate_policy is not AllocatePolicy.WRITE_ALLOCATE:
        return f"{config.allocate_policy.value} caches are not covered"
    if config.ways == 1:
        return None
    if config.associativity == 0:
        return "fully associative caches are not covered"
    if config.policy.lower() != "lru":
        return f"{config.policy} replacement is not covered (LRU only)"
    return None


@dataclass(frozen=True)
class GroupMember:
    """One configuration inside a geometry group."""

    #: position in the caller's config list (results come back in order)
    index: int
    config: CacheConfig

    @property
    def ways(self) -> int:
        return self.config.ways


@dataclass(frozen=True)
class GeometryGroup:
    """Configs sharing ``(block_size, n_sets)`` — one stack pass total."""

    block_size: int
    n_sets: int
    members: Tuple[GroupMember, ...]

    @property
    def depth(self) -> int:
        """Stack depth of the shared pass: the group's deepest config."""
        return max(m.ways for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class BatchPlan:
    """How a config list decomposes into shared-work groups."""

    groups: Tuple[GeometryGroup, ...]
    #: ``(index, config)`` pairs no batched kernel covers
    ineligible: Tuple[GroupMember, ...]

    @property
    def n_configs(self) -> int:
        return sum(len(g) for g in self.groups) + len(self.ineligible)

    @property
    def n_batched(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def block_sizes(self) -> Tuple[int, ...]:
        """Distinct block sizes = number of block expansions needed."""
        return tuple(sorted({g.block_size for g in self.groups}))

    def describe(self) -> str:
        """One-line shape summary for logs and telemetry."""
        return (
            f"{self.n_batched} configs in {len(self.groups)} geometry "
            f"group(s) over {len(self.block_sizes)} block size(s)"
            + (f", {len(self.ineligible)} ineligible" if self.ineligible else "")
        )


def plan_batch(configs: Sequence[CacheConfig]) -> BatchPlan:
    """Group ``configs`` by shared geometry.

    Order within a group follows the input order, and result arrays are
    always indexed by the input position, so callers never re-match
    configs to results.  Ineligible configs are *planned around*, not
    rejected — the caller decides whether to fall back per-config or
    refuse.
    """
    by_geometry: dict = {}
    ineligible = []
    for index, config in enumerate(configs):
        member = GroupMember(index=index, config=config)
        if not supports_fast_path(config):
            ineligible.append(member)
            continue
        key = (config.block_size, config.n_sets)
        by_geometry.setdefault(key, []).append(member)
    groups = tuple(
        GeometryGroup(block_size=bs, n_sets=ns, members=tuple(members))
        for (bs, ns), members in sorted(by_geometry.items())
    )
    return BatchPlan(groups=groups, ineligible=tuple(ineligible))
