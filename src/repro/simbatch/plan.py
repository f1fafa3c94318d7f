"""Batch planning: group cache configurations by shared geometry.

The batching algebra rests on three facts:

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

3. **Round-robin from a cold cache is FIFO.**  Misses fill the free
   ways in way order, and once a set is full the round-robin pointer
   (starting at way 0) evicts the oldest fill; nothing invalidates a
   line, so that holds for the whole run.  FIFO hits leave the set
   untouched, so one per-set pass with a way row and a fill pointer
   answers every FIFO or round-robin config of one ``(block_size,
   n_sets, ways)`` — with no inclusion property, each associativity
   is a pass of its own.

So a grid of N configs collapses to one block expansion per distinct
``block_size``, one stack pass per distinct ``(block_size, n_sets)``
and one FIFO pass per distinct FIFO ``(block_size, n_sets, ways)`` —
the per-config work left over is bincount bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.cache.config import AllocatePolicy, CacheConfig


#: replacement policies the FIFO pass answers (round-robin is FIFO from
#: a cold cache that is never invalidated)
FIFO_POLICIES = frozenset({"fifo", "round-robin", "rr"})


def supports_fast_path(config: CacheConfig) -> bool:
    """Whether the batched kernel reproduces ``config`` exactly.

    Coverage matrix, every row requiring write-allocate so the hit/miss
    stream is independent of the write mask and blocks of at least two
    bytes (the kernels keep one block id free to mark an empty way):
    direct-mapped caches (any
    replacement policy — it is never consulted at associativity 1),
    set-associative true-LRU caches (the stack pass), and FIFO and
    round-robin caches at any set count, fully associative included
    (the FIFO pass, whose cost per access does not depend on the set
    count).  Fully associative LRU is excluded: with one set the
    stack pass degenerates to a per-access Python loop and the
    reference simulator is the better tool.  PLRU and random stay on
    the reference simulator.
    """
    return fast_path_declined(config) is None


def fast_path_declined(config: CacheConfig) -> Optional[str]:
    """Why the kernel does not cover ``config``, or ``None`` when it does
    (the coverage matrix of :func:`supports_fast_path`)."""
    if config.allocate_policy is not AllocatePolicy.WRITE_ALLOCATE:
        return f"{config.allocate_policy.value} caches are not covered"
    if config.block_size == 1:
        # Block ids are int64, so 1-byte blocks would spend all 2**64
        # values on addresses and leave none for the empty-way sentinel
        # (-1) of the stack pass, the FIFO pass and the snapshots.
        return "1-byte blocks are not covered: no block id is left free"
    if config.ways == 1:
        return None
    policy = config.policy.lower()
    if policy in FIFO_POLICIES:
        return None
    if policy != "lru":
        return (
            f"{config.policy} replacement is not covered "
            "(LRU, FIFO and round-robin only)"
        )
    if config.associativity == 0:
        return "fully associative LRU caches are not covered"
    return None


def runs_fifo(config: CacheConfig) -> bool:
    """Whether a covered ``config`` takes the FIFO pass (above one way,
    FIFO or round-robin) rather than the stack pass."""
    return config.ways > 1 and config.policy.lower() in FIFO_POLICIES


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
    """Configs sharing ``(block_size, n_sets)`` — one stack pass total —
    or, in :attr:`BatchPlan.fifo`, FIFO configs sharing ``(block_size,
    n_sets, ways)`` — one FIFO pass total."""

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

    #: stack-pass groups (LRU and direct-mapped members)
    groups: Tuple[GeometryGroup, ...]
    #: ``(index, config)`` pairs no batched kernel covers
    ineligible: Tuple[GroupMember, ...]
    #: FIFO-pass groups (FIFO and round-robin members above one way)
    fifo: Tuple[GeometryGroup, ...]

    @property
    def n_configs(self) -> int:
        return self.n_batched + len(self.ineligible)

    @property
    def n_fifo(self) -> int:
        return sum(len(g) for g in self.fifo)

    @property
    def n_batched(self) -> int:
        return sum(len(g) for g in self.groups) + self.n_fifo

    @property
    def block_sizes(self) -> Tuple[int, ...]:
        """Distinct block sizes = number of block expansions needed."""
        return tuple(sorted({g.block_size for g in self.groups + self.fifo}))

    def describe(self) -> str:
        """One-line shape summary for logs and telemetry."""
        return (
            f"{self.n_batched} configs in {len(self.groups) + len(self.fifo)} "
            f"geometry group(s) over {len(self.block_sizes)} block size(s)"
            + (f", {self.n_fifo} FIFO" if self.fifo else "")
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
    by_fifo: dict = {}
    ineligible = []
    for index, config in enumerate(configs):
        member = GroupMember(index=index, config=config)
        if not supports_fast_path(config):
            ineligible.append(member)
        elif runs_fifo(config):
            key = (config.block_size, config.n_sets, config.ways)
            by_fifo.setdefault(key, []).append(member)
        else:
            key = (config.block_size, config.n_sets)
            by_geometry.setdefault(key, []).append(member)
    groups = tuple(
        GeometryGroup(block_size=bs, n_sets=ns, members=tuple(members))
        for (bs, ns), members in sorted(by_geometry.items())
    )
    fifo = tuple(
        GeometryGroup(block_size=bs, n_sets=ns, members=tuple(members))
        for (bs, ns, _), members in sorted(by_fifo.items())
    )
    return BatchPlan(groups=groups, ineligible=tuple(ineligible), fifo=fifo)
