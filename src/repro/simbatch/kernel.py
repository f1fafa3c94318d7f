"""The cache fast path: two passes, one carried state.

Every batched simulation in the package runs through one
:class:`MultiConfigSimulator` — a single config
(:func:`repro.cache.fastsim.fast_trace_counts`, ``tdst simulate
--fast``), a config grid or sweep, a trace-store chain — and each of
its members takes one of two passes over the expanded block column:

- LRU and direct-mapped members: :func:`_stack_positions` records each
  access's LRU **stack position** (reuse distance over its set's block
  stream), and stack inclusion then answers every member of a geometry
  group at once::

      hit in a w-way cache  <=>  position < w    (w == 1: direct-mapped)

- FIFO and round-robin members above one way: :class:`_FifoSets` walks
  the block column once per ``(block_size, n_sets, ways)``, with a way
  row, a fill pointer and a resident-block set per geometry, and yields
  positions 0 (hit) or 1 (miss) — a one-deep stack position.  From a
  cold cache that is never invalidated round-robin *is* FIFO (fills
  take the free ways in order, then the pointer cycles oldest-first),
  and a FIFO hit leaves the set untouched, so each access costs one
  set lookup after a run-collapse of immediate repeats.

Everything downstream of the position arrays — per-set tallies, demand
accounting, per-variable attribution, evictions — is the same per-config
bincount bookkeeping for both.

:class:`MultiConfigSimulator` is the only carried state: one fused stack
matrix, one residency matrix per FIFO geometry, the distinct blocks
seen per block size, and per-config running totals, all carried between
:meth:`~MultiConfigSimulator.feed` calls so chunked totals equal a
whole-trace pass.  A single config is a batch of one.

Accesses that straddle a block boundary are expanded to one entry per
block first, mirroring the reference simulator.  The kernel assumes
write-allocate (the DineroIV default): every miss fills, so the hit/miss
stream is independent of which accesses write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CacheConfigError
from repro.cache.config import CacheConfig
from repro.cache.stats import PerSetCounts
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.plan import (
    BatchPlan,
    GeometryGroup,
    fast_path_declined,
    plan_batch,
    runs_fifo,
)


@dataclass(frozen=True)
class FastCounts:
    """Results of one vectorized pass (block-level events)."""

    hits: int
    misses: int
    compulsory_misses: int
    per_set: PerSetCounts

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class FastTraceCounts:
    """Fast-path results at both granularities the reference tracks.

    ``counts`` are block-level events (one per touched block);
    ``demand_hits``/``demand_misses`` count CPU accesses, where an access
    hits only when *every* block it touches hits — the same accounting
    :class:`~repro.cache.stats.CacheStats` uses for its demand counters.
    """

    counts: FastCounts
    demand_hits: int
    demand_misses: int
    #: lines evicted to make room (write-allocate: fills = block misses)
    evictions: int
    #: ``{var_id: (block_hits, block_misses)}`` — empty when no ids given
    per_variable: Dict[int, Tuple[int, int]]

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def demand_miss_ratio(self) -> float:
        n = self.demand_accesses
        return self.demand_misses / n if n else 0.0


def _expand_blocks(
    addrs: np.ndarray, sizes: np.ndarray, block_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access -> per-block expansion for straddling accesses.

    Returns ``(blocks, access_index)``: one entry per touched block, in
    trace order, with ``access_index`` mapping each entry back to the
    access that produced it.
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    sizes = np.maximum(np.asarray(sizes, dtype=np.uint64), 1)
    first = (addrs // block_size).astype(np.int64)
    n = len(first)
    last = ((addrs + sizes - np.uint64(1)) // block_size).astype(np.int64)
    spans = last - first + 1
    if n == 0 or int(spans.max(initial=1)) == 1:
        return first, np.arange(n, dtype=np.int64)
    access_index = np.repeat(np.arange(n, dtype=np.int64), spans)
    repeated = np.repeat(first, spans)
    # Ramp 0..span-1 inside each access's run: global positions minus the
    # position where the owning access's run begins.
    starts = np.cumsum(spans) - spans
    offsets = np.arange(len(repeated), dtype=np.int64) - starts[access_index]
    return repeated + offsets, access_index


def _evictions_from(per_set: PerSetCounts, ways: int) -> int:
    """Evictions under write-allocate: every block miss fills, so a set
    evicts once per fill beyond its ``ways`` capacity."""
    return int(np.maximum(per_set.misses - ways, 0).sum())


def _stack_positions(
    blocks: np.ndarray,
    sets: np.ndarray,
    depth: int,
    stacks: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Trace-order LRU stack position of every access, at ``depth``.

    Returns an ``int16`` array: position ``p < depth`` means the block
    was the ``p``-th most-recently-used distinct block of its set
    (0 = MRU); ``depth`` means "not among the top ``depth``" — a miss
    for every member of the group.  ``stacks`` (``(n_sets, depth)``,
    MRU first, ``-1`` invalid) carries residency across chunks and is
    updated in place when given.

    Per-set streams are laid out contiguously and processed
    longest-stream-first, so the sets active at time step ``t`` are a
    prefix of the stack matrix and one Python-level loop advances every
    set one access per step with vectorized compare/shift/update
    operations.  The loop length is the *deepest* per-set stream, not
    the trace length.  Throughput details: the sort key packs ``(set,
    trace index)`` into one int64 so a single value sort replaces
    argsort plus two random gathers, the per-set streams are transposed
    into *step-major* order once so every time step reads and writes
    one contiguous slice, the match matrix carries an always-true
    sentinel column so one ``argmax`` yields position-or-miss, and
    positions travel as int16 (stack depth is tiny) to cut scatter
    bandwidth.
    """
    n = len(blocks)
    if n == 0:
        return np.empty(n, dtype=np.int16)
    # int64 throughout: a uint64 block column would promote every
    # window comparison below to float64 (NEP 50), which both costs a
    # conversion per step and risks precision above 2**53.
    blocks = np.asarray(blocks).astype(np.int64, copy=False)
    # Stable sort by set via one packed key: (set << shift) | index.
    # Sorting values is cheaper than argsort + gathers, and the low
    # bits hand back the permutation for free.
    shift = max(1, int(n - 1).bit_length())
    key = np.left_shift(np.asarray(sets, dtype=np.int64), shift)
    key += np.arange(n, dtype=np.int64)
    key.sort(kind="stable")
    order = key & np.int64((1 << shift) - 1)
    ss = key >> shift
    sb = blocks[order]
    # Run-collapse: a repeat of the immediately preceding block of the
    # same set is an MRU hit (position 0) that leaves the stack
    # untouched, so only the first access of each run enters the
    # time-step loop.  Sequential traffic collapses several-fold here.
    dup = np.empty(n, dtype=bool)
    dup[0] = False
    np.logical_and(ss[1:] == ss[:-1], sb[1:] == sb[:-1], out=dup[1:])
    keep = np.flatnonzero(~dup)
    ss = ss[keep]
    sb = sb[keep]
    n_kept = len(keep)
    # ``ss`` is sorted: group boundaries fall out of one diff, no
    # second sort (np.unique would re-sort what argsort just ordered).
    bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    group_start = np.concatenate(([0], bounds))
    group_sets = ss[group_start]
    positions = np.zeros(n, dtype=np.int16)
    if depth == 1:
        # Direct-mapped needs no time-step loop: after the run-collapse
        # every kept access differs from its set predecessor (a miss),
        # except that a set's first access hits iff it repeats the
        # block carried in from earlier chunks.
        pos_kept = np.ones(n_kept, dtype=np.int16)
        if stacks is not None:
            pos_kept[group_start] = sb[group_start] != stacks[group_sets, 0]
            group_last = np.concatenate((bounds, [n_kept])) - 1
            stacks[group_sets, 0] = sb[group_last]
        positions[order[keep]] = pos_kept
        return positions
    group_count = np.diff(np.concatenate((group_start, [n_kept])))
    by_depth = np.argsort(-group_count, kind="stable")
    g_sets = group_sets[by_depth]
    g_count = group_count[by_depth]
    n_groups = len(g_sets)
    if stacks is None:
        local = np.full((n_groups, depth), -1, dtype=np.int64)
    else:
        local = stacks[g_sets].copy()
    # Step-major transpose: the step-t access of every active set (sets
    # ordered longest-stream-first, so the active ones are a prefix)
    # lands in one contiguous slice [offsets[t], offsets[t+1]).
    max_steps = int(g_count[0])
    active = np.searchsorted(
        -g_count, -np.arange(max_steps, dtype=np.int64), side="left"
    )
    offsets = np.empty(max_steps + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(active, out=offsets[1:])
    step_of = (
        np.arange(n_kept, dtype=np.int64) - np.repeat(group_start, group_count)
    )
    rank = np.empty(n_groups, dtype=np.int64)
    rank[by_depth] = np.arange(n_groups, dtype=np.int64)
    slot = offsets[step_of] + np.repeat(rank, group_count)
    sb_step = np.empty(n_kept, dtype=np.int64)
    sb_step[slot] = sb
    pos_step = np.empty(n_kept, dtype=np.int16)
    cols = np.arange(depth, dtype=np.int64)
    width = int(active[0])
    # Sentinel column: argmax over [match | True] returns the match
    # position, or ``depth`` when the block is absent — no ``any`` pass.
    match_buf = np.empty((width, depth + 1), dtype=bool)
    match_buf[:, depth] = True
    mask_buf = np.empty((width, depth), dtype=bool)
    shift_buf = np.empty((width, depth), dtype=np.int64)
    for t in range(max_steps):
        start, end = offsets[t], offsets[t + 1]
        na = end - start
        b = sb_step[start:end]
        window = local[:na]
        np.equal(window, b[:, None], out=match_buf[:na, :depth])
        matchpos = match_buf[:na].argmax(axis=1)
        pos_step[start:end] = matchpos
        # Promote the touched block to MRU: entries above its old
        # position (or the whole stack on a miss, dropping the LRU
        # victim) shift down one slot and the block lands in slot 0.
        shifted = shift_buf[:na]
        shifted[:, 0] = b
        shifted[:, 1:] = window[:, :-1]
        np.less_equal(cols, matchpos[:, None], out=mask_buf[:na])
        np.copyto(window, shifted, where=mask_buf[:na])
    # Collapsed repeats are position 0; everything else scatters back
    # through its original trace index (int16 keeps the traffic small).
    positions[order[keep]] = pos_step[slot]
    if stacks is not None:
        stacks[g_sets] = local
    return positions


class _FifoSets:
    """Carried residency of one FIFO geometry: ``n_sets`` sets of ``ways``.

    Each set is a way row plus a fill pointer at its oldest way (the
    next one a miss fills: free ways in way order first, then oldest
    first), and one Python set holds every resident block — a block
    maps to one set, so membership is the hit test.  Shared by every
    FIFO and round-robin member of the geometry.
    """

    __slots__ = ("n_sets", "ways", "_rows", "_next", "_resident")

    def __init__(self, n_sets: int, ways: int) -> None:
        self.n_sets = n_sets
        self.ways = ways
        #: block held by way ``w`` of set ``s`` at ``s * ways + w``; -1 empty
        self._rows = [-1] * (n_sets * ways)
        #: per set, the way the next miss fills
        self._next = [0] * n_sets
        self._resident: set = set()

    def positions(self, blocks: np.ndarray) -> np.ndarray:
        """Position 0 (hit) or 1 (miss) of every block, in trace order,
        advancing the sets through them."""
        n = len(blocks)
        positions = np.zeros(n, dtype=np.int16)
        if n == 0:
            return positions
        # An immediate repeat of a block hits and changes nothing: only
        # the first access of each run enters the loop.
        fresh = np.empty(n, dtype=bool)
        fresh[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=fresh[1:])
        kept = np.flatnonzero(fresh)
        mask = self.n_sets - 1
        ways = self.ways
        rows = self._rows
        fill = self._next
        resident = self._resident
        misses = []
        for i, block in enumerate(blocks[kept].tolist()):
            if block in resident:
                continue
            s = block & mask
            way = fill[s]
            slot = s * ways + way
            victim = rows[slot]
            if victim != -1:
                resident.remove(victim)
            rows[slot] = block
            resident.add(block)
            fill[s] = way + 1 if way + 1 < ways else 0
            misses.append(i)
        positions[kept[misses]] = 1
        return positions

    def residency(self) -> np.ndarray:
        """``(n_sets, ways)`` blocks in fill order, newest first, ``-1``
        for empty ways (the stack-row layout)."""
        rows = np.array(self._rows, dtype=np.int64).reshape(self.n_sets, self.ways)
        newest = np.array(self._next, dtype=np.int64)[:, None] - 1
        order = (newest - np.arange(self.ways, dtype=np.int64)) % self.ways
        return np.take_along_axis(rows, order, axis=1)

    def load(self, residency: np.ndarray) -> None:
        """Rebuild the sets from :meth:`residency` rows (the way
        numbering may differ; every future hit and miss is the same)."""
        residency = np.asarray(residency, dtype=np.int64)
        filled = np.count_nonzero(residency != -1, axis=1)
        order = (filled[:, None] - 1 - np.arange(self.ways)) % self.ways
        rows = np.take_along_axis(residency, order, axis=1)
        self._rows = rows.ravel().tolist()
        self._next = (filled % self.ways).tolist()
        self._resident = set(residency[residency != -1].tolist())


class _GroupHistograms:
    """One chunk's position histograms for a geometry group.

    Stack inclusion turns every member question into a prefix sum over
    the position axis: a ``w``-way member's hits are the positions
    ``< w``.  So one pass over the group's blocks builds cumulative
    histograms along that axis — per set (for per-set tallies), per
    access (for demand accounting: an access hits iff the *max*
    position across its blocks is below ``ways``), and per owning
    variable — and every member then reads its answers from column
    ``ways - 1`` without touching the O(n) arrays again.
    """

    __slots__ = ("set_cum", "set_total", "access_cum", "owner_ids",
                 "owner_cum", "n_blocks")

    def __init__(
        self,
        sets: np.ndarray,
        pos: np.ndarray,
        access_index: np.ndarray,
        n_accesses: int,
        owners: Optional[np.ndarray],
        n_sets: int,
        depth: int,
    ) -> None:
        self.n_blocks = len(pos)
        width = depth + 1
        key = sets.astype(np.int64) * width
        key += pos
        set_hist = np.bincount(key, minlength=n_sets * width)
        self.set_cum = set_hist.reshape(n_sets, width).cumsum(axis=1)
        self.set_total = self.set_cum[:, -1]
        if len(pos) == n_accesses:
            maxpos = pos
        else:
            # ``access_index`` is non-decreasing (expansion preserves
            # trace order), so per-access segments are runs.
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(access_index)) + 1)
            )
            maxpos = np.maximum.reduceat(pos, starts)
        self.access_cum = np.bincount(maxpos, minlength=width).cumsum()
        if owners is None:
            self.owner_ids = None
            self.owner_cum = None
        else:
            self.owner_ids, inverse = np.unique(owners, return_inverse=True)
            okey = inverse.astype(np.int64) * width
            okey += pos
            owner_hist = np.bincount(
                okey, minlength=len(self.owner_ids) * width
            )
            self.owner_cum = owner_hist.reshape(-1, width).cumsum(axis=1)


class _MemberTotals:
    """Running per-config accumulators (one instance per member).

    Block-level hit/miss totals are the per-set sums and demand accesses
    are shared by every member, so neither is carried here.
    """

    __slots__ = ("config", "hit_below", "per_set", "demand_hits", "per_variable")

    def __init__(self, config: CacheConfig, hit_below: int) -> None:
        self.config = config
        #: positions below this are hits: ``ways`` on the stack pass, 1
        #: on the FIFO pass
        self.hit_below = hit_below
        self.per_set = PerSetCounts.zeros(config.n_sets)
        self.demand_hits = 0
        self.per_variable: Dict[int, List[int]] = {}

    def absorb(self, hist: _GroupHistograms, compulsory: int) -> FastCounts:
        """Fold one chunk's group histograms in, thresholded at ``ways``,
        and return that chunk's counts.

        All the O(n) work happened once per *group* when ``hist`` was
        built; each member only reads tiny ``(n_sets, depth+1)`` and
        ``(depth+1,)`` tables here.
        """
        w = self.hit_below
        hits = hist.set_cum[:, w - 1]
        chunk = PerSetCounts(hits=hits, misses=hist.set_total - hits)
        self.per_set.hits += chunk.hits
        self.per_set.misses += chunk.misses
        # A demand access hits iff *every* block it touches hits, i.e.
        # iff the max position across its blocks is below the threshold.
        self.demand_hits += int(hist.access_cum[w - 1])
        if hist.owner_cum is not None:
            owner_hits = hist.owner_cum[:, w - 1]
            owner_total = hist.owner_cum[:, -1]
            for row, vid in enumerate(hist.owner_ids):
                entry = self.per_variable.setdefault(int(vid), [0, 0])
                entry[0] += int(owner_hits[row])
                entry[1] += int(owner_total[row] - owner_hits[row])
        block_hits = int(hits.sum())
        return FastCounts(
            block_hits, hist.n_blocks - block_hits, compulsory, chunk
        )

    def finish(self, compulsory: int, accesses: int) -> FastTraceCounts:
        per_set = PerSetCounts(
            hits=self.per_set.hits.copy(), misses=self.per_set.misses.copy()
        )
        counts = FastCounts(
            int(per_set.hits.sum()),
            int(per_set.misses.sum()),
            compulsory,
            per_set,
        )
        return FastTraceCounts(
            counts=counts,
            demand_hits=self.demand_hits,
            demand_misses=accesses - self.demand_hits,
            evictions=_evictions_from(per_set, self.config.ways),
            per_variable={
                vid: (h, m) for vid, (h, m) in self.per_variable.items()
            },
        )


#: Arrays every :meth:`MultiConfigSimulator.state` snapshot holds (plus
#: ``fifo`` when some member takes the FIFO pass).
_STATE_KEYS = (
    "config",
    "stacks",
    "seen_blocks",
    "seen_counts",
    "per_set_hits",
    "per_set_misses",
    "demand_hits",
    "variables",
    "fed",
)


class MultiConfigSimulator:
    """Stateful fast path: N configs (N >= 1), one chunked stream.

    Every config must satisfy
    :func:`repro.simbatch.plan.supports_fast_path`.  All stack-pass
    geometry groups share a *single* stack pass per chunk: each group's
    sets are mapped into a disjoint range of one virtual set space, the
    per-group block streams are concatenated, and one kernel call (at
    the global ``max(ways)`` depth — stack inclusion makes extra depth
    harmless) answers every group at once.  Each FIFO geometry runs its
    own :class:`_FifoSets` pass.  Residency (one row of the fused stack
    matrix per virtual set, one FIFO row per FIFO set), the distinct
    blocks seen per block size, and each member's running totals are
    carried between :meth:`feed` calls, so chunked totals equal a
    whole-trace pass.  Peak memory is O(chunk + sets*ways + distinct
    blocks); the trace itself never needs to be materialized.
    """

    def __init__(self, configs: Sequence[CacheConfig]) -> None:
        configs = list(configs)
        if not configs:
            raise CacheConfigError("batched simulation needs >= 1 config")
        self.plan: BatchPlan = plan_batch(configs)
        if self.plan.ineligible:
            labels = "; ".join(
                f"{m.config.describe()} ({fast_path_declined(m.config)})"
                for m in self.plan.ineligible[:3]
            )
            more = "; ..." if len(self.plan.ineligible) > 3 else ""
            raise CacheConfigError(
                f"no fast path covers {labels}{more}; "
                "use the reference simulator"
            )
        self.configs = configs
        self._totals = [
            _MemberTotals(c, 1 if runs_fifo(c) else c.ways) for c in configs
        ]
        #: one residency per FIFO geometry, parallel to ``plan.fifo``
        self._fifo = [_FifoSets(g.n_sets, g.depth) for g in self.plan.fifo]
        #: one stack depth for the fused pass: the deepest member anywhere
        self._depth = max((g.depth for g in self.plan.groups), default=1)
        #: each group's sets occupy [base, base + n_sets) of the virtual
        #: set space, so one stack matrix carries every group's residency
        self._bases: List[int] = []
        total_sets = 0
        for group in self.plan.groups:
            self._bases.append(total_sets)
            total_sets += group.n_sets
        self._stacks = np.full((total_sets, self._depth), -1, dtype=np.int64)
        #: per-block-size distinct blocks seen (compulsory misses)
        self._seen: Dict[int, set] = {bs: set() for bs in self.plan.block_sizes}
        self._accesses = 0
        self._chunks = 0

    @property
    def chunks_fed(self) -> int:
        return self._chunks

    def feed(
        self,
        addrs: np.ndarray,
        sizes: Optional[np.ndarray] = None,
        var_ids: Optional[np.ndarray] = None,
    ) -> List[FastCounts]:
        """Advance every config through one chunk of the access stream.

        Returns each config's block-level counts for this chunk, in
        input order; a block's first touch is compulsory only if no
        earlier chunk saw it.  ``var_ids`` (optional int labels per
        access, negative = unattributed) enables per-variable
        attribution; expanded blocks inherit their owning access's
        label, so per-variable totals always sum to the block-level
        counts.
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        n_accesses = len(addrs)
        self._chunks += 1
        if n_accesses == 0:
            return [
                FastCounts(0, 0, 0, PerSetCounts.zeros(c.n_sets))
                for c in self.configs
            ]
        self._accesses += n_accesses
        if sizes is None:
            sizes = np.ones(n_accesses, dtype=np.uint32)
        labels = (
            None if var_ids is None else np.asarray(var_ids, dtype=np.int64)
        )
        # Shared stage 1: block expansion, once per distinct block size.
        expanded: Dict[int, Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = {}
        compulsory: Dict[int, int] = {}
        for block_size in self.plan.block_sizes:
            blocks, access_index = _expand_blocks(addrs, sizes, block_size)
            owners = None if labels is None else labels[access_index]
            expanded[block_size] = (blocks, access_index, owners)
            seen = self._seen[block_size]
            before = len(seen)
            # Distinct blocks by sort: a bare np.unique imports numpy.ma
            # on first use (~15 ms) and its hash table is slower here.
            ordered = np.sort(blocks)
            first = np.empty(len(ordered), dtype=bool)
            first[:1] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            seen.update(ordered[first].tolist())
            compulsory[block_size] = len(seen) - before
        # Shared stage 2: ONE fused stack pass for every stack-pass
        # geometry group and one FIFO pass per FIFO geometry, then one
        # histogram build per group and O(depth) bookkeeping per member.
        answered = self._stack_pass(expanded) if self.plan.groups else []
        if self._fifo:
            n_blocks = sum(len(expanded[g.block_size][0]) for g in self.plan.fifo)
            with get_telemetry().span(
                "simbatch.fifo", cat="simbatch",
                configs=self.plan.n_fifo, blocks=n_blocks,
            ):
                for group, fifo in zip(self.plan.fifo, self._fifo):
                    blocks = expanded[group.block_size][0]
                    answered.append((
                        group, blocks & np.int64(group.n_sets - 1),
                        fifo.positions(blocks), 1,
                    ))
        chunk: Dict[int, FastCounts] = {}
        for group, sets, pos, depth in answered:
            _, access_index, owners = expanded[group.block_size]
            hist = _GroupHistograms(
                sets, pos, access_index, n_accesses, owners,
                group.n_sets, depth,
            )
            for member in group.members:
                chunk[member.index] = self._totals[member.index].absorb(
                    hist, compulsory[group.block_size]
                )
        return [chunk[i] for i in range(len(self.configs))]

    def _stack_pass(
        self, expanded: Dict[int, Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]
    ) -> List[Tuple[GeometryGroup, np.ndarray, np.ndarray, int]]:
        """``(group, sets, positions, depth)`` of every stack-pass group,
        from one fused kernel call over disjoint virtual set ranges."""
        group_sets: List[np.ndarray] = []
        fused_blocks: List[np.ndarray] = []
        fused_vsets: List[np.ndarray] = []
        for group, base in zip(self.plan.groups, self._bases):
            blocks = expanded[group.block_size][0]
            local = blocks & np.int64(group.n_sets - 1)
            group_sets.append(local)
            fused_blocks.append(blocks)
            fused_vsets.append(local + base)
        positions = _stack_positions(
            np.concatenate(fused_blocks),
            np.concatenate(fused_vsets),
            self._depth,
            self._stacks,
        )
        cuts = np.cumsum([len(blocks) for blocks in fused_blocks])[:-1]
        return [
            (group, sets, pos, self._depth)
            for group, sets, pos in zip(
                self.plan.groups, group_sets, np.split(positions, cuts)
            )
        ]

    def results(self) -> List[FastTraceCounts]:
        """Per-config totals over everything fed, in input order."""
        return [
            t.finish(len(self._seen[t.config.block_size]), self._accesses)
            for t in self._totals
        ]

    # -- snapshots -------------------------------------------------------------

    def _describe(self) -> np.ndarray:
        text = "\n".join(c.describe() for c in self.configs)
        return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()

    def state(self) -> Dict[str, np.ndarray]:
        """The complete carried state as flat, ``npz``-ready numpy arrays.

        Residency (``stacks``, and ``fifo`` — every FIFO geometry's
        :meth:`_FifoSets.residency` rows, flattened in plan order — when
        some member takes the FIFO pass), the distinct blocks seen per
        block size, every member's per-set and demand totals,
        per-variable totals (rows of ``(member, var_id, hits, misses)``)
        and the accesses/chunks fed.  Restoring it with :meth:`restore`
        and feeding the remaining chunks yields totals bit-identical to an
        uninterrupted run: residency determines every future hit/miss
        decision and the accumulators are plain sums.
        """
        seen = [
            np.array(sorted(self._seen[bs]), dtype=np.int64)
            for bs in self.plan.block_sizes
        ]
        variables = [
            (member, vid, h, m)
            for member, totals in enumerate(self._totals)
            for vid, (h, m) in sorted(totals.per_variable.items())
        ]
        state = {
            "config": self._describe(),
            "stacks": self._stacks.copy(),
            "seen_blocks": np.concatenate(seen),
            "seen_counts": np.array([len(s) for s in seen], dtype=np.int64),
            "per_set_hits": np.concatenate(
                [t.per_set.hits for t in self._totals]
            ),
            "per_set_misses": np.concatenate(
                [t.per_set.misses for t in self._totals]
            ),
            "demand_hits": np.array(
                [t.demand_hits for t in self._totals], dtype=np.int64
            ),
            "variables": np.array(variables, dtype=np.int64).reshape(-1, 4),
            "fed": np.array([self._accesses, self._chunks], dtype=np.int64),
        }
        if self._fifo:
            state["fifo"] = np.concatenate(
                [sets.residency().ravel() for sets in self._fifo]
            )
        return state

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`state` snapshot taken under the same configs.

        Raises :class:`~repro.errors.CacheConfigError` for a snapshot of
        other configs or of another layout (a missing array, or stacks
        not shaped like this simulator's).
        """
        keys = _STATE_KEYS + (("fifo",) if self._fifo else ())
        missing = [key for key in keys if key not in state]
        if missing:
            raise CacheConfigError(
                f"snapshot lacks {', '.join(missing)}: not a "
                "simulator state of this layout"
            )
        described = bytes(np.asarray(state["config"], dtype=np.uint8))
        expect = bytes(self._describe())
        if described != expect:
            raise CacheConfigError(
                f"snapshot was taken under {described.decode('utf-8')!r}, "
                f"not {expect.decode('utf-8')!r}"
            )
        stacks = np.asarray(state["stacks"], dtype=np.int64)
        if stacks.shape != self._stacks.shape:
            raise CacheConfigError(
                f"snapshot stacks of shape {stacks.shape} do not match "
                f"config geometry {self._stacks.shape}"
            )
        if self._fifo:
            fifo = np.asarray(state["fifo"], dtype=np.int64)
            sizes = [sets.n_sets * sets.ways for sets in self._fifo]
            if fifo.shape != (sum(sizes),):
                raise CacheConfigError(
                    f"snapshot FIFO rows of shape {fifo.shape} do not "
                    f"match config geometry ({sum(sizes)},)"
                )
            for sets, rows in zip(self._fifo, np.split(fifo, np.cumsum(sizes)[:-1])):
                sets.load(rows.reshape(sets.n_sets, sets.ways))
        self._stacks[:] = stacks
        seen = np.split(
            np.asarray(state["seen_blocks"], dtype=np.int64),
            np.cumsum(state["seen_counts"])[:-1],
        )
        self._seen = {
            bs: set(blocks.tolist())
            for bs, blocks in zip(self.plan.block_sizes, seen)
        }
        cuts = np.cumsum([c.n_sets for c in self.configs])[:-1]
        for totals, hits, misses, demand_hits in zip(
            self._totals,
            np.split(state["per_set_hits"], cuts),
            np.split(state["per_set_misses"], cuts),
            state["demand_hits"],
        ):
            totals.per_set.hits[:] = hits
            totals.per_set.misses[:] = misses
            totals.demand_hits = int(demand_hits)
            totals.per_variable = {}
        for member, vid, h, m in np.asarray(state["variables"]).tolist():
            self._totals[member].per_variable[vid] = [h, m]
        self._accesses, self._chunks = (int(v) for v in state["fed"])


def batch_trace_counts(
    addrs: np.ndarray,
    configs: Sequence[CacheConfig],
    sizes: Optional[np.ndarray] = None,
    var_ids: Optional[np.ndarray] = None,
) -> List[FastTraceCounts]:
    """One-shot batched pass: whole stream, all configs, input order."""
    sim = MultiConfigSimulator(configs)
    sim.feed(addrs, sizes, var_ids)
    return sim.results()
