"""Static cost model: guaranteed miss-count intervals without simulating.

Given a :class:`~repro.trace.digest.TraceDigest` (layout-invariant
per-element reuse-distance histograms) and a candidate rule file, this
module predicts a **sound interval** ``[lo, hi]`` on the block-level
miss count the fast simulator would report for the transformed trace
under a cache geometry — without transforming or simulating anything.

The abstract interpretation proceeds in two steps:

1. :func:`build_layout_image` pushes every digest element through
   ``rule.translate`` exactly as the transform engine would (same
   arena-allocation walk, same passthrough/ignored-out/uncovered
   semantics), yielding each element's *group*: the cache blocks its
   target access and statically-known inserted accesses touch.

2. :func:`evaluate_rules` folds the groups per cache set:

   - ``lo`` is the compulsory floor — every distinct block's first
     touch misses under any demand cache;
   - a set whose distinct blocks fit its associativity can never evict,
     so its misses equal its distinct blocks **exactly**;
   - in overflowing sets, an access is a *guaranteed hit* when its
     element-granularity reuse distance ``d`` bounds the intervening
     same-set traffic below the associativity:
     ``d * C + I_s + (g - 1) < ways`` (``C`` = max blocks any element's
     target touches, ``I_s`` = distinct inserted blocks in the set,
     ``g`` = the element's own group size).  LRU stack inclusion makes
     the block resident; the rule is disabled for non-LRU replacement,
     where recency proves nothing.

   The interval collapses (``lo == hi``) precisely when no set
   overflows and nothing degraded — and then it is exact.

Constructs that break static placement (pattern/pool rules, whose slot
assignment is first-seen-stateful, and ``existing`` inject specs, which
replay prior records) degrade the interval **conservatively**: their
possible blocks widen ``hi`` and are excluded from ``lo``, preserving
soundness at the price of precision.  ``docs/COSTMODEL.md`` carries the
full argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cache.config import AllocatePolicy, CacheConfig
from repro.ctypes_model.path import VariablePath
from repro.lint.symbolic import plan_allocations
from repro.obsv import get_telemetry
from repro.trace.digest import ElementStats, TraceDigest
from repro.transform.engine import ARENA_BASE
from repro.transform.rule_parser import parse_rules
from repro.transform.rules import Rule, RuleSet

#: label under which records without debug info are attributed
ANONYMOUS = "<anonymous>"


def _blocks(addr: int, size: int, block_size: int) -> Tuple[int, ...]:
    """Block ids the byte range ``[addr, addr+size)`` touches."""
    first = addr // block_size
    last = (addr + max(size, 1) - 1) // block_size
    return tuple(range(first, last + 1))


def _worst_span(size: int, block_size: int) -> int:
    """Max blocks an access of ``size`` can straddle at any alignment."""
    return (max(size, 1) - 1) // block_size + 2


def _has_existing_injects(rules: RuleSet) -> bool:
    return any(
        getattr(spec, "existing", None)
        for rule in rules
        for spec in getattr(rule, "inject", ()) or ()
    )


@dataclass(frozen=True)
class ElementGroup:
    """The transformed image of one digest element.

    Every access event of the element touches the *target* blocks plus
    one inserted record per entry of ``insert_blocks`` (the engine emits
    inserts before the target, but order inside the event does not
    matter for counting).  ``uncertain`` marks elements whose placement
    could not be determined statically (pattern-rule targets).
    """

    variable: Optional[str]
    element: ElementStats
    target_blocks: Tuple[int, ...]
    insert_blocks: Tuple[Tuple[int, ...], ...] = ()
    uncertain: bool = False

    @property
    def slots(self) -> Tuple[Tuple[int, ...], ...]:
        """Block tuple per access record of one event (inserts + target)."""
        return self.insert_blocks + (self.target_blocks,)

    @property
    def distinct_blocks(self) -> Tuple[int, ...]:
        seen: Set[int] = set()
        for slot in self.slots:
            seen.update(slot)
        return tuple(sorted(seen))


@dataclass
class LayoutImage:
    """Per-element transformed placements for one (digest, rules) pair."""

    groups: List[ElementGroup]
    #: blocks that *may* additionally be touched (pattern-rule pools,
    #: replayed ``existing`` inject targets, uncovered passthroughs)
    uncertain_blocks: Set[int] = field(default_factory=set)
    #: upper bound on block events whose placement is unknown
    uncertain_events: int = 0
    #: why precision was lost (empty = fully static)
    reasons: List[str] = field(default_factory=list)

    @property
    def conservative(self) -> bool:
        return bool(self.reasons)


def build_layout_image(
    digest: TraceDigest,
    rules: Union[RuleSet, str],
    *,
    arena_base: int = ARENA_BASE,
    block_size: int = 32,
) -> LayoutImage:
    """Map every digest element to its post-transformation blocks.

    Replicates the engine's dispatch exactly: records without debug
    info pass through; records whose base is an out-name are ignored
    (bi-directional mapping is never applied); uncovered paths pass
    through; covered paths land at the planned allocation base plus the
    translated offset, keeping the record's original size.
    """
    if isinstance(rules, str):
        rules = parse_rules(rules)
    planned, _ = plan_allocations(rules, arena_base)
    bases = {name: alloc.base for name, alloc in planned.items()}
    by_in = {r.in_name: r for r in rules if not r.is_pattern}
    patterns = [r for r in rules if r.is_pattern]
    out_names = {n for r in rules for n in r.out_names()}

    image = LayoutImage(groups=[])
    max_span: Dict[Optional[str], int] = {}
    for vd in digest.variables:
        max_span[vd.name] = max(
            (len(_blocks(e.addr, e.size, block_size)) for e in vd.elements),
            default=1,
        )

    existing_refs: Set[str] = set()
    for rule in rules:
        for spec in getattr(rule, "inject", ()) or ():
            if getattr(spec, "existing", False):
                existing_refs.add(str(spec.name))
    if existing_refs:
        image.reasons.append(
            "rules use `existing` inject specs (the engine replays prior "
            "records; inserted placements are order-dependent)"
        )
        for ref in sorted(existing_refs):
            vd = digest.variable(ref)
            if vd is not None:
                for b in vd.blocks(block_size):
                    image.uncertain_blocks.add(b)

    pattern_reason_added = False
    for vd in digest.variables:
        name = vd.name
        rule: Optional[Rule] = None
        if name is not None and name not in out_names:
            rule = by_in.get(name)
            if rule is None:
                for candidate in patterns:
                    if candidate.matches(name):
                        rule = candidate
                        break
        if rule is not None and rule.is_pattern:
            # Pattern/pool targets are assigned slots in first-seen
            # order — stateful, so placement is unknown.  The possible
            # blocks are bounded by the pool allocation plus the
            # original addresses (uncovered objects pass through).
            if not pattern_reason_added:
                image.reasons.append(
                    "pattern rules assign pool slots in first-seen order; "
                    "matched placements are not static"
                )
                pattern_reason_added = True
            for alloc in rule.out_allocations():
                base = bases.get(alloc.name)
                if base is not None:
                    for b in _blocks(base, alloc.size, block_size):
                        image.uncertain_blocks.add(b)
            for e in vd.elements:
                for b in _blocks(e.addr, e.size, block_size):
                    image.uncertain_blocks.add(b)
                image.groups.append(
                    ElementGroup(
                        variable=name,
                        element=e,
                        target_blocks=(),
                        uncertain=True,
                    )
                )
                image.uncertain_events += e.count * _worst_span(
                    e.size, block_size
                )
            continue
        for e in vd.elements:
            group = _element_group(
                name, e, rule, bases, block_size, image, existing_refs,
                max_span,
            )
            image.groups.append(group)
    return image


def _element_group(
    name: Optional[str],
    e: ElementStats,
    rule: Optional[Rule],
    bases: Dict[str, int],
    block_size: int,
    image: LayoutImage,
    existing_refs: Set[str],
    max_span: Dict[Optional[str], int],
) -> ElementGroup:
    """Translate one element; fall back to passthrough like the engine."""
    if rule is None or e.path is None:
        return ElementGroup(name, e, _blocks(e.addr, e.size, block_size))
    try:
        path = VariablePath.parse(e.path)
        translation = rule.translate(path.elements)
    except Exception:
        translation = None
    if translation is None:
        # Uncovered path: the engine passes the record through.
        return ElementGroup(name, e, _blocks(e.addr, e.size, block_size))
    if translation.address_delta is not None:
        return ElementGroup(
            name, e,
            _blocks(e.addr + translation.address_delta, e.size, block_size),
        )
    mapped = translation.target
    if mapped is None:
        # Rename-only translation: the record keeps its address.
        return ElementGroup(name, e, _blocks(e.addr, e.size, block_size))
    base = bases.get(mapped.alloc)
    if base is None:
        # Undeclared out object — the prover flags this (TDST010); treat
        # the placement as unknown rather than guessing.
        image.reasons.append(
            f"{rule.name}: target allocation {mapped.alloc!r} has no "
            "planned base"
        )
        image.uncertain_events += e.count * _worst_span(e.size, block_size)
        return ElementGroup(name, e, (), uncertain=True)
    target = _blocks(base + mapped.offset, e.size, block_size)
    inserts: List[Tuple[int, ...]] = []
    for ins in translation.inserts:
        if ins.existing_var is not None:
            # Replayed record: blocks already folded into
            # ``uncertain_blocks``; bound the extra events here.
            span = max_span.get(str(ins.existing_var), 2)
            image.uncertain_events += e.count * span
            continue
        if ins.mapped is None:
            continue
        ibase = bases.get(ins.mapped.alloc)
        if ibase is None:
            image.uncertain_events += e.count * _worst_span(
                ins.size, block_size
            )
            continue
        inserts.append(
            _blocks(ibase + ins.mapped.offset, ins.size, block_size)
        )
    return ElementGroup(name, e, target, tuple(inserts))


# -- interval evaluation ------------------------------------------------------


@dataclass(frozen=True)
class MissInterval:
    """A sound bound on block-level misses: ``lo <= misses <= hi``."""

    lo: int
    hi: int
    #: total block-level events the bound covers
    events: int
    #: distinct certain blocks (the compulsory floor)
    compulsory: int
    #: events proven to hit (recency / never-overflow arguments)
    guaranteed_hits: int = 0
    #: True when precision was lost to a non-static construct
    conservative: bool = False

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def contains(self, misses: int) -> bool:
        return self.lo <= misses <= self.hi

    def dominates(self, other: "MissInterval") -> bool:
        """Provably never worse — and strictly better in the worst case."""
        return self.hi < other.lo

    def describe(self) -> str:
        if self.exact:
            return f"exactly {self.lo} misses"
        return f"[{self.lo}, {self.hi}] misses"


@dataclass(frozen=True)
class SetPressure:
    """Static per-set pressure: who fills the set and how far over."""

    index: int
    blocks: int
    ways: int
    events: int
    variables: Tuple[str, ...]
    #: True when non-static placements may add further blocks here
    uncertain: bool = False

    @property
    def overflows(self) -> bool:
        return self.blocks > self.ways

    def describe(self) -> str:
        who = ", ".join(self.variables[:4]) or "non-static placements"
        if len(self.variables) > 4:
            who += ", ..."
        if self.uncertain and not self.overflows:
            return (
                f"set {self.index}: {self.blocks} static block(s) plus "
                f"non-static placements may exceed {self.ways} way(s) "
                f"({who})"
            )
        return (
            f"set {self.index}: {self.blocks} blocks over {self.ways} "
            f"way(s) from {who}"
        )


@dataclass
class CostReport:
    """Everything the cost model learned about one (rules, geometry)."""

    config: CacheConfig
    interval: MissInterval
    #: overflowing (or uncertainty-tainted) sets, worst first
    overflow_sets: List[SetPressure]
    #: per-variable attributed intervals (insert traffic counts toward
    #: the rule's in-variable)
    per_variable: Dict[str, MissInterval]
    #: why precision was lost (empty = fully static)
    reasons: List[str]

    @property
    def exact(self) -> bool:
        return self.interval.exact

    def explain(self, limit: int = 6) -> List[str]:
        """Human-readable per-set conflict explanations."""
        lines = [f"{self.config.describe()}: {self.interval.describe()}"]
        for pressure in self.overflow_sets[:limit]:
            lines.append("  " + pressure.describe())
        if len(self.overflow_sets) > limit:
            lines.append(
                f"  ... {len(self.overflow_sets) - limit} more contended sets"
            )
        for reason in self.reasons:
            lines.append(f"  conservative: {reason}")
        return lines


def evaluate_rules(
    digest: TraceDigest,
    rules: Union[RuleSet, str],
    config: CacheConfig,
    *,
    arena_base: int = ARENA_BASE,
) -> CostReport:
    """Predict the transformed trace's miss interval for one geometry."""
    tele = get_telemetry()
    with tele.phase("cost.evaluate"):
        report = _evaluate(digest, rules, config, arena_base)
    tele.add("cost.evaluations")
    if report.exact:
        tele.add("cost.evaluations_exact")
    return report


def recency_bounds_hold(config: CacheConfig) -> bool:
    """Whether LRU recency arguments bound ``config``'s hits: every miss
    fills (write-allocate), and the cache is direct-mapped (nothing to
    choose) or true LRU.  FIFO and round-robin fail it — a reuse within
    the set's capacity can still miss: 2-way FIFO, ``A B A C A``, the
    last ``A`` misses where LRU hits."""
    if config.allocate_policy is not AllocatePolicy.WRITE_ALLOCATE:
        return False
    return config.ways == 1 or config.policy.lower() == "lru"


def _evaluate(
    digest: TraceDigest,
    rules: Union[RuleSet, str],
    config: CacheConfig,
    arena_base: int,
) -> CostReport:
    image = build_layout_image(
        digest, rules, arena_base=arena_base, block_size=config.block_size
    )
    n_sets = config.n_sets
    ways = config.ways
    #: recency arguments hold for LRU (and trivially for direct-mapped);
    #: for other policies only the policy-independent bounds apply
    lru = recency_bounds_hold(config)

    set_blocks: Dict[int, Set[int]] = {}
    set_events: Dict[int, int] = {}
    insert_sets: Dict[int, Set[int]] = {}
    set_vars: Dict[int, Set[str]] = {}
    c_tgt = 1
    for g in image.groups:
        if g.uncertain:
            continue
        label = g.variable if g.variable is not None else ANONYMOUS
        c_tgt = max(c_tgt, len(set(g.target_blocks)))
        for slot in g.slots:
            for b in slot:
                s = b % n_sets
                set_events[s] = set_events.get(s, 0) + g.element.count
                set_blocks.setdefault(s, set()).add(b)
                set_vars.setdefault(s, set()).add(label)
        for slot in g.insert_blocks:
            for b in slot:
                insert_sets.setdefault(b % n_sets, set()).add(b)

    uncertain_sets = {b % n_sets for b in image.uncertain_blocks}
    for b in image.uncertain_blocks:
        set_blocks.setdefault(b % n_sets, set())

    # Second pass: guaranteed hits in overflowing sets (LRU only).
    guaranteed: Dict[int, int] = {}
    var_guaranteed: Dict[Tuple[str, int], int] = {}
    if lru:
        for g in image.groups:
            if g.uncertain or g.element.count < 2:
                continue
            label = g.variable if g.variable is not None else ANONYMOUS
            own = len(set(g.distinct_blocks))
            for b in set(g.distinct_blocks):
                s = b % n_sets
                if s in uncertain_sets or len(set_blocks[s]) <= ways:
                    continue  # exact set: handled wholesale below
                ins_s = len(insert_sets.get(s, ()))
                margin = ways - ins_s - (own - 1)
                if margin <= 0:
                    continue
                # d * c_tgt < margin  <=>  d <= (margin - 1) // c_tgt
                bound = (margin - 1) // c_tgt + 1
                hits = g.element.reuses_within(bound)
                if hits:
                    guaranteed[s] = guaranteed.get(s, 0) + hits
                    key = (label, s)
                    var_guaranteed[key] = var_guaranteed.get(key, 0) + hits

    lo = hi = compulsory = events = hits_total = 0
    pressures: List[SetPressure] = []
    for s, blocks in set_blocks.items():
        k = len(blocks)
        e = set_events.get(s, 0)
        compulsory += k
        events += e
        tainted = s in uncertain_sets
        if not tainted and k <= ways:
            lo += k
            hi += k
            hits_total += e - k
            continue
        g_s = 0 if tainted else guaranteed.get(s, 0)
        lo += k
        hi += e - g_s
        hits_total += g_s
        pressures.append(
            SetPressure(
                index=s,
                blocks=k,
                ways=ways,
                events=e,
                variables=tuple(sorted(set_vars.get(s, ()))),
                uncertain=tainted,
            )
        )
    hi += image.uncertain_events
    events += image.uncertain_events
    pressures.sort(key=lambda p: (-(p.blocks - p.ways), p.index))

    interval = MissInterval(
        lo=lo,
        hi=hi,
        events=events,
        compulsory=compulsory,
        guaranteed_hits=hits_total,
        conservative=image.conservative,
    )
    per_variable = _per_variable(
        image, config, set_blocks, insert_sets, uncertain_sets,
        guaranteed_by_var=var_guaranteed, lru=lru,
    )
    return CostReport(
        config=config,
        interval=interval,
        overflow_sets=pressures,
        per_variable=per_variable,
        reasons=list(image.reasons),
    )


def _per_variable(
    image: LayoutImage,
    config: CacheConfig,
    set_blocks: Dict[int, Set[int]],
    insert_sets: Dict[int, Set[int]],
    uncertain_sets: Set[int],
    *,
    guaranteed_by_var: Dict[Tuple[str, int], int],
    lru: bool,
) -> Dict[str, MissInterval]:
    """Attribute the interval to variables (sound per-variable bounds).

    A block shared between variables contributes its compulsory miss to
    neither lower bound (whoever touches it first takes the miss), and
    to both upper bounds.
    """
    n_sets = config.n_sets
    ways = config.ways
    owners: Dict[int, Set[str]] = {}
    for g in image.groups:
        if g.uncertain:
            continue
        label = g.variable if g.variable is not None else ANONYMOUS
        for b in g.distinct_blocks:
            owners.setdefault(b, set()).add(label)

    per: Dict[str, Dict[str, int]] = {}
    counted_by_label: Dict[str, Set[int]] = {}
    for g in image.groups:
        label = g.variable if g.variable is not None else ANONYMOUS
        acc = per.setdefault(
            label, {"lo": 0, "hi": 0, "events": 0, "compulsory": 0, "unc": 0}
        )
        if g.uncertain:
            bound = g.element.count * _worst_span(
                g.element.size, config.block_size
            )
            acc["hi"] += bound
            acc["events"] += bound
            acc["unc"] = 1
            continue
        blocks = set(g.distinct_blocks)
        # Compulsory dedup is per *variable*: a block shared by several
        # elements of the same variable still misses only once.
        counted = counted_by_label.setdefault(label, set())
        for slot in g.slots:
            for b in slot:
                s = b % n_sets
                acc["events"] += g.element.count
                exact_set = s not in uncertain_sets and len(set_blocks[s]) <= ways
                if b not in counted:
                    counted.add(b)
                    exclusive = owners.get(b) == {label}
                    if exclusive:
                        acc["compulsory"] += 1
                        acc["lo"] += 1
                if exact_set:
                    # Set never evicts: only first touches miss.
                    pass
        # hi: events minus (exact-set hits + guaranteed hits)
        exact_hits = 0
        for slot in g.slots:
            for b in slot:
                s = b % n_sets
                if s not in uncertain_sets and len(set_blocks[s]) <= ways:
                    exact_hits += g.element.count
        # First touches in exact sets still miss; subtract hits only.
        first_touches_exact = sum(
            1
            for b in blocks
            if b % n_sets not in uncertain_sets
            and len(set_blocks[b % n_sets]) <= ways
        )
        exact_hits -= first_touches_exact
        acc["hi"] += _group_events(g) - max(exact_hits, 0)
    for (label, _s), hits in guaranteed_by_var.items():
        if lru and label in per:
            per[label]["hi"] -= hits
    out: Dict[str, MissInterval] = {}
    for label, acc in per.items():
        out[label] = MissInterval(
            lo=acc["lo"],
            hi=max(acc["hi"], acc["lo"]),
            events=acc["events"],
            compulsory=acc["compulsory"],
            conservative=bool(acc["unc"]) or image.conservative,
        )
    return out


def _group_events(g: ElementGroup) -> int:
    return g.element.count * sum(len(slot) for slot in g.slots)
