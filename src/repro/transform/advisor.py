"""The transformation advisor: synthesise rules from a trace.

The paper positions its engine as a way to "explore the transformation
space of data structures".  The advisor closes the loop: instead of the
user writing every rule by hand, it analyses a trace and *proposes* the
rules —

- :func:`field_usage` / :func:`field_affinity` — per-field access counts
  and temporal co-access affinity for one structure;
- :func:`suggest_hot_cold_split` — picks the cold member set a T2
  outlining rule should move out, based on a usage-ratio threshold;
- :func:`suggest_field_order` — orders AoS fields so that fields used
  together sit together (greedy affinity clustering, hottest first);
- each suggestion renders as **rule-file text** ready for
  :func:`repro.transform.rule_parser.parse_rules`, so the advisor's
  output feeds straight back into the engine;
- :func:`generate_candidates` / :func:`rank_candidates` — enumerate a
  candidate pool (identity, field orders at several affinity windows,
  hot/cold splits at several thresholds), price every candidate with the
  static cost model (:mod:`repro.lint.cost`), and rank by *simulated*
  miss count — skipping the simulations the statics already decide:
  candidates whose lower bound exceeds the best simulated count cannot
  be top-1, and candidates whose canonical block streams coincide share
  one simulation.  ``prune=False`` restores the simulate-everything
  baseline (the CLI's ``--no-cost-prune``); both paths produce the same
  top recommendation, which the ``cost`` test suite checks.

The advisor works from the same information the paper's user reads off
the modified-DineroIV output (per-variable counts, conflicts) — it simply
automates the reasoning.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.ctypes_model.types import ArrayType, CType, StructType
from repro.trace.record import TraceRecord


class AdvisorError(ReproError):
    """The advisor could not produce a suggestion."""


def _struct_of(layout: CType) -> StructType:
    if isinstance(layout, ArrayType) and isinstance(layout.element, StructType):
        return layout.element
    if isinstance(layout, StructType):
        return layout
    raise AdvisorError(f"advisor needs a struct layout, got {layout.c_name()}")


def field_usage(
    records: Iterable[TraceRecord], variable: str
) -> Counter:
    """Access count per top-level field of ``variable``."""
    counts: Counter = Counter()
    for r in records:
        if r.var is None or r.var.base != variable:
            continue
        names = r.var.field_names()
        if names:
            counts[names[0]] += 1
    return counts


def field_affinity(
    records: Iterable[TraceRecord],
    variable: str,
    *,
    window: int = 8,
) -> Counter:
    """Temporal co-access affinity between top-level fields.

    Two fields gain affinity whenever they are accessed within ``window``
    trace records of each other — the signal that they belong in the same
    cache block.  Returns a Counter over frozensets of field pairs.
    """
    affinity: Counter = Counter()
    recent: deque[Tuple[int, str]] = deque()
    for i, r in enumerate(records):
        if r.var is None or r.var.base != variable:
            continue
        names = r.var.field_names()
        if not names:
            continue
        field = names[0]
        while recent and i - recent[0][0] > window:
            recent.popleft()
        for _, other in recent:
            if other != field:
                affinity[frozenset((field, other))] += 1
        recent.append((i, field))
    return affinity


@dataclass
class HotColdSuggestion:
    """A proposed T2 outlining."""

    variable: str
    hot: Tuple[str, ...]
    cold: Tuple[str, ...]
    usage: Dict[str, int]

    def rule_text(
        self,
        layout: CType,
        *,
        out_name: Optional[str] = None,
        storage_name: Optional[str] = None,
        pointer_name: str = "mColdRef",
    ) -> str:
        """Render the suggestion as a flat hot/cold split rule.

        The ``in`` struct reproduces the original declaration order (so
        the engine's offset validation matches the traced layout); the
        ``out`` section moves the cold fields into a storage pool reached
        through ``pointer_name``.
        """
        struct = _struct_of(layout)
        length = layout.length if isinstance(layout, ArrayType) else 1
        out_name = out_name or f"{self.variable}_hot"
        storage_name = storage_name or f"{self.variable}_coldPool"
        in_members = "\n".join(
            f"    {f.ctype.c_name()} {f.name};" for f in struct.fields
        )
        cold_members = "\n".join(
            f"    {struct.member(name).ctype.c_name()} {name};"
            for name in self.cold
        )
        hot_members = "\n".join(
            f"    {struct.member(name).ctype.c_name()} {name};"
            for name in self.hot
        )
        return (
            f"in:\n"
            f"struct {self.variable} {{\n{in_members}\n}}[{length}];\n"
            f"out:\n"
            f"struct {storage_name} {{\n{cold_members}\n}}[{length}];\n"
            f"struct {out_name} {{\n{hot_members}\n"
            f"    + {pointer_name}:{storage_name};\n"
            f"}}[{length}];\n"
        )


def suggest_hot_cold_split(
    records: Sequence[TraceRecord],
    variable: str,
    layout: CType,
    *,
    cold_threshold: float = 0.2,
) -> Optional[HotColdSuggestion]:
    """Propose outlining fields whose access share is below the threshold.

    Returns ``None`` when no field is cold enough (or all are — there must
    be at least one hot and one cold field to split).

    Note: this advises on structures whose cold members are *direct*
    fields; the generated rule nests them into a synthetic cold struct,
    which models the transformed layout the engine will apply to traces
    of the *restructured* program.  For structures that already have a
    nested cold struct (the paper's Listing 6), write the T2 rule
    directly.
    """
    struct = _struct_of(layout)
    usage = field_usage(records, variable)
    total = sum(usage.values())
    if total == 0:
        return None
    hot: List[str] = []
    cold: List[str] = []
    for field in struct.member_names():
        share = usage.get(field, 0) / total
        (cold if share < cold_threshold else hot).append(field)
    if not hot or not cold:
        return None
    return HotColdSuggestion(
        variable=variable,
        hot=tuple(hot),
        cold=tuple(cold),
        usage=dict(usage),
    )


@dataclass
class FieldOrderSuggestion:
    """A proposed AoS field reordering."""

    variable: str
    order: Tuple[str, ...]
    affinity: Dict[frozenset, int]

    def rule_text(self, layout: CType, *, out_name: Optional[str] = None) -> str:
        """Render as a T1 layout rule (same fields, new order)."""
        struct = _struct_of(layout)
        length = layout.length if isinstance(layout, ArrayType) else 1
        out_name = out_name or f"{self.variable}_reordered"
        in_members = "\n".join(
            f"    {f.ctype.c_name()} {f.name};" for f in struct.fields
        )
        out_members = "\n".join(
            f"    {struct.member(name).ctype.c_name()} {name};"
            for name in self.order
        )
        suffix = f"[{length}]" if isinstance(layout, ArrayType) else ""
        return (
            f"in:\n"
            f"struct {self.variable} {{\n{in_members}\n}}{suffix};\n"
            f"out:\n"
            f"struct {out_name} {{\n{out_members}\n}}{suffix};\n"
        )


def suggest_field_order(
    records: Sequence[TraceRecord],
    variable: str,
    layout: CType,
    *,
    window: int = 8,
) -> FieldOrderSuggestion:
    """Greedy affinity ordering: start from the hottest field, repeatedly
    append the unplaced field with the highest affinity to the already
    placed ones (count-weighted); unaccessed fields go last."""
    struct = _struct_of(layout)
    usage = field_usage(records, variable)
    affinity = field_affinity(records, variable, window=window)
    fields = list(struct.member_names())
    if not fields:
        raise AdvisorError(f"{variable}: struct has no fields")
    placed: List[str] = []
    remaining = set(fields)
    # Seed with the most used field (declaration order breaks ties).
    seed = max(fields, key=lambda f: (usage.get(f, 0), -fields.index(f)))
    placed.append(seed)
    remaining.discard(seed)
    while remaining:
        best = max(
            sorted(remaining, key=fields.index),
            key=lambda f: (
                sum(
                    affinity.get(frozenset((f, p)), 0) for p in placed
                ),
                usage.get(f, 0),
            ),
        )
        placed.append(best)
        remaining.discard(best)
    return FieldOrderSuggestion(
        variable=variable,
        order=tuple(placed),
        affinity=dict(affinity),
    )


# -- candidate generation and cost-ranked advice ------------------------------


@dataclass(frozen=True)
class Candidate:
    """One rule file the advisor considers (empty text = keep layout)."""

    label: str
    rule_text: str
    source: str

    @property
    def is_identity(self) -> bool:
        return not self.rule_text.strip()


@dataclass
class RankedCandidate:
    """A candidate with its static interval and (maybe) simulated count."""

    candidate: Candidate
    #: static miss interval from the cost model
    interval: object
    #: block-level miss count; exact for simulated candidates and for
    #: members of a proven-equivalent class, else ``None`` (pruned)
    misses: Optional[int] = None
    #: True when this candidate itself went through the simulator
    simulated: bool = False
    #: why the simulation was skipped ("dominated", "equivalent:<label>")
    pruned_by: Optional[str] = None
    #: per-set conflict explanations from the cost report
    explanations: Tuple[str, ...] = ()

    def describe(self) -> str:
        tag = (
            f"{self.misses} misses"
            if self.misses is not None
            else f"pruned ({self.pruned_by})"
        )
        sim = "simulated" if self.simulated else "static"
        return (
            f"{self.candidate.label}: {tag} [{sim}; interval "
            f"{self.interval.describe()}]"
        )


@dataclass
class AdvisorReport:
    """Ranked advice for one trace and cache geometry."""

    ranked: List[RankedCandidate] = field(default_factory=list)
    #: candidates that actually hit the simulator
    simulations: int = 0
    #: candidate simulations avoided by static proofs
    skipped: int = 0

    @property
    def top(self) -> RankedCandidate:
        return self.ranked[0]

    def lines(self) -> List[str]:
        out = []
        for i, rc in enumerate(self.ranked, 1):
            out.append(f"{i}. {rc.describe()}")
            for expl in rc.explanations:
                out.append(f"     {expl}")
        out.append(
            f"({self.simulations} candidate(s) simulated, "
            f"{self.skipped} skipped by static proofs)"
        )
        return out


#: affinity windows tried for field-order candidates
ORDER_WINDOWS = (4, 8, 16)
#: usage-share thresholds tried for hot/cold splits
COLD_THRESHOLDS = (0.1, 0.2, 0.35)


def generate_candidates(
    records: Sequence[TraceRecord],
    variable: str,
    layout: CType,
    *,
    windows: Sequence[int] = ORDER_WINDOWS,
    cold_thresholds: Sequence[float] = COLD_THRESHOLDS,
) -> List[Candidate]:
    """Enumerate the advisor's candidate rule files for one variable.

    Always includes the identity (keep the layout); adds one field-order
    candidate per affinity window, declaration-reverse and usage-hottest
    orders, and one hot/cold split per threshold that yields a split.
    Candidates whose rule text the parser or the symbolic prover rejects
    are dropped — advice is always sound.
    """
    struct = _struct_of(layout)
    out: List[Candidate] = [Candidate("identity", "", "identity")]
    seen_texts = {""}

    def _push(label: str, text: str, source: str) -> None:
        if text in seen_texts:
            return
        if _prover_rejects(text):
            return
        seen_texts.add(text)
        out.append(Candidate(label, text, source))

    for window in windows:
        suggestion = suggest_field_order(
            records, variable, layout, window=window
        )
        _push(
            f"order:w{window}",
            suggestion.rule_text(layout),
            "field-order",
        )
    usage = field_usage(records, variable)
    fields = list(struct.member_names())
    hottest = FieldOrderSuggestion(
        variable=variable,
        order=tuple(
            sorted(fields, key=lambda f: (-usage.get(f, 0), fields.index(f)))
        ),
        affinity={},
    )
    _push("order:hottest", hottest.rule_text(layout), "field-order")
    reverse = FieldOrderSuggestion(
        variable=variable, order=tuple(reversed(fields)), affinity={}
    )
    _push("order:reverse", reverse.rule_text(layout), "field-order")
    for threshold in cold_thresholds:
        split = suggest_hot_cold_split(
            records, variable, layout, cold_threshold=threshold
        )
        if split is None:
            continue
        _push(
            f"split:t{threshold:g}",
            split.rule_text(layout),
            "hot-cold",
        )
    return out


def _prover_rejects(rule_text: str) -> bool:
    """True when the rule-file lint (parser + symbolic prover) errors."""
    if not rule_text.strip():
        return False
    from repro.lint.rules_lint import lint_rules_text

    return not lint_rules_text(rule_text).ok


def rank_candidates(
    records: Sequence[TraceRecord],
    candidates: Sequence[Candidate],
    config,
    *,
    digest=None,
    prune: bool = True,
    arena_base: Optional[int] = None,
) -> AdvisorReport:
    """Rank candidates by simulated miss count, pruning statically.

    With ``prune`` on, a candidate skips the simulator when

    - its static lower bound exceeds the best simulated count so far
      (it provably cannot be the top recommendation), or
    - its canonical block stream equals an already-simulated candidate's
      (it provably misses *exactly* as often; the count is shared).

    Both proofs are one-sided, so pruning never changes the top-1:
    the ``prune=False`` path simulates everything and must agree.
    Candidates are processed best-static-bound first, which makes the
    domination cutoff bite as early as possible.
    """
    import numpy as np

    from repro.cache.fastsim import fast_trace_counts
    from repro.lint.cost.chains import canonical_stream
    from repro.lint.cost.model import evaluate_rules
    from repro.obsv import get_telemetry
    from repro.simbatch.plan import supports_fast_path
    from repro.trace.digest import compute_digest
    from repro.trace.record import AccessType
    from repro.transform.engine import ARENA_BASE, transform_trace
    from repro.transform.rules import RuleSet

    base = ARENA_BASE if arena_base is None else arena_base
    tele = get_telemetry()
    if digest is None:
        digest = compute_digest(records)

    def _rules(c: Candidate):
        from repro.transform.rule_parser import parse_rules

        return RuleSet() if c.is_identity else parse_rules(c.rule_text)

    def _simulate(c: Candidate) -> int:
        rules = _rules(c)
        out = records if c.is_identity else transform_trace(
            records, rules, arena_base=base
        ).trace
        data = [r for r in out if r.op is not AccessType.MISC]
        if not supports_fast_path(config):
            from repro.cache.simulator import simulate

            return int(simulate(data, config).stats.per_set.misses.sum())
        addrs = np.array([r.addr for r in data], dtype=np.int64)
        sizes = np.array([r.size for r in data], dtype=np.int64)
        return int(fast_trace_counts(addrs, config, sizes).counts.misses)

    entries: List[RankedCandidate] = []
    for c in candidates:
        cost = evaluate_rules(digest, _rules(c), config, arena_base=base)
        entries.append(
            RankedCandidate(
                candidate=c,
                interval=cost.interval,
                explanations=tuple(cost.explain()),
            )
        )
    # Best static prospects first so the domination cutoff tightens fast.
    entries.sort(key=lambda e: (e.interval.lo, e.interval.hi, e.candidate.label))

    streams: Dict[tuple, RankedCandidate] = {}
    best: Optional[int] = None
    report = AdvisorReport()
    for entry in entries:
        c = entry.candidate
        if prune:
            stream = canonical_stream(digest, _rules(c), config, arena_base=base)
            if stream is not None and stream in streams:
                twin = streams[stream]
                entry.misses = twin.misses
                entry.pruned_by = f"equivalent:{twin.candidate.label}"
                report.skipped += 1
                tele.add("cost.prune.equivalent")
                continue
            if best is not None and entry.interval.lo > best:
                entry.pruned_by = "dominated"
                report.skipped += 1
                tele.add("cost.prune.dominated")
                continue
        else:
            stream = None
        entry.misses = _simulate(c)
        entry.simulated = True
        report.simulations += 1
        tele.add("cost.prune.simulated")
        if stream is not None:
            streams[stream] = entry
        if best is None or entry.misses < best:
            best = entry.misses
    # Final order: known miss counts first (ascending), pruned-dominated
    # candidates after, by their static lower bound.
    entries.sort(
        key=lambda e: (
            e.misses is None,
            e.misses if e.misses is not None else e.interval.lo,
            e.candidate.label,
        )
    )
    report.ranked = entries
    return report


def advise(
    records: Sequence[TraceRecord],
    variable: str,
    layout: CType,
    config,
    *,
    prune: bool = True,
) -> AdvisorReport:
    """Generate, price, and rank candidates for one variable."""
    candidates = generate_candidates(records, variable, layout)
    return rank_candidates(records, candidates, config, prune=prune)
