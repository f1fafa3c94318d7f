"""Static rule-edit footprint analysis: which variables did an edit touch?

The incremental pipeline may reuse a previously transformed chunk only
when the old and new rule files provably transform every record of that
chunk identically.  The proof is built from the same static machinery
``tdst lint`` uses:

- :func:`~repro.lint.symbolic.plan_allocations` replays the engine's
  arena walk, so a rule edit that *shifts a later rule's allocation
  base* (allocations are cursor-ordered!) marks that later rule's
  variables changed even though its text is identical;
- per-rule source spans (recovered from ``source_line``) detect textual
  edits; blank lines and whole-line comments, which the parsers skip,
  are left out of the comparison;
- :func:`~repro.lint.setconflict.set_footprints` turns the changed
  allocations into concrete cache-set regions, surfaced for reporting
  and telemetry.

The analysis is *sound, not complete*: whenever a construct breaks
chunk-local purity it degrades to ``changed = None`` ("assume everything
changed"), and the caller re-transforms the whole trace — still correct,
merely slower.  The two known impurities:

- **pattern rules** match variables by name pattern, so a pattern edit
  can affect any chunk;
- **``existing`` inject specs** make the engine stateful across records
  (the injected access replays the last-seen address of another
  variable), so skipping a chunk would starve the engine's
  ``_last_seen`` map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.errors import RuleError
from repro.lint.setconflict import SetFootprint, set_footprints
from repro.lint.symbolic import plan_allocations
from repro.transform.engine import ARENA_BASE
from repro.transform.rule_parser import parse_rules
from repro.transform.rules import Rule, RuleSet


def _significant(line: str) -> bool:
    """Whether a rule-file line can change what the parsers read.

    Blank lines and whole-line ``#``/``//`` comments cannot (the rule
    parser blanks comments before any pass reads a section), except a
    ``#define`` (a named constant) and a comment holding a ``*``: a
    ``*/`` can end a block comment opened on an earlier line.  Such a
    line is kept and compared.
    """
    text = line.strip()
    if not text.startswith(("#", "//")):
        return bool(text)
    return "define" in text or "*" in text


def _rule_spans(text: str, rules: RuleSet) -> Dict[str, str]:
    """``in_name -> source span`` of each rule, recovered by line number.

    Rules parse in file order and each carries the line its section
    started on, so a rule's span runs from its own first line to the
    next rule's first line.  A span keeps only its
    :func:`_significant` lines, so adding or editing a comment or a
    blank line changes no span.  Same span text ⇒ same parsed rule ⇒
    same per-record translation function.
    """
    lines = text.splitlines()
    starts = sorted(
        {r.source_line for r in rules if r.source_line is not None}
    )
    # Several rules can share one section (a ``displace:`` block parses
    # to one rule per line), so spans are computed per *distinct* start
    # line and every rule of the section gets the whole section's text —
    # an edit anywhere in the section marks all its rules changed.
    span_of_line: Dict[int, str] = {}
    for i, start in enumerate(starts):
        end = starts[i + 1] - 1 if i + 1 < len(starts) else len(lines)
        span_of_line[start] = "\n".join(
            line for line in lines[start - 1 : end] if _significant(line)
        )
    spans: Dict[str, str] = {}
    for rule in rules:
        if rule.source_line is not None:
            spans[rule.in_name] = span_of_line[rule.source_line]
    return spans


def _rule_names(rule: Rule) -> FrozenSet[str]:
    """Every base name whose records the rule can touch or shadow."""
    names = {rule.in_name, *rule.out_names()}
    rename = getattr(rule, "new_name", None)
    if isinstance(rename, str):
        names.add(rename)
    return frozenset(names)


def _has_existing_injects(rules: RuleSet) -> bool:
    return any(
        getattr(spec, "existing", False)
        for rule in rules
        for spec in getattr(rule, "inject", ())
    )


@dataclass(frozen=True)
class RuleDelta:
    """What a rule-file edit provably changed.

    ``changed`` is the set of base variable names whose records may be
    transformed differently by the new rules; ``None`` means the
    analysis could not bound the edit (see module docstring) and every
    chunk must be re-processed.
    """

    changed: Optional[FrozenSet[str]]
    #: human-readable explanation of the verdict
    reason: str
    #: in-names of rules added / removed / textually-or-plan-modified
    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()
    modified: Tuple[str, ...] = ()
    _old_rules: Optional[RuleSet] = field(default=None, compare=False)
    _new_rules: Optional[RuleSet] = field(default=None, compare=False)

    @property
    def conservative(self) -> bool:
        """True when nothing could be proven (full re-transform)."""
        return self.changed is None

    def affects(self, variables: Iterable[str]) -> bool:
        """May the edit change how records of ``variables`` transform?"""
        if self.changed is None:
            return True
        return not self.changed.isdisjoint(variables)

    def affected_footprints(
        self, config: CacheConfig, *, arena_base: int = ARENA_BASE
    ) -> Dict[str, SetFootprint]:
        """Set footprints of the changed allocations, old and new plans.

        The union of these regions is where the edit can move cache
        traffic — the static evidence reported alongside reuse stats.
        Allocations of unchanged rules are filtered out.
        """
        if self.changed is None or self._new_rules is None:
            return {}
        out: Dict[str, SetFootprint] = {}
        for rules in (self._old_rules, self._new_rules):
            if rules is None:
                continue
            footprints = set_footprints(rules, config, arena_base=arena_base)
            for rule in rules:
                if not _rule_names(rule) & self.changed:
                    continue
                for name in rule.out_names():
                    fp = footprints.get(name)
                    if fp is not None and name not in out:
                        out[name] = fp
        return out

    def affected_sets(
        self, config: CacheConfig, *, arena_base: int = ARENA_BASE
    ) -> Optional[FrozenSet[int]]:
        """Cache sets the edit's changed allocations statically touch."""
        if self.changed is None:
            return None
        touched: set = set()
        for fp in self.affected_footprints(
            config, arena_base=arena_base
        ).values():
            touched.update(fp.sets)
        return frozenset(touched)


def _conservative(reason: str) -> RuleDelta:
    return RuleDelta(changed=None, reason=reason)


def rule_delta(old_text: str, new_text: str) -> RuleDelta:
    """Statically bound the effect of editing ``old_text`` into ``new_text``."""
    if old_text == new_text:
        return RuleDelta(changed=frozenset(), reason="rule text unchanged")
    try:
        old_rules = parse_rules(old_text)
        new_rules = parse_rules(new_text)
    except RuleError as exc:
        return _conservative(f"rule file does not parse cleanly: {exc}")
    for label, rules in (("old", old_rules), ("new", new_rules)):
        if any(r.is_pattern for r in rules):
            return _conservative(
                f"{label} rules contain pattern rules (name-pattern "
                "matching can affect any chunk)"
            )
        if _has_existing_injects(rules):
            return _conservative(
                f"{label} rules use `existing` inject specs (the engine "
                "replays prior records, so chunks cannot be skipped)"
            )

    old_spans = _rule_spans(old_text, old_rules)
    new_spans = _rule_spans(new_text, new_rules)
    old_by_in = old_rules.by_in_name()
    new_by_in = new_rules.by_in_name()
    old_planned, _ = plan_allocations(old_rules)
    new_planned, _ = plan_allocations(new_rules)

    changed: set = set()
    added: List[str] = []
    removed: List[str] = []
    modified: List[str] = []
    for in_name in sorted(set(old_by_in) | set(new_by_in)):
        old_rule = old_by_in.get(in_name)
        new_rule = new_by_in.get(in_name)
        if old_rule is None:
            added.append(in_name)
            changed |= _rule_names(new_rule)
            continue
        if new_rule is None:
            removed.append(in_name)
            changed |= _rule_names(old_rule)
            continue
        if old_spans.get(in_name) != new_spans.get(in_name):
            modified.append(in_name)
            changed |= _rule_names(old_rule) | _rule_names(new_rule)
            continue
        # Identical text, but cursor-ordered allocation: an earlier edit
        # can shift this rule's bases, changing every address it emits.
        for name in old_rule.out_names():
            old_alloc = old_planned.get(name)
            new_alloc = new_planned.get(name)
            if (
                old_alloc is None
                or new_alloc is None
                or (old_alloc.base, old_alloc.size, old_alloc.alignment)
                != (new_alloc.base, new_alloc.size, new_alloc.alignment)
            ):
                modified.append(in_name)
                changed |= _rule_names(old_rule) | _rule_names(new_rule)
                break
    # A name newly (or no longer) shadowed as a rule *output* flips
    # whether the engine ignores records carrying it.
    out_flips = {n for r in old_rules for n in r.out_names()} ^ {
        n for r in new_rules for n in r.out_names()
    }
    changed |= out_flips

    if not changed and not (added or removed or modified):
        # Same per-variable bodies, same planned bases: the files differ
        # only in rule order (or whitespace), which the chain analyzer
        # (`lint.cost.chains.prove_reorder`) treats as a commutation
        # proof — every chunk's transformation is unaffected.
        reason = "rules reordered but equivalent: all planned bases preserved"
    else:
        reason = (
            f"{len(added)} added, {len(removed)} removed, "
            f"{len(modified)} modified rule(s); "
            f"{len(changed)} variable(s) affected"
        )
    return RuleDelta(
        changed=frozenset(changed),
        reason=reason,
        added=tuple(added),
        removed=tuple(removed),
        modified=tuple(modified),
        _old_rules=old_rules,
        _new_rules=new_rules,
    )
