"""The transformation engine: applies rules to a trace stream.

Implements the five-step process of the paper's Section IV:

1. **Initialize the rules** — at construction every rule's out objects get
   a fresh base address from the transformation arena (a reserved address
   range that cannot collide with traced program objects).
2. **Check validity** — each record's variable path is matched against the
   rules; uncovered records pass through unchanged, and records that
   reference *out* objects are never re-transformed (rules are one-way).
3. **Apply transformation** — the matched rule maps the element to its
   new location; indirect structures contribute inserted pointer loads,
   stride rules contribute injected index-arithmetic accesses.
4. **Print the transformation** — :meth:`TransformResult.write` emits
   ``transformed_trace.out``.
5. **Compare** — :func:`repro.trace.diff.diff_traces` on
   ``result.original`` / ``result.trace``.

Steps 2 and 3 depend only on a record's variable path, so the engine
works them out per entry of the trace's path table
(:class:`~repro.trace.paths.PathTable`) — a *plan* column per quantity:
the outcome, the target address or displacement, the output path, the
accesses to insert and the in-type offset and element size the validity
check needs — and then rewrites the trace's columns
(:class:`~repro.trace.columns.TraceColumns`) with numpy.  The plans are
made once per (rule, path template): the template's base name picks the
rule, and :meth:`Rule.translate_rows
<repro.transform.rules.Rule.translate_rows>` maps all of the template's
index rows at once.  The output table is the input table plus the
output templates and index rows the rules produce; no path text is
rendered.  Injected accesses are laid out with one ``np.repeat``; an
``existing`` inject re-reads the last record of its variable through a
running last-index gather.  Templates are planned in the order their
paths first appear in the record stream (a pool rule assigns slots on
first touch), and the report, the learned in-structure bases and the
last record of every variable an ``existing`` inject reads carry over
between calls on one engine, so a trace transformed in pieces equals
the trace transformed whole.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import TransformError
from repro.ctypes_model.path import PathElement, parse_template, template_text
from repro.obsv.telemetry import get_telemetry
from repro.trace.columns import OPS, SCOPE_ID, SCOPES, TraceColumns
from repro.trace.paths import PathTable, first_use, groups
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.transform.rules import (
    Rule,
    RowTarget,
    RowTranslation,
    RuleSet,
    rows_in_bounds,
    slot_offsets,
)

#: Default base of the transformation arena: well above the program stack
#: so synthesised objects never collide with traced addresses.
ARENA_BASE = 0x7FF2_0000_0


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


@dataclass
class TransformReport:
    """Counters describing what the engine did."""

    total: int = 0
    transformed: int = 0
    inserted: int = 0
    passthrough: int = 0
    #: lines referencing rule *outputs* (ignored, mapping is one-way)
    ignored_out: int = 0
    #: lines whose variable matches a rule but whose path isn't covered
    uncovered: int = 0
    size_mismatches: int = 0
    base_inconsistencies: int = 0
    per_rule: Counter = field(default_factory=Counter)

    def summary(self) -> str:
        """Multi-line counters report (plus per-rule match counts)."""
        lines = [
            f"records in      : {self.total}",
            f"  transformed   : {self.transformed}",
            f"  inserted      : {self.inserted}",
            f"  passthrough   : {self.passthrough}",
            f"  ignored (out) : {self.ignored_out}",
            f"  uncovered     : {self.uncovered}",
            f"anomalies       : size={self.size_mismatches} "
            f"base={self.base_inconsistencies}",
        ]
        for rule_name, count in sorted(self.per_rule.items()):
            lines.append(f"  {rule_name:<36s} {count}")
        return "\n".join(lines)


@dataclass
class TransformResult:
    """The transformed trace plus the report and allocation map."""

    original: Trace
    trace: Trace
    report: TransformReport
    allocations: Dict[str, int]

    def write(self, path: Union[str, Path] = "transformed_trace.out") -> Path:
        """Step 4: write the transformed trace (paper's default filename)."""
        target = Path(path)
        self.trace.save(target)
        return target


#: What a plan does with the records of its path.
_NO_VAR, _PASS, _OUT, _UNCOVERED, _MAPPED, _DISPLACED = range(6)

_ADDR_MAX = 2**64 - 1

#: ``_RESCOPE[suffix, scope]``: the scope code of a mapped access — the
#: record's L/G/H segment (L when it has none) with a V (0) or S (1)
#: suffix.
_RESCOPE = np.array(
    [[SCOPE_ID[(name[:1] or "L") + suffix] for name in SCOPES] for suffix in "VS"],
    dtype=np.uint8,
)


#: Plan columns (one row per path-table entry, plus a last row for
#: records without a variable) and their defaults.
_PLAN_COLUMNS: Dict[str, Tuple[type, int]] = {
    "outcome": (np.int64, _NO_VAR),
    #: base-name id of the path (-1: records without a variable)
    "base": (np.int64, -1),
    #: index of the matched rule (-1: no rule)
    "rule": (np.int64, -1),
    #: mapped: the target address; displaced: the delta modulo 2**64
    "addr": (np.uint64, 0),
    #: displaced: the lowest and highest address the shift keeps in range
    "lo": (np.uint64, 0),
    "hi": (np.uint64, _ADDR_MAX),
    #: new-path id of the target (or renamed) path; -1 keeps the record's
    "path": (np.int64, -1),
    #: 0/1: recompute the scope with a V/S suffix; -1 keeps the record's
    "scope": (np.int64, -1),
    #: in-type offset and element size for the validity check (-1: none)
    "check_off": (np.int64, -1),
    "check_size": (np.int64, 0),
    #: the accesses to insert before the target: a run of rows in the
    #: insert table
    "ins_start": (np.int64, 0),
    "ins_n": (np.int64, 0),
}
#: Insert-table columns: ``base`` is the base-name id an ``existing``
#: inject re-reads (-1: a mapped access).
_INSERT_COLUMNS: Dict[str, type] = {
    "op": np.int64,
    "base": np.int64,
    "addr": np.uint64,
    "size": np.int64,
    "scope": np.int64,
    "path": np.int64,
}


class _Template(NamedTuple):
    """What every path of one template shares: its base, and the rule
    that covers it (with the in-type resolution the check needs)."""

    base: str
    elements: Tuple[PathElement, ...]
    base_id: int
    #: _OUT, _PASS or (a rule covers the base) _UNCOVERED
    outcome: int
    rule: Optional[Rule] = None
    rule_id: int = -1
    #: ``CType.resolve_slots`` of the template in the rule's in type
    check: Optional[Tuple[int, Tuple[Tuple[int, int], ...], int]] = None


class _Seen(NamedTuple):
    """The last record of a variable an ``existing`` inject re-reads."""

    addr: int
    size: int
    scope: int
    frame: int
    thread: int
    #: its path's template and index row
    template: str
    row: Tuple[int, ...]


class _NewPaths:
    """The paths one piece's rules produce, as template runs; a run of
    an index-free template adds one entry, shared by every row."""

    def __init__(self) -> None:
        self.parts: List[Tuple[str, np.ndarray]] = []
        self.count = 0
        self._shared: Dict[str, int] = {}

    def add(self, template: str, index: np.ndarray) -> np.ndarray:
        """Ids of ``index``'s rows as paths of ``template``."""
        if not len(index):
            return np.empty(0, dtype=np.int64)
        if not index.shape[1]:
            entry = self._shared.get(template)
            if entry is None:
                entry = self._shared[template] = self._append(template, index[:1])
            return np.full(len(index), entry, dtype=np.int64)
        return np.arange(len(index)) + self._append(template, index)

    def _append(self, template: str, index: np.ndarray) -> int:
        start = self.count
        self.parts.append((template, index))
        self.count += len(index)
        return start

    def table(self) -> PathTable:
        return PathTable.from_parts(self.parts)


class TransformEngine:
    """Applies a rule set to traces.

    Parameters
    ----------
    rules:
        The rules to apply (at most one per in-variable).
    arena_base:
        First address of the transformation arena.
    strict:
        Raise on anomalies (size mismatch, inconsistent in-structure base
        address) instead of counting them.
    """

    def __init__(
        self,
        rules: Union[RuleSet, Iterable[Rule]],
        *,
        arena_base: int = ARENA_BASE,
        strict: bool = False,
    ) -> None:
        self.rules = rules if isinstance(rules, RuleSet) else _to_ruleset(rules)
        self.strict = strict
        self.report = TransformReport()
        self._rules: List[Rule] = list(self.rules)
        self._rule_ids = {id(rule): i for i, rule in enumerate(self._rules)}
        self._by_in: Dict[str, Rule] = {
            r.in_name: r for r in self.rules if not r.is_pattern
        }
        self._pattern_rules = [r for r in self.rules if r.is_pattern]
        self._out_names = {n for r in self.rules for n in r.out_names()}
        self._alloc_scope: Dict[str, str] = {}
        # Step 1: set up a new base address and size for every out object.
        self.allocations: Dict[str, int] = {}
        cursor = arena_base
        for rule in self.rules:
            for alloc in rule.out_allocations():
                if alloc.name in self.allocations:
                    raise TransformError(
                        f"out object {alloc.name!r} allocated by two rules"
                    )
                cursor = _align_up(cursor, max(alloc.alignment, 1))
                self.allocations[alloc.name] = cursor
                self._alloc_scope[alloc.name] = alloc.scope
                cursor += alloc.size
        #: learned base address of each in variable (validity checking)
        self._in_bases: Dict[str, int] = {}
        #: what every path of a template shares, by template text
        self._templates: Dict[str, _Template] = {}
        #: base-name ids
        self._base_ids: Dict[str, int] = {}
        #: base ids ``existing`` injects re-read, and the last record of
        #: each seen so far
        self._watched: Set[int] = {
            self._base_id(spec.name)
            for rule in self.rules
            for spec in getattr(rule, "inject", ())
            if spec.existing
        }
        self._last_seen: Dict[int, _Seen] = {}

    # -- plans ---------------------------------------------------------------

    def _base_id(self, name: str) -> int:
        return self._base_ids.setdefault(name, len(self._base_ids))

    def _template(self, template: str) -> _Template:
        """Step 2 for a template: which rule (if any) its base selects."""
        plan = self._templates.get(template)
        if plan is not None:
            return plan
        base, elements = parse_template(template)
        base_id = self._base_id(base)
        rule = None
        if base in self._out_names:
            # Same nesting as an out rule: "the simulator will simply
            # ignore it" — mapping is not bi-directional.
            plan = _Template(base, elements, base_id, _OUT)
        else:
            rule = self._by_in.get(base)
            if rule is None:
                for candidate in self._pattern_rules:
                    if candidate.matches(base):
                        rule = candidate
                        break
            if rule is None:
                plan = _Template(base, elements, base_id, _PASS)
        if rule is not None:
            check = None
            in_type = getattr(rule, "in_type", None)
            if in_type is not None:  # rule kinds without one (displace) skip the check
                try:
                    offset, slots, leaf = in_type.resolve_slots(elements)
                except Exception:
                    pass
                else:
                    check = (offset, slots, leaf.size)
            plan = _Template(
                base, elements, base_id, _UNCOVERED, rule, self._rule_ids[id(rule)], check
            )
        self._templates[template] = plan
        return plan

    def _plan_entries(
        self, cols: TraceColumns, new: _NewPaths
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Steps 2-3 for every entry of the piece's path table the
        records use: the plan columns (one row per entry, the last row
        for records without a variable) and the piece's insert table.
        Templates are planned in the order their paths first appear."""
        table = cols.paths
        plans = {
            name: np.full(len(table) + 1, default, dtype=dtype)
            for name, (dtype, default) in _PLAN_COLUMNS.items()
        }
        inserts: List[Dict[str, np.ndarray]] = []
        n_inserts = 0
        used = first_use(cols.var_id)
        for t, pos in groups(table.template_id[used]):
            entries = used[pos]
            plan = self._template(table.templates[t])
            plans["outcome"][entries] = plan.outcome
            plans["base"][entries] = plan.base_id
            if plan.rule is None:
                continue
            index = table.rows(t, entries)
            for rows in plan.rule.translate_rows(plan.base, plan.elements, index):
                n_inserts += self._moved(
                    plans, inserts, n_inserts, plan, entries[rows.rows], index[rows.rows], rows, new
                )
        if inserts:
            insert_table = {
                name: np.concatenate([part[name] for part in inserts])
                for name in _INSERT_COLUMNS
            }
        else:
            insert_table = {
                name: np.empty(0, dtype=dtype) for name, dtype in _INSERT_COLUMNS.items()
            }
        return plans, insert_table

    def _moved(
        self,
        plans: Dict[str, np.ndarray],
        inserts: List[Dict[str, np.ndarray]],
        n_inserts: int,
        plan: _Template,
        entries: np.ndarray,
        index: np.ndarray,
        rows: RowTranslation,
        new: _NewPaths,
    ) -> int:
        """Fill the plan rows of the entries a rule translates; returns
        the number of insert rows added."""
        plans["rule"][entries] = plan.rule_id
        if plan.check is not None:
            offset, slots, size = plan.check
            inside = rows_in_bounds(index, slots)
            plans["check_off"][entries[inside]] = offset + slot_offsets(index[inside], slots)
            plans["check_size"][entries[inside]] = size
        k = len(rows.inserts)
        if k:
            plans["ins_start"][entries] = n_inserts + np.arange(len(entries)) * k
            plans["ins_n"][entries] = k
            inserts.append(self._insert_rows(rows, len(entries), new))
        delta = rows.address_delta
        if delta is not None:
            # Displacement mode: shift in place, optionally rename.
            lo, hi = max(0, -delta), min(_ADDR_MAX, _ADDR_MAX - delta)
            if lo > hi:  # the shift moves every address out of range
                lo, hi = _ADDR_MAX, 0
            plans["outcome"][entries] = _DISPLACED
            plans["addr"][entries] = delta % 2**64
            plans["lo"][entries] = lo
            plans["hi"][entries] = hi
            if rows.rename is not None:
                plans["path"][entries] = new.add(
                    template_text(rows.rename, plan.elements), index
                )
            return k * len(entries)
        target = rows.target
        assert target is not None
        plans["outcome"][entries] = _MAPPED
        plans["addr"][entries] = self._addresses(target)
        plans["path"][entries] = new.add(target.template, target.index)
        plans["scope"][entries] = int(target.template != target.alloc)
        return k * len(entries)

    def _addresses(self, target: RowTarget) -> np.ndarray:
        return (self.allocations[target.alloc] + target.offset).astype(np.uint64)

    def _insert_rows(
        self, rows: RowTranslation, m: int, new: _NewPaths
    ) -> Dict[str, np.ndarray]:
        """The insert-table rows of ``m`` translated entries: each
        entry's inserts, entry by entry."""
        k = len(rows.inserts)
        table = {
            name: np.zeros((m, k), dtype=dtype) for name, dtype in _INSERT_COLUMNS.items()
        }
        table["base"][:] = -1
        table["path"][:] = -1
        for j, insert in enumerate(rows.inserts):
            table["op"][:, j] = OPS.index(insert.op)
            if insert.existing_var is not None:
                base = self._base_id(insert.existing_var)
                self._watched.add(base)
                table["base"][:, j] = base
                continue
            target = insert.target
            assert target is not None
            scope = self._alloc_scope.get(target.alloc, "LV")[0]
            scope += "S" if target.template != target.alloc else "V"
            table["addr"][:, j] = self._addresses(target)
            table["size"][:, j] = insert.size
            table["scope"][:, j] = SCOPE_ID.get(scope, 0)
            table["path"][:, j] = new.add(target.template, target.index)
        return {name: column.reshape(-1) for name, column in table.items()}

    @staticmethod
    def _target_addresses(
        addr: np.ndarray, shifted: np.ndarray, plan_addr: np.ndarray
    ) -> np.ndarray:
        """Step 3's new address of each transformed record: its plan's
        target address, or (``shifted``) its own address plus the plan's
        displacement, modulo 2**64."""
        return np.where(shifted, addr + plan_addr, plan_addr)

    # -- whole-trace APIs --------------------------------------------------------

    def transform(self, records: Iterable[TraceRecord]) -> TransformResult:
        """Transform a trace, keeping the original for diffing.

        Successive calls continue one stream: a trace transformed in
        pieces, one call per piece, equals the trace transformed whole.
        """
        tele = get_telemetry()
        if not tele.enabled:
            return self._transform(records)
        inserted_before = self.report.inserted
        with tele.span("transform.apply", cat="transform"):
            result = self._transform(records)
        tele.add("transform.records_in", len(result.original))
        tele.add("transform.records_out", len(result.trace))
        tele.add("transform.injected", self.report.inserted - inserted_before)
        return result

    def _transform(self, records: Iterable[TraceRecord]) -> TransformResult:
        """Uninstrumented :meth:`transform` body."""
        original = records if isinstance(records, Trace) else Trace(records)
        return TransformResult(
            original=original,
            trace=Trace.from_columns(self._apply(original.columns())),
            report=self.report,
            allocations=dict(self.allocations),
        )

    def _apply(self, cols: TraceColumns) -> TraceColumns:
        """Rewrite one piece of the stream.  The report, the learned
        bases and the last records seen change only if the piece
        transforms without error (pool slots handed out for it are
        kept)."""
        new = _NewPaths()
        plans, inserts = self._plan_entries(cols, new)
        # Each record's row in the plan columns; the last row serves
        # records without a variable.
        n_entries = len(cols.paths)
        plan = np.where(cols.var_id < 0, n_entries, cols.var_id).astype(np.int64)
        errors: List[Tuple[int, int, str]] = []
        size_bad, base_bad, learned = self._validity(cols, plan, plans, errors)
        self._check_displacements(cols, plan, plans, errors)

        # Layout: each record's plan inserts come first, then the record.
        n_ins = plans["ins_n"][plan]
        width = n_ins + 1
        target = np.cumsum(width) - 1
        rec = np.flatnonzero(n_ins)
        k = n_ins[rec]
        ins_rec = np.repeat(rec, k)
        ins_j = np.arange(len(ins_rec)) - np.repeat(np.cumsum(k) - k, k)
        ins_slot = target[ins_rec] - n_ins[ins_rec] + ins_j
        ins_row = plans["ins_start"][plan[ins_rec]] + ins_j
        ins_base = inserts["base"][ins_row]
        last, sources = self._existing_sources(cols, plan, plans, ins_base, ins_rec, errors)
        if errors:
            raise TransformError(min(errors)[2])

        # The output: every input column repeated over its record's slots,
        # then the targets and inserts overwritten.
        out = {
            name: np.repeat(getattr(cols, name), width)
            for name in ("kind", "addr", "size", "scope", "frame", "thread", "func_id", "var_id")
        }
        outcome = plans["outcome"][plan]
        moved = np.flatnonzero(outcome >= _MAPPED)
        slot, mplan = target[moved], plan[moved]
        out["addr"][slot] = self._target_addresses(
            cols.addr[moved], outcome[moved] == _DISPLACED, plans["addr"][mplan]
        )
        new_path = plans["path"][mplan]
        renamed = new_path >= 0
        out["var_id"][slot[renamed]] = n_entries + new_path[renamed]
        suffix = plans["scope"][mplan]
        rescoped = suffix >= 0
        out["scope"][slot[rescoped]] = _RESCOPE[
            suffix[rescoped], cols.scope[moved[rescoped]]
        ]
        out["kind"][ins_slot] = inserts["op"][ins_row]
        fixed = ins_base < 0
        s, r = ins_slot[fixed], ins_row[fixed]
        out["addr"][s] = inserts["addr"][r]
        out["size"][s] = inserts["size"][r]
        out["scope"][s] = inserts["scope"][r]
        out["var_id"][s] = n_entries + inserts["path"][r]
        for b, (sel, src) in sources.items():
            inside = src >= 0
            s, j = ins_slot[sel[inside]], src[inside]
            for name in ("addr", "size", "scope", "frame", "thread", "var_id"):
                out[name][s] = getattr(cols, name)[j]
            s = ins_slot[sel[~inside]]
            if len(s):
                seen = self._last_seen[b]
                for name in ("addr", "size", "scope", "frame", "thread"):
                    out[name][s] = getattr(seen, name)
                row = np.array([seen.row], dtype=np.int64).reshape(1, -1)
                out["var_id"][s] = n_entries + new.add(seen.template, row)[0]

        result = TraceColumns(
            **out,
            functions=cols.functions,
            paths=cols.paths.concat(new.table()),
        )
        self._commit(cols, plan, plans, size_bad, base_bad, learned, last)
        return result

    def _validity(
        self,
        cols: TraceColumns,
        plan: np.ndarray,
        plans: Dict[str, np.ndarray],
        errors: List[Tuple[int, int, str]],
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
        """Step 2's checks: the element size, then the in structure's
        base address (learned from its first checked record).  Returns
        the size and base anomaly masks and the newly learned bases;
        under ``strict`` the first anomaly of each kind is an error."""
        addr = cols.addr
        check_off = plans["check_off"][plan]
        checked = check_off >= 0
        size_bad = checked & (cols.size != plans["check_size"][plan])
        base_bad = np.zeros(len(cols), dtype=bool)
        learned: Dict[str, int] = {}
        expected: Dict[int, int] = {}
        rule = plans["rule"][plan]
        if checked.any():
            known = np.zeros(len(self._rules), dtype=np.uint64)
            for r in np.flatnonzero(np.bincount(rule[checked])).tolist():
                name = self._rules[r].in_name
                value = self._in_bases.get(name)
                if value is None:
                    i = int(np.argmax(checked & (rule == r)))
                    value = learned[name] = int(addr[i]) - int(check_off[i])
                expected[r] = value
                known[r] = value % 2**64
            # Modulo 2**64 like the known values: equal bases stay equal.
            base_bad = checked & (addr - check_off.astype(np.uint64) != known[rule])
        if self.strict and size_bad.any():
            i = int(np.argmax(size_bad))
            errors.append(
                (
                    i,
                    0,
                    f"{cols.paths[cols.var_id[i]]}: access size {cols.size[i]} "
                    f"!= element size {plans['check_size'][plan[i]]}",
                )
            )
        if self.strict and base_bad.any():
            i = int(np.argmax(base_bad))
            r = int(rule[i])
            errors.append(
                (
                    i,
                    1,
                    f"{self._rules[r].in_name}: inconsistent base address "
                    f"{int(addr[i]) - int(check_off[i]):#x} (expected "
                    f"{expected[r]:#x}) at {cols.paths[cols.var_id[i]]}",
                )
            )
        return size_bad, base_bad, learned

    def _check_displacements(
        self,
        cols: TraceColumns,
        plan: np.ndarray,
        plans: Dict[str, np.ndarray],
        errors: List[Tuple[int, int, str]],
    ) -> None:
        """A displacement must keep every address inside [0, 2**64)."""
        addr = cols.addr
        outside = (plans["outcome"][plan] == _DISPLACED) & (
            (addr < plans["lo"][plan]) | (addr > plans["hi"][plan])
        )
        if outside.any():
            i = int(np.argmax(outside))
            delta = int(plans["addr"][plan[i]])
            delta -= 2**64 if delta > _ADDR_MAX // 2 else 0
            errors.append(
                (
                    i,
                    3,
                    f"{self._rules[int(plans['rule'][plan[i]])].name}: displacing "
                    f"{cols.paths[cols.var_id[i]]} at record {self.report.total + i} "
                    f"moves address {int(addr[i]):#x} to {int(addr[i]) + delta:#x}, "
                    "outside [0, 2**64)",
                )
            )

    def _existing_sources(
        self,
        cols: TraceColumns,
        plan: np.ndarray,
        plans: Dict[str, np.ndarray],
        ins_base: np.ndarray,
        ins_rec: np.ndarray,
        errors: List[Tuple[int, int, str]],
    ) -> Tuple[Dict[int, np.ndarray], Dict[int, Tuple[np.ndarray, np.ndarray]]]:
        """Where each ``existing`` inject reads from: the last record (at
        or before its own) of the variable, ``-1`` for the last one of an
        earlier piece.  Returns the running last-index per watched base
        this piece touches, and ``{base: (insert positions, sources)}``."""
        rec_base = plans["base"][plan]
        positions = np.arange(len(cols))
        last: Dict[int, np.ndarray] = {}
        for b in self._watched:
            hit = rec_base == b
            if hit.any():
                last[b] = np.maximum.accumulate(np.where(hit, positions, -1))
        sources: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for b in np.flatnonzero(np.bincount(ins_base[ins_base >= 0])).tolist():
            sel = np.flatnonzero(ins_base == b)
            src = last[b][ins_rec[sel]] if b in last else np.full(len(sel), -1)
            sources[b] = (sel, src)
            if b not in self._last_seen and (src < 0).any():
                name = next(n for n, v in self._base_ids.items() if v == b)
                errors.append(
                    (
                        int(ins_rec[sel[np.argmax(src < 0)]]),
                        2,
                        f"inject references {name!r} which has not "
                        "appeared in the trace",
                    )
                )
        return last, sources

    def _commit(
        self,
        cols: TraceColumns,
        plan: np.ndarray,
        plans: Dict[str, np.ndarray],
        size_bad: np.ndarray,
        base_bad: np.ndarray,
        learned: Dict[str, int],
        last: Dict[int, np.ndarray],
    ) -> None:
        """Book a transformed piece: counters, learned bases, and the last
        record of every watched variable it touched."""
        report = self.report
        counts = np.bincount(plan, minlength=len(cols.paths) + 1)
        used = np.flatnonzero(counts)
        c, o = counts[used], plans["outcome"][used]
        report.total += len(cols)
        report.passthrough += int(c[o <= _PASS].sum())
        report.ignored_out += int(c[o == _OUT].sum())
        report.uncovered += int(c[o == _UNCOVERED].sum())
        hit = o >= _MAPPED
        report.transformed += int(c[hit].sum())
        report.inserted += int((c * plans["ins_n"][used]).sum())
        for r, count in zip(plans["rule"][used][hit].tolist(), c[hit].tolist()):
            report.per_rule[self._rules[r].name] += count
        report.size_mismatches += int(size_bad.sum())
        report.base_inconsistencies += int(base_bad.sum())
        self._in_bases.update(learned)
        table = cols.paths
        for b, positions in last.items():
            i = int(positions[-1])
            entry = int(cols.var_id[i])
            t = int(table.template_id[entry])
            self._last_seen[b] = _Seen(
                int(cols.addr[i]),
                int(cols.size[i]),
                int(cols.scope[i]),
                int(cols.frame[i]),
                int(cols.thread[i]),
                table.templates[t],
                tuple(table.index[entry, : table.arity(t)].tolist()),
            )


def _to_ruleset(rules: Iterable[Rule]) -> RuleSet:
    ruleset = RuleSet()
    for rule in rules:
        ruleset.add(rule)
    return ruleset


def transform_trace(
    records: Iterable[TraceRecord],
    rules: Union[RuleSet, Iterable[Rule], str],
    *,
    arena_base: int = ARENA_BASE,
    strict: bool = False,
) -> TransformResult:
    """One-shot transformation.

    ``rules`` may be a :class:`RuleSet`, an iterable of rules, or rule
    file *text* (parsed with :func:`repro.transform.rule_parser.parse_rules`).
    """
    if isinstance(rules, str):
        from repro.transform.rule_parser import parse_rules

        rules = parse_rules(rules)
    engine = TransformEngine(rules, arena_base=arena_base, strict=strict)
    return engine.transform(records)
