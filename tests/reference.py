"""Reference implementations kept as oracles for the fast paths.

**The reference simulator, for the vectorized cache fast path.**  Every
fast-path entry point (``fast_trace_counts``, ``simulate_batch``,
``MultiConfigSimulator``) runs the one stack-position kernel, so checking
them against each other proves nothing about the kernel.
:func:`reference_counts` runs the per-record reference
:class:`~repro.cache.simulator.CacheSimulator` instead and shapes its
totals like a :class:`~repro.simbatch.kernel.FastTraceCounts`, so one
equality checks every field the fast path reports.

**The per-record emitter, for the column tracer.**
:class:`RecordInterpreter` symbolises every access as it happens and
builds one :class:`TraceRecord` per access, as the tracer did before it
emitted columns; :func:`reference_trace_program` runs it.

**The per-record transform engine, for the columnar one.**
:class:`RecordEngine` matches, translates and checks every record on its
own and builds its replacement records one by one, as the engine did
before it worked out one plan per distinct path and rewrote columns.
"""

import numpy as np

from repro.cache.simulator import simulate
from repro.ctypes_model.path import VariablePath
from repro.errors import TransformError
from repro.memory.symbols import Segment
from repro.simbatch.kernel import FastCounts, FastTraceCounts
from repro.trace.columns import OPS
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace
from repro.tracer.interp import Interpreter
from repro.transform.engine import TransformEngine, TransformResult


def reference_counts(config, addrs, sizes=None, var_ids=None):
    """Reference totals of a load stream; ``var_ids`` >= 0 label accesses
    (negative = unattributed, which the reference does not tally)."""
    n = len(addrs)
    sizes = np.ones(n, dtype=np.uint32) if sizes is None else sizes
    var_ids = np.full(n, -1) if var_ids is None else var_ids
    records = [
        TraceRecord(
            AccessType.LOAD,
            int(addr),
            int(size),
            "f",
            var=None if vid < 0 else VariablePath.parse(f"v{vid}"),
        )
        for addr, size, vid in zip(addrs, sizes, var_ids)
    ]
    stats = simulate(records, config).stats
    counts = FastCounts(
        stats.block_hits,
        stats.block_misses,
        stats.compulsory_misses,
        stats.per_set,
    )
    return FastTraceCounts(
        counts=counts,
        demand_hits=stats.hits,
        demand_misses=stats.misses,
        evictions=stats.evictions,
        per_variable={
            int(name[1:]): (c.hits, c.misses)
            for name, c in stats.by_variable.items()
        },
    )


def assert_matches_reference(got, want):
    """Field-by-field equality of fast-path totals against
    :func:`reference_counts` (unattributed fast-path ids are skipped)."""
    assert got.counts.hits == want.counts.hits
    assert got.counts.misses == want.counts.misses
    assert got.counts.compulsory_misses == want.counts.compulsory_misses
    assert np.array_equal(got.counts.per_set.hits, want.counts.per_set.hits)
    assert np.array_equal(
        got.counts.per_set.misses, want.counts.per_set.misses
    )
    assert got.demand_hits == want.demand_hits
    assert got.demand_misses == want.demand_misses
    assert got.evictions == want.evictions
    attributed = {
        vid: hm for vid, hm in got.per_variable.items() if vid >= 0
    }
    assert attributed == want.per_variable


# -- the per-record tracer --------------------------------------------------


class RecordInterpreter(Interpreter):
    """The per-record emitter the column tracer replaced, kept as its oracle.

    Every access is symbolised as it happens (bisect, ``path_at`` walk,
    a fresh :class:`VariablePath`, the scope code) and appended to the
    trace as a :class:`TraceRecord` — what ``Interpreter._emit`` did
    before emission became raw columns plus one post-run pass.
    """

    def _emit(self, kind, addr, size, *, symbolize=True):
        if not self.tracing:
            return
        op = AccessType(OPS[kind])
        func = self.space.stack.current.function
        if self.emit_instruction_fetches and op is not AccessType.MISC:
            # The instruction performing this access: a stable PC inside
            # the executing statement's code region.
            pc = self._current_stmt_pc + 4 * (
                self._access_index_in_stmt % (self._stmt_region // 4)
            )
            self._access_index_in_stmt += 1
            self.trace.append(
                TraceRecord(op=AccessType.MISC, addr=pc, size=4, func=func)
            )
        scope = frame = thread = var = None
        if symbolize:
            resolved = self.space.symbolize(addr)
            if resolved is not None:
                scope = resolved.scope_code
                var = resolved.path
                if resolved.symbol.segment is not Segment.GLOBAL:
                    frame = self.space.frame_distance_of(resolved.symbol)
                    thread = resolved.symbol.thread
        self.trace.append(
            TraceRecord(
                op=op,
                addr=addr,
                size=size,
                func=func,
                scope=scope,
                frame=frame,
                thread=thread,
                var=var,
            )
        )

    def _build_trace(self):
        return self.trace


def reference_trace_program(program, **options):
    """:func:`~repro.tracer.interp.trace_program` through the per-record
    emitter: a record-backed trace."""
    return RecordInterpreter(program, **options).run()


# -- the per-record transform engine ------------------------------------------


class RecordEngine(TransformEngine):
    """The per-record engine the columnar one replaced, kept as its oracle.

    Shares step 1 (the arena allocations) with :class:`TransformEngine`
    and redoes steps 2-3 for every record: match the path, translate it,
    check the element size and the learned in-structure base, and build
    the inserted and target records.
    """

    def __init__(self, rules, **options):
        super().__init__(rules, **options)
        self._in_bases = {}
        #: last record seen per variable base name (``existing`` injects)
        self._last_seen = {}

    def _transform(self, records):
        original = records if isinstance(records, Trace) else Trace(records)
        out = []
        for record in original:
            out.extend(self.transform_record(record))
        return TransformResult(
            original=original,
            trace=Trace(out),
            report=self.report,
            allocations=dict(self.allocations),
        )

    def transform_record(self, record):
        """Steps 2-3 for one record; returns the replacement list."""
        self.report.total += 1
        if record.var is not None:
            self._last_seen[record.var.base] = record
        if record.var is None:
            self.report.passthrough += 1
            return [record]
        base = record.var.base
        if base in self._out_names:
            self.report.ignored_out += 1
            return [record]
        rule = self._by_in.get(base)
        if rule is None:
            for candidate in self._pattern_rules:
                if candidate.matches(base):
                    rule = candidate
                    break
        if rule is None:
            self.report.passthrough += 1
            return [record]
        if rule.is_pattern:
            translation = rule.translate_named(base, record.var.elements)
        else:
            translation = rule.translate(record.var.elements)
        if translation is None:
            self.report.uncovered += 1
            return [record]
        self._check_consistency(rule, record)
        out = []
        for insert in translation.inserts:
            out.append(self._materialise_insert(record, insert))
            self.report.inserted += 1
        out.append(self._materialise_target(rule, record, translation))
        self.report.transformed += 1
        self.report.per_rule[rule.name] += 1
        return out

    def _check_consistency(self, rule, record):
        in_type = getattr(rule, "in_type", None)
        if in_type is None:
            return
        try:
            offset, leaf = in_type.resolve(record.var.elements)
        except Exception:
            return
        if record.size != leaf.size:
            self.report.size_mismatches += 1
            if self.strict:
                raise TransformError(
                    f"{record.var}: access size {record.size} != "
                    f"element size {leaf.size}"
                )
        base = record.addr - offset
        known = self._in_bases.setdefault(rule.in_name, base)
        if known != base:
            self.report.base_inconsistencies += 1
            if self.strict:
                raise TransformError(
                    f"{rule.in_name}: inconsistent base address "
                    f"{base:#x} (expected {known:#x}) at {record.var}"
                )

    def _materialise_target(self, rule, record, translation):
        if translation.address_delta is not None:
            addr = record.addr + translation.address_delta
            if not 0 <= addr < 2**64:
                raise TransformError(
                    f"{rule.name}: displacing {record.var} at record "
                    f"{self.report.total - 1} moves address {record.addr:#x} "
                    f"to {addr:#x}, outside [0, 2**64)"
                )
            var = record.var
            if translation.rename is not None:
                var = var.with_base(translation.rename)
            return record.evolve(addr=addr, var=var)
        mapped = translation.target
        prefix = record.scope[0] if record.scope else "L"
        return record.evolve(
            addr=self.allocations[mapped.alloc] + mapped.offset,
            var=VariablePath(mapped.alloc, mapped.elements),
            scope=prefix + ("S" if mapped.elements else "V"),
        )

    def _materialise_insert(self, record, insert):
        if insert.existing_var is not None:
            seen = self._last_seen.get(insert.existing_var)
            if seen is not None:
                return seen.evolve(op=insert.op, func=record.func)
            raise TransformError(
                f"inject references {insert.existing_var!r} which has not "
                "appeared in the trace"
            )
        mapped = insert.mapped
        scope = self._alloc_scope.get(mapped.alloc, "LV")[0]
        return record.evolve(
            op=insert.op,
            addr=self.allocations[mapped.alloc] + mapped.offset,
            size=insert.size,
            var=VariablePath(mapped.alloc, mapped.elements),
            scope=scope + ("S" if mapped.elements else "V"),
        )
