"""Reference implementations kept as oracles for the fast paths.

**The reference simulator, for the vectorized cache fast path.**  Every
fast-path entry point (``fast_trace_counts``, ``FastSimulator``,
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
"""

import numpy as np

from repro.cache.simulator import simulate
from repro.ctypes_model.path import VariablePath
from repro.memory.symbols import Segment
from repro.simbatch.kernel import FastCounts, FastTraceCounts
from repro.trace.columns import OPS
from repro.trace.record import AccessType, TraceRecord
from repro.tracer.interp import Interpreter


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
