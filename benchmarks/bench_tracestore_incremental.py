"""Infrastructure bench: incremental re-simulation vs the classic route.

The tracestore claim (ISSUE: repeated sweeps over edited rule files cost
O(changed work)) is measured on the paper's edit loop: a trace dominated
by one structure (``lA``, the untouched bulk) with a second structure
(``lB``) confined to the trailing chunks, a two-rule file, and an edit
that renames only ``lB``'s output.  The static delta proves the edit
misses every ``lA``-only chunk, so the incremental route re-transforms
and re-simulates just the tail while the classic route redoes the whole
transform plus one full simulation per config in the sweep.

``test_single_rule_edit_speedup`` asserts the wall-clock win is at least
``INCREMENTAL_SPEEDUP_FLOOR`` (3x) with bit-identical payload fields,
and merges its numbers into ``BENCH_tracestore.json`` at the repo root
(checked in as the evidence artifact; CI re-measures in ``--quick`` mode
and uploads its copy).
"""

import json
import time
from pathlib import Path

import pytest

from repro.campaign.jobs import simulation_fields
from repro.cache.config import CacheConfig
from repro.ctypes_model.path import Field, Index, VariablePath
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace
from repro.tracestore import TraceStore, apply_rules, simulate_chain
from repro.transform.engine import transform_trace

#: The incremental edit re-sweep must beat the classic route by this
#: factor (ISSUE acceptance criterion).
INCREMENTAL_SPEEDUP_FLOOR = 3.0

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_tracestore.json"

#: Target chunk count: the edit provably touches only the trailing
#: chunk(s), so more chunks means a smaller re-transformed fraction.
#: Chunk size scales with the stream so quick mode keeps the same shape.
TARGET_CHUNKS = 13


def soa_rule(name, out, n):
    return (
        f"in:\nstruct {name} {{\n    int mX[{n}];\n    double mY[{n}];\n}};\n"
        f"out:\nstruct {out} {{\n    int mX;\n    double mY;\n}}[{n}];\n"
    )


def edit_loop_trace(quick):
    """``lA`` bulk (96% of records) followed by a short ``lB`` tail."""
    n = 256
    reps = 60 if quick else 100
    tail_reps = 1

    def rec(base, field, i, addr, size):
        return TraceRecord(
            op=AccessType.LOAD, addr=addr, size=size, func="main",
            scope="GS", var=VariablePath(base, (Field(field), Index(i))),
        )

    records = []
    for rep in range(reps):
        for i in range(n):
            records.append(rec("lA", "mX", i, 0x10000 + 4 * i, 4))
            records.append(rec("lA", "mY", i, 0x20000 + 8 * i, 8))
    for rep in range(tail_reps):
        for i in range(n):
            records.append(rec("lB", "mX", i, 0x50000 + 4 * i, 4))
            records.append(rec("lB", "mY", i, 0x60000 + 8 * i, 8))
    return Trace(records)


def chunk_records_for(trace):
    return max(256, -(-len(trace) // TARGET_CHUNKS))


def sweep():
    """Paper-style config sweep: three fast-path geometries."""
    return [
        CacheConfig(size=8 * 1024, block_size=32, associativity=1),
        CacheConfig(size=16 * 1024, block_size=32, associativity=2),
        CacheConfig(size=32 * 1024, block_size=32, associativity=4),
    ]


def classic_resweep(trace, rule_text, configs):
    """The classic route's cost for one edited-rule re-sweep: one full
    transform plus one batched kernel pass over every config."""
    t0 = time.perf_counter()
    transformed = transform_trace(trace, rule_text).trace
    fields = simulation_fields(transformed, configs, "base")
    return time.perf_counter() - t0, fields


def incremental_resweep(store, base, prev, rule_text, configs):
    """The tracestore route: delta-gated re-transform + snapshot-resumed
    re-simulation per config."""
    t0 = time.perf_counter()
    applied = apply_rules(store, base, rule_text, prev=prev)
    results = [
        simulate_chain(store, applied.commit, c).fields() for c in configs
    ]
    return time.perf_counter() - t0, applied, results


def _merge_bench_json(section, doc):
    merged = {}
    if BENCH_JSON.exists():
        try:
            merged = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            merged = {}
    merged[section] = doc
    merged["floors"] = {
        "single_rule_edit_speedup": INCREMENTAL_SPEEDUP_FLOOR,
    }
    BENCH_JSON.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.mark.tracestore
@pytest.mark.bench
def test_single_rule_edit_speedup(tmp_path, quick):
    trace = edit_loop_trace(quick)
    n = 256
    rules_v1 = soa_rule("lA", "lAoS", n) + soa_rule("lB", "lBoS", n)
    rules_v2 = soa_rule("lA", "lAoS", n) + soa_rule("lB", "lBv2", n)
    configs = sweep()

    # Prime the store with the pre-edit sweep (the state a real edit
    # loop starts from); untimed.
    store = TraceStore(tmp_path / "ts")
    base = store.commit_trace(trace, chunk_records=chunk_records_for(trace))
    prev = apply_rules(store, base, rules_v1).commit
    for config in configs:
        simulate_chain(store, prev, config)

    # Best-of-2 on both sides to shed scheduler noise: the classic route
    # just re-runs; the incremental route uses two independent edits of
    # the same rule (each cold with respect to post-edit snapshots).
    classic_s, classic_fields = min(
        (classic_resweep(trace, rules_v2, configs) for _ in range(2)),
        key=lambda r: r[0],
    )
    rules_v2b = soa_rule("lA", "lAoS", n) + soa_rule("lB", "lBv2b", n)
    incr_s, applied, incr_fields = min(
        (
            incremental_resweep(store, base, prev, rules_v2, configs),
            incremental_resweep(store, base, prev, rules_v2b, configs),
        ),
        key=lambda r: r[0],
    )

    v2_fields = incremental_resweep(store, base, prev, rules_v2, configs)[2]
    assert v2_fields == classic_fields, "payloads must be bit-identical"
    assert applied.chunks_reused > 0, "edit must provably miss some chunks"

    speedup = classic_s / incr_s
    doc = {
        "records": len(trace),
        "chunks": applied.chunks_total,
        "chunks_reused": applied.chunks_reused,
        "chunks_retransformed": applied.chunks_transformed,
        "configs_in_sweep": len(configs),
        "quick": bool(quick),
        "seconds": {
            "classic_resweep": round(classic_s, 4),
            "incremental_resweep": round(incr_s, 4),
        },
        "speedup_single_rule_edit": round(speedup, 2),
    }
    _merge_bench_json("single_rule_edit", doc)
    print(
        f"\nsingle-rule edit re-sweep ({len(trace)} records, "
        f"{applied.chunks_total} chunks, {len(configs)} configs): "
        f"classic {classic_s:.3f}s vs incremental {incr_s:.3f}s "
        f"({speedup:.1f}x, {applied.chunks_reused} chunks reused)"
    )
    assert speedup >= INCREMENTAL_SPEEDUP_FLOOR, (
        f"incremental re-sweep only {speedup:.2f}x faster than classic "
        f"(floor {INCREMENTAL_SPEEDUP_FLOOR}x): {doc}"
    )


@pytest.mark.tracestore
@pytest.mark.bench
def test_unchanged_resweep_is_pure_reuse(tmp_path, quick):
    """Re-sweeping without any edit costs only snapshot restores."""
    trace = edit_loop_trace(True)  # small stream either way
    n = 256
    rules = soa_rule("lA", "lAoS", n) + soa_rule("lB", "lBoS", n)
    configs = sweep()
    store = TraceStore(tmp_path / "ts")
    base = store.commit_trace(trace, chunk_records=chunk_records_for(trace))
    prev = apply_rules(store, base, rules).commit
    for config in configs:
        simulate_chain(store, prev, config)

    incr_s, applied, results = incremental_resweep(
        store, base, prev, rules, configs
    )
    assert applied.commit.id == prev.id
    assert applied.chunks_transformed == 0
    # Every chunk of every config restored from its snapshot.
    skipped = [
        simulate_chain(store, applied.commit, c).chunks_skipped
        for c in configs
    ]
    assert all(s == applied.chunks_total for s in skipped)
    _merge_bench_json(
        "unchanged_resweep",
        {
            "records": len(trace),
            "chunks": applied.chunks_total,
            "configs_in_sweep": len(configs),
            "seconds": {"incremental_resweep": round(incr_s, 4)},
        },
    )
