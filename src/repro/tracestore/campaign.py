"""Campaign integration: O(changed work) sweeps over edited rule files.

``file:`` rule references are the edit loop's unit of identity — the
*path* stays fixed while its text changes between sweeps.  Every
``file:`` point on a kernel-covered cache without ``verify`` takes this
route (:func:`repro.campaign.grid.plan_route`).  Each ``(trace, rule
file)`` pair gets a stable transform ref, so a re-sweep after an edit
finds the previous transform commit, reuses every chunk the edit
provably missed (:mod:`repro.tracestore.transform`), and resumes each
cache's simulation from the deepest matching residency snapshot
(:mod:`repro.tracestore.resim`).

The produced payload fields are *identical* to the transform-then-
simulate routes — same keys, same values — so artifacts, reports and
resume cannot tell the routes apart; the savings surface only as
wall-clock and telemetry counters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.cache.config import CacheConfig
from repro.campaign.artifacts import content_key
from repro.trace.stream import DEFAULT_CHUNK_RECORDS, Trace
from repro.tracestore.resim import simulate_chain
from repro.tracestore.store import TraceStore
from repro.tracestore.transform import apply_rules

#: The tracestore lives beside (not inside) the campaign artifact store,
#: so artifact-store maintenance (sweeps, key listings) never sees it.
def tracestore_root_for(store_root: Union[str, Path]) -> Path:
    """Where a campaign directory's trace commit store lives."""
    return Path(store_root).parent / "tracestore"


def _transform_ref(tkey: str, rule_reference: str) -> str:
    """Stable ref naming one (trace, rule-file path) edit lineage."""
    return f"xform/{tkey}/{content_key('tdst-ref-v1', rule_reference)[:16]}"


def incremental_job_fields(
    tracestore_root: Union[str, Path],
    trace: Trace,
    tkey: str,
    rule_reference: str,
    rule_text: str,
    configs: Sequence[CacheConfig],
    attribution: str,
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Tuple[List[Dict[str, Any]], int]:
    """Transform once, then simulate each config, through the commit store.

    Returns ``(simulation fields per config, transformed record count)``
    — the exact values the other routes would produce, computed with
    only the chunks the rule file's latest edit actually touched.
    """
    store = TraceStore(tracestore_root)

    base_ref = f"trace/{tkey}"
    base_cid = store.get_ref(base_ref)
    if base_cid is not None and store.has_commit(base_cid):
        base = store.read_commit(base_cid)
    else:
        base = store.commit_trace(
            trace, chunk_records=chunk_records, message=f"trace {tkey[:12]}"
        )
        store.set_ref(base_ref, base.id)

    xref = _transform_ref(tkey, rule_reference)
    prev = None
    prev_cid = store.get_ref(xref)
    if prev_cid is not None and store.has_commit(prev_cid):
        prev = store.read_commit(prev_cid)

    applied = apply_rules(
        store,
        base,
        rule_text,
        prev=prev,
        message=f"apply {rule_reference}",
    )
    if applied.commit.id != prev_cid:
        store.set_ref(xref, applied.commit.id)

    fields = [
        simulate_chain(
            store, applied.commit, config, attribution=attribution
        ).fields()
        for config in configs
    ]
    return fields, applied.commit.records
