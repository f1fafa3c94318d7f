"""Campaign jobs: the per-job pipeline workers run.

:mod:`repro.campaign.grid` expands a :class:`CampaignSpec` into
picklable tasks and names every stage's artifact by content key; this
module holds the stage bodies — trace, transform, simulate — that the
scheduler runs inline or on its process pool.  It is the campaign's
pipeline half: it loads numpy, the tracer, the transform engine and both
simulators, so the scheduler imports it only once some grid point is
missing from the artifact store.

All stage outputs are content-addressed through the
:class:`~repro.campaign.artifacts.ArtifactStore` (SHA-256 of kernel
identity + rule text + config tuple), so every body is idempotent and
safe to retry; workers only ever exchange plain dicts with the parent
process.  Besides ``cache_hits``, each grid point's returned payload
names its ``route`` (``store``, ``fast``, ``batch``, ``tracestore`` or
``reference``, with a ``route_reason`` for the last); neither is part of
the stored artifact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

# Modules the stage bodies import on first use (the artifact store's
# trace codec, the batched kernel's runner, the rule parser's section
# parsers), loaded with this module so that pool workers inherit them
# from the parent.
import repro.simbatch.runner  # noqa: F401
import repro.trace.binformat  # noqa: F401
import repro.transform.displace  # noqa: F401
import repro.transform.dynamic  # noqa: F401
from repro.campaign.artifacts import ArtifactStore
# The planning half, re-exported: this module's API predates the split.
from repro.campaign.grid import (
    NO_BATCH_ENV,
    NO_FAST_ENV,
    NO_TRACESTORE_ENV,
    SIMULATE_STAGE,
    TRACE_STAGE,
    TRANSFORM_STAGE,
    BatchJob,
    Job,
    TraceTask,
    expand_jobs,
    group_batch_jobs,
    point_input_key,
    resolve_rule_text,
    returned_payload,
    simulation_key,
    trace_key,
    transform_key,
)
from repro.cache.config import CacheConfig
from repro.cache.fastsim import fast_trace_counts
from repro.cache.simulator import simulate
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.plan import fast_path_declined, supports_fast_path
from repro.trace.columns import MISC_KIND, attribution_ids
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.transform.engine import TransformEngine
from repro.transform.rule_parser import parse_rules
from repro.workloads.paper_kernels import paper_kernel


# -- simulation stage ---------------------------------------------------------


def tracestore_eligible(job: Job, rule_text: Optional[str]) -> bool:
    """Whether one grid point may run through the trace commit store.

    The incremental route targets the *edit loop*: ``file:`` rule
    references whose path is stable while the text changes between
    sweeps.  Verification jobs replay the whole transform through the
    soundness oracle anyway, and non-fast-path cache geometries have no
    residency snapshot format — both keep the classic route, as do jobs
    of a campaign that opted out (:attr:`Job.tracestore` or
    :attr:`Job.fast` false).
    """
    return (
        rule_text is not None
        and job.rule.startswith("file:")
        and not job.verify
        and job.tracestore
        and job.fast
        and supports_fast_path(job.cache.to_config())
    )


def simulation_fields(
    trace: Trace,
    config: CacheConfig,
    attribution: str,
    *,
    use_fast: bool = True,
) -> Dict[str, Any]:
    """The simulation-statistics fields of one job payload.

    Grid points whose cache config the vectorized fast path covers
    (direct-mapped or set-associative LRU, write-allocate — see
    :func:`repro.simbatch.plan.supports_fast_path`) go through numpy;
    everything else (round-robin, PLRU, ...) uses the reference
    simulator.  Both routes produce identical values — the fast path is
    cross-validated exactly in ``tests/cache/test_fastsim.py`` and
    ``tests/campaign/test_jobs.py`` — so artifact keys do not encode the
    route.  ``use_fast=False`` forces the reference simulator.
    """
    if use_fast and supports_fast_path(config):
        cols = trace.columns()
        data = np.flatnonzero(cols.kind != MISC_KIND)
        names, var_ids = attribution_ids(cols.var_id[data], cols.paths, attribution)
        name_ids = {name: vid for vid, name in enumerate(names)}
        result = fast_trace_counts(
            cols.addr[data], config, cols.size[data].astype(np.uint32), var_ids
        )
        return {
            "config": config.describe(),
            "accesses": len(data),
            "hits": result.demand_hits,
            "misses": result.demand_misses,
            "miss_ratio": round(result.demand_miss_ratio, 6),
            "evictions": result.evictions,
            "compulsory_misses": result.counts.compulsory_misses,
            "by_variable_misses": {
                name: result.per_variable[vid][1]
                for name, vid in sorted(name_ids.items())
            },
        }
    stats = simulate(trace, config, attribution=attribution).stats
    return {
        "config": config.describe(),
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "miss_ratio": round(stats.miss_ratio, 6),
        "evictions": stats.evictions,
        "compulsory_misses": stats.compulsory_misses,
        "by_variable_misses": {
            name: counts.misses
            for name, counts in sorted(stats.by_variable.items())
        },
    }


def simulation_route(config: CacheConfig, use_fast: bool) -> Dict[str, str]:
    """Provenance of :func:`simulation_fields`' answer: ``route`` is
    ``fast`` or ``reference``, and a reference answer says in
    ``route_reason`` why the kernel was declined."""
    if not use_fast:
        return {"route": "reference", "route_reason": "fast path off (--no-fast)"}
    reason = fast_path_declined(config)
    if reason is not None:
        return {"route": "reference", "route_reason": reason}
    return {"route": "fast"}


# -- worker entry points ------------------------------------------------------


def _verify_transform(original, transformed, rule_text: str, allocations) -> None:
    """Opt-in post-job check: replay the transform through the soundness
    oracle; an unsound output raises so the scheduler's retry/degrade
    policy records the point as failed instead of charting bad numbers.

    Fully cached *simulation* payloads skip this entirely (the check runs
    where the transform artifact is produced or first reused) — rerun
    with a fresh campaign directory to re-verify old artifacts.
    """
    from repro.errors import TransformError
    from repro.verify.soundness import check_transform

    report = check_transform(
        original, transformed, parse_rules(rule_text), allocations=allocations
    )
    if not report.ok:
        head = "; ".join(str(v) for v in report.violations[:3])
        raise TransformError(
            f"transformed trace failed soundness verification "
            f"({report.total_violations} violation(s)): {head}"
        )


def _generate_trace(store: ArtifactStore, kernel: str, length: int) -> Trace:
    """Trace one program and store it as the trace artifact."""
    trace = trace_program(paper_kernel(kernel, length=length))
    store.put_trace(trace_key(kernel, length), trace)
    return trace


def _materialise_trace(
    store: ArtifactStore, kernel: str, length: int
) -> Tuple[Trace, bool]:
    """Fetch or generate one program's trace; returns (trace, cache_hit)."""
    cached = store.get_trace(trace_key(kernel, length))
    if cached is not None:
        return cached, True
    return _generate_trace(store, kernel, length), False


def execute_trace_task(
    task: TraceTask, store_root: Union[str, Path]
) -> Dict[str, Any]:
    """Worker body for the shared trace stage.

    On an artifact hit only the record count is needed, so it comes from
    the stored trace's header; the trace is decoded by the jobs that
    read its records.
    """
    store = ArtifactStore(store_root, sweep=False)
    started = time.monotonic()
    tele = get_telemetry()
    with tele.span("campaign.trace-task", cat="campaign", job=task.job_id):
        records = store.trace_records(trace_key(task.kernel, task.length))
        hit = records is not None
        if records is None:
            records = len(_generate_trace(store, task.kernel, task.length))
    _count_artifact_hits(tele, {"trace": hit})
    return {
        "kind": "trace",
        "trace_key": trace_key(task.kernel, task.length),
        "records": records,
        "cache_hits": {"trace": hit},
        "compute_seconds": round(time.monotonic() - started, 6),
    }


def _count_artifact_hits(tele, hits: Dict[str, bool]) -> None:
    """Book per-stage artifact-cache outcomes into the registry."""
    served = sum(1 for hit in hits.values() if hit)
    tele.add("campaign.artifact_hits", served)
    tele.add("campaign.artifact_misses", len(hits) - served)


def execute_job(job: Job, store_root: Union[str, Path]) -> Dict[str, Any]:
    """Worker body for one grid point.

    Consults the artifact store stage by stage; a fully cached point
    returns without touching the tracer, engine or simulator at all
    (the scheduler answers such points itself and never sends them).
    Raises on unrecoverable input problems (bad rule file, invalid
    config) — the scheduler turns that into retry-then-degrade.
    """
    tele = get_telemetry()
    with tele.span("campaign.job", cat="campaign", job=job.job_id):
        payload, hits = _execute_job(job, store_root)
    _count_artifact_hits(tele, hits)
    return payload


def _execute_job(
    job: Job, store_root: Union[str, Path]
) -> Tuple[Dict[str, Any], Dict[str, bool]]:
    """:func:`execute_job` body; returns (payload, per-stage cache hits)."""
    tele = get_telemetry()
    store = ArtifactStore(store_root, sweep=False)
    started = time.monotonic()
    tkey = trace_key(job.kernel, job.length)
    rule_text, input_key = point_input_key(job)
    skey = simulation_key(input_key, job)

    hits: Dict[str, bool] = {}
    with tele.span("campaign.stage.lookup", cat="campaign"):
        cached = store.get_json(skey)
    if cached is not None:
        hits["simulation"] = True
        return returned_payload(cached, hits, {"route": "store"}, started), hits
    hits["simulation"] = False

    with tele.span("campaign.stage.trace", cat="campaign"):
        trace, trace_hit = _materialise_trace(store, job.kernel, job.length)
    hits["trace"] = trace_hit

    if tracestore_eligible(job, rule_text):
        # Incremental route: transform + simulate through the trace
        # commit store, reusing chunks/snapshots earlier sweeps left
        # behind.  The stored payload is field-identical to the classic
        # route below, so artifacts cannot tell the routes apart.
        from repro.tracestore.campaign import (
            incremental_job_fields,
            tracestore_root_for,
        )

        with tele.span("campaign.stage.tracestore", cat="campaign"):
            fields, out_records = incremental_job_fields(
                tracestore_root_for(store_root),
                trace,
                tkey,
                job.rule,
                rule_text,
                job.cache.to_config(),
                job.attribution,
            )
            payload = {
                "kind": "simulation",
                "simulation_key": skey,
                "records": out_records,
                "transformed_records": out_records,
                "verified": False,
            }
            payload.update(fields)
            store.put_json(skey, payload)
        return returned_payload(payload, hits, {"route": "tracestore"}, started), hits

    transformed_records = None
    verified = False
    if rule_text is not None:
        with tele.span("campaign.stage.transform", cat="campaign"):
            cached_trace = store.get_trace(input_key)
            hits["transform"] = cached_trace is not None
            if cached_trace is None:
                engine = TransformEngine(parse_rules(rule_text))
                result = engine.transform(trace)
                cached_trace = result.trace
                if job.verify:
                    _verify_transform(
                        trace, cached_trace, rule_text, result.allocations
                    )
                    verified = True
                store.put_trace(input_key, cached_trace)
            elif job.verify:
                # Cached transform: the engine's allocation map is gone,
                # but the oracle reconstructs it from the rules on its own.
                _verify_transform(trace, cached_trace, rule_text, None)
                verified = True
            trace = cached_trace
            transformed_records = len(trace)

    payload: Dict[str, Any] = {
        "kind": "simulation",
        "simulation_key": skey,
        "records": len(trace),
        "transformed_records": transformed_records,
        "verified": verified,
    }
    config = job.cache.to_config()
    with tele.span("campaign.stage.simulate", cat="campaign"):
        payload.update(
            simulation_fields(trace, config, job.attribution, use_fast=job.fast)
        )
        store.put_json(skey, payload)
    route = simulation_route(config, job.fast)
    return returned_payload(payload, hits, route, started), hits


# -- batched jobs -------------------------------------------------------------


def execute_batch_job(
    batch: BatchJob, store_root: Union[str, Path]
) -> Dict[str, Any]:
    """Worker body for one batched grid-point group.

    Per-member cache lookups run first — fully cached members cost one
    JSON read each, exactly like :func:`execute_job` — then the shared
    trace/transform stages materialise once and a single batched kernel
    pass produces every remaining member's payload.  Each payload is
    stored under the member's own simulation key, field-identical to
    what the per-config route stores (cross-validated in the simbatch
    test suite).
    """
    tele = get_telemetry()
    store = ArtifactStore(store_root, sweep=False)
    started = time.monotonic()
    head = batch.members[0]
    with tele.span(
        "campaign.batch-job",
        cat="campaign",
        job=batch.job_id,
        configs=len(batch.members),
    ):
        rule_text, input_key = point_input_key(head)

        member_payloads: Dict[str, Dict[str, Any]] = {}
        pending: List[Job] = []
        hits: Dict[str, bool] = {}
        for job in batch.members:
            skey = simulation_key(input_key, job)
            cached = store.get_json(skey)
            if cached is not None:
                member_payloads[job.job_id] = returned_payload(
                    cached, {"simulation": True}, {"route": "store"}, started
                )
            else:
                pending.append(job)
        hits["simulation"] = not pending

        if pending:
            with tele.span("campaign.stage.trace", cat="campaign"):
                trace, trace_hit = _materialise_trace(
                    store, head.kernel, head.length
                )
            hits["trace"] = trace_hit
            transformed_records = None
            verified = False
            if rule_text is not None:
                with tele.span("campaign.stage.transform", cat="campaign"):
                    cached_trace = store.get_trace(input_key)
                    hits["transform"] = cached_trace is not None
                    if cached_trace is None:
                        engine = TransformEngine(parse_rules(rule_text))
                        result = engine.transform(trace)
                        cached_trace = result.trace
                        if head.verify:
                            _verify_transform(
                                trace,
                                cached_trace,
                                rule_text,
                                result.allocations,
                            )
                            verified = True
                        store.put_trace(input_key, cached_trace)
                    elif head.verify:
                        _verify_transform(trace, cached_trace, rule_text, None)
                        verified = True
                    trace = cached_trace
                    transformed_records = len(trace)

            from repro.simbatch.runner import batch_simulation_fields

            with tele.span("campaign.stage.simulate-batch", cat="campaign"):
                fields = batch_simulation_fields(
                    trace,
                    [job.cache.to_config() for job in pending],
                    head.attribution,
                    chunk_records=batch.chunk,
                )
                for job, sim_fields in zip(pending, fields):
                    skey = simulation_key(input_key, job)
                    payload: Dict[str, Any] = {
                        "kind": "simulation",
                        "simulation_key": skey,
                        "records": len(trace),
                        "transformed_records": transformed_records,
                        "verified": verified,
                    }
                    payload.update(sim_fields)
                    store.put_json(skey, payload)
                    member_payloads[job.job_id] = returned_payload(
                        payload, dict(hits), {"route": "batch"}, started
                    )
    _count_artifact_hits(tele, hits)
    elapsed = round(time.monotonic() - started, 6)
    for payload in member_payloads.values():
        payload["compute_seconds"] = elapsed
    return {
        "kind": "batch",
        "job_id": batch.job_id,
        "configs": len(batch.members),
        "members": {
            job.job_id: member_payloads[job.job_id] for job in batch.members
        },
        "compute_seconds": elapsed,
    }


def execute_task(
    task: Union[TraceTask, Job, BatchJob], store_root: Union[str, Path]
) -> Dict[str, Any]:
    """Dispatch any task kind: the one job body the scheduler runs,
    inline or on its process pool."""
    if isinstance(task, TraceTask):
        return execute_trace_task(task, store_root)
    if isinstance(task, BatchJob):
        return execute_batch_job(task, store_root)
    return execute_job(task, store_root)
