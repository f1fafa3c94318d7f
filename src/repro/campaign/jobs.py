"""Campaign jobs: grid expansion and the per-job pipeline workers run.

A :class:`CampaignSpec` expands into two picklable task kinds:

- :class:`TraceTask` — generate (or reuse) the trace of one
  ``(kernel, length)`` pair.  Trace generation is the expensive shared
  stage: every rule x cache x attribution point of the same program
  reuses one trace artifact, so the scheduler runs these first and
  exactly once per distinct program.
- :class:`Job` — one grid point: take the shared trace, optionally
  transform it under a rule, simulate against one cache geometry at one
  attribution granularity, and store the result JSON.

All stage outputs are content-addressed through the
:class:`~repro.campaign.artifacts.ArtifactStore` (SHA-256 of kernel
identity + rule text + config tuple), so both functions are idempotent
and safe to retry; workers only ever exchange plain dicts with the
parent process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.campaign.artifacts import ArtifactStore, content_key
from repro.campaign.spec import BASELINE_NAMES, CacheSpec, CampaignSpec
from repro.cache.config import CacheConfig
from repro.cache.fastsim import fast_trace_counts
from repro.cache.simulator import simulate
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.plan import supports_fast_path
from repro.trace.columns import MISC_KIND, attribution_ids
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.transform.engine import TransformEngine
from repro.transform.paper_rules import (
    RULE_T1_SOA_TO_AOS,
    RULE_T2_OUTLINE,
    RULE_T3_STRIDE,
)
from repro.transform.rule_parser import parse_rules
from repro.workloads.paper_kernels import paper_kernel

#: Stage-schema versions folded into every content key: bump one to
#: invalidate that stage's cached artifacts after a semantic change.
TRACE_STAGE = "trace-v1"
TRANSFORM_STAGE = "transform-v1"
SIMULATE_STAGE = "simulate-v1"


@dataclass(frozen=True)
class TraceTask:
    """Shared-stage task: materialise one program's trace artifact."""

    kernel: str
    length: int

    @property
    def job_id(self) -> str:
        """Stable id used in the manifest."""
        return f"trace/{self.kernel}-L{self.length}"


@dataclass(frozen=True)
class Job:
    """One grid point of a campaign."""

    kernel: str
    length: int
    rule: str
    cache: CacheSpec
    attribution: str = "base"
    #: run the soundness oracle over the transform stage's output
    verify: bool = False
    #: let eligible ``file:`` rule points use the trace commit store
    tracestore: bool = True
    #: let fast-path-eligible geometries skip the reference simulator
    fast: bool = True

    @property
    def job_id(self) -> str:
        """Stable id used in the manifest and reports."""
        return (
            f"{self.kernel}-L{self.length}/{self.rule}"
            f"/{self.cache.label()}/{self.attribution}"
        )

    @property
    def is_baseline(self) -> bool:
        """True when this point simulates the untransformed trace."""
        return self.rule.lower() in BASELINE_NAMES


def expand_jobs(spec: CampaignSpec) -> Tuple[List[TraceTask], List[Job]]:
    """Expand a spec into deduplicated trace tasks plus all grid points.

    Both lists are deduplicated: overlapping grid entries (the same
    kernel appearing in several entries with intersecting rule sets)
    collapse to one job per distinct ``job_id``, so every manifest row
    names distinct work.
    """
    traces: Dict[Tuple[str, int], TraceTask] = {}
    jobs: Dict[str, Job] = {}
    for entry in spec.grid:
        key = (entry.kernel.lower(), entry.length)
        if key not in traces:
            traces[key] = TraceTask(kernel=key[0], length=entry.length)
        for rule in entry.rules:
            for cache in spec.caches_for(entry):
                for attribution in spec.attribution:
                    job = Job(
                        kernel=key[0],
                        length=entry.length,
                        rule=rule,
                        cache=cache,
                        attribution=attribution,
                        verify=spec.verify,
                    )
                    jobs.setdefault(job.job_id, job)
    return list(traces.values()), list(jobs.values())


# -- stage keys ---------------------------------------------------------------


def trace_key(kernel: str, length: int) -> str:
    """Content key of one program's trace artifact."""
    return content_key(TRACE_STAGE, kernel.lower(), length)


def resolve_rule_text(rule: str, length: int) -> Optional[str]:
    """The rule-file source text a rule reference denotes.

    ``None`` for baseline points; paper rules are instantiated at the
    job's array length (exactly what :func:`repro.api.paper_rule`
    parses); ``file:`` references read the file — a missing or
    unreadable file raises here, inside the worker, where the
    scheduler's retry/degradation policy owns the failure.
    """
    lowered = rule.lower()
    if lowered in BASELINE_NAMES:
        return None
    if lowered == "t1":
        return RULE_T1_SOA_TO_AOS.format(length=length)
    if lowered == "t2":
        return RULE_T2_OUTLINE.format(length=length)
    if lowered == "t3":
        sets, cacheline = 16, 32
        ipl = cacheline // 4
        return RULE_T3_STRIDE.format(
            length=length, out_length=length * sets, ipl=ipl, sets=sets
        )
    if rule.startswith("file:"):
        return Path(rule[len("file:"):]).read_text(encoding="utf-8")
    raise ValueError(f"unresolvable rule reference {rule!r}")


def transform_key(base_trace_key: str, rule_text: str) -> str:
    """Content key of a transformed-trace artifact."""
    return content_key(TRANSFORM_STAGE, base_trace_key, rule_text)


def simulation_key(input_trace_key: str, job: Job) -> str:
    """Content key of one simulation-result artifact."""
    return content_key(
        SIMULATE_STAGE, input_trace_key, job.cache.label(), job.attribution
    )


# -- simulation stage ---------------------------------------------------------

#: Environment escape hatch: set to any non-empty value to force every
#: grid point through the reference simulator (e.g. when cross-checking
#: the fast path itself).  Only :class:`~repro.campaign.scheduler.Scheduler`
#: reads it, and carries the outcome on each :attr:`Job.fast`.
NO_FAST_ENV = "TDST_NO_FAST"

#: Environment escape hatch: disable batched multi-config jobs even when
#: the spec enables them (same spirit as :data:`NO_FAST_ENV`).
NO_BATCH_ENV = "TDST_NO_BATCH"

#: Environment escape hatch: route every grid point through the classic
#: transform-then-simulate stages instead of the incremental trace
#: commit store.  Only :class:`~repro.campaign.scheduler.Scheduler`
#: reads it, and carries the outcome on each :attr:`Job.tracestore`.
NO_TRACESTORE_ENV = "TDST_NO_TRACESTORE"

#: Environment escape hatch: keep the one-shot process pool even when a
#: spec's ``[service]`` table enables the campaign service.  Only the
#: :class:`~repro.campaign.scheduler.Scheduler` reads it.
NO_SERVICE_ENV = "TDST_NO_SERVICE"


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
    store = ArtifactStore(store_root)
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
    returns without touching the tracer, engine or simulator at all.
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
    store = ArtifactStore(store_root)
    started = time.monotonic()
    tkey = trace_key(job.kernel, job.length)
    rule_text = resolve_rule_text(job.rule, job.length)
    if rule_text is None:
        input_key = tkey
    else:
        input_key = transform_key(tkey, rule_text)
    skey = simulation_key(input_key, job)

    hits: Dict[str, bool] = {}
    with tele.span("campaign.stage.lookup", cat="campaign"):
        cached = store.get_json(skey)
    if cached is not None:
        hits["simulation"] = True
        cached = dict(cached)
        cached["cache_hits"] = hits
        cached["compute_seconds"] = round(time.monotonic() - started, 6)
        return cached, hits
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
        payload = dict(payload)
        payload["cache_hits"] = hits
        payload["compute_seconds"] = round(time.monotonic() - started, 6)
        return payload, hits

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
    with tele.span("campaign.stage.simulate", cat="campaign"):
        payload.update(
            simulation_fields(
                trace, job.cache.to_config(), job.attribution, use_fast=job.fast
            )
        )
        store.put_json(skey, payload)
    payload = dict(payload)
    payload["cache_hits"] = hits
    payload["compute_seconds"] = round(time.monotonic() - started, 6)
    return payload, hits


# -- batched jobs -------------------------------------------------------------


@dataclass(frozen=True)
class BatchJob:
    """Several grid points sharing one input trace, run as one pass.

    Members agree on everything but the cache geometry (same kernel,
    length, rule, attribution, verify flag), so the trace/transform
    stages and the per-record decode run once and the batched kernel
    answers every geometry together.  Each member still stores its own
    simulation artifact under its own key and appears in the manifest
    as its own ``job_done`` row — resume, reports and the artifact
    store cannot tell the routes apart.
    """

    members: Tuple[Job, ...]
    #: records per chunk streamed through the batched kernel
    chunk: int = 65536

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a BatchJob needs >= 2 member jobs")
        head = self.members[0]
        for job in self.members:
            if not job.fast:
                raise ValueError(
                    f"batch member {job.job_id!r} is forced onto the "
                    "reference simulator; it cannot run batched"
                )
            if (job.kernel, job.length, job.rule, job.attribution, job.verify) != (
                head.kernel,
                head.length,
                head.rule,
                head.attribution,
                head.verify,
            ):
                raise ValueError(
                    f"batch member {job.job_id!r} does not share "
                    f"{head.job_id!r}'s trace identity"
                )

    @property
    def job_id(self) -> str:
        """Stable id for the batch itself (manifest ``job_start`` rows)."""
        head = self.members[0]
        return (
            f"batch/{head.kernel}-L{head.length}/{head.rule}"
            f"/{head.attribution}[{len(self.members)}]"
        )

    @property
    def member_ids(self) -> Tuple[str, ...]:
        return tuple(job.job_id for job in self.members)


def group_batch_jobs(
    jobs: List[Job], *, max_configs: int = 64, chunk: int = 65536
) -> List[Union[Job, "BatchJob"]]:
    """Fold batchable grid points into :class:`BatchJob` groups.

    Jobs group by shared trace identity ``(kernel, length, rule,
    attribution, verify)`` when their cache geometry is batch-eligible;
    groups larger than ``max_configs`` split, and singletons, ineligible
    geometries (round-robin, PLRU, fully associative) and jobs forced
    onto the reference simulator (:attr:`Job.fast` false) pass through
    unchanged.  Output order preserves each job's first appearance, so
    manifests stay readable.
    """
    from repro.simbatch.plan import batch_eligible

    groups: Dict[Tuple[str, int, str, str, bool], List[Job]] = {}
    ordered: List[Union[Job, Tuple[str, int, str, str, bool]]] = []
    for job in jobs:
        if not (job.fast and batch_eligible(job.cache.to_config())):
            ordered.append(job)
            continue
        key = (job.kernel, job.length, job.rule, job.attribution, job.verify)
        if key not in groups:
            groups[key] = []
            ordered.append(key)
        groups[key].append(job)
    out: List[Union[Job, BatchJob]] = []
    for item in ordered:
        if isinstance(item, Job):
            out.append(item)
            continue
        members = groups[item]
        for start in range(0, len(members), max_configs):
            split = members[start : start + max_configs]
            if len(split) == 1:
                out.append(split[0])
            else:
                out.append(BatchJob(members=tuple(split), chunk=chunk))
    return out


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
    store = ArtifactStore(store_root)
    started = time.monotonic()
    head = batch.members[0]
    with tele.span(
        "campaign.batch-job",
        cat="campaign",
        job=batch.job_id,
        configs=len(batch.members),
    ):
        tkey = trace_key(head.kernel, head.length)
        rule_text = resolve_rule_text(head.rule, head.length)
        input_key = tkey if rule_text is None else transform_key(tkey, rule_text)

        member_payloads: Dict[str, Dict[str, Any]] = {}
        pending: List[Job] = []
        hits: Dict[str, bool] = {}
        for job in batch.members:
            skey = simulation_key(input_key, job)
            cached = store.get_json(skey)
            if cached is not None:
                payload = dict(cached)
                payload["cache_hits"] = {"simulation": True}
                member_payloads[job.job_id] = payload
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
                    payload = dict(payload)
                    payload["cache_hits"] = dict(hits)
                    member_payloads[job.job_id] = payload
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
    """Dispatch any task kind: the one job body both the scheduler's
    process pool and the campaign service's workers run."""
    if isinstance(task, TraceTask):
        return execute_trace_task(task, store_root)
    if isinstance(task, BatchJob):
        return execute_batch_job(task, store_root)
    return execute_job(task, store_root)
