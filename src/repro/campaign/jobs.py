"""Campaign jobs: the task bodies workers run.

:mod:`repro.campaign.grid` expands a :class:`CampaignSpec` into
picklable tasks, plans each grid point's route and names every stage's
artifact by content key; this module holds the stage bodies — trace,
transform, simulate — that the scheduler runs inline or on its process
pool.  It is the campaign's pipeline half: it loads numpy, the tracer,
the transform engine and both simulators, so the scheduler imports it
only once some grid point is missing from the artifact store.

One body, :func:`execute_grid_task`, runs every grid point: it
materialises the members' shared trace once, then either applies the
rule file to the trace commit store (route ``tracestore``) or
transforms once and simulates every member through
:func:`simulation_fields` (routes ``fast`` and ``reference``).

All stage outputs are content-addressed through the
:class:`~repro.campaign.artifacts.ArtifactStore` (SHA-256 of kernel
identity + rule text + config tuple), so every body is idempotent and
safe to retry; workers only ever exchange plain dicts with the parent
process.  Besides ``cache_hits``, each grid point's returned payload
names its ``route`` (``store``, ``fast``, ``tracestore`` or
``reference``, with a ``route_reason`` for the last); neither is part of
the stored artifact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

# Modules the stage bodies import on first use (the artifact store's
# trace codec, the batched kernel's columnar reader, the rule parser's
# section parsers), loaded with this module so that pool workers
# inherit them from the parent.
import repro.trace.binformat  # noqa: F401
import repro.trace.columnar  # noqa: F401
import repro.transform.displace  # noqa: F401
import repro.transform.dynamic  # noqa: F401
from repro.campaign.artifacts import ArtifactStore
# The planning half, re-exported: this module's API predates the split.
from repro.campaign.grid import (
    SIMULATE_STAGE,
    TRACE_STAGE,
    TRANSFORM_STAGE,
    GridTask,
    Job,
    TraceTask,
    expand_jobs,
    plan_tasks,
    point_input_key,
    resolve_rule_text,
    returned_payload,
    simulation_key,
    trace_key,
    transform_key,
)
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.plan import supports_fast_path
from repro.simbatch.runner import kernel_fields, simulate_batch
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.transform.engine import TransformEngine
from repro.transform.rule_parser import parse_rules
from repro.workloads.paper_kernels import paper_kernel


# -- simulation stage ---------------------------------------------------------


def simulation_fields(
    trace: Trace,
    configs: Sequence[CacheConfig],
    attribution: str,
    *,
    use_fast: bool = True,
) -> List[Dict[str, Any]]:
    """The simulation-statistics fields of one payload per config.

    Configs the vectorized kernel covers (direct-mapped or
    set-associative LRU, write-allocate — see
    :func:`repro.simbatch.plan.supports_fast_path`) share one batched
    kernel pass; every other config (round-robin, PLRU, ...) gets one
    reference simulation.  Both routes produce identical values — the
    kernel is cross-validated exactly in ``tests/cache/test_fastsim.py``
    and ``tests/campaign/test_jobs.py`` — so artifact keys do not encode
    the route.  ``use_fast=False`` forces the reference simulator.
    """
    covered = [
        i for i, config in enumerate(configs)
        if use_fast and supports_fast_path(config)
    ]
    kernel: Dict[int, Dict[str, Any]] = {}
    if covered:
        batch = simulate_batch(
            trace, [configs[i] for i in covered], attribution=attribution
        )
        kernel = {
            i: kernel_fields(configs[i], counts, batch.names)
            for i, counts in zip(covered, batch.results)
        }
    return [
        kernel[i] if i in kernel else _reference_fields(trace, config, attribution)
        for i, config in enumerate(configs)
    ]


def _reference_fields(
    trace: Trace, config: CacheConfig, attribution: str
) -> Dict[str, Any]:
    """One config's payload fields from the reference simulator."""
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


def _transform_stage(
    store: ArtifactStore,
    trace: Trace,
    rule_text: str,
    input_key: str,
    verify: bool,
) -> Tuple[Trace, bool]:
    """Fetch or compute one transformed trace; returns (trace, cache_hit).

    With ``verify`` the output is replayed through the soundness oracle
    before it is stored, so an unsound transform is never cached.
    """
    cached = store.get_trace(input_key)
    if cached is not None:
        if verify:
            # Cached transform: the engine's allocation map is gone, but
            # the oracle reconstructs it from the rules on its own.
            _verify_transform(trace, cached, rule_text, None)
        return cached, True
    result = TransformEngine(parse_rules(rule_text)).transform(trace)
    if verify:
        _verify_transform(trace, result.trace, rule_text, result.allocations)
    store.put_trace(input_key, result.trace)
    return result.trace, False


def execute_grid_task(
    task: GridTask, store_root: Union[str, Path]
) -> Dict[str, Any]:
    """Worker body for one grid task: every member point, one pass.

    Per-member store lookups run first — a stored member costs one JSON
    read — then the shared trace materialises once and the task's route
    answers every remaining member: ``tracestore`` applies the rule file
    to the commit store once and simulates each member's chain; ``fast``
    and ``reference`` transform once and simulate every member through
    :func:`simulation_fields`.  Each payload is stored under the member's
    own simulation key.  Raises on unrecoverable input problems (bad
    rule file, invalid config) — the scheduler turns that into
    retry-then-degrade for every member.
    """
    tele = get_telemetry()
    store = ArtifactStore(store_root, sweep=False)
    started = time.monotonic()
    head = task.members[0]
    payloads: Dict[str, Dict[str, Any]] = {}
    with tele.span(
        "campaign.job", cat="campaign", job=task.job_id, points=len(task.members)
    ):
        rule_text, input_key = point_input_key(head)
        pending: List[Job] = []
        with tele.span("campaign.stage.lookup", cat="campaign"):
            for job in task.members:
                cached = store.get_json(simulation_key(input_key, job))
                if cached is None:
                    pending.append(job)
                else:
                    payloads[job.job_id] = returned_payload(
                        cached, {"simulation": True}, {"route": "store"}, started
                    )
        hits = {"simulation": not pending}
        if pending:
            with tele.span("campaign.stage.trace", cat="campaign"):
                trace, hits["trace"] = _materialise_trace(
                    store, head.kernel, head.length
                )
            incremental = task.route == "tracestore"
            verified = head.verify and rule_text is not None
            if rule_text is not None and not incremental:
                with tele.span("campaign.stage.transform", cat="campaign"):
                    trace, hits["transform"] = _transform_stage(
                        store, trace, rule_text, input_key, head.verify
                    )
            configs = [job.cache.to_config() for job in pending]
            route = {"route": task.route}
            if task.route_reason is not None:
                route["route_reason"] = task.route_reason
            stage = "tracestore" if incremental else "simulate"
            with tele.span(f"campaign.stage.{stage}", cat="campaign"):
                if incremental:
                    # Transform + simulate through the trace commit
                    # store, reusing the chunks and snapshots earlier
                    # sweeps left behind; the payloads are
                    # field-identical to the other routes'.
                    from repro.tracestore.campaign import (
                        incremental_job_fields,
                        tracestore_root_for,
                    )

                    fields, records = incremental_job_fields(
                        tracestore_root_for(store_root),
                        trace,
                        trace_key(head.kernel, head.length),
                        head.rule,
                        rule_text,
                        configs,
                        head.attribution,
                    )
                else:
                    fields = simulation_fields(
                        trace,
                        configs,
                        head.attribution,
                        use_fast=task.route == "fast",
                    )
                    records = len(trace)
                for job, sim_fields in zip(pending, fields):
                    skey = simulation_key(input_key, job)
                    payload: Dict[str, Any] = {
                        "kind": "simulation",
                        "simulation_key": skey,
                        "records": records,
                        "transformed_records": (
                            None if rule_text is None else records
                        ),
                        "verified": verified,
                    }
                    payload.update(sim_fields)
                    store.put_json(skey, payload)
                    payloads[job.job_id] = returned_payload(
                        payload, dict(hits), route, started
                    )
    _count_artifact_hits(tele, hits)
    elapsed = round(time.monotonic() - started, 6)
    for payload in payloads.values():
        payload["compute_seconds"] = elapsed
    return {
        "kind": "grid",
        "job_id": task.job_id,
        "members": {job.job_id: payloads[job.job_id] for job in task.members},
        "compute_seconds": elapsed,
    }


def execute_job(job: Job, store_root: Union[str, Path]) -> Dict[str, Any]:
    """Run one grid point as a task of its own; returns its payload."""
    (task,) = plan_tasks([job], fast=True)
    return execute_grid_task(task, store_root)["members"][job.job_id]


def execute_task(
    task: Union[TraceTask, GridTask], store_root: Union[str, Path]
) -> Dict[str, Any]:
    """Dispatch either task kind: the one entry the scheduler runs,
    inline or on its process pool."""
    if isinstance(task, TraceTask):
        return execute_trace_task(task, store_root)
    return execute_grid_task(task, store_root)
