"""Campaign jobs: the task body workers run.

:mod:`repro.campaign.grid` expands a :class:`CampaignSpec` into
picklable tasks, plans each grid point's route and names every stage's
output by content key; this module holds the body of the one task kind,
:func:`execute_grid_task` — trace, transform, simulate — that the
scheduler runs inline or on its process pool.  It is the campaign's
pipeline half: it loads numpy, the tracer, the transform engine, the
trace commit store and both simulators, so the scheduler imports it
only once some grid point is missing from the artifact store.

The body is handed the campaign directory, which holds the campaign's
two stores: ``<dir>/tracestore``, the
:class:`~repro.tracestore.store.TraceStore` that keeps every trace and
transformed trace as a commit of columnar chunk blobs, and
``<dir>/artifacts``, the :class:`~repro.campaign.artifacts.ArtifactStore`
that keeps one JSON payload per grid point.

- A program's trace is committed under the ref ``trace/<trace_key>``
  by whichever task first misses it (the scheduler sends each
  program's first task ahead of its others); a hit reads the record
  count off the commit.
- A rule point (named or ``file:``) applies its rule text to that
  commit with :func:`~repro.tracestore.transform.apply_rules`, against
  the commit its ``xform/`` ref names: re-running a rule returns that
  commit unchanged, and an edited ``file:`` rule transforms only the
  chunks the edit touched.
- Route ``tracestore`` simulates each member with
  :func:`~repro.tracestore.resim.simulate_chain`, which resumes from
  the deepest residency snapshot an earlier sweep left; routes ``fast``
  and ``reference`` run :func:`simulation_fields` over the trace as
  columns: the engine's own output for a rule point it just
  transformed (:meth:`~repro.tracestore.transform.ApplyResult.trace`),
  the trace in memory for a baseline point that just traced it, and
  the commit read back otherwise.

Payloads are content-addressed (SHA-256 of kernel identity + rule text
+ config tuple), so the body is idempotent and safe to retry; workers
only ever exchange plain dicts with the parent process.  Besides
``cache_hits``, each grid point's returned payload names its ``route``
(``store``, ``fast``, ``tracestore`` or ``reference``, with a
``route_reason`` for the last) and, on ``fast`` and ``tracestore``,
the ``kernel`` pass that answered it (``stack`` or ``fifo``); none of
these is part of the stored artifact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

# The rule parser's section parsers, imported on first use: loaded with
# this module so that pool workers inherit them from the parent.
import repro.transform.displace  # noqa: F401
import repro.transform.dynamic  # noqa: F401
from repro.campaign.artifacts import ArtifactStore, content_key
# The planning half, re-exported: this module's API predates the split.
from repro.campaign.grid import (
    SIMULATE_STAGE,
    TRACE_STAGE,
    TRANSFORM_STAGE,
    GridTask,
    Job,
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
from repro.simbatch.plan import runs_fifo, supports_fast_path
from repro.simbatch.runner import kernel_fields, simulate_batch
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.tracestore.chain import Commit
from repro.tracestore.resim import simulate_chain
from repro.tracestore.store import TraceStore
from repro.tracestore.transform import ApplyResult, apply_rules
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

    Configs the batched kernel covers (direct-mapped, set-associative
    LRU, FIFO or round-robin, write-allocate — see
    :func:`repro.simbatch.plan.supports_fast_path`) share one batched
    kernel pass; every other config (PLRU, random, no-write-allocate,
    ...) gets one reference simulation.  Both routes produce identical
    values — the kernel is cross-validated exactly in
    ``tests/cache/test_fastsim.py``, ``tests/simbatch/test_fifo_pass.py``
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


# -- trace and transform stages -----------------------------------------------


def _trace_store(directory: Union[str, Path]) -> TraceStore:
    """The trace commit store of one campaign directory."""
    return TraceStore(Path(directory) / "tracestore")


def _head(traces: TraceStore, ref: str) -> Optional[Commit]:
    """The commit ``ref`` names; ``None`` when the ref or its commit is
    missing."""
    cid = traces.get_ref(ref)
    if cid is None or not traces.has_commit(cid):
        return None
    return traces.read_commit(cid)


def _trace_commit(
    traces: TraceStore, kernel: str, length: int
) -> Tuple[Commit, Optional[Trace]]:
    """One program's trace commit, traced and committed on a miss;
    returns ``(commit, trace)``, where ``trace`` is the fresh trace in
    memory on a miss and ``None`` on a hit.  The commit sits under the
    ref ``trace/<trace_key>``."""
    tkey = trace_key(kernel, length)
    ref = f"trace/{tkey}"
    cached = _head(traces, ref)
    if cached is not None:
        return cached, None
    trace = trace_program(paper_kernel(kernel, length=length))
    commit = traces.commit_trace(trace, message=f"trace {tkey[:12]}")
    traces.set_ref(ref, commit.id)
    return commit, trace


def _transform_ref(tkey: str, rule: str) -> str:
    """The ref naming one (trace, rule reference) lineage.  A ``file:``
    path keeps its ref while its text changes between sweeps."""
    return f"xform/{tkey}/{content_key('tdst-ref-v1', rule)[:16]}"


def _verify_transform(
    traces: TraceStore, base: Commit, applied: ApplyResult, rule_text: str
) -> None:
    """Opt-in check: replay a transform commit through the soundness
    oracle; an unsound one raises so the scheduler's retry/degrade
    policy records the point as failed instead of charting bad numbers.

    A fresh transform's allocation map is cross-checked too; for a
    commit reused from the store the oracle reconstructs it from the
    rules on its own.  Fully cached *simulation* payloads skip this
    entirely — rerun with a fresh campaign directory to re-verify them.
    """
    from repro.errors import TransformError
    from repro.verify.soundness import check_transform

    report = check_transform(
        traces.checkout(base),
        traces.checkout(applied.commit),
        rule_text,
        allocations=applied.allocations,
    )
    if not report.ok:
        head = "; ".join(str(v) for v in report.violations[:3])
        raise TransformError(
            f"transformed trace failed soundness verification "
            f"({report.total_violations} violation(s)): {head}"
        )


def _transform_commit(
    traces: TraceStore, base: Commit, job: Job, rule_text: str
) -> Tuple[ApplyResult, bool]:
    """Apply one point's rule text to its trace commit; returns
    ``(applied, cache_hit)``.

    With ``verify`` the commit is checked before its ref moves, so an
    unsound transform never becomes the lineage's head.
    """
    xref = _transform_ref(trace_key(job.kernel, job.length), job.rule)
    prev = _head(traces, xref)
    applied = apply_rules(
        traces, base, rule_text, prev=prev, message=f"apply {job.rule}"
    )
    if job.verify:
        _verify_transform(traces, base, applied, rule_text)
    hit = prev is not None and applied.commit.id == prev.id
    if not hit:
        traces.set_ref(xref, applied.commit.id)
    return applied, hit


# -- worker entry points ------------------------------------------------------


def _count_artifact_hits(tele, hits: Dict[str, bool]) -> None:
    """Book per-stage artifact-cache outcomes into the registry."""
    served = sum(1 for hit in hits.values() if hit)
    tele.add("campaign.artifact_hits", served)
    tele.add("campaign.artifact_misses", len(hits) - served)


def execute_grid_task(
    task: GridTask, directory: Union[str, Path]
) -> Dict[str, Any]:
    """Worker body for one grid task: every member point, one pass.

    Per-member store lookups run first — a stored member costs one JSON
    read — then the program's trace commit is taken (traced and
    committed on a miss, and transformed under the rule) once, and the
    task's route answers every remaining member: ``tracestore``
    simulates each member's chain, ``fast`` and ``reference`` simulate
    every member through :func:`simulation_fields`, over the
    transform's output columns when the rule was just applied and over
    the trace in memory when the program was just traced, so neither is
    decoded back.  Each payload is stored under the member's own
    simulation key.  Raises on unrecoverable input problems (bad rule
    file, invalid config) — the scheduler turns that into
    retry-then-degrade for every member.
    """
    tele = get_telemetry()
    store = ArtifactStore(Path(directory) / "artifacts", sweep=False)
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
            traces = _trace_store(directory)
            with tele.span("campaign.stage.trace", cat="campaign"):
                commit, fresh = _trace_commit(traces, head.kernel, head.length)
            hits["trace"] = fresh is None
            applied: Optional[ApplyResult] = None
            if rule_text is not None:
                with tele.span("campaign.stage.transform", cat="campaign"):
                    applied, hits["transform"] = _transform_commit(
                        traces, commit, head, rule_text
                    )
                commit = applied.commit
            configs = [job.cache.to_config() for job in pending]
            route = {"route": task.route}
            if task.route_reason is not None:
                route["route_reason"] = task.route_reason
            chain = task.route == "tracestore"
            stage = "tracestore" if chain else "simulate"
            with tele.span(f"campaign.stage.{stage}", cat="campaign"):
                if chain:
                    # One resumable chain pass per config, reusing the
                    # snapshots earlier sweeps of this rule file left.
                    fields = [
                        simulate_chain(
                            traces, commit, config, attribution=head.attribution
                        ).fields()
                        for config in configs
                    ]
                else:
                    if applied is not None:
                        trace = applied.trace(traces)
                    elif fresh is not None:
                        trace = fresh
                    else:
                        trace = traces.checkout(commit)
                    fields = simulation_fields(
                        trace,
                        configs,
                        head.attribution,
                        use_fast=task.route == "fast",
                    )
                for job, config, sim_fields in zip(pending, configs, fields):
                    skey = simulation_key(input_key, job)
                    payload: Dict[str, Any] = {
                        "kind": "simulation",
                        "simulation_key": skey,
                        "records": commit.records,
                        "transformed_records": (
                            None if rule_text is None else commit.records
                        ),
                        "verified": head.verify and rule_text is not None,
                    }
                    payload.update(sim_fields)
                    store.put_json(skey, payload)
                    provenance = dict(route)
                    if task.route != "reference":
                        provenance["kernel"] = (
                            "fifo" if runs_fifo(config) else "stack"
                        )
                    payloads[job.job_id] = returned_payload(
                        payload, dict(hits), provenance, started
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


def execute_job(job: Job, directory: Union[str, Path]) -> Dict[str, Any]:
    """Run one grid point as a task of its own; returns its payload."""
    (task,) = plan_tasks([job], fast=True)
    return execute_grid_task(task, directory)["members"][job.job_id]
