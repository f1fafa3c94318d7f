"""The campaign scheduler: fan jobs out, survive failures, stay observable.

Execution model:

- **Planning** happens in the parent: every pending grid point's
  simulation artifact is looked up by content key, and a stored point is
  recorded as done on the spot.  Only the points left over start any
  work, and a campaign with none left starts no worker, no service and
  no pipeline import (:mod:`repro.campaign.jobs`, numpy, the tracer).
- **Phase 1** runs the deduplicated :class:`TraceTask` list — one task
  per distinct ``(kernel, length)`` a missing point needs — so the
  expensive shared stage is computed exactly once no matter how many
  grid points reuse it.
- **Phase 2** fans every missing :class:`Job` out over a pool of worker
  *processes* (one dedicated task queue per worker, one shared result
  queue).  The parent knows which worker owns which job and when it
  started, which is what makes per-job **timeouts** enforceable: a
  worker that blows its deadline is terminated and replaced, and the job
  re-enters the queue under the retry policy.
- **Bounded retry with exponential backoff**: a failing job is re-queued
  up to ``retries`` times with ``backoff * 2^(attempt-1)`` seconds of
  delay; after that it is recorded as *failed* in the manifest and the
  rest of the grid continues — a broken rule file costs one point, not
  the campaign.
- ``workers <= 1`` runs everything inline (deterministic, easily
  debugged, no subprocesses); timeouts are not enforceable inline and
  are ignored there.

Every state change is appended to the JSONL
:class:`~repro.campaign.manifest.RunManifest`; ``resume=True`` reads the
previous manifest, carries its completed jobs forward as skipped, and
appends to it.
"""

from __future__ import annotations

import heapq
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.artifacts import ArtifactStore
from repro.campaign.grid import (
    NO_BATCH_ENV,
    NO_FAST_ENV,
    NO_SERVICE_ENV,
    NO_TRACESTORE_ENV,
    BatchJob,
    Job,
    TraceTask,
    expand_jobs,
    group_batch_jobs,
    point_input_key,
    returned_payload,
    simulation_key,
)
from repro.campaign.manifest import (
    EVENT_CAMPAIGN_END,
    EVENT_CAMPAIGN_START,
    EVENT_JOB_DONE,
    EVENT_JOB_FAILED,
    EVENT_JOB_RETRY,
    EVENT_JOB_SKIPPED,
    EVENT_JOB_START,
    EVENT_TELEMETRY,
    RunManifest,
)
from repro.campaign.spec import CampaignSpec
from repro.obsv.telemetry import get_telemetry

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

#: Upper bound on one backoff delay, seconds.
MAX_BACKOFF = 30.0


@dataclass
class JobOutcome:
    """Terminal state of one task after scheduling."""

    job_id: str
    status: str  #: ``"done"`` | ``"failed"`` | ``"skipped"``
    attempts: int = 1
    elapsed: float = 0.0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True unless the task exhausted its retries."""
        return self.status != "failed"


@dataclass
class CampaignResult:
    """Everything one campaign run produced, plus aggregate views."""

    spec: CampaignSpec
    trace_outcomes: List[JobOutcome] = field(default_factory=list)
    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    def by_status(self, status: str) -> List[JobOutcome]:
        """Grid-point outcomes with the given terminal status."""
        return [o for o in self.outcomes if o.status == status]

    @property
    def n_done(self) -> int:
        """Points that produced a result this run."""
        return len(self.by_status("done"))

    @property
    def n_failed(self) -> int:
        """Points that exhausted their retries."""
        return len(self.by_status("failed"))

    @property
    def n_skipped(self) -> int:
        """Points skipped because a resumed manifest already had them."""
        return len(self.by_status("skipped"))

    def cache_hit_rate(self) -> float:
        """Fraction of successful points served from the artifact cache.

        A point counts as a hit when its simulation-stage artifact was
        already stored (or the point was skipped entirely on resume).
        """
        served = [o for o in self.outcomes if o.status in ("done", "skipped")]
        if not served:
            return 0.0
        hits = 0
        for outcome in served:
            if outcome.status == "skipped":
                hits += 1
                continue
            stage_hits = (outcome.result or {}).get("cache_hits", {})
            if stage_hits.get("simulation"):
                hits += 1
        return hits / len(served)

    def summary(self) -> str:
        """Multi-line aggregate summary of the run."""
        hit_rate = self.cache_hit_rate()
        served = self.n_done + self.n_skipped
        lines = [
            f"campaign {self.spec.name!r}: "
            f"{len(self.outcomes)} points, "
            f"{len(self.trace_outcomes)} shared trace stages",
            f"  done: {self.n_done}  failed: {self.n_failed}  "
            f"skipped: {self.n_skipped}",
            f"  artifact-cache hit rate: {hit_rate:.1%} "
            f"({round(hit_rate * served)}/{served} points)",
            f"  wall time: {self.wall_seconds:.2f}s",
        ]
        for outcome in self.by_status("failed"):
            lines.append(
                f"  FAILED {outcome.job_id} "
                f"after {outcome.attempts} attempts: {outcome.error}"
            )
        return "\n".join(lines)


def execute_task(
    task: Union[TraceTask, Job, BatchJob], store_root: str
) -> Dict[str, Any]:
    """Run one task: :func:`repro.campaign.jobs.execute_task`.

    Every executor calls the pipeline through this name.  The scheduler
    imports :mod:`repro.campaign.jobs` before it starts any work, so
    forked workers inherit it and this import is a lookup.
    """
    from repro.campaign.jobs import execute_task as execute

    return execute(task, store_root)


def _result_rows(
    task: Union[TraceTask, Job, BatchJob], payload: Any
) -> List[Tuple[str, Any]]:
    """``(job_id, result)`` manifest rows one success produces.

    A :class:`BatchJob` fans out into one row per member — keyed by the
    *member's* job id with the member's own payload — so resume,
    reports and ``completed_jobs`` never see the batch route.
    """
    if (
        isinstance(task, BatchJob)
        and isinstance(payload, dict)
        and payload.get("kind") == "batch"
    ):
        members = payload.get("members", {})
        return [(job_id, members.get(job_id)) for job_id in task.member_ids]
    return [(task.job_id, payload)]


def _failure_ids(task: Union[TraceTask, Job, BatchJob]) -> List[str]:
    """Job ids a terminal failure marks failed (batch = every member)."""
    if isinstance(task, BatchJob):
        return list(task.member_ids)
    return [task.job_id]


class _WorkerSlot:
    """Parent-side bookkeeping for one worker process.

    ``busy`` holds the ``(seq, attempt)`` pair currently assigned, so a
    stale result from a terminated-and-replaced worker (whose job was
    already settled as a timeout) can be recognised and dropped.
    """

    __slots__ = ("process", "task_queue", "busy", "started_at")

    def __init__(self, process: BaseProcess, task_queue) -> None:
        self.process = process
        self.task_queue = task_queue
        self.busy: Optional[Tuple[int, int]] = None
        self.started_at: float = 0.0


def _worker_main(worker_id: int, task_queue, result_queue, store_root: str) -> None:
    """Worker process body: execute tasks until the ``None`` sentinel.

    When the (fork-inherited) telemetry registry is enabled, each task
    runs against a freshly reset registry and its snapshot rides back to
    the parent inside the result payload under the ``"telemetry"`` key;
    the parent pops and merges it.  The inherited epoch keeps worker
    spans on the parent's timeline, and the worker index becomes the
    span ``tid`` so traces render one track per worker.
    """
    telemetry = get_telemetry()
    telemetry.tid = worker_id
    while True:
        item = task_queue.get()
        if item is None:
            break
        seq, attempt, task = item
        started = time.monotonic()
        if telemetry.enabled:
            telemetry.reset()
        try:
            result = execute_task(task, store_root)
            if telemetry.enabled and isinstance(result, dict):
                telemetry.sample_rss()
                result = dict(result)
                result["telemetry"] = telemetry.snapshot()
            result_queue.put(
                (seq, attempt, worker_id, "ok", result, time.monotonic() - started)
            )
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            result_queue.put(
                (
                    seq,
                    attempt,
                    worker_id,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    time.monotonic() - started,
                )
            )


def _mp_context():
    """Prefer ``fork`` (cheap task pickling) with a portable fallback.

    Imported on use: a campaign with nothing left to run never loads
    multiprocessing.
    """
    import multiprocessing as mp

    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context()


class Scheduler:
    """Expands a spec and drives its jobs to terminal state.

    Parameters
    ----------
    spec:
        The campaign to run.
    directory:
        Campaign working directory; holds ``artifacts/`` (the
        content-addressed store) and ``manifest.jsonl``.
    workers:
        Worker processes; ``<= 1`` runs inline (no timeout enforcement).
    timeout:
        Per-job wall-clock budget in seconds (``None`` = unlimited;
        parallel mode only).
    retries:
        Re-attempts after the first failure of a job.
    backoff:
        Base seconds of delay before attempt *n*'s retry
        (``backoff * 2^(n-1)``, capped at :data:`MAX_BACKOFF`).
    resume:
        Skip jobs already recorded as done in the existing manifest and
        append new events to it instead of truncating.
    batch:
        Route grid points sharing one trace to batched multi-config
        jobs.  ``None`` (the default) follows the spec's ``[batch]``
        table unless the ``TDST_NO_BATCH`` environment variable is set;
        ``False`` (e.g. ``tdst campaign --no-batch``) forces per-config
        execution.
    tracestore:
        Route eligible ``file:`` rule points through the incremental
        trace commit store (chunk blobs, residency snapshots).  ``None``
        (the default) enables it unless the ``TDST_NO_TRACESTORE``
        environment variable is set; ``False`` (e.g. ``tdst campaign
        --no-tracestore``) sends every point through the classic
        transform-then-simulate stages.  The choice travels on each
        :class:`Job`, so it never outlives this scheduler.
    fast:
        Let fast-path-eligible geometries use the vectorized kernel.
        ``None`` (the default) enables it unless the ``TDST_NO_FAST``
        environment variable is set; ``False`` (e.g. ``tdst campaign
        --no-fast``) sends every grid point, batched ones included,
        through the reference simulator.  The choice travels on each
        :class:`Job`, like ``tracestore``.
    service:
        Drive the run through the local asyncio campaign service
        (work-stealing shard workers) instead of the process pool.
        ``None`` (the default) follows the spec's ``[service]`` table
        unless the ``TDST_NO_SERVICE`` environment variable is set;
        ``False`` (e.g. ``tdst campaign --no-service``) forces the
        one-shot route.  Artifacts are byte-identical either way.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        directory: Union[str, Path],
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.5,
        resume: bool = False,
        batch: Optional[bool] = None,
        tracestore: Optional[bool] = None,
        fast: Optional[bool] = None,
        service: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactStore(self.directory / "artifacts")
        self.manifest_path = self.directory / "manifest.jsonl"
        self.tracestore = bool(
            tracestore
            if tracestore is not None
            else not os.environ.get(NO_TRACESTORE_ENV)
        )
        self.fast = bool(
            fast if fast is not None else not os.environ.get(NO_FAST_ENV)
        )
        self.workers = max(0, workers)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self.resume = resume
        if batch is None:
            batch = spec.batch.enabled and not os.environ.get(NO_BATCH_ENV)
        self.batch = bool(batch)
        if service is None:
            service = spec.service.enabled and not os.environ.get(NO_SERVICE_ENV)
        self.service = bool(service)

    # -- public API ----------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run the whole campaign; never raises for individual job failures.

        When the spec declares ``profile``/``profile_trace`` paths (or
        telemetry is already enabled, e.g. by ``tdst --profile``), the
        run is timed phase by phase, per-worker child telemetry is
        merged back in, the merged counters land in the manifest as a
        ``telemetry`` event, and the spec's sink files are written
        (relative to the campaign directory) when the run finishes.
        """
        telemetry = get_telemetry()
        wants_profile = bool(self.spec.profile or self.spec.profile_trace)
        owns_telemetry = wants_profile and not telemetry.enabled
        if owns_telemetry:
            telemetry.reset()
            telemetry.enable()
        try:
            with telemetry.span(
                "campaign.run", cat="campaign", campaign=self.spec.name
            ):
                result = self._run(telemetry)
        finally:
            if wants_profile:
                telemetry.sample_rss()
                snapshot = telemetry.snapshot()
                from repro.obsv.sinks import (
                    write_chrome_trace,
                    write_jsonl_profile,
                )

                if self.spec.profile:
                    write_jsonl_profile(
                        snapshot, self.directory / self.spec.profile
                    )
                if self.spec.profile_trace:
                    write_chrome_trace(
                        snapshot, self.directory / self.spec.profile_trace
                    )
            if owns_telemetry:
                telemetry.disable()
        return result

    def _run(self, telemetry) -> CampaignResult:
        """The campaign body (phases timed against ``telemetry``)."""
        started = time.monotonic()
        with telemetry.span("campaign.expand", cat="campaign"):
            trace_tasks, jobs = expand_jobs(self.spec)
            if not (self.tracestore and self.fast):
                jobs = [
                    replace(job, tracestore=self.tracestore, fast=self.fast)
                    for job in jobs
                ]
        previous: Dict[str, Dict[str, Any]] = {}
        if self.resume and self.manifest_path.exists():
            previous = RunManifest.completed_jobs(
                RunManifest.read(self.manifest_path)
            )
        result = CampaignResult(spec=self.spec)
        with RunManifest(self.manifest_path, append=self.resume) as manifest:
            manifest.record(
                EVENT_CAMPAIGN_START,
                campaign=self.spec.name,
                points=len(jobs),
                trace_stages=len(trace_tasks),
                workers=self.workers,
                timeout=self.timeout,
                retries=self.retries,
                resume=self.resume,
                tracestore=self.tracestore,
            )
            run_jobs: List[Job] = []
            with telemetry.span("campaign.plan", cat="campaign"):
                for job in jobs:
                    row = previous.get(job.job_id)
                    if row is not None:
                        # Carry the prior result forward so reports built
                        # from the latest terminal row per job still have
                        # the data.
                        manifest.record(
                            EVENT_JOB_SKIPPED,
                            job_id=job.job_id,
                            result=row.get("result"),
                        )
                        result.outcomes.append(
                            JobOutcome(
                                job_id=job.job_id,
                                status="skipped",
                                attempts=0,
                                result=row.get("result"),
                            )
                        )
                    elif not self._serve_stored(job, manifest, result, telemetry):
                        run_jobs.append(job)
            # Phase 1: shared trace stages, deduplicated.  Only needed
            # for programs some missing point actually uses.
            needed = {(j.kernel, j.length) for j in run_jobs}
            phase1 = [
                t for t in trace_tasks if (t.kernel, t.length) in needed
            ]
            with telemetry.span("campaign.trace-stage", cat="campaign"):
                result.trace_outcomes = self._run_batch(phase1, manifest)
            # Phase 2: the grid.  A failed trace stage degrades the
            # points that need it (they will retry the stage themselves
            # and fail the same way), but never stops the others.
            # Batching (when on) folds points sharing a trace into
            # multi-config jobs *after* resume filtering, so resumed
            # groups re-batch only their pending members.
            if self.batch:
                with telemetry.span("campaign.batch-plan", cat="campaign"):
                    phase2: List[Union[Job, BatchJob]] = group_batch_jobs(
                        run_jobs,
                        max_configs=self.spec.batch.max_configs,
                        chunk=self.spec.batch.chunk,
                    )
                    n_batched = sum(
                        len(t.members)
                        for t in phase2
                        if isinstance(t, BatchJob)
                    )
                telemetry.add("campaign.points_batched", n_batched)
            else:
                phase2 = list(run_jobs)
            with telemetry.span("campaign.grid", cat="campaign"):
                result.outcomes.extend(self._run_batch(phase2, manifest))
            result.wall_seconds = time.monotonic() - started
            telemetry.add("campaign.points_done", result.n_done)
            telemetry.add("campaign.points_failed", result.n_failed)
            telemetry.add("campaign.points_skipped", result.n_skipped)
            if telemetry.enabled:
                snapshot = telemetry.snapshot()
                manifest.record(
                    EVENT_TELEMETRY,
                    counters=snapshot["counters"],
                    gauges=snapshot["gauges"],
                    spans=len(snapshot["spans"]),
                )
            manifest.record(
                EVENT_CAMPAIGN_END,
                campaign=self.spec.name,
                done=result.n_done,
                failed=result.n_failed,
                skipped=result.n_skipped,
                cache_hit_rate=round(result.cache_hit_rate(), 4),
                wall_seconds=round(result.wall_seconds, 3),
            )
        return result

    def _serve_stored(
        self,
        job: Job,
        manifest: RunManifest,
        result: CampaignResult,
        telemetry,
    ) -> bool:
        """Answer one pending grid point from the artifact store.

        Looks the point's simulation artifact up by content key; when it
        is stored, records the point as done (worker ``-1``, route
        ``store``) and returns True, and the point starts no work.  On
        ``--resume`` a stored point without a terminal row is an orphan
        (a previous run died between the artifact write and the manifest
        append): it is recorded as ``recovered`` with attempt 0.  False
        means the point must run; so does a rule reference that cannot
        be resolved, whose failure the normal run path records.
        """
        started = time.monotonic()
        try:
            _, input_key = point_input_key(job)
        except (OSError, ValueError):
            return False
        stored = self.store.get_json(simulation_key(input_key, job))
        if stored is None:
            return False
        payload = returned_payload(
            stored, {"simulation": True}, {"route": "store"}, started
        )
        elapsed = payload["compute_seconds"]
        attempt = 0 if self.resume else 1
        extra = {"recovered": True} if self.resume else {}
        manifest.record(
            EVENT_JOB_DONE,
            job_id=job.job_id,
            attempt=attempt,
            worker=-1,
            elapsed=elapsed,
            result=payload,
            **extra,
        )
        result.outcomes.append(
            JobOutcome(
                job_id=job.job_id,
                status="done",
                attempts=attempt,
                elapsed=elapsed,
                result=payload,
            )
        )
        telemetry.add("campaign.artifact_hits")
        if self.resume:
            telemetry.add("campaign.orphans_recovered")
        return True

    # -- batch executors -----------------------------------------------------

    def _run_batch(
        self,
        tasks: Sequence[Union[TraceTask, Job, BatchJob]],
        manifest: RunManifest,
    ) -> List[JobOutcome]:
        """Drive one task batch to terminal state (serial or parallel)."""
        if not tasks:
            return []
        # Load the pipeline here, before any fork, so pool workers
        # inherit it instead of importing it once each.
        import repro.campaign.jobs  # noqa: F401

        if self.service:
            return self._run_service(tasks, manifest)
        # A single task still goes through the process pool when workers
        # were requested: inline execution cannot enforce timeouts.
        if self.workers <= 1:
            return self._run_serial(tasks, manifest)
        return self._run_parallel(tasks, manifest)

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        return min(self.backoff * (2 ** (attempt - 1)), MAX_BACKOFF)

    def _run_serial(
        self,
        tasks: Sequence[Union[TraceTask, Job, BatchJob]],
        manifest: RunManifest,
    ) -> List[JobOutcome]:
        """Inline executor: same policy, no processes, no timeouts."""
        outcomes = []
        store_root = str(self.store.root)
        for task in tasks:
            attempt = 0
            total_elapsed = 0.0
            while True:
                attempt += 1
                manifest.record(
                    EVENT_JOB_START, job_id=task.job_id, attempt=attempt, worker=0
                )
                started = time.monotonic()
                try:
                    payload = execute_task(task, store_root)
                except Exception as exc:
                    elapsed = time.monotonic() - started
                    total_elapsed += elapsed
                    error = f"{type(exc).__name__}: {exc}"
                    if attempt <= self.retries:
                        delay = self._retry_delay(attempt)
                        manifest.record(
                            EVENT_JOB_RETRY,
                            job_id=task.job_id,
                            attempt=attempt,
                            error=error,
                            backoff=round(delay, 3),
                        )
                        if delay:
                            time.sleep(delay)
                        continue
                    for job_id in _failure_ids(task):
                        manifest.record(
                            EVENT_JOB_FAILED,
                            job_id=job_id,
                            attempts=attempt,
                            error=error,
                        )
                        outcomes.append(
                            JobOutcome(
                                job_id=job_id,
                                status="failed",
                                attempts=attempt,
                                elapsed=total_elapsed,
                                error=error,
                            )
                        )
                    break
                elapsed = time.monotonic() - started
                total_elapsed += elapsed
                for job_id, row in _result_rows(task, payload):
                    manifest.record(
                        EVENT_JOB_DONE,
                        job_id=job_id,
                        attempt=attempt,
                        worker=0,
                        elapsed=round(elapsed, 6),
                        result=row,
                    )
                    outcomes.append(
                        JobOutcome(
                            job_id=job_id,
                            status="done",
                            attempts=attempt,
                            elapsed=total_elapsed,
                            result=row,
                        )
                    )
                break
        return outcomes

    def _run_service(
        self,
        tasks: Sequence[Union[TraceTask, Job, BatchJob]],
        manifest: RunManifest,
    ) -> List[JobOutcome]:
        """Service executor: drive the batch through an in-process
        campaign service (shard workers, work stealing) bound on
        ``<directory>/service.sock``.

        Workers run :func:`execute_task`, the process pool's job body,
        against the same artifact store, so stored artifacts are
        byte-identical to the serial/parallel routes.  Retries happen
        inside the service (``job-retry`` rows are not emitted; the
        terminal row carries the attempt count instead).
        """
        import asyncio

        from repro.campaign.service.server import (
            ServiceConfig,
            service_socket_path,
        )

        opts = self.spec.service
        config = ServiceConfig(
            socket_path=service_socket_path(self.directory),
            store_root=str(self.store.root),
            shards=opts.shards or max(1, self.workers),
            queue_capacity=opts.queue_capacity,
            retries=self.retries,
            backoff=self.backoff,
            timeout=self.timeout,
        )
        with get_telemetry().span(
            "campaign.service", cat="campaign", shards=config.shards
        ):
            return asyncio.run(self._drive_service(tasks, manifest, config))

    async def _drive_service(
        self,
        tasks: Sequence[Union[TraceTask, Job, BatchJob]],
        manifest: RunManifest,
        config,
    ) -> List[JobOutcome]:
        """:meth:`_run_service` body: submit, drain, record outcomes."""
        from repro.campaign.service.client import ServiceClient
        from repro.campaign.service.server import service_running
        from repro.campaign.service.wire import task_to_wire

        outcomes: List[JobOutcome] = []
        async with service_running(config):
            client = ServiceClient(config.socket_path, timeout=30.0, retries=3)
            await client.connect()
            try:
                for task in tasks:
                    manifest.record(
                        EVENT_JOB_START,
                        job_id=task.job_id,
                        attempt=1,
                        worker=-1,
                    )
                await client.submit_many(
                    (task.job_id, task_to_wire(task)) for task in tasks
                )
                await client.drain(timeout=7 * 24 * 3600.0)
                for task in tasks:
                    res = await client.result(task.job_id)
                    attempts = int(res.get("attempts", 1))
                    if res.get("status") == "done":
                        payload = res.get("payload")
                        for job_id, row in _result_rows(task, payload):
                            elapsed = float(
                                (row or {}).get("compute_seconds", 0.0)
                            )
                            manifest.record(
                                EVENT_JOB_DONE,
                                job_id=job_id,
                                attempt=attempts,
                                worker=-1,
                                elapsed=round(elapsed, 6),
                                result=row,
                            )
                            outcomes.append(
                                JobOutcome(
                                    job_id=job_id,
                                    status="done",
                                    attempts=attempts,
                                    elapsed=elapsed,
                                    result=row,
                                )
                            )
                    else:
                        error = str(
                            res.get("error")
                            or f"service status {res.get('status')!r}"
                        )
                        for job_id in _failure_ids(task):
                            manifest.record(
                                EVENT_JOB_FAILED,
                                job_id=job_id,
                                attempts=attempts,
                                error=error,
                            )
                            outcomes.append(
                                JobOutcome(
                                    job_id=job_id,
                                    status="failed",
                                    attempts=attempts,
                                    error=error,
                                )
                            )
            finally:
                await client.close()
        return outcomes

    def _run_parallel(
        self,
        tasks: Sequence[Union[TraceTask, Job, BatchJob]],
        manifest: RunManifest,
    ) -> List[JobOutcome]:
        """Process-pool executor with per-job deadlines and replacement."""
        ctx = _mp_context()
        store_root = str(self.store.root)
        result_queue = ctx.Queue()
        n_workers = min(self.workers, len(tasks))

        def spawn(worker_id: int) -> _WorkerSlot:
            task_queue = ctx.Queue()
            process = ctx.Process(
                target=_worker_main,
                args=(worker_id, task_queue, result_queue, store_root),
                daemon=True,
            )
            process.start()
            return _WorkerSlot(process, task_queue)

        slots = [spawn(i) for i in range(n_workers)]
        # (ready_time, seq) heap of runnable work; attempts[seq] counts
        # tries already made; elapsed[seq] accumulates across attempts.
        ready: List[Tuple[float, int]] = [(0.0, i) for i in range(len(tasks))]
        heapq.heapify(ready)
        attempts = [0] * len(tasks)
        elapsed_total = [0.0] * len(tasks)
        # One list per settled task: a BatchJob settles into one
        # outcome per member, everything else into exactly one.
        outcomes: Dict[int, List[JobOutcome]] = {}

        def settle_failure(seq: int, worker_id: int, error: str, took: float) -> None:
            """Retry or record terminal failure for one attempt."""
            elapsed_total[seq] += took
            task = tasks[seq]
            if attempts[seq] <= self.retries:
                delay = self._retry_delay(attempts[seq])
                manifest.record(
                    EVENT_JOB_RETRY,
                    job_id=task.job_id,
                    attempt=attempts[seq],
                    worker=worker_id,
                    error=error,
                    backoff=round(delay, 3),
                )
                heapq.heappush(ready, (time.monotonic() + delay, seq))
            else:
                settled = []
                for job_id in _failure_ids(task):
                    manifest.record(
                        EVENT_JOB_FAILED,
                        job_id=job_id,
                        attempts=attempts[seq],
                        error=error,
                    )
                    settled.append(
                        JobOutcome(
                            job_id=job_id,
                            status="failed",
                            attempts=attempts[seq],
                            elapsed=elapsed_total[seq],
                            error=error,
                        )
                    )
                outcomes[seq] = settled

        try:
            while len(outcomes) < len(tasks):
                now = time.monotonic()
                # Hand ready work to idle (and live) workers.
                for i, slot in enumerate(slots):
                    if slot.busy is not None or not ready:
                        continue
                    if ready[0][0] > now:
                        break
                    if not slot.process.is_alive():
                        slots[i] = slot = spawn(i)
                    _, seq = heapq.heappop(ready)
                    attempts[seq] += 1
                    slot.busy = (seq, attempts[seq])
                    slot.started_at = now
                    manifest.record(
                        EVENT_JOB_START,
                        job_id=tasks[seq].job_id,
                        attempt=attempts[seq],
                        worker=i,
                    )
                    slot.task_queue.put((seq, attempts[seq], tasks[seq]))
                # Collect one result (short poll keeps deadline checks live).
                try:
                    seq, attempt, worker_id, status, payload, took = (
                        result_queue.get(timeout=0.05)
                    )
                except queue_mod.Empty:
                    pass
                else:
                    owner = next(
                        (s for s in slots if s.busy == (seq, attempt)), None
                    )
                    if owner is None or seq in outcomes:
                        # Stale result from a worker whose job was already
                        # settled (e.g. finished right as it was timed out).
                        pass
                    else:
                        owner.busy = None
                        if status == "ok":
                            elapsed_total[seq] += took
                            if isinstance(payload, dict):
                                child_tele = payload.pop("telemetry", None)
                                if child_tele:
                                    get_telemetry().merge(child_tele)
                            settled = []
                            for job_id, row in _result_rows(
                                tasks[seq], payload
                            ):
                                manifest.record(
                                    EVENT_JOB_DONE,
                                    job_id=job_id,
                                    attempt=attempt,
                                    worker=worker_id,
                                    elapsed=round(took, 6),
                                    result=row,
                                )
                                settled.append(
                                    JobOutcome(
                                        job_id=job_id,
                                        status="done",
                                        attempts=attempt,
                                        elapsed=elapsed_total[seq],
                                        result=row,
                                    )
                                )
                            outcomes[seq] = settled
                        else:
                            settle_failure(seq, worker_id, payload, took)
                # Enforce deadlines and replace dead or stuck workers.
                now = time.monotonic()
                for i, slot in enumerate(slots):
                    if slot.busy is None:
                        continue
                    seq, _attempt = slot.busy
                    over_deadline = (
                        self.timeout is not None
                        and now - slot.started_at > self.timeout
                    )
                    died = not slot.process.is_alive()
                    if not over_deadline and not died:
                        continue
                    took = now - slot.started_at
                    error = (
                        f"timeout after {self.timeout:.1f}s"
                        if over_deadline
                        else "worker process died"
                    )
                    slot.process.terminate()
                    slot.process.join(timeout=2.0)
                    slots[i] = spawn(i)
                    settle_failure(seq, i, error, took)
        finally:
            for slot in slots:
                try:
                    slot.task_queue.put(None)
                except Exception:  # pragma: no cover - shutdown best effort
                    pass
            deadline = time.monotonic() + 2.0
            for slot in slots:
                slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
                if slot.process.is_alive():  # pragma: no cover
                    slot.process.terminate()
                    slot.process.join(timeout=1.0)
            result_queue.close()
            result_queue.cancel_join_thread()
        return [o for i in range(len(tasks)) for o in outcomes[i]]


def run_campaign(
    spec: CampaignSpec,
    directory: Union[str, Path],
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.5,
    resume: bool = False,
    batch: Optional[bool] = None,
    tracestore: Optional[bool] = None,
    fast: Optional[bool] = None,
    service: Optional[bool] = None,
) -> CampaignResult:
    """One-call campaign execution (see :class:`Scheduler` for knobs)."""
    return Scheduler(
        spec,
        directory,
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        resume=resume,
        batch=batch,
        tracestore=tracestore,
        fast=fast,
        service=service,
    ).run()
