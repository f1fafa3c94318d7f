"""The campaign scheduler: fan tasks out, survive failures, stay observable.

Execution model:

- **Planning** happens in the parent: every pending grid point's
  simulation artifact is looked up by content key, and a stored point is
  recorded as done on the spot.  Only the points left over start any
  work, and a campaign with none left starts no worker and no pipeline
  import (:mod:`repro.campaign.jobs`, numpy, the tracer).
- **One task kind.**  The missing points are routed
  (:func:`~repro.campaign.grid.plan_tasks`) and the points that share a
  trace and a kernel route fold into one :class:`GridTask`.  A task
  that misses its program's trace traces and commits it.  Every
  program's first task goes out ahead of any program's later task, and
  a program's later tasks are handed out only once its first task's
  first attempt has ended: they find the trace committed, so each
  missing program is traced exactly once, with no barrier between
  programs.  If that attempt failed, they trace on their own.
- **One dispatch loop** hands ready tasks to worker slots and settles
  their results.  A slot is a worker *process* with a dedicated task
  queue (results come back on one shared queue), or, inline, the
  parent itself: ``workers <= 1`` without a timeout runs each task in
  the parent as it is dispatched (deterministic, easily debugged, no
  subprocesses).  The parent knows which slot owns which task and when
  it started, which is what makes per-task **timeouts** enforceable: a
  worker that blows its deadline is terminated and replaced, and the
  task re-enters the queue under the retry policy.  A timeout cannot be
  enforced inline, so a run with one always uses the process pool, with
  at least one worker.
- **Bounded retry with exponential backoff**: a failing task is
  re-queued up to ``retries`` times with ``backoff * 2^(attempt-1)``
  seconds of delay; after that its points are recorded as *failed* in
  the manifest and the rest of the grid continues — a broken rule file
  costs its own points, not the campaign.

Every state change is appended to the JSONL
:class:`~repro.campaign.manifest.RunManifest`, which each run writes
afresh: a rerun's rows come from the artifact store, not from the
previous manifest.
"""

from __future__ import annotations

import heapq
import queue as queue_mod
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.artifacts import ArtifactStore
from repro.campaign.grid import (
    GridTask,
    Job,
    expand_jobs,
    plan_tasks,
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
    EVENT_JOB_START,
    EVENT_TELEMETRY,
    RunManifest,
)
from repro.campaign.spec import CampaignSpec
from repro.obsv.telemetry import get_telemetry

#: Upper bound on one backoff delay, seconds.
MAX_BACKOFF = 30.0


@dataclass
class JobOutcome:
    """Terminal state of one task after scheduling."""

    job_id: str
    status: str  #: ``"done"`` | ``"failed"``
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

    def cache_hit_rate(self) -> float:
        """Fraction of done points whose simulation artifact was already
        stored."""
        done = self.by_status("done")
        if not done:
            return 0.0
        hits = sum(
            1
            for outcome in done
            if (outcome.result or {}).get("cache_hits", {}).get("simulation")
        )
        return hits / len(done)

    def summary(self) -> str:
        """Multi-line aggregate summary of the run."""
        hit_rate = self.cache_hit_rate()
        lines = [
            f"campaign {self.spec.name!r}: {len(self.outcomes)} points",
            f"  done: {self.n_done}  failed: {self.n_failed}",
            f"  artifact-cache hit rate: {hit_rate:.1%} "
            f"({round(hit_rate * self.n_done)}/{self.n_done} points)",
            f"  wall time: {self.wall_seconds:.2f}s",
        ]
        for outcome in self.by_status("failed"):
            lines.append(
                f"  FAILED {outcome.job_id} "
                f"after {outcome.attempts} attempts: {outcome.error}"
            )
        return "\n".join(lines)


def execute_task(task: GridTask, directory: str) -> Dict[str, Any]:
    """Run one task against a campaign directory:
    :func:`repro.campaign.jobs.execute_grid_task`.

    Every worker slot, inline or pooled, calls the pipeline through this
    name.  The scheduler imports :mod:`repro.campaign.jobs` before it
    starts any work, so forked workers inherit it and this import is a
    lookup.
    """
    from repro.campaign.jobs import execute_grid_task

    return execute_grid_task(task, directory)


def _dispatch_order(
    tasks: Sequence[GridTask],
) -> Tuple[List[GridTask], Dict[int, List[int]]]:
    """``(tasks, held)``: the tasks in dispatch order, and per program's
    first task the positions of the tasks it holds back.

    Every program's first task (in grid order) comes ahead of any
    program's later task, and a program's later tasks wait in
    ``held[first]`` until that first task's first attempt has ended.
    """
    firsts: Dict[Tuple[str, int], GridTask] = {}
    for task in tasks:
        firsts.setdefault(task.program, task)
    ordered = list(firsts.values())
    position = {program: seq for seq, program in enumerate(firsts)}
    held: Dict[int, List[int]] = {}
    for task in tasks:
        if firsts[task.program] is not task:
            held.setdefault(position[task.program], []).append(len(ordered))
            ordered.append(task)
    return ordered, held


class _WorkerSlot:
    """Parent-side bookkeeping for one worker.

    ``busy`` holds the ``(seq, attempt)`` pair currently assigned, so a
    stale result from a terminated-and-replaced worker (whose job was
    already settled as a timeout) can be recognised and dropped.
    """

    __slots__ = ("process", "task_queue", "busy", "started_at")

    def __init__(self, process: Any, task_queue: Any) -> None:
        self.process = process
        self.task_queue = task_queue
        self.busy: Optional[Tuple[int, int]] = None
        self.started_at: float = 0.0


class _InlineWorker:
    """Worker 0 of an inline run: the parent process itself.

    It stands in for both the process and the task queue of its
    :class:`_WorkerSlot`: a task put on it runs at once, against the
    parent's own telemetry, and its result lands on the run's result
    queue exactly as a pool worker's would.  Only ``Exception`` is
    caught, so an interrupt stops the run.
    """

    def __init__(self, result_queue: Any, directory: str) -> None:
        self.result_queue = result_queue
        self.directory = directory

    def put(self, item: Optional[Tuple[int, int, GridTask]]) -> None:
        if item is None:
            return
        seq, attempt, task = item
        started = time.monotonic()
        try:
            status, payload = "ok", execute_task(task, self.directory)
        except Exception as exc:
            status, payload = "error", f"{type(exc).__name__}: {exc}"
        self.result_queue.put(
            (seq, attempt, 0, status, payload, time.monotonic() - started)
        )

    def is_alive(self) -> bool:
        return True

    def terminate(self) -> None:
        pass

    def join(self, timeout: float) -> None:
        pass


def _worker_main(worker_id: int, task_queue, result_queue, directory: str) -> None:
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
            result = execute_task(task, directory)
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
        Campaign working directory; holds ``artifacts/`` (one JSON
        payload per grid point), ``tracestore/`` (the trace commit
        store: every trace and transform) and ``manifest.jsonl``.  Task
        bodies are handed this directory.
    workers:
        Worker processes; ``<= 1`` runs inline unless a ``timeout`` is
        set, which always runs on the process pool (at least one
        worker).
    timeout:
        Per-task wall-clock budget in seconds (``None`` = unlimited); a
        program's first task spends it on tracing the program too.
    retries:
        Re-attempts after the first failure of a job.
    backoff:
        Base seconds of delay before attempt *n*'s retry
        (``backoff * 2^(n-1)``, capped at :data:`MAX_BACKOFF`).
    fast:
        Let kernel-covered geometries use the vectorized kernel (and
        ``file:`` rule points the trace commit store).  ``False`` (``tdst
        campaign --no-fast``) is the reference oracle: every grid point
        takes the reference simulator.  It reaches the route planner
        (:func:`~repro.campaign.grid.plan_route`) as an argument, so it
        never outlives this scheduler.
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
        fast: bool = True,
    ) -> None:
        self.spec = spec
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactStore(self.directory / "artifacts")
        self.manifest_path = self.directory / "manifest.jsonl"
        self.fast = fast
        self.workers = max(0, workers)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)

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
            jobs = expand_jobs(self.spec)
        result = CampaignResult(spec=self.spec)
        with RunManifest(self.manifest_path) as manifest:
            manifest.record(
                EVENT_CAMPAIGN_START,
                campaign=self.spec.name,
                points=len(jobs),
                workers=self.workers,
                timeout=self.timeout,
                retries=self.retries,
            )
            with telemetry.span("campaign.plan", cat="campaign"):
                run_jobs = [
                    job
                    for job in jobs
                    if not self._serve_stored(job, manifest, result, telemetry)
                ]
            # Only the points the store did not answer are routed and
            # grouped, so a widened group runs only its missing members.
            with telemetry.span("campaign.grid", cat="campaign"):
                tasks = plan_tasks(run_jobs, self.fast)
                result.outcomes.extend(self._run_tasks(tasks, manifest))
            result.wall_seconds = time.monotonic() - started
            telemetry.add("campaign.points_done", result.n_done)
            telemetry.add("campaign.points_failed", result.n_failed)
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
        ``store``, attempt 1) and returns True, and the point starts no
        work.  An artifact whose manifest row a crashed run never wrote
        is answered the same way.  False means the point must run; so
        does a rule reference that cannot be resolved, whose failure the
        normal run path records.
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
        manifest.record(
            EVENT_JOB_DONE,
            job_id=job.job_id,
            attempt=1,
            worker=-1,
            elapsed=elapsed,
            result=payload,
        )
        result.outcomes.append(
            JobOutcome(
                job_id=job.job_id,
                status="done",
                elapsed=elapsed,
                result=payload,
            )
        )
        telemetry.add("campaign.artifact_hits")
        return True

    # -- the executor ---------------------------------------------------------

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        return min(self.backoff * (2 ** (attempt - 1)), MAX_BACKOFF)

    def _run_tasks(
        self, tasks: Sequence[GridTask], manifest: RunManifest
    ) -> List[JobOutcome]:
        """Drive the grid tasks to terminal state: one dispatch loop over
        worker slots, with per-task deadlines and replacement."""
        if not tasks:
            return []
        # Load the pipeline here, before any fork, so pool workers
        # inherit it instead of importing it once each.
        import repro.campaign.jobs  # noqa: F401

        directory = str(self.directory)
        tasks, held = _dispatch_order(tasks)
        # Inline execution cannot enforce a timeout, so a run with one
        # goes through the process pool even with a single worker.
        inline = self.workers <= 1 and self.timeout is None
        if inline:
            result_queue: Any = queue_mod.SimpleQueue()
            parent = _InlineWorker(result_queue, directory)

            def spawn(worker_id: int) -> _WorkerSlot:
                return _WorkerSlot(parent, parent)

            n_workers = 1
        else:
            ctx = _mp_context()
            result_queue = ctx.Queue()

            def spawn(worker_id: int) -> _WorkerSlot:
                task_queue = ctx.Queue()
                process = ctx.Process(
                    target=_worker_main,
                    args=(worker_id, task_queue, result_queue, directory),
                    daemon=True,
                )
                process.start()
                return _WorkerSlot(process, task_queue)

            n_workers = max(1, min(self.workers, len(tasks)))

        slots = [spawn(i) for i in range(n_workers)]
        # (ready_time, seq) heap of runnable work: every task no first
        # task holds back; attempts[seq] counts tries already made;
        # elapsed_total[seq] accumulates across attempts.
        waiting = {seq for later in held.values() for seq in later}
        ready: List[Tuple[float, int]] = [
            (0.0, seq) for seq in range(len(tasks)) if seq not in waiting
        ]
        heapq.heapify(ready)
        attempts = [0] * len(tasks)
        elapsed_total = [0.0] * len(tasks)
        # One list of member outcomes per settled task.
        outcomes: Dict[int, List[JobOutcome]] = {}

        def settle(
            seq: int, worker_id: int, status: str, payload: Any, took: float
        ) -> None:
            """Record one ended attempt: done, retry, or terminal failure."""
            # After a first task's first attempt, its program's other
            # tasks find the trace committed (or, if it failed, trace it).
            for later in held.pop(seq, ()):
                heapq.heappush(ready, (0.0, later))
            elapsed_total[seq] += took
            task = tasks[seq]
            attempt = attempts[seq]
            if status == "ok":
                child_tele = payload.pop("telemetry", None)
                if child_tele:
                    get_telemetry().merge(child_tele)
                # One row per member, keyed by the member's job id with
                # its own payload, so reports never see how points were
                # grouped.
                members = payload.get("members", {})
                settled = []
                for job in task.members:
                    row = members.get(job.job_id)
                    manifest.record(
                        EVENT_JOB_DONE,
                        job_id=job.job_id,
                        attempt=attempt,
                        worker=worker_id,
                        elapsed=round(took, 6),
                        result=row,
                    )
                    settled.append(
                        JobOutcome(
                            job_id=job.job_id,
                            status="done",
                            attempts=attempt,
                            elapsed=elapsed_total[seq],
                            result=row,
                        )
                    )
                outcomes[seq] = settled
            elif attempt <= self.retries:
                delay = self._retry_delay(attempt)
                manifest.record(
                    EVENT_JOB_RETRY,
                    job_id=task.job_id,
                    attempt=attempt,
                    worker=worker_id,
                    error=payload,
                    backoff=round(delay, 3),
                )
                heapq.heappush(ready, (time.monotonic() + delay, seq))
            else:
                settled = []
                for job in task.members:
                    manifest.record(
                        EVENT_JOB_FAILED,
                        job_id=job.job_id,
                        attempts=attempt,
                        error=payload,
                    )
                    settled.append(
                        JobOutcome(
                            job_id=job.job_id,
                            status="failed",
                            attempts=attempt,
                            elapsed=elapsed_total[seq],
                            error=payload,
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
                    # A result without an owner is stale: its worker's
                    # task was already settled (e.g. it finished right as
                    # it was timed out).
                    if owner is not None and seq not in outcomes:
                        owner.busy = None
                        settle(seq, worker_id, status, payload, took)
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
                    settle(seq, i, "error", error, took)
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
            if not inline:
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
    fast: bool = True,
) -> CampaignResult:
    """One-call campaign execution (see :class:`Scheduler` for knobs)."""
    return Scheduler(
        spec,
        directory,
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        fast=fast,
    ).run()
