"""Wire representation of service jobs (plain-JSON job descriptions).

The socket protocol carries *job descriptions*, never pickles: a remote
worker on another machine must be able to execute a job from nothing but
the frame and a shared artifact-store root.  Three kinds exist:

- ``campaign-task`` — one campaign task (:class:`TraceTask`,
  :class:`Job` or :class:`BatchJob`, as
  :func:`~repro.campaign.grid.expand_jobs` and
  :func:`~repro.campaign.grid.group_batch_jobs` plan them) flattened to primitives by a
  client; executing it runs the exact same
  :func:`repro.campaign.jobs.execute_task` body the scheduler's process
  pool runs, so artifacts are byte-identical to the pool's by
  construction.
- ``simulate`` — an ad-hoc simulation of an on-disk trace file against
  one cache geometry (the ``tdst submit`` surface).
- ``noop`` — a no-work job used by the soak suite and fault-injection
  harness to exercise queueing, stealing and the protocol at volume.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Union

from repro.campaign.jobs import BatchJob, Job, TraceTask, execute_task
from repro.campaign.service.protocol import ProtocolError
from repro.campaign.spec import CacheSpec

#: Job kinds the service understands.
JOB_KINDS = ("campaign-task", "simulate", "noop")


def task_to_wire(task: Union[TraceTask, Job, BatchJob]) -> Dict[str, Any]:
    """Flatten one campaign task into a JSON-safe job description."""
    if isinstance(task, TraceTask):
        body: Dict[str, Any] = {"task": "trace", **asdict(task)}
    elif isinstance(task, Job):
        body = {"task": "job", **asdict(task)}
    elif isinstance(task, BatchJob):
        body = {
            "task": "batch",
            "chunk": task.chunk,
            "members": [asdict(m) for m in task.members],
        }
    else:
        raise ProtocolError(f"unknown task kind {type(task).__name__}")
    return {"kind": "campaign-task", **body}


def _job_from(data: Dict[str, Any]) -> Job:
    """Rebuild one grid-point Job from its flattened form."""
    return Job(
        kernel=str(data["kernel"]),
        length=int(data["length"]),
        rule=str(data["rule"]),
        cache=CacheSpec(**data["cache"]),
        attribution=str(data.get("attribution", "base")),
        verify=bool(data.get("verify", False)),
        tracestore=bool(data.get("tracestore", True)),
        fast=bool(data.get("fast", True)),
    )


def task_from_wire(
    job: Dict[str, Any]
) -> Union[TraceTask, Job, BatchJob]:
    """Rebuild a campaign task from a ``campaign-task`` description."""
    try:
        task = job["task"]
        if task == "trace":
            return TraceTask(kernel=str(job["kernel"]), length=int(job["length"]))
        if task == "job":
            return _job_from(job)
        if task == "batch":
            return BatchJob(
                members=tuple(_job_from(m) for m in job["members"]),
                chunk=int(job.get("chunk", 65536)),
            )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed campaign-task job: {exc}") from exc
    raise ProtocolError(f"unknown campaign task {job.get('task')!r}")


def execute_wire_job(job: Dict[str, Any], store_root: str) -> Dict[str, Any]:
    """Execute one wire job description; returns its JSON payload.

    This is the default *runner* the service's shard workers call (via
    their executor).  Raises on malformed descriptions and on job
    failures — the worker loop owns retry policy.
    """
    kind = job.get("kind")
    if kind == "noop":
        # Touch nothing: the payload is the (tiny) echo the soak suite
        # checks for loss/duplication accounting.
        return {"kind": "noop", "echo": job.get("echo")}
    if kind == "campaign-task":
        return execute_task(task_from_wire(job), store_root)
    if kind == "simulate":
        from repro.campaign.jobs import simulation_fields
        from repro.trace.stream import Trace

        trace = Trace.load_any(str(job["trace"]))
        cache = CacheSpec(**job.get("cache", {}))
        fields = simulation_fields(
            trace,
            cache.to_config(),
            str(job.get("attribution", "base")),
        )
        return {"kind": "simulation", "records": len(trace), **fields}
    raise ProtocolError(
        f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
    )
