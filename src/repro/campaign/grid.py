"""Campaign grid: task kinds, grid expansion and content keys.

This is the half of the campaign machinery the parent process needs to
plan a run: expand a :class:`CampaignSpec` into picklable tasks, name
each stage's artifact by content key, and fold batchable points into
:class:`BatchJob` groups.  It imports no numpy, tracer, engine or
simulator, so a campaign whose points are all stored is answered from
the artifact store without loading the pipeline;
:mod:`repro.campaign.jobs` holds the stage bodies workers run.

Task kinds:

- :class:`TraceTask` — generate (or reuse) the trace of one
  ``(kernel, length)`` pair.  Trace generation is the expensive shared
  stage: every rule x cache x attribution point of the same program
  reuses one trace artifact, so the scheduler runs these first and
  exactly once per distinct program.
- :class:`Job` — one grid point: take the shared trace, optionally
  transform it under a rule, simulate against one cache geometry at one
  attribution granularity, and store the result JSON.
- :class:`BatchJob` — several grid points sharing one input trace, run
  as one batched kernel pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.campaign.artifacts import content_key
from repro.campaign.spec import BASELINE_NAMES, CacheSpec, CampaignSpec
from repro.transform.paper_rules import (
    RULE_T1_SOA_TO_AOS,
    RULE_T2_OUTLINE,
    RULE_T3_STRIDE,
)

#: Stage-schema versions folded into every content key: bump one to
#: invalidate that stage's cached artifacts after a semantic change.
TRACE_STAGE = "trace-v1"
TRANSFORM_STAGE = "transform-v1"
SIMULATE_STAGE = "simulate-v1"

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


def point_input_key(job: Job) -> Tuple[Optional[str], str]:
    """``(rule_text, key)`` of the trace one grid point simulates.

    ``rule_text`` is ``None`` for a baseline point, whose input is the
    program's own trace; otherwise the input is that trace transformed
    under the rule.  Raises like :func:`resolve_rule_text`.
    """
    rule_text = resolve_rule_text(job.rule, job.length)
    tkey = trace_key(job.kernel, job.length)
    if rule_text is None:
        return None, tkey
    return rule_text, transform_key(tkey, rule_text)


def returned_payload(
    stored: Dict[str, Any],
    hits: Dict[str, bool],
    route: Dict[str, str],
    started: float,
) -> Dict[str, Any]:
    """A grid point's stored payload plus what only this run knows: the
    per-stage cache hits, the route, and the compute time since
    ``started``.  None of these is part of the stored artifact."""
    payload = dict(stored)
    payload["cache_hits"] = hits
    payload.update(route)
    payload["compute_seconds"] = round(time.monotonic() - started, 6)
    return payload


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
) -> List[Union[Job, BatchJob]]:
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
