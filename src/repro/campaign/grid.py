"""Campaign grid: grid points, tasks, route planning, content keys.

This is the half of the campaign machinery the parent process needs to
plan a run: expand a :class:`CampaignSpec` into picklable grid points
and tasks, name each stage's output by content key, and pick each grid
point's route (:func:`plan_route`, the one place a route is chosen).
It imports no numpy, tracer, engine or simulator, so a campaign whose
points are all stored is answered from the artifact store without
loading the pipeline; :mod:`repro.campaign.jobs` holds the task body
workers run.

There is one task kind, :class:`GridTask`: one or more grid points
(:class:`Job`) sharing a trace identity and a route.  Its body takes
the program's trace commit (tracing and committing it on a miss),
optionally applies the rule to it, simulates every member's cache
geometry, and stores one result JSON per member.  A program's trace is
shared by all of its rule x cache x attribution points: the scheduler
sends each program's first task ahead of the others, which then find
its trace committed.

The content keys name inputs, not files: :func:`trace_key` names a
program's trace (its commit sits under the ref ``trace/<trace_key>``)
and :func:`transform_key` a rule applied to it; both only feed
:func:`simulation_key`, the key of a stored payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.artifacts import content_key
from repro.campaign.spec import BASELINE_NAMES, CacheSpec, CampaignSpec
from repro.transform.paper_rules import (
    RULE_T1_SOA_TO_AOS,
    RULE_T2_OUTLINE,
    RULE_T3_STRIDE,
)

#: Stage-schema versions folded into every content key: bump one to
#: invalidate that stage's cached outputs after a semantic change.
TRACE_STAGE = "trace-v1"
TRANSFORM_STAGE = "transform-v1"
SIMULATE_STAGE = "simulate-v1"


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


def expand_jobs(spec: CampaignSpec) -> List[Job]:
    """Expand a spec into its grid points.

    Overlapping grid entries (the same kernel appearing in several
    entries with intersecting rule sets) collapse to one job per
    distinct ``job_id``, so every manifest row names distinct work.
    """
    jobs: Dict[str, Job] = {}
    for entry in spec.grid:
        for rule in entry.rules:
            for cache in spec.caches_for(entry):
                for attribution in spec.attribution:
                    job = Job(
                        kernel=entry.kernel.lower(),
                        length=entry.length,
                        rule=rule,
                        cache=cache,
                        attribution=attribution,
                        verify=spec.verify,
                    )
                    jobs.setdefault(job.job_id, job)
    return list(jobs.values())


# -- stage keys ---------------------------------------------------------------


def trace_key(kernel: str, length: int) -> str:
    """Content key of one program's trace."""
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
    """Content key of a program's trace transformed under a rule text."""
    return content_key(TRANSFORM_STAGE, base_trace_key, rule_text)


def simulation_key(input_key: str, job: Job) -> str:
    """Content key of one simulation-result artifact; ``input_key`` is
    the simulated trace's (:func:`point_input_key`)."""
    return content_key(
        SIMULATE_STAGE, input_key, job.cache.label(), job.attribution
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


# -- route planning -----------------------------------------------------------


def plan_route(job: Job, fast: bool) -> Tuple[str, Optional[str]]:
    """``(route, reason)`` of one grid point, from its inputs alone.

    - ``tracestore``: a ``file:`` rule on a kernel-covered geometry —
      the edit loop's unit, simulated by resumable chain passes over
      the transform commit;
    - ``fast``: any other kernel-covered geometry;
    - ``reference``: everything else, with ``reason`` saying why the
      kernel was declined (the coverage matrix of
      :func:`repro.simbatch.plan.fast_path_declined`, or ``fast`` off).

    ``fast=False`` (``tdst campaign --no-fast``) is the reference
    oracle: every point takes the reference simulator.
    """
    from repro.errors import ReproError
    from repro.simbatch.plan import fast_path_declined

    if not fast:
        return "reference", "fast path off (--no-fast)"
    try:
        reason = fast_path_declined(job.cache.to_config())
    except (ReproError, TypeError) as exc:
        # An invalid geometry fails inside its task, where the retry and
        # degradation policy records it.
        return "reference", str(exc)
    if reason is not None:
        return "reference", reason
    if job.rule.startswith("file:"):
        return "tracestore", None
    return "fast", None


@dataclass(frozen=True)
class GridTask:
    """Grid points sharing one trace identity and one route, run as one task.

    Members agree on everything but the cache geometry (same kernel,
    length, rule, attribution and verify flag), so the trace and
    transform stages run once for all of them.  Each member still stores
    its own simulation artifact under its own key and appears in the
    manifest as its own ``job-done`` row.
    """

    members: Tuple[Job, ...]
    route: str
    #: why the kernel was declined (``reference`` tasks only)
    route_reason: Optional[str] = None

    @property
    def program(self) -> Tuple[str, int]:
        """The ``(kernel, length)`` whose trace every member simulates."""
        head = self.members[0]
        return head.kernel, head.length

    @property
    def job_id(self) -> str:
        """A one-point task is named by its point; a wider task by the
        trace identity it shares (manifest ``job-start`` rows)."""
        head = self.members[0]
        if len(self.members) == 1:
            return head.job_id
        return (
            f"{head.kernel}-L{head.length}/{head.rule}"
            f"/{len(self.members)}-caches/{head.attribution}"
        )


def plan_tasks(jobs: Sequence[Job], fast: bool) -> List[GridTask]:
    """Route every grid point and fold the points into tasks.

    Kernel-route points (``fast``, ``tracestore``) that share a trace
    identity fold into one task; each ``reference`` point stays a task
    of its own, so slow reference simulations still spread over the
    workers.  Tasks keep the order of their first member.
    """
    planned: Dict[Tuple[Any, ...], Tuple[str, Optional[str], List[Job]]] = {}
    for job in jobs:
        route, reason = plan_route(job, fast)
        key: Tuple[Any, ...] = (
            (job.job_id,)
            if route == "reference"
            else (route, job.kernel, job.length, job.rule, job.attribution, job.verify)
        )
        planned.setdefault(key, (route, reason, []))[2].append(job)
    return [
        GridTask(members=tuple(members), route=route, route_reason=reason)
        for route, reason, members in planned.values()
    ]
