"""Combined text reports: simulation, transformation, comparison.

These are the human-facing equivalents of the modified DineroIV's output
plus the transformation module's log — what a user of the paper's tool
reads after step 5 of the process.  :func:`campaign_report` needs only
manifest rows, so it imports no numpy or simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.cache.simulator import SimulationResult
    from repro.trace.diff import TraceDiff
    from repro.transform.engine import TransformResult


def simulation_report(
    result: SimulationResult,
    *,
    title: str = "",
    plot: bool = True,
    top_conflicts: int = 5,
) -> str:
    """Full per-simulation report: stats, conflict pairs, per-set plot."""
    from repro.analysis.ascii_plot import render_figure
    from repro.analysis.per_set import figure_series

    sections = []
    if title:
        sections.append(f"== {title} ==")
    sections.append(result.config.describe())
    sections.append(result.stats.summary())
    cross = result.conflicts.cross_conflicts()
    if cross:
        sections.append("top structure conflicts (victim <- evictor):")
        pairs = sorted(cross.items(), key=lambda kv: -kv[1])[:top_conflicts]
        for (victim, evictor), count in pairs:
            sections.append(f"  {victim:<24s} <- {evictor:<24s} {count}")
    if plot:
        sections.append(render_figure(figure_series(result, title=title or "per-set")))
    return "\n".join(sections)


def comparison_report(
    before: SimulationResult,
    after: SimulationResult,
    *,
    label_before: str = "original",
    label_after: str = "transformed",
    transform: Optional[TransformResult] = None,
    diff: Optional[TraceDiff] = None,
) -> str:
    """Side-by-side summary of a transformation study.

    The core numbers a layout study cares about: miss counts before and
    after, delta, plus transformation and diff summaries when provided.
    """
    b, a = before.stats, after.stats
    delta = a.misses - b.misses
    pct = (delta / b.misses * 100.0) if b.misses else 0.0
    lines = [
        f"{'':<18s}{label_before:>14s}{label_after:>14s}",
        f"{'accesses':<18s}{b.accesses:>14d}{a.accesses:>14d}",
        f"{'hits':<18s}{b.hits:>14d}{a.hits:>14d}",
        f"{'misses':<18s}{b.misses:>14d}{a.misses:>14d}",
        f"{'miss ratio':<18s}{b.miss_ratio:>14.4f}{a.miss_ratio:>14.4f}",
        f"{'evictions':<18s}{b.evictions:>14d}{a.evictions:>14d}",
        f"miss delta        {delta:+d} ({pct:+.1f}%)",
    ]
    if transform is not None:
        lines.append("transformation:")
        lines.extend("  " + l for l in transform.report.summary().splitlines())
    if diff is not None:
        lines.append(f"trace diff: {diff.summary()}")
    return "\n".join(lines)


def _split_job_id(job_id: str) -> Tuple[str, str, str, str]:
    """``(program, rule, cache, attribution)`` parts of a campaign job id.

    Split from the right because ``file:`` rule references may contain
    ``/`` themselves.
    """
    head, cache, attribution = job_id.rsplit("/", 2)
    program, _, rule = head.partition("/")
    return program, rule, cache, attribution


def campaign_report(rows: Sequence[Dict[str, Any]]) -> str:
    """Before/after table of a campaign's terminal manifest rows.

    ``rows`` are the per-job terminal events of a run manifest
    (``RunManifest.result_rows``) — or any dicts with the same shape:
    ``job_id``, ``event`` (``job-done``/``job-failed``, or the
    ``job-skipped`` of an older manifest that carried rows forward),
    and for completed jobs a ``result`` payload with the simulation
    counters.  Grid points are compared against the ``baseline`` rule of
    the same (program, cache, attribution) group, reproducing the
    paper's per-transformation before/after miss tables.
    """
    grid = [r for r in rows if not r.get("job_id", "").startswith("trace/")]
    baselines: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    for row in grid:
        program, rule, cache, attribution = _split_job_id(row["job_id"])
        if rule in ("baseline", "none") and row.get("result"):
            baselines[(program, cache, attribution)] = row["result"]
    header = (
        f"{'point':<56s}{'status':>8s}{'accesses':>10s}"
        f"{'misses':>8s}{'ratio':>8s}{'vs base':>9s}"
    )
    lines = [header]
    statuses = {"done": 0, "failed": 0, "skipped": 0}
    sim_hits = 0
    with_result = 0
    for row in grid:
        program, rule, cache, attribution = _split_job_id(row["job_id"])
        status = {
            "job-done": "done",
            "job-failed": "failed",
            "job-skipped": "skipped",
        }.get(row.get("event", ""), row.get("event", "?"))
        if status in statuses:
            statuses[status] += 1
        result = row.get("result")
        if result is None:
            lines.append(
                f"{row['job_id']:<56s}{status:>8s}{'-':>10s}{'-':>8s}{'-':>8s}"
                f"{'-':>9s}"
            )
            continue
        with_result += 1
        if result.get("cache_hits", {}).get("simulation") or status == "skipped":
            sim_hits += 1
        base = baselines.get((program, cache, attribution))
        if base is None or rule in ("baseline", "none") or not base.get("misses"):
            delta = "-"
        else:
            pct = (result["misses"] - base["misses"]) / base["misses"] * 100.0
            delta = f"{pct:+.1f}%"
        lines.append(
            f"{row['job_id']:<56s}{status:>8s}{result['accesses']:>10d}"
            f"{result['misses']:>8d}{result['miss_ratio']:>8.4f}{delta:>9s}"
        )
    lines.append(
        f"totals: {statuses['done']} done, {statuses['failed']} failed, "
        f"{statuses['skipped']} skipped; "
        f"artifact-cache simulation hits: {sim_hits}/{with_result}"
    )
    return "\n".join(lines)
