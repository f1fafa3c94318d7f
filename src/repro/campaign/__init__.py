"""Experiment-campaign orchestration: the whole paper grid in one run.

The one-shot pipeline (trace -> transform -> simulate -> report) scales
to full studies through this subpackage:

- :mod:`repro.campaign.spec` — declarative :class:`CampaignSpec` (TOML
  or dict): a grid of kernels x rules x cache geometries x attribution;
- :mod:`repro.campaign.jobs` — grid expansion with shared-stage
  deduplication and the idempotent per-job pipeline workers execute;
- :mod:`repro.campaign.artifacts` — content-addressed
  :class:`ArtifactStore` (SHA-256 of kernel + rule text + config) that
  makes re-runs and ``--resume`` incremental;
- :mod:`repro.campaign.manifest` — append-only JSONL
  :class:`RunManifest` of every job start/retry/failure/completion;
- :mod:`repro.campaign.scheduler` — the parallel :class:`Scheduler`
  with per-job timeouts, bounded retry with exponential backoff, and
  graceful degradation (a failed point never aborts the grid);
- :mod:`repro.campaign.service` — the asyncio campaign service
  (``tdst serve``, ``--service``).  It is imported on demand only, so
  a process-pool campaign never loads asyncio.

Quick start::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec.load("paper.toml")     # or paper_figures_spec()
    result = run_campaign(spec, "campaign_out", workers=4)
    print(result.summary())
"""

from repro.campaign.artifacts import ArtifactStore, content_key
from repro.campaign.jobs import (
    BatchJob,
    Job,
    TraceTask,
    execute_batch_job,
    execute_job,
    execute_task,
    execute_trace_task,
    expand_jobs,
    group_batch_jobs,
    resolve_rule_text,
    simulation_key,
    trace_key,
    transform_key,
)
from repro.campaign.manifest import RunManifest
from repro.campaign.scheduler import (
    CampaignResult,
    JobOutcome,
    Scheduler,
    run_campaign,
)
from repro.campaign.spec import (
    BatchOptions,
    CacheSpec,
    CampaignSpec,
    GridEntry,
    ServiceOptions,
    paper_figures_spec,
)

__all__ = [
    "ArtifactStore",
    "BatchJob",
    "BatchOptions",
    "CacheSpec",
    "CampaignResult",
    "CampaignSpec",
    "GridEntry",
    "Job",
    "JobOutcome",
    "RunManifest",
    "Scheduler",
    "ServiceOptions",
    "TraceTask",
    "content_key",
    "execute_batch_job",
    "execute_job",
    "execute_task",
    "execute_trace_task",
    "expand_jobs",
    "group_batch_jobs",
    "paper_figures_spec",
    "resolve_rule_text",
    "run_campaign",
    "simulation_key",
    "trace_key",
    "transform_key",
]
