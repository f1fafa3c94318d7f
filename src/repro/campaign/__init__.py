"""Experiment-campaign orchestration: the whole paper grid in one run.

The one-shot pipeline (trace -> transform -> simulate -> report) scales
to full studies through this subpackage:

- :mod:`repro.campaign.spec` — declarative :class:`CampaignSpec` (TOML
  or dict): a grid of kernels x rules x cache geometries x attribution;
- :mod:`repro.campaign.grid` — grid expansion with shared-stage
  deduplication, task kinds and content keys (no numpy: the parent
  plans a run and answers stored points with it alone);
- :mod:`repro.campaign.jobs` — the idempotent per-job pipeline workers
  execute;
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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.campaign.artifacts": ("ArtifactStore", "content_key"),
        "repro.campaign.grid": (
            "BatchJob",
            "Job",
            "TraceTask",
            "expand_jobs",
            "group_batch_jobs",
            "resolve_rule_text",
            "simulation_key",
            "trace_key",
            "transform_key",
        ),
        "repro.campaign.jobs": (
            "execute_batch_job",
            "execute_job",
            "execute_task",
            "execute_trace_task",
        ),
        "repro.campaign.manifest": ("RunManifest",),
        "repro.campaign.scheduler": (
            "CampaignResult",
            "JobOutcome",
            "Scheduler",
            "run_campaign",
        ),
        "repro.campaign.spec": (
            "BatchOptions",
            "CacheSpec",
            "CampaignSpec",
            "GridEntry",
            "ServiceOptions",
            "paper_figures_spec",
        ),
    },
)
