"""Experiment-campaign orchestration: the whole paper grid in one run.

The one-shot pipeline (trace -> transform -> simulate -> report) scales
to full studies through this subpackage:

- :mod:`repro.campaign.spec` — declarative :class:`CampaignSpec` (TOML
  or dict): a grid of kernels x rules x cache geometries x attribution;
- :mod:`repro.campaign.grid` — grid expansion, the route planner, the
  one task kind (:class:`GridTask`: points sharing a trace and a
  route) and content keys (no numpy: the parent plans a run and
  answers stored points with it alone);
- :mod:`repro.campaign.jobs` — the idempotent task body workers
  execute: a task that misses its program's trace traces it, and every
  trace and transform is a commit in the campaign directory's trace
  commit store (:mod:`repro.tracestore`);
- :mod:`repro.campaign.artifacts` — content-addressed
  :class:`ArtifactStore` (SHA-256 of kernel + rule text + config) that
  makes re-runs and ``--resume`` incremental;
- :mod:`repro.campaign.manifest` — append-only JSONL
  :class:`RunManifest` of every job start/retry/failure/completion;
- :mod:`repro.campaign.scheduler` — the :class:`Scheduler`, the one
  campaign executor: one dispatch loop over worker slots (the parent
  itself inline, or a process pool), each program's first task ahead
  of its others, with per-job timeouts, bounded retry with exponential
  backoff, and graceful degradation (a failed point never aborts the
  grid).

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
            "GridTask",
            "Job",
            "expand_jobs",
            "plan_route",
            "plan_tasks",
            "resolve_rule_text",
            "simulation_key",
            "trace_key",
            "transform_key",
        ),
        "repro.campaign.jobs": (
            "execute_grid_task",
            "execute_job",
        ),
        "repro.campaign.manifest": ("RunManifest",),
        "repro.campaign.scheduler": (
            "CampaignResult",
            "JobOutcome",
            "Scheduler",
            "run_campaign",
        ),
        "repro.campaign.spec": (
            "CacheSpec",
            "CampaignSpec",
            "GridEntry",
            "paper_figures_spec",
        ),
    },
)
