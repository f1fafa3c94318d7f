"""High-level facade: the whole pipeline in a handful of calls.

This module is the recommended entry point for library users; it mirrors
the paper's workflow (Figure 2: application -> Gleipnir -> trace ->
DineroIV + transformation -> plots)::

    from repro import api

    program = api.paper_kernel("1a", length=1024)       # the application
    trace = api.trace_program(program)                  # "Gleipnir"
    rules = api.paper_rule("t1", length=1024)           # rule file
    transformed = api.transform_trace(trace, rules)     # the new module
    before = api.simulate(trace)                        # "DineroIV"
    after = api.simulate(transformed.trace)
    print(api.comparison_report(before, after, transform=transformed))

Whole experiment grids (every paper figure) run through the campaign
layer instead of hand-chained calls::

    result = api.run_campaign(api.paper_figures_spec(), "campaign_out",
                              workers=4)
    print(result.summary())
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.fastsim import fast_trace_counts
from repro.cache.simulator import CacheSimulator, SimulationResult, simulate
from repro.campaign import (
    ArtifactStore,
    CacheSpec,
    CampaignResult,
    CampaignSpec,
    GridEntry,
    RunManifest,
    Scheduler,
    paper_figures_spec,
    run_campaign,
)
from repro.tracestore import (
    ApplyResult,
    ChainSimResult,
    Commit,
    RuleDelta,
    TraceStore,
    apply_rules,
    digest_for_commit,
    rule_delta,
    simulate_chain,
)
from repro.simbatch import (
    BatchPlan,
    BatchResult,
    MultiConfigSimulator,
    batch_trace_counts,
    plan_batch,
    simulate_batch,
)
from repro.simbatch.kernel import FastCounts, FastTraceCounts
from repro.simbatch.plan import supports_fast_path
from repro.cache.hierarchy import CacheHierarchy, simulate_hierarchy
from repro.cache.threec import classify_misses
from repro.cache.split import simulate_split
from repro.cache.victim import simulate_with_victim
from repro.cache.prefetch import PrefetchPolicy, simulate_with_prefetch
from repro.memory.paging import PageTable
from repro.trace.diff import diff_traces
from repro.trace.physical import to_physical
from repro.trace.interleave import proportional, round_robin, tag_thread
from repro.analysis.heatmap import compute_heatmap
from repro.analysis.sweep import associativity_sweep, sweep_configs, sweep_table
from repro.transform.advisor import (
    AdvisorReport,
    Candidate,
    RankedCandidate,
    advise,
    generate_candidates,
    rank_candidates,
    suggest_field_order,
    suggest_hot_cold_split,
)
from repro.trace.binformat import load_binary, save_binary
from repro.trace.columnar import (
    ColumnarTrace,
    load_columnar,
    open_columnar,
    save_columnar,
    upgrade_binary,
)
from repro.trace.format import read_trace, write_trace
from repro.trace.stats import compute_stats
from repro.trace.stream import Trace, iter_records
from repro.tracer.interp import Interpreter, trace_program
from repro.tracer.program import Program
from repro.transform.engine import TransformEngine, transform_trace
from repro.transform.paper_rules import paper_rule, rule_t1, rule_t2, rule_t3
from repro.transform.rule_parser import parse_rules, parse_rules_file
from repro.analysis.per_set import figure_series
from repro.analysis.ascii_plot import render_figure
from repro.analysis.gnuplot import write_gnuplot_data, write_gnuplot_script
from repro.analysis.report import (
    campaign_report,
    comparison_report,
    simulation_report,
)
from repro.obsv import (
    Telemetry,
    counters,
    get_telemetry,
    phase,
    read_jsonl_profile,
    render_summary,
    write_chrome_trace,
    write_jsonl_profile,
)
from repro.lint import (
    ChainProof,
    CostReport,
    Diagnostic,
    LintReport,
    MissInterval,
    SetFootprint,
    evaluate_rules,
    lint_cost,
    lint_file,
    lint_paths,
    lint_rules_text,
    lint_spec_text,
    predicted_conflicts,
    set_footprints,
    to_sarif,
)
from repro.lint.cost.chains import (
    layout_equivalent,
    prove_dominates,
    prove_idempotent,
    prove_reorder,
)
from repro.trace.digest import TraceDigest, compute_digest
from repro.verify import (
    AgreementReport,
    SoundnessReport,
    VerifyOutcome,
    check_kernel_agreement,
    check_result,
    check_transform,
    verify_paper,
)
from repro.workloads.paper_kernels import paper_kernel
from repro.workloads import (
    linked_list_traversal,
    matrix_multiply,
    particle_update,
    stencil_2d,
)

__all__ = [
    # pipeline stages
    "Program",
    "Interpreter",
    "trace_program",
    "Trace",
    "read_trace",
    "write_trace",
    "load_binary",
    "save_binary",
    "ColumnarTrace",
    "load_columnar",
    "open_columnar",
    "save_columnar",
    "upgrade_binary",
    "compute_stats",
    "CacheConfig",
    "CacheSimulator",
    "SimulationResult",
    "simulate",
    "iter_records",
    "FastCounts",
    "FastTraceCounts",
    "fast_trace_counts",
    "supports_fast_path",
    "CacheHierarchy",
    "simulate_hierarchy",
    "classify_misses",
    "simulate_split",
    "simulate_with_victim",
    "simulate_with_prefetch",
    "PrefetchPolicy",
    "PageTable",
    "to_physical",
    "tag_thread",
    "round_robin",
    "proportional",
    "compute_heatmap",
    "sweep_configs",
    "sweep_table",
    "associativity_sweep",
    "suggest_hot_cold_split",
    "suggest_field_order",
    "AdvisorReport",
    "Candidate",
    "RankedCandidate",
    "advise",
    "generate_candidates",
    "rank_candidates",
    "TransformEngine",
    "transform_trace",
    "parse_rules",
    "parse_rules_file",
    "diff_traces",
    # paper assets
    "paper_kernel",
    "paper_rule",
    "rule_t1",
    "rule_t2",
    "rule_t3",
    # workloads
    "linked_list_traversal",
    "matrix_multiply",
    "particle_update",
    "stencil_2d",
    # analysis
    "figure_series",
    "render_figure",
    "write_gnuplot_data",
    "write_gnuplot_script",
    "simulation_report",
    "comparison_report",
    "campaign_report",
    # verification
    "AgreementReport",
    "SoundnessReport",
    "VerifyOutcome",
    "check_kernel_agreement",
    "check_result",
    "check_transform",
    "verify_paper",
    # static analysis (lint)
    "Diagnostic",
    "LintReport",
    "SetFootprint",
    "lint_file",
    "lint_paths",
    "lint_rules_text",
    "lint_spec_text",
    "set_footprints",
    "predicted_conflicts",
    "to_sarif",
    # static cost model & chain proofs
    "ChainProof",
    "CostReport",
    "MissInterval",
    "TraceDigest",
    "compute_digest",
    "evaluate_rules",
    "lint_cost",
    "layout_equivalent",
    "prove_dominates",
    "prove_idempotent",
    "prove_reorder",
    # observability
    "Telemetry",
    "get_telemetry",
    "phase",
    "counters",
    "write_jsonl_profile",
    "read_jsonl_profile",
    "write_chrome_trace",
    "render_summary",
    # campaigns
    "ArtifactStore",
    "CacheSpec",
    "CampaignResult",
    "CampaignSpec",
    "GridEntry",
    "RunManifest",
    "Scheduler",
    "paper_figures_spec",
    "run_campaign",
    # trace commit chains (incremental re-simulation)
    "ApplyResult",
    "ChainSimResult",
    "Commit",
    "RuleDelta",
    "TraceStore",
    "apply_rules",
    "digest_for_commit",
    "rule_delta",
    "simulate_chain",
    # batched multi-config simulation
    "BatchPlan",
    "BatchResult",
    "MultiConfigSimulator",
    "batch_trace_counts",
    "plan_batch",
    "simulate_batch",
]
