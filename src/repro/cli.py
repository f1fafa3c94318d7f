"""Command-line interface: ``tdst`` (trace-driven structure transforms).

Subcommands mirror the paper's analysis cycle (its Figure 2):

- ``tdst trace``     — run a built-in kernel and write its Gleipnir trace
  (stands in for running the application under Valgrind+Gleipnir);
- ``tdst stats``     — quick trace statistics;
- ``tdst simulate``  — DineroIV-style cache simulation of a trace file
  (alias ``sim``; ``--fast`` streams it through the batched kernel in
  bounded memory, ``--check`` cross-validates a sampled window);
- ``tdst transform`` — apply a rule file, write ``transformed_trace.out``;
- ``tdst diff``      — structural diff of two traces (Figures 5/8/9);
- ``tdst figure``    — per-set figure data (+ optional gnuplot output);
- ``tdst simbatch``  — simulate a whole grid of cache configs against
  one trace in a single batched pass (columnar traces stream zero-copy);
- ``tdst campaign``  — run a whole experiment grid (every paper figure)
  in parallel with artifact caching, retries and a JSONL run manifest;
- ``tdst commit``    — record a trace (or a rule application) as a
  content-addressed commit in a trace store; ``tdst log`` walks the
  chain; ``tdst resim`` re-simulates a commit incrementally, resuming
  from stored residency snapshots;
- ``tdst verify``    — differential verification: transform soundness
  oracle, golden figure corpus, kernel agreement and rule fuzzing;
- ``tdst obsv``      — read telemetry profiles back (summary table,
  Chrome ``trace_event`` export).

Every subcommand accepts ``--profile [PATH]`` / ``--profile-trace
[PATH]`` to record per-phase spans, counters and peak RSS to a JSONL
profile and/or a chrome://tracing-loadable trace file (see
``docs/OBSERVABILITY.md``).

Commands that read a trace auto-detect the format by magic bytes, so
text, gzipped text and compact binary (``TDST``) traces are
interchangeable everywhere.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence

# Each subcommand imports what it uses: a warm ``tdst campaign`` or
# ``tdst obsv`` never loads numpy, the tracer or a simulator.
if TYPE_CHECKING:
    from repro.cache.config import CacheConfig
    from repro.trace.stream import Trace


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=32 * 1024, help="cache bytes")
    parser.add_argument("--block", type=int, default=32, help="block bytes")
    parser.add_argument(
        "--assoc", type=int, default=1, help="ways per set (0 = fully associative)"
    )
    parser.add_argument(
        "--policy",
        default="lru",
        help="replacement policy: lru fifo round-robin random plru",
    )
    parser.add_argument(
        "--ppc440",
        action="store_true",
        help="use the paper's PowerPC 440 preset (32K/32B/64-way round-robin)",
    )
    parser.add_argument(
        "--attribution",
        choices=("base", "member"),
        default="base",
        help="per-variable stat granularity",
    )


def _add_physical_args(parser: argparse.ArgumentParser) -> None:
    """The options :func:`_apply_physical` reads, for the commands that
    apply it."""
    parser.add_argument(
        "--physical",
        choices=("identity", "sequential", "random", "coloring"),
        help="rewrite the trace to physical addresses first "
        "(shared-cache study; see memory.paging)",
    )
    parser.add_argument(
        "--colors", type=int, default=16, help="page colours for --physical coloring"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --physical random"
    )


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("profiling")
    group.add_argument(
        "--profile",
        nargs="?",
        const="profile.jsonl",
        metavar="PATH",
        help="record telemetry (phase spans, counters, peak RSS) to a "
        "JSONL profile (default PATH: profile.jsonl); summary on stderr",
    )
    group.add_argument(
        "--profile-trace",
        nargs="?",
        const="profile_trace.json",
        metavar="PATH",
        help="also write a Chrome trace_event file loadable in "
        "chrome://tracing or Perfetto (default PATH: profile_trace.json)",
    )


def _cache_config(args: argparse.Namespace) -> CacheConfig:
    from repro.cache.config import CacheConfig

    if getattr(args, "ppc440", False):
        return CacheConfig.ppc440()
    return CacheConfig(
        size=args.size,
        block_size=args.block,
        associativity=args.assoc,
        policy=args.policy,
    )


def _load_trace(path) -> Trace:
    """Read a trace file of any format (see ``Trace.load_any``)."""
    from repro.trace.stream import Trace

    return Trace.load_any(path)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.tracer.interp import trace_program
    from repro.workloads.paper_kernels import paper_kernel

    program = paper_kernel(args.kernel, length=args.length)
    trace = trace_program(program)
    if args.binary:
        from repro.trace.binformat import save_binary

        save_binary(trace, args.output)
    else:
        trace.save(args.output)
    print(f"wrote {len(trace)} records to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.trace.stats import compute_stats

    trace = _load_trace(args.trace)
    print(compute_stats(trace).summary())
    return 0


def _apply_physical(trace: Trace, args: argparse.Namespace) -> Trace:
    if not args.physical:
        return trace
    from repro.memory.paging import PageTable
    from repro.trace.physical import to_physical

    table = PageTable(args.physical, colors=args.colors, seed=args.seed)
    return to_physical(trace, table)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.fast:
        return _cmd_simulate_fast(args)
    if args.check:
        print("error: --check requires --fast")
        return 2
    from repro.analysis.report import simulation_report
    from repro.cache.simulator import simulate

    trace = _apply_physical(_load_trace(args.trace), args)
    result = simulate(trace, _cache_config(args), attribution=args.attribution)
    print(simulation_report(result, title=str(args.trace), plot=args.plot))
    return 0


def _cmd_simulate_fast(args: argparse.Namespace) -> int:
    """``tdst simulate --fast``: one config through the batched kernel,
    streamed in chunks (bounded memory)."""
    from repro.simbatch import simulate_batch
    from repro.simbatch.plan import fast_path_declined

    config = _cache_config(args)
    if args.physical:
        print("error: --fast streams the trace file; --physical needs a "
              "materialized trace (drop one of the two)")
        return 2
    declined = fast_path_declined(config)
    if declined is not None:
        print(
            f"error: no fast path covers this config ({declined}; the "
            "kernel takes direct-mapped, set-associative LRU, FIFO and "
            "round-robin caches with write-allocate); rerun without --fast"
        )
        return 2
    result = simulate_batch(args.trace, [config], chunk_records=args.chunk)
    (totals,) = result.results
    counts = totals.counts
    print(f"{args.trace} (fast path, {result.chunks} chunks)")
    print(config.describe())
    print(f"demand accesses : {totals.demand_accesses}")
    print(
        f"demand misses   : {totals.demand_misses} "
        f"(miss rate {totals.demand_miss_ratio:.4f})"
    )
    print(f"block hits      : {counts.hits}")
    print(
        f"block misses    : {counts.misses} "
        f"(compulsory {counts.compulsory_misses})"
    )
    print(f"evictions       : {totals.evictions}")
    print(f"chunks          : {result.chunks}")
    if args.check:
        return _check_fast_window(args, config)
    return 0


def _check_fast_window(args, config) -> int:
    """Cross-validate the fast path against the reference simulator on a
    sampled window of the trace; nonzero exit on any count mismatch."""
    import itertools

    from repro.trace.stream import iter_records
    from repro.verify.agreement import check_kernel_agreement

    window = itertools.islice(iter_records(args.trace), args.check_window)
    report = check_kernel_agreement(window, config)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_threec(args: argparse.Namespace) -> int:
    from repro.cache.threec import classify_misses

    trace = _apply_physical(_load_trace(args.trace), args)
    report = classify_misses(
        trace, _cache_config(args), attribution=args.attribution
    )
    print(report.summary())
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.transform.engine import TransformEngine
    from repro.transform.rule_parser import parse_rules_file

    trace = _load_trace(args.trace)
    rules = parse_rules_file(args.rules)
    engine = TransformEngine(rules, strict=args.strict)
    result = engine.transform(trace)
    result.write(args.output)
    print(result.report.summary())
    print(f"wrote {len(result.trace)} records to {args.output}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.trace.diff import diff_traces

    original = _load_trace(args.original)
    transformed = _load_trace(args.transformed)
    diff = diff_traces(original, transformed)
    print(diff.render(context=args.context))
    print(diff.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import (
        associativity_sweep,
        sweep_configs,
        sweep_table,
    )

    config = _cache_config(args)
    trace = _apply_physical(_load_trace(args.trace), args)
    configs = associativity_sweep(
        config.size,
        config.block_size,
        max_ways=args.max_ways,
        policy=config.policy,
    )
    points = sweep_configs(trace, configs, attribution=args.attribution)
    print(sweep_table(points))
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from repro.analysis.heatmap import compute_heatmap

    trace = _apply_physical(_load_trace(args.trace), args)
    heat = compute_heatmap(
        trace,
        _cache_config(args),
        window=args.window,
        variable=args.variable,
    )
    print(heat.render(columns=args.columns, kind=args.kind))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.ctypes_model.parser import parse_declarations
    from repro.transform.advisor import (
        field_usage,
        generate_candidates,
        rank_candidates,
        suggest_field_order,
        suggest_hot_cold_split,
    )

    trace = _load_trace(args.trace)
    decls = parse_declarations(Path(args.layout).read_text(encoding="utf-8"))
    variables = dict(decls.variables)
    for tag, ctype in decls.structs.items():
        variables.setdefault(tag, ctype)
    try:
        layout = variables[args.variable]
    except KeyError:
        print(f"error: {args.variable!r} not declared in {args.layout}")
        return 1
    usage = field_usage(trace, args.variable)
    print(f"field usage for {args.variable}:")
    for name, count in usage.most_common():
        print(f"  {name:<20s} {count}")
    split = suggest_hot_cold_split(
        trace, args.variable, layout, cold_threshold=args.cold_threshold
    )
    if split is not None:
        print(f"\nhot/cold split suggestion (hot={split.hot} cold={split.cold}):")
        print(split.rule_text(layout))
    else:
        print("\nno hot/cold split warranted")
    order = suggest_field_order(trace, args.variable, layout)
    print(f"field-order suggestion: {order.order}")

    # Cost-ranked candidate pool: static intervals prune the simulations.
    config = _cache_config(args)
    records = list(trace)
    candidates = generate_candidates(records, args.variable, layout)
    ranking = rank_candidates(records, candidates, config)
    print(f"\nranked candidates ({config.describe()}):")
    for line in ranking.lines():
        print(f"  {line}")
    top = ranking.top
    if args.rules_out:
        if not top.candidate.is_identity:
            Path(args.rules_out).write_text(
                top.candidate.rule_text, encoding="utf-8"
            )
            print(
                f"wrote top candidate {top.candidate.label!r} "
                f"to {args.rules_out}"
            )
        elif split is not None:
            # The ranking is indifferent (no candidate beats the
            # unchanged layout on this geometry); fall back to the
            # heuristic hot/cold suggestion, which other geometries
            # may still benefit from.
            Path(args.rules_out).write_text(
                split.rule_text(layout), encoding="utf-8"
            )
            print(
                "\nno candidate beats the unchanged layout here; "
                f"wrote the hot/cold suggestion to {args.rules_out}"
            )
        else:
            print(
                "\ntop recommendation is the unchanged layout; "
                f"not writing {args.rules_out}"
            )
    return 0


def _cmd_simbatch(args: argparse.Namespace) -> int:
    """``tdst simbatch``: N cache configs against one trace, one pass.

    The config grid is the cross product of ``--sets`` x ``--assocs`` x
    ``--blocks`` (LRU replacement, the batched kernel's coverage);
    columnar (v2) trace files stream zero-copy from the memory map.
    """
    import json

    from repro.cache.config import CacheConfig
    from repro.simbatch import kernel_fields, plan_batch, simulate_batch

    configs = [
        CacheConfig(
            size=block * n_sets * assoc,
            block_size=block,
            associativity=assoc,
            policy="lru",
        )
        for block in args.blocks
        for n_sets in args.sets
        for assoc in args.assocs
    ]
    result = simulate_batch(
        args.trace,
        configs,
        chunk_records=args.chunk,
        attribution=args.attribution if args.by_variable else None,
    )
    if args.json:
        rows = []
        for config, counts in zip(result.configs, result.results):
            row = kernel_fields(config, counts, result.names)
            if not args.by_variable:
                del row["by_variable_misses"]
            rows.append(row)
        print(json.dumps({"accesses": result.accesses, "results": rows}, indent=2))
        return 0
    plan = plan_batch(configs)
    print(
        f"{args.trace}: {result.accesses} accesses, "
        f"{plan.describe()}, {result.chunks} chunk(s)"
        + (f", {result.bytes_mapped} bytes mapped" if result.bytes_mapped else "")
    )
    header = f"{'config':<36s} {'misses':>9s} {'ratio':>8s} {'evict':>9s}"
    print(header)
    print("-" * len(header))
    for config, counts in zip(result.configs, result.results):
        print(
            f"{config.describe():<36s} {counts.demand_misses:>9d} "
            f"{counts.demand_miss_ratio:>8.4f} {counts.evictions:>9d}"
        )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.trace.binformat import load_binary, save_binary
    from repro.trace.columnar import load_columnar, save_columnar
    from repro.trace.dinero import read_dinero, write_dinero
    from repro.trace.stream import Trace

    readers = {
        "text": Trace.load,
        "binary": load_binary,
        "columnar": load_columnar,
        "din": read_dinero,
    }
    writers = {
        "text": lambda t, p: t.save(p),
        "binary": lambda t, p: save_binary(t, p),
        "columnar": lambda t, p: save_columnar(t, p),
        "din": lambda t, p: write_dinero(t, p),
    }
    trace = readers[args.from_format](args.input)
    writers[args.to_format](trace, args.output)
    print(
        f"converted {len(trace)} records: {args.input} ({args.from_format}) "
        f"-> {args.output} ({args.to_format})"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """``tdst lint``: static analysis of rule files, layouts and specs.

    Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 when
    diagnostics fail the run, 2 when an input cannot be read at all.
    """
    from repro.ctypes_model.parser import parse_declarations
    from repro.errors import LintError
    from repro.lint import lint_paths, render, write_report

    model = None
    if args.model:
        try:
            model = parse_declarations(
                Path(args.model).read_text(encoding="utf-8")
            )
        except Exception as exc:
            print(f"error: cannot load model {args.model}: {exc}")
            return 2
    cache_config = None if args.no_sets else _cache_config(args)
    if args.cost and not args.trace:
        print("error: --cost needs --trace <trace> to digest")
        return 2
    try:
        report = lint_paths(args.paths, model=model, cache_config=cache_config)
    except LintError as exc:
        print(f"error: {exc}")
        return 2
    if args.cost:
        _lint_cost_pass(args, report)
    write_report(report, args.format, args.output)
    if args.output:
        print(f"wrote {args.format} report to {args.output}")
    failed = bool(report.errors) or (args.strict and report.warnings)
    return 1 if failed else 0


def _lint_cost_pass(args: argparse.Namespace, report) -> None:
    """``tdst lint --cost --trace <t>``: price every rule file statically.

    Digests the trace once, then evaluates each *parseable* rule file
    among the inputs against the chosen cache geometry, folding
    TDST040-047 findings into the main report.  Files that already
    failed to parse are skipped (their errors are in the report).
    """
    from repro.lint.cost import lint_cost
    from repro.lint.runner import _expand, detect_kind
    from repro.trace.digest import compute_digest

    digest = compute_digest(_load_trace(args.trace))
    config = _cache_config(args)
    for path in _expand(args.paths):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            continue
        if detect_kind(path, text) != "rules":
            continue
        try:
            report.extend(
                lint_cost(text, digest, [config], path=str(path))
            )
        except Exception:
            continue  # unparseable rules: the main pass reported them


def _preflight_lint(spec_path: Path) -> int:
    """Mandatory campaign pre-flight: lint the spec (and, recursively,
    its ``file:`` rule references) before the scheduler spawns anything.
    Returns the number of errors found (0 = proceed); warnings of a spec
    that passes go to stderr."""
    from repro.lint import lint_spec_text, render_text

    report = lint_spec_text(
        spec_path.read_text(encoding="utf-8"), path=str(spec_path)
    )
    if report.errors:
        print(render_text(report))
        print(
            "error: campaign spec failed pre-flight lint "
            "(--no-lint to run anyway)"
        )
    else:
        for diag in report.warnings:
            print(diag.render(), file=sys.stderr)
    return len(report.errors)


def _print_campaign_report(manifest_path: Path) -> None:
    from repro.analysis.report import campaign_report
    from repro.campaign.manifest import RunManifest

    rows = RunManifest.result_rows(RunManifest.read(manifest_path))
    print(campaign_report(rows))


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``tdst campaign``: lint, plan and run a grid, then report it.

    Under ``--profile`` the command's own work is timed beside the
    scheduler's ``campaign.run``: ``campaign.preflight`` (spec lint),
    ``campaign.setup`` (imports, spec load, scheduler set-up) and
    ``campaign.report`` (manifest read-back and tables).
    """
    import dataclasses

    from repro.errors import CampaignError
    from repro.obsv.telemetry import get_telemetry

    tele = get_telemetry()
    directory = Path(args.dir)
    manifest_path = directory / "manifest.jsonl"
    if args.report:
        if not manifest_path.exists():
            print(f"error: no manifest at {manifest_path}")
            return 1
        with tele.span("campaign.report", cat="campaign"):
            _print_campaign_report(manifest_path)
        return 0
    if args.spec is None:
        args.usage_error(
            "the following arguments are required: SPEC (unless --report)"
        )
    if args.spec != "paper" and not args.no_lint:
        with tele.span("campaign.preflight", cat="campaign"):
            try:
                errors = _preflight_lint(Path(args.spec))
            except OSError as exc:
                print(f"error: {exc}")
                return 1
        if errors:
            return 1
    with tele.span("campaign.setup", cat="campaign"):
        from repro.campaign.scheduler import Scheduler
        from repro.campaign.spec import CampaignSpec, paper_figures_spec

        if args.spec == "paper":
            spec = paper_figures_spec(length=args.length)
        else:
            try:
                spec = CampaignSpec.load(args.spec)
            except (CampaignError, OSError) as exc:
                print(f"error: {exc}")
                return 1
        if args.verify:
            spec = dataclasses.replace(spec, verify=True)
        scheduler = Scheduler(
            spec,
            directory,
            workers=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            fast=not args.no_fast,
        )
    try:
        result = scheduler.run()
    except CampaignError as exc:
        print(f"error: {exc}")
        return 1
    with tele.span("campaign.report", cat="campaign"):
        print(result.summary())
        print()
        _print_campaign_report(manifest_path)
    # Graceful degradation: failed points are recorded, not fatal — the
    # exit code only signals a campaign that produced nothing at all.
    return 0 if result.n_done else 1


def _cmd_commit(args: argparse.Namespace) -> int:
    """``tdst commit``: record a trace or a rule application as a commit.

    Two modes:

    - ``tdst commit TRACE --store DIR`` chunks and stores a raw trace as
      a parentless snapshot commit (idempotent: re-committing identical
      content writes nothing and prints the same id);
    - ``tdst commit --rules FILE --onto BASE --store DIR`` applies a
      rule file on top of an existing commit.  When ``--ref`` names a
      previous application of the same lineage, chunks the edit provably
      missed are reused instead of re-transformed.
    """
    from repro.errors import RuleError, TraceFormatError
    from repro.tracestore import TraceStore, apply_rules

    store = TraceStore(args.store)
    if args.rules:
        if not args.onto:
            print("error: --rules needs --onto BASE (commit or ref to transform)")
            return 2
        try:
            base = store.resolve(args.onto)
        except TraceFormatError as exc:
            print(f"error: {exc}")
            return 1
        rule_text = Path(args.rules).read_text(encoding="utf-8")
        prev = None
        if args.ref:
            prev_cid = store.get_ref(args.ref)
            if prev_cid is not None and store.has_commit(prev_cid):
                prev = store.read_commit(prev_cid)
        try:
            result = apply_rules(
                store,
                base,
                rule_text,
                prev=prev,
                message=args.message or f"apply {args.rules}",
            )
        except RuleError as exc:
            print(f"error: {exc}")
            return 1
        if args.ref:
            store.set_ref(args.ref, result.commit.id)
        print(
            f"[{result.commit.short_id}] transform of {base.short_id}: "
            f"{result.chunks_total} chunk(s), {result.chunks_reused} "
            f"reused, {result.chunks_transformed} transformed"
        )
        return 0
    if not args.trace:
        print("error: commit needs a TRACE file or --rules/--onto")
        return 2
    trace = _load_trace(args.trace)
    commit = store.commit_trace(
        trace,
        chunk_records=args.chunk,
        message=args.message or f"trace {args.trace}",
    )
    if args.ref:
        store.set_ref(args.ref, commit.id)
    print(
        f"[{commit.short_id}] snapshot: {commit.records} records in "
        f"{len(commit.chunks)} chunk(s)"
    )
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    """``tdst log``: walk a commit chain (or summarise the store)."""
    from repro.errors import TraceFormatError
    from repro.tracestore import TraceStore

    store = TraceStore(args.store)
    if args.stats or not args.ref:
        stats = store.stats()
        print(f"{store.root}:")
        for area in ("blobs", "commits", "snaps"):
            print(
                f"  {area:<8s} {stats[area]:>6d} object(s)  "
                f"{stats[f'{area}_bytes']:>12d} bytes"
            )
        for name, cid in sorted(store.refs().items()):
            print(f"  ref {name} -> {cid[:12]}")
        return 0
    try:
        commits = list(store.log(args.ref))
    except TraceFormatError as exc:
        print(f"error: {exc}")
        return 1
    for commit in commits:
        line = (
            f"{commit.short_id} {commit.kind:<9s} "
            f"{commit.records:>9d} records  {len(commit.chunks):>4d} chunk(s)"
        )
        if commit.rule_sha:
            line += f"  rules {commit.rule_sha[:8]}"
        if commit.message:
            line += f"  {commit.message}"
        print(line)
    return 0


def _cmd_resim(args: argparse.Namespace) -> int:
    """``tdst resim``: incrementally re-simulate a commit's trace.

    Restores the deepest residency snapshot whose chunk prefix matches,
    feeds only the remaining chunks, and stores new snapshots for the
    next run — the numbers are bit-identical to a cold full pass.
    """
    from repro.simbatch.plan import fast_path_declined
    from repro.errors import TraceFormatError
    from repro.tracestore import TraceStore, simulate_chain

    config = _cache_config(args)
    declined = fast_path_declined(config)
    if declined is not None:
        print(
            "error: resumable simulation needs a fast-path config "
            "(direct-mapped, set-associative LRU, FIFO or round-robin, "
            f"write-allocate): {declined}"
        )
        return 2
    store = TraceStore(args.store)
    try:
        result = simulate_chain(
            store,
            args.ref,
            config,
            attribution=args.attribution,
            snapshots=not args.cold,
        )
    except TraceFormatError as exc:
        print(f"error: {exc}")
        return 1
    fields = result.fields()
    print(
        f"[{result.commit_id[:12]}] {result.chunks_total} chunk(s): "
        f"{result.chunks_skipped} restored from snapshot, "
        f"{result.chunks_simulated} simulated, "
        f"{result.snapshots_saved} snapshot(s) saved"
    )
    print(f"config:            {fields['config']}")
    print(f"accesses:          {fields['accesses']}")
    print(f"hits:              {fields['hits']}")
    print(f"misses:            {fields['misses']}")
    print(f"miss ratio:        {fields['miss_ratio']:.6f}")
    print(f"evictions:         {fields['evictions']}")
    print(f"compulsory misses: {fields['compulsory_misses']}")
    if fields["by_variable_misses"]:
        print("per-variable misses:")
        for name, misses in fields["by_variable_misses"].items():
            print(f"  {name:<20s} {misses}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """``tdst verify``: soundness + golden corpus + kernel agreement.

    Three modes, combinable:

    - ``--paper`` (the default with no arguments) replays the paper's
      T1/T2/T3 pipelines against the checked-in golden corpus;
    - ``ORIGINAL TRANSFORMED RULES`` soundness-checks an ad-hoc
      transformed trace pair against its rule file;
    - ``--fuzz N`` runs the hypothesis-driven rule-mutation harness.
    """
    exit_code = 0
    if args.original and not (args.transformed and args.rules):
        print("error: ad-hoc verification needs ORIGINAL TRANSFORMED RULES")
        return 2
    if args.original:
        from repro.transform.rule_parser import parse_rules_file
        from repro.verify.soundness import check_transform

        report = check_transform(
            _load_trace(args.original),
            _load_trace(args.transformed),
            parse_rules_file(args.rules),
        )
        print(report.summary())
        exit_code = max(exit_code, 0 if report.ok else 1)
    if args.paper or not (args.original or args.fuzz):
        from repro.verify.runner import verify_paper

        outcome = verify_paper(
            update_golden=args.update_golden,
            golden_dir=Path(args.golden_dir) if args.golden_dir else None,
        )
        print(outcome.summary())
        exit_code = max(exit_code, 0 if outcome.ok else 1)
    if args.fuzz:
        from repro.errors import VerifyError
        from repro.verify.fuzz import run_fuzz

        try:
            fuzz_report = run_fuzz(
                program_examples=max(args.fuzz // 3, 5),
                mutation_examples=args.fuzz,
                seed=args.fuzz_seed,
            )
        except VerifyError as exc:
            print(f"error: {exc}")
            return 2
        print(fuzz_report.summary())
        exit_code = max(exit_code, 0 if fuzz_report.ok else 1)
    return exit_code


def _cmd_obsv(args: argparse.Namespace) -> int:
    """``tdst obsv``: read a recorded telemetry profile back.

    - ``summarize PROFILE.jsonl`` renders the per-phase/counter table;
    - ``export-trace PROFILE.jsonl -o OUT.json`` converts a JSONL
      profile to Chrome ``trace_event`` format after the fact.
    """
    from repro.errors import ObservabilityError
    from repro.obsv import (
        read_jsonl_profile,
        render_summary,
        write_chrome_trace,
    )

    try:
        snapshot = read_jsonl_profile(args.profile_file)
    except (ObservabilityError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    if args.action == "summarize":
        print(render_summary(snapshot, title=str(args.profile_file)))
        return 0
    write_chrome_trace(snapshot, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import render_figure
    from repro.analysis.gnuplot import write_gnuplot_data, write_gnuplot_script
    from repro.analysis.per_set import figure_series
    from repro.cache.simulator import simulate

    trace = _apply_physical(_load_trace(args.trace), args)
    result = simulate(trace, _cache_config(args), attribution=args.attribution)
    figure = figure_series(result, title=str(args.trace))
    print(render_figure(figure))
    if args.dat:
        write_gnuplot_data(figure, args.dat)
        print(f"wrote {args.dat}")
        if args.gp:
            write_gnuplot_script(figure, args.dat, args.gp)
            print(f"wrote {args.gp}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.workloads.names import PAPER_KERNEL_NAMES

    parser = argparse.ArgumentParser(
        prog="tdst",
        description="Trace-driven data structure transformations (SC 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace a built-in kernel")
    p.add_argument("kernel", choices=sorted(PAPER_KERNEL_NAMES))
    p.add_argument("--length", type=int, default=16)
    p.add_argument("-o", "--output", default="trace.out")
    p.add_argument(
        "--binary",
        action="store_true",
        help="write the compact TDST binary format instead of text",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("stats", help="trace statistics")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", aliases=["sim"], help="cache-simulate a trace")
    p.add_argument("trace")
    _add_cache_args(p)
    _add_physical_args(p)
    p.add_argument("--plot", action="store_true", help="include ASCII per-set plot")
    p.add_argument(
        "--fast",
        action="store_true",
        help="vectorized chunked simulation in bounded memory "
        "(direct-mapped or set-associative LRU configs)",
    )
    p.add_argument(
        "--chunk",
        type=_positive_int,
        default=65536,
        help="records per streaming chunk with --fast",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="with --fast: cross-validate against the reference simulator "
        "on a sampled window (nonzero exit on mismatch)",
    )
    p.add_argument(
        "--check-window",
        type=int,
        default=65536,
        help="records in the --check validation window",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "threec", help="compulsory/capacity/conflict miss classification"
    )
    p.add_argument("trace")
    _add_cache_args(p)
    _add_physical_args(p)
    p.set_defaults(func=_cmd_threec)

    p = sub.add_parser("transform", help="apply a rule file to a trace")
    p.add_argument("trace")
    p.add_argument("rules", help="rule file (in:/out:/inject: sections)")
    p.add_argument("-o", "--output", default="transformed_trace.out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("diff", help="diff two traces")
    p.add_argument("original")
    p.add_argument("transformed")
    p.add_argument("--context", type=int, default=2)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "sweep",
        help="associativity sweep over one trace: 1 way up to --max-ways "
        "at the cache options' size, block and policy (--ppc440: 32 KiB, "
        "32 B, round-robin)",
    )
    p.add_argument("trace")
    _add_cache_args(p)
    _add_physical_args(p)
    p.add_argument("--max-ways", type=int, default=16)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("heatmap", help="time x set traffic heatmap")
    p.add_argument("trace")
    _add_cache_args(p)
    _add_physical_args(p)
    p.add_argument("--window", type=int, default=1000, help="accesses per row")
    p.add_argument("--columns", type=int, default=96)
    p.add_argument(
        "--kind", choices=("accesses", "hits", "misses"), default="accesses"
    )
    p.add_argument("--variable", help="restrict counting to one variable")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser(
        "advise",
        help="suggest transformations for a structure from its trace",
    )
    p.add_argument("trace")
    p.add_argument("layout", help="C declaration file defining the structure")
    p.add_argument("variable", help="structure variable to analyse")
    p.add_argument("--cold-threshold", type=float, default=0.2)
    p.add_argument("--rules-out", help="write the best suggestion's rule file")
    _add_cache_args(p)
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "convert", help="convert between text, binary and din trace formats"
    )
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument(
        "--from", dest="from_format",
        choices=("text", "binary", "columnar", "din"),
        default="text",
    )
    p.add_argument(
        "--to", dest="to_format",
        choices=("text", "binary", "columnar", "din"),
        default="binary",
    )
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "simbatch",
        help="simulate a grid of cache configs against one trace in a "
        "single batched pass",
    )
    p.add_argument("trace", help="trace file (columnar v2 streams zero-copy)")
    p.add_argument(
        "--sets", type=int, nargs="+", default=[128, 256, 512],
        help="numbers of sets to sweep",
    )
    p.add_argument(
        "--assocs", type=int, nargs="+", default=[1, 2, 4, 8],
        help="associativities to sweep (LRU replacement)",
    )
    p.add_argument(
        "--blocks", type=int, nargs="+", default=[32, 64],
        help="block sizes to sweep",
    )
    p.add_argument(
        "--chunk", type=_positive_int, default=65536,
        help="records per streamed chunk",
    )
    p.add_argument(
        "--by-variable", action="store_true",
        help="include per-variable miss counts (JSON output)",
    )
    p.add_argument(
        "--attribution", choices=("base", "member"), default="base",
        help="per-variable granularity with --by-variable",
    )
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_simbatch)

    p = sub.add_parser(
        "campaign",
        help="run a declarative experiment grid with caching and retries",
    )
    p.add_argument(
        "spec",
        nargs="?",
        metavar="SPEC",
        help="TOML campaign spec path, or the literal 'paper' for the "
        "built-in spec reproducing the paper's T1/T2/T3 studies "
        "(not needed with --report)",
    )
    p.add_argument(
        "--dir",
        default="campaign_out",
        help="campaign directory (artifacts/ + manifest.jsonl)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = inline)"
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-task wall-clock budget in seconds; a program's first "
        "task also traces the program, within its budget",
    )
    p.add_argument(
        "--retries", type=int, default=1, help="re-attempts per failing job"
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        help="base retry delay in seconds (doubles per attempt)",
    )
    p.add_argument(
        "--length",
        type=int,
        default=1024,
        help="array length for the built-in 'paper' spec",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="render the before/after table from the manifest and exit",
    )
    p.add_argument(
        "--no-fast",
        action="store_true",
        help="force every grid point through the reference simulator "
        "instead of the vectorized fast path (the reference oracle)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="soundness-check every transformed trace as a post-job step "
        "(unsound points fail instead of charting bad numbers)",
    )
    p.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the mandatory pre-flight lint of the spec and its "
        "file: rule references",
    )
    p.set_defaults(func=_cmd_campaign, usage_error=p.error)

    p = sub.add_parser(
        "commit",
        help="record a trace or a rule application as a content-addressed "
        "commit in a trace store",
    )
    p.add_argument(
        "trace", nargs="?", help="trace file to commit as a snapshot"
    )
    p.add_argument(
        "--store", default="tracestore", help="trace store directory"
    )
    p.add_argument(
        "--ref", help="ref name to point at the new commit (e.g. trace/main)"
    )
    p.add_argument(
        "--rules", help="rule file to apply (transform mode; needs --onto)"
    )
    p.add_argument(
        "--onto",
        help="base commit/ref the rule file applies to (transform mode)",
    )
    p.add_argument(
        "--chunk",
        type=_positive_int,
        default=65536,
        help="records per chunk blob when committing a snapshot",
    )
    p.add_argument("-m", "--message", help="commit message")
    p.set_defaults(func=_cmd_commit)

    p = sub.add_parser(
        "log",
        help="walk a trace-store commit chain (no REF: store summary)",
    )
    p.add_argument("ref", nargs="?", help="commit id, id prefix or ref name")
    p.add_argument(
        "--store", default="tracestore", help="trace store directory"
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print object counts, byte totals and refs instead of a chain",
    )
    p.set_defaults(func=_cmd_log)

    p = sub.add_parser(
        "resim",
        help="incrementally re-simulate a trace-store commit, resuming "
        "from stored residency snapshots",
    )
    p.add_argument("ref", help="commit id, id prefix or ref name")
    p.add_argument(
        "--store", default="tracestore", help="trace store directory"
    )
    _add_cache_args(p)
    p.add_argument(
        "--cold",
        action="store_true",
        help="ignore and do not write snapshots (full cold pass)",
    )
    p.set_defaults(func=_cmd_resim)

    p = sub.add_parser(
        "lint",
        help="static analysis of rule files, layout declarations and "
        "campaign specs (no trace needed)",
    )
    p.add_argument(
        "paths",
        nargs="+",
        help="files or directories (.rules / .toml / declaration files; "
        "directories recurse over *.rules and *.toml)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif = SARIF 2.1.0 for CI annotation)",
    )
    p.add_argument(
        "-o", "--output", help="write the report here instead of stdout"
    )
    p.add_argument(
        "--model",
        help="C declaration file; rule in: names and field paths are "
        "cross-checked against it (TDST013)",
    )
    p.add_argument(
        "--no-sets",
        action="store_true",
        help="skip the static cache-set footprint/conflict analysis",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="warnings also fail the run (exit 1)",
    )
    p.add_argument(
        "--cost",
        action="store_true",
        help="run the static cost model (TDST040-047): predict miss-count "
        "intervals for each rule file against --trace without simulating",
    )
    p.add_argument(
        "--trace",
        help="trace file to digest for the --cost pass",
    )
    _add_cache_args(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "verify",
        help="differential verification: soundness oracle, golden corpus, "
        "kernel agreement, rule fuzzing",
    )
    p.add_argument(
        "original", nargs="?", help="original trace (ad-hoc mode)"
    )
    p.add_argument(
        "transformed", nargs="?", help="transformed trace (ad-hoc mode)"
    )
    p.add_argument("rules", nargs="?", help="rule file (ad-hoc mode)")
    p.add_argument(
        "--paper",
        action="store_true",
        help="verify the paper's T1/T2/T3 pipelines against the golden "
        "corpus (the default when no other mode is selected)",
    )
    p.add_argument(
        "--update-golden",
        action="store_true",
        help="regenerate the golden corpus instead of comparing",
    )
    p.add_argument(
        "--golden-dir",
        help="read/write golden files here instead of the package data",
    )
    p.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        help="run N rule-mutation fuzz examples (plus N//3 random "
        "programs); needs the hypothesis package",
    )
    p.add_argument(
        "--fuzz-seed",
        type=int,
        help="randomize fuzzing with this seed (default: derandomized)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "figure",
        help="per-set figure data for a trace (--physical maps it to "
        "physical addresses first, as simulate does)",
    )
    p.add_argument("trace")
    _add_cache_args(p)
    _add_physical_args(p)
    p.add_argument("--dat", help="write gnuplot data file")
    p.add_argument("--gp", help="write gnuplot script (needs --dat)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "obsv", help="read telemetry profiles (summarize, export-trace)"
    )
    obsv_sub = p.add_subparsers(dest="action", required=True)
    q = obsv_sub.add_parser(
        "summarize", help="render the summary table of a JSONL profile"
    )
    q.add_argument("profile_file", help="profile written by --profile")
    q.set_defaults(func=_cmd_obsv)
    q = obsv_sub.add_parser(
        "export-trace",
        help="convert a JSONL profile to Chrome trace_event format",
    )
    q.add_argument("profile_file", help="profile written by --profile")
    q.add_argument("-o", "--output", default="profile_trace.json")
    q.set_defaults(func=_cmd_obsv)

    # Every subcommand records a profile on request; aliases (e.g.
    # ``sim``) share their parser object, hence the set().
    for sub_parser in set(sub.choices.values()):
        _add_profile_args(sub_parser)

    return parser


def _run_command(args: argparse.Namespace) -> int:
    """Run the parsed subcommand.  Cache options that make no valid
    geometry are a usage error: one ``error:`` line and exit 2."""
    from repro.errors import CacheConfigError

    try:
        return args.func(args)
    except CacheConfigError as exc:
        print(f"error: {exc}")
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and dispatch; with ``--profile`` the run is telemetered.

    Profiling wraps the whole command in a ``tdst.<command>`` root span,
    samples peak RSS, writes the requested sink files (atomically, even
    when the command raises) and prints the summary table to stderr so
    stdout stays parseable.
    """
    args = build_parser().parse_args(argv)
    profile = getattr(args, "profile", None)
    profile_trace = getattr(args, "profile_trace", None)
    if not (profile or profile_trace):
        return _run_command(args)

    from repro.obsv import (
        get_telemetry,
        render_summary,
        write_chrome_trace,
        write_jsonl_profile,
    )

    telemetry = get_telemetry()
    owned = not telemetry.enabled
    if owned:
        telemetry.reset()
        telemetry.enable()
    try:
        with telemetry.span(f"tdst.{args.command}", cat="cli"):
            return _run_command(args)
    finally:
        telemetry.sample_rss()
        snapshot = telemetry.snapshot()
        if owned:
            telemetry.disable()
        if profile:
            write_jsonl_profile(snapshot, profile)
        if profile_trace:
            write_chrome_trace(snapshot, profile_trace)
        print(
            render_summary(snapshot, title=f"tdst {args.command}"),
            file=sys.stderr,
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
