"""Per-layer tracing for the end-to-end benchmark.

Spans are recorded from benchmark code only: :func:`install` replaces
each layer's public entry points *at the name its caller looks up* with
a timing wrapper, and the returned callable puts the originals back.
Nothing under ``src/`` is edited.  Two wrapper kinds exist:

- a *span* wrapper records ``{id, parent, name, pid, t0, t1, attrs}``;
  parents come from the per-process stack of open spans, which a forked
  campaign worker inherits, so worker spans nest under the scheduler
  span that was open when the pool forked;
- an *aggregate* wrapper, for per-record calls too hot for one span
  each, adds its seconds and call count to the innermost open span.

An import hook wraps a target module when the program first imports it,
and times every module import as a ``cli.import`` span.

Spans stay in memory.  A process that may be torn down without running
``atexit`` (a forked pool worker) appends its spans to
``<sink>/<pid>.jsonl`` after every campaign task.

Self time of a span is its duration minus the union of its child spans'
intervals minus its aggregated children.  Times come from
``time.monotonic`` (``CLOCK_MONOTONIC``, shared by every process on
Linux), so spans from the client, the CLI process and its workers sit on
one time line.

This module imports only the standard library at import time: the CLI
bootstrap imports it before the program under test.
"""

from __future__ import annotations

import importlib.abc
import itertools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layer names, as the first dot-separated part of a span name.  Spans
#: named ``bench.*`` are the benchmark's own glue and belong to no layer.
LAYERS = (
    "cli",
    "lint",
    "campaign",
    "tracer",
    "trace",
    "transform",
    "cache",
    "simbatch",
    "tracestore",
    "analysis",
)


#: Which end-to-end metric, on which workload, each layer should move.
LAYER_MAP = {
    "cli": "op_p50_s on paper-warm (largest share) and paper-cold",
    "lint": "op_p50_s on paper-warm and paper-cold",
    "campaign": "op_p50_s on paper-warm, then paper-cold",
    "tracer": "op_p50_s on paper-cold; setup_s on sweep-grid and edit-loop",
    "trace": "v1 encode/decode: op_p50_s on paper-cold; v2 save: setup_s on "
    "sweep-grid (and op_p50_s on edit-loop); attribution ids: op_p50_s on "
    "edit-loop and sweep-grid",
    "transform": "op_p50_s on paper-cold and edit-loop",
    "cache": "op_p50_s on edit-loop (fast kernel) and paper-cold (reference "
    "simulator, decode loop)",
    "simbatch": "op_p50_s, accesses_per_s and peak_rss_mib on sweep-grid",
    "tracestore": "op_p50_s on edit-loop",
    "analysis": "op_p50_s on paper-warm",
}


class Tracer:
    """In-memory span recorder for one process and its forked children."""

    def __init__(self, sink: Optional[str] = None) -> None:
        self.sink = sink
        self.spans: List[Dict[str, Any]] = []
        #: open spans, innermost last: ``[span id, aggregates or None]``
        self._stack: List[List[Any]] = []
        self._seq = itertools.count()
        # A forked child inherits finished spans that its parent will
        # write itself; the open stack stays, as the child's ancestry.
        os.register_at_fork(after_in_child=self._forget_finished)

    def _forget_finished(self) -> None:
        self.spans = []

    def begin(self) -> Tuple[str, Optional[str]]:
        """Open a span; returns ``(span id, parent id)``."""
        sid = f"{os.getpid()}.{next(self._seq)}"
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, None])
        return sid, parent

    def end(
        self,
        name: str,
        sid: str,
        parent: Optional[str],
        t0: float,
        t1: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Close the innermost span (opened by the matching :meth:`begin`)."""
        _, agg = self._stack.pop()
        record: Dict[str, Any] = {
            "id": sid,
            "parent": parent,
            "name": name,
            "pid": os.getpid(),
            "t0": t0,
            "t1": t1,
        }
        if attrs:
            record["attrs"] = attrs
        if agg:
            record["agg"] = agg
        self.spans.append(record)

    def add(self, name: str, t0: float, t1: float, **attrs: Any) -> None:
        """Record an already-measured interval as a span."""
        sid, parent = self.begin()
        self.end(name, sid, parent, t0, t1, attrs or None)

    def aggregate(self, name: str, seconds: float) -> None:
        """Charge one hot call to the innermost open span."""
        if not self._stack:
            return
        frame = self._stack[-1]
        if frame[1] is None:
            frame[1] = {}
        entry = frame[1].get(name)
        if entry is None:
            frame[1][name] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1

    def drain(self) -> List[Dict[str, Any]]:
        """Hand over and forget the finished spans."""
        spans, self.spans = self.spans, []
        return spans

    def flush(self) -> None:
        """Append finished spans to ``<sink>/<pid>.jsonl``."""
        spans = self.drain()
        if not spans or self.sink is None:
            return
        path = Path(self.sink) / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def read_sink(sink: Path) -> List[Dict[str, Any]]:
    """Collect and delete every span file a traced process tree wrote."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(sink.glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
        path.unlink()
    return spans


# -- wrappers ------------------------------------------------------------------


def _span_wrapper(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    attrs: Optional[Callable[[tuple, Any], Dict[str, Any]]],
    flush: bool,
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid, parent = tracer.begin()
        t0 = time.monotonic()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            t1 = time.monotonic()
            extra: Optional[Dict[str, Any]] = None if done else {"error": True}
            if attrs is not None and done:
                try:
                    extra = attrs(args, result)
                except (AttributeError, TypeError, IndexError):
                    extra = {"attrs_error": True}
            tracer.end(name, sid, parent, t0, t1, extra)
            if flush:
                tracer.flush()

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _aggregate_wrapper(
    tracer: Tracer, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.aggregate(name, clock() - t0)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _records(args: tuple, result: Any) -> Dict[str, Any]:
    return {"records": len(result)}


def _hit(args: tuple, result: Any) -> Dict[str, Any]:
    return {"lookups": 1, "hits": int(result is not None)}


def _fast_accesses(args: tuple, result: Any) -> Dict[str, Any]:
    # fast_trace_counts(addrs, ...) and FastSimulator.feed(self, addrs, ...)
    addrs = args[1] if hasattr(args[0], "config") else args[0]
    return {"accesses": len(addrs)}


def _reference_accesses(args: tuple, result: Any) -> Dict[str, Any]:
    return {"accesses": result.stats.accesses}


def _batch_feed(args: tuple, result: Any) -> Dict[str, Any]:
    sim, addrs = args[0], args[1]
    return {"config_accesses": len(addrs) * len(sim.configs)}


def _workers(args: tuple, result: Any) -> Dict[str, Any]:
    return {"workers": max(1, int(getattr(args[0], "workers", 1)))}


def _apply(args: tuple, result: Any) -> Dict[str, Any]:
    return {"chunks": result.chunks_total, "reused": result.chunks_reused}


def _resim(args: tuple, result: Any) -> Dict[str, Any]:
    return {"chunks": result.chunks_total, "skipped": result.chunks_skipped}


#: ``{module: ((attribute path, span name, attrs), ...)}``: each target is
#: the name a caller looks up at call time; ``attrs`` maps the call's
#: ``(args, result)`` to span attributes.
TARGETS: Dict[str, Tuple[Tuple[str, str, Any], ...]] = {
    # CLI process: pre-flight, spec, scheduler, manifest, report.
    "repro.lint": (
        ("lint_spec_text", "lint.preflight", None),
        ("lint_paths", "lint.paths", None),
    ),
    "repro.campaign.spec": (("CampaignSpec.load", "campaign.spec", None),),
    "repro.campaign.scheduler": (
        ("Scheduler.__init__", "campaign.init", None),
        ("Scheduler.run", "campaign.run", _workers),
        ("execute_task", "campaign.task", None),
    ),
    "repro.campaign.manifest": (
        ("RunManifest.__init__", "campaign.manifest", None),
        ("RunManifest.record", "campaign.manifest", None),
        ("RunManifest.close", "campaign.manifest", None),
        ("RunManifest.read", "campaign.manifest", None),
    ),
    "repro.analysis.report": (("campaign_report", "analysis.report", None),),
    # Campaign workers: the stages inside a task.
    "repro.campaign.artifacts": (
        ("ArtifactStore.__init__", "campaign.artifact", None),
        ("ArtifactStore.get_json", "campaign.artifact", _hit),
        ("ArtifactStore.put_json", "campaign.artifact", None),
        ("ArtifactStore.get_trace", "campaign.artifact", _hit),
        ("ArtifactStore.put_trace", "campaign.artifact", None),
        ("save_binary", "trace.v1_encode", None),
        ("load_binary", "trace.v1_decode", _records),
    ),
    "repro.campaign.jobs": (
        ("paper_kernel", "tracer.build", None),
        ("trace_program", "tracer.run", _records),
        ("parse_rules", "transform.parse_rules", None),
        ("simulation_fields", "cache.fields", None),
        ("fast_trace_counts", "cache.fast_kernel", _fast_accesses),
        ("simulate", "cache.reference", _reference_accesses),
    ),
    "repro.transform.engine": (
        ("TransformEngine.__init__", "transform.init", None),
        ("TransformEngine.transform", "transform.apply", None),
        ("TransformEngine.transform_record", "transform.record", None),
    ),
    # In-process API calls made by the benchmark itself.
    "repro.api": (
        ("trace_program", "tracer.run", _records),
        ("linked_list_traversal", "tracer.build", None),
        ("save_columnar", "trace.v2_save", None),
        ("simulate_batch", "simbatch.batch", None),
        ("apply_rules", "tracestore.apply", _apply),
        ("simulate_chain", "tracestore.resim", _resim),
    ),
    "repro.simbatch.kernel": (
        ("MultiConfigSimulator.__init__", "simbatch.plan", None),
        ("MultiConfigSimulator.feed", "simbatch.kernel", _batch_feed),
        ("MultiConfigSimulator.results", "simbatch.kernel", None),
    ),
    "repro.trace.columnar": (
        ("ColumnarTrace.__init__", "trace.v2_open", None),
        ("ColumnarTrace.data_indices", "trace.v2_index", None),
        ("ColumnarTrace.attribution_ids", "trace.attribution_ids", None),
    ),
    "repro.tracestore.transform": (
        ("parse_rules", "transform.parse_rules", None),
        ("rule_delta", "tracestore.delta", None),
    ),
    "repro.tracestore.store": (
        ("save_columnar", "trace.v2_save", None),
        ("TraceStore.commit_trace", "tracestore.commit", None),
        ("TraceStore.read_chunk", "trace.v2_decode", _records),
        ("TraceStore.put_chunk", "tracestore.put_chunk", None),
        ("TraceStore.write_commit", "tracestore.commit_io", None),
        ("TraceStore.read_commit", "tracestore.commit_io", None),
        ("TraceStore.get_snapshot", "tracestore.snapshot_io", None),
        ("TraceStore.put_snapshot", "tracestore.snapshot_io", None),
    ),
    "repro.cache.fastsim": (
        ("FastSimulator.from_state", "tracestore.snapshot_io", None),
        ("FastSimulator.state", "tracestore.snapshot_io", None),
        ("FastSimulator.feed", "cache.fast_kernel", _fast_accesses),
    ),
}
#: Per-record calls: aggregated into the enclosing span, not a span each.
AGGREGATED = {"transform.record"}
#: Spans after which the process appends its spans to the sink: a forked
#: pool worker may exit without running ``atexit``.
FLUSHING = {"campaign.task"}


class _ImportHook(importlib.abc.MetaPathFinder):
    """Time every first import as ``cli.import``; patch targets on load.

    The CLI imports most layers lazily inside its commands.  Wrapping a
    target module right after the program first imports it (instead of
    importing it up front) keeps the traced process's import work
    identical to the untraced one, and timing each module's execution
    charges lazy imports to start-up wherever they happen.
    """

    def __init__(self, tracer: Tracer, patch: Callable[[str], None]) -> None:
        self.tracer = tracer
        self.patch = patch

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        # Built-in and frozen modules are loaded by a class, not a
        # per-module loader object; leave those alone.
        if loader is None or isinstance(loader, type):
            return spec
        exec_module = loader.exec_module
        tracer = self.tracer

        def timed_exec(module: Any) -> None:
            sid, parent = tracer.begin()
            t0 = time.monotonic()
            try:
                exec_module(module)
            finally:
                tracer.end("cli.import", sid, parent, t0, time.monotonic())
            self.patch(fullname)

        loader.exec_module = timed_exec
        return spec


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target, now or when its module is first imported, and
    return the function that puts the originals back.

    A target whose module lacks the attribute (renamed or deleted by a
    later change) is skipped: its layer then reads zero instead of the
    run failing.
    """
    pending = dict(TARGETS)
    undo: List[Tuple[Any, str, Any]] = []

    def patch(module_name: str) -> None:
        for path, name, attrs in pending.pop(module_name, ()):
            *owner_path, attr = path.split(".")
            owner: Any = sys.modules[module_name]
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (AttributeError, KeyError):
                continue
            method = isinstance(raw, (staticmethod, classmethod))
            fn = raw.__func__ if method else raw
            if name in AGGREGATED:
                wrapped = _aggregate_wrapper(tracer, name, fn)
            else:
                wrapped = _span_wrapper(tracer, name, fn, attrs, name in FLUSHING)
            setattr(owner, attr, type(raw)(wrapped) if method else wrapped)
            undo.append((owner, attr, raw))

    for module_name in [m for m in pending if m in sys.modules]:
        patch(module_name)
    finder = _ImportHook(tracer, patch)
    sys.meta_path.insert(0, finder)

    def restore() -> None:
        if finder in sys.meta_path:
            sys.meta_path.remove(finder)
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


# -- per-layer metrics ---------------------------------------------------------


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _layer(name: str) -> Optional[str]:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def op_facts(op: Dict[str, Any]) -> Dict[str, float]:
    """Additive facts of one traced op: durations, self times, counts.

    ``op`` holds ``t0``/``t1`` (the client's view of the op), ``spans``
    and optional op-level ``attrs``.
    """
    spans = op["spans"]
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append(span)
    facts: Dict[str, float] = defaultdict(float)
    covered: List[Tuple[float, float]] = []
    lo_op, hi_op = op["t0"], op["t1"]
    for span in spans:
        name = span["name"]
        lo, hi = span["t0"], span["t1"]
        dur = hi - lo
        agg = span.get("agg") or {}
        kids = _union(
            (max(lo, k["t0"]), min(hi, k["t1"]))
            for k in children.get(span["id"], ())
            if k["t1"] > lo and k["t0"] < hi
        )
        own = max(0.0, dur - kids - sum(v[0] for v in agg.values()))
        facts[f"dur:{name}"] += dur
        facts[f"self:{name}"] += own
        layer = _layer(name)
        if layer is not None:
            facts[f"layer:{layer}"] += own
            covered.append((max(lo, lo_op), min(hi, hi_op)))
        for key, (seconds, calls) in agg.items():
            facts[f"agg:{key}"] += seconds
            facts[f"calls:{key}"] += calls
            facts[f"layer:{key.split('.', 1)[0]}"] += seconds
        for key, value in (span.get("attrs") or {}).items():
            if isinstance(value, (int, float)):
                facts[f"attr:{name}:{key}"] += value
        if name == "campaign.run":
            workers = (span.get("attrs") or {}).get("workers", 1)
            facts["campaign.run_worker_s"] += dur * workers
    for key, value in (op.get("attrs") or {}).items():
        facts[f"op:{key}"] += value
    facts["wall"] = hi_op - lo_op
    facts["covered"] = _union(iv for iv in covered if iv[1] > iv[0])
    return facts


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


#: ``(metric, unit)`` of every per-layer metric, in report order.
PER_LAYER_UNITS: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.process_s", "s"),
    ("lint.preflight_s", "s"),
    ("campaign.run_s", "s"),
    ("campaign.task_s", "s"),
    ("campaign.idle_frac", "ratio"),
    ("campaign.artifact_hit_ratio", "ratio"),
    ("campaign.artifact_io_s", "s"),
    ("campaign.manifest_s", "s"),
    ("tracer.self_s", "s"),
    ("tracer.records", "count"),
    ("tracer.us_per_record", "us"),
    ("trace.v1_encode_s", "s"),
    ("trace.v1_decode_s", "s"),
    ("trace.v1_decode_us_per_record", "us"),
    ("trace.v2_save_s", "s"),
    ("trace.v2_decode_s", "s"),
    ("trace.attribution_ids_s", "s"),
    ("transform.engine_s", "s"),
    ("transform.parse_rules_s", "s"),
    ("transform.records_in", "count"),
    ("transform.us_per_record", "us"),
    ("cache.decode_loop_s", "s"),
    ("cache.fast_kernel_s", "s"),
    ("cache.reference_s", "s"),
    ("cache.accesses", "count"),
    ("simbatch.kernel_s", "s"),
    ("simbatch.config_accesses", "count"),
    ("simbatch.ns_per_config_access", "ns"),
    ("tracestore.apply_s", "s"),
    ("tracestore.delta_s", "s"),
    ("tracestore.chunk_reuse_ratio", "ratio"),
    ("tracestore.resim_s", "s"),
    ("tracestore.snapshot_skip_ratio", "ratio"),
    ("tracestore.snapshot_io_s", "s"),
    ("tracestore.bytes_written", "bytes"),
    ("analysis.report_s", "s"),
    ("untimed_frac", "ratio"),
    ("tracing_overhead_frac", "ratio"),
    *((f"setup.{layer}_s", "s") for layer in LAYERS),
    ("setup.untimed_frac", "ratio"),
)


def layer_metrics(
    ops: Sequence[Dict[str, Any]],
    setup: Dict[str, Any],
    traced_walls: Sequence[float],
    untraced_walls: Sequence[float],
) -> Dict[str, float]:
    """Every per-layer metric: means per traced op, ratios of totals, and
    per-layer self time of one traced set-up."""
    t: Dict[str, float] = defaultdict(float)
    for op in ops:
        for key, value in op_facts(op).items():
            t[key] += value
    n = max(1, len(ops))

    def mean(*keys: str) -> float:
        return sum(t[k] for k in keys) / n

    m = {
        "cli.import_s": mean("self:cli.import"),
        "cli.process_s": mean("dur:cli.process"),
        "lint.preflight_s": mean("dur:lint.preflight"),
        "campaign.run_s": mean("dur:campaign.run"),
        "campaign.task_s": mean("dur:campaign.task"),
        "campaign.idle_frac": (
            1.0 - _ratio(t["dur:campaign.task"], t["campaign.run_worker_s"])
            if t["campaign.run_worker_s"]
            else 0.0
        ),
        "campaign.artifact_hit_ratio": _ratio(
            t["attr:campaign.artifact:hits"], t["attr:campaign.artifact:lookups"]
        ),
        "campaign.artifact_io_s": mean("self:campaign.artifact"),
        "campaign.manifest_s": mean("dur:campaign.manifest"),
        "tracer.self_s": mean("layer:tracer"),
        "tracer.records": mean("attr:tracer.run:records"),
        "tracer.us_per_record": _ratio(
            t["layer:tracer"], t["attr:tracer.run:records"], 1e6
        ),
        "trace.v1_encode_s": mean("dur:trace.v1_encode"),
        "trace.v1_decode_s": mean("dur:trace.v1_decode"),
        "trace.v1_decode_us_per_record": _ratio(
            t["dur:trace.v1_decode"], t["attr:trace.v1_decode:records"], 1e6
        ),
        "trace.v2_save_s": mean("dur:trace.v2_save"),
        "trace.v2_decode_s": mean("dur:trace.v2_decode"),
        "trace.attribution_ids_s": mean("dur:trace.attribution_ids"),
        "transform.engine_s": mean("agg:transform.record"),
        "transform.parse_rules_s": mean("dur:transform.parse_rules"),
        "transform.records_in": mean("calls:transform.record"),
        "transform.us_per_record": _ratio(
            t["agg:transform.record"], t["calls:transform.record"], 1e6
        ),
        "cache.decode_loop_s": mean("self:cache.fields"),
        "cache.fast_kernel_s": mean("dur:cache.fast_kernel"),
        "cache.reference_s": mean("dur:cache.reference"),
        "cache.accesses": mean(
            "attr:cache.fast_kernel:accesses", "attr:cache.reference:accesses"
        ),
        "simbatch.kernel_s": mean("dur:simbatch.kernel"),
        "simbatch.config_accesses": mean("attr:simbatch.kernel:config_accesses"),
        "simbatch.ns_per_config_access": _ratio(
            t["dur:simbatch.kernel"], t["attr:simbatch.kernel:config_accesses"], 1e9
        ),
        "tracestore.apply_s": mean("dur:tracestore.apply"),
        "tracestore.delta_s": mean("dur:tracestore.delta"),
        "tracestore.chunk_reuse_ratio": _ratio(
            t["attr:tracestore.apply:reused"], t["attr:tracestore.apply:chunks"]
        ),
        "tracestore.resim_s": mean("dur:tracestore.resim"),
        "tracestore.snapshot_skip_ratio": _ratio(
            t["attr:tracestore.resim:skipped"], t["attr:tracestore.resim:chunks"]
        ),
        "tracestore.snapshot_io_s": mean("dur:tracestore.snapshot_io"),
        "tracestore.bytes_written": mean("op:bytes_written"),
        "analysis.report_s": mean("dur:analysis.report"),
        "untimed_frac": 1.0 - _ratio(t["covered"], t["wall"]) if ops else 0.0,
        "tracing_overhead_frac": (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
            if traced_walls and untraced_walls
            else 0.0
        ),
    }
    s = op_facts(setup)
    for layer in LAYERS:
        m[f"setup.{layer}_s"] = s[f"layer:{layer}"]
    m["setup.untimed_frac"] = 1.0 - _ratio(s["covered"], s["wall"])
    return m


# -- sinks ---------------------------------------------------------------------


def write_traces(ops: Sequence[Dict[str, Any]], stem: Path) -> None:
    """Write every span once, as ``<stem>.spans.jsonl`` and a Chrome trace."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    origin = min((op["t0"] for op in ops), default=0.0)
    events = []
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
        for op in ops:
            root = {"op": op["op"], "name": "bench.op", "t0": op["t0"], "t1": op["t1"]}
            handle.write(json.dumps(root) + "\n")
            for span in op["spans"]:
                handle.write(json.dumps(dict(span, op=op["op"])) + "\n")
                args = dict(span.get("attrs") or {}, op=op["op"])
                for key, (seconds, calls) in (span.get("agg") or {}).items():
                    args[key] = {"seconds": seconds, "calls": calls}
                events.append(
                    {
                        "name": span["name"],
                        "cat": span["name"].split(".", 1)[0],
                        "ph": "X",
                        "ts": (span["t0"] - origin) * 1e6,
                        "dur": (span["t1"] - span["t0"]) * 1e6,
                        "pid": span["pid"],
                        "tid": span["pid"],
                        "args": args,
                    }
                )
    with open(f"{stem}.trace.json", "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
