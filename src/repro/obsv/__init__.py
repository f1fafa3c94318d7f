"""Pipeline observability: phase timers, counters, telemetry sinks.

The ``obsv`` package answers "where did the time, records and memory
go" for every stage of the pipeline — tracer, transformation engine,
both simulators, the verifier and the campaign scheduler — in the
spirit of instrumentation-at-scale tools like DINAMITE and MapVisual:
structured access logs written for offline analysis, not printf.

Three pieces:

- :mod:`~repro.obsv.telemetry` — the process-wide registry:
  :class:`Telemetry`, :func:`phase` timers, monotonic counters,
  high-watermark gauges, and the snapshot/merge algebra that folds
  campaign worker telemetry into the parent;
- :mod:`~repro.obsv.sinks` — JSONL event profiles and Chrome
  ``trace_event`` files (Perfetto-loadable), written atomically;
- :mod:`~repro.obsv.summary` — the end-of-run plain-text table.

Everything is zero-dependency and a true no-op unless enabled via
``tdst --profile``, ``profile =`` in a campaign spec, or
``get_telemetry().enable()``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obsv.atomic": ("atomic_write",),
        "repro.obsv.sinks": (
            "GENERATOR",
            "chrome_trace_document",
            "profile_events",
            "read_jsonl_profile",
            "write_chrome_trace",
            "write_jsonl_profile",
        ),
        "repro.obsv.summary": ("phase_coverage", "render_summary", "wall_us"),
        "repro.obsv.telemetry": (
            "RSS_GAUGE",
            "SCHEMA_VERSION",
            "Telemetry",
            "counters",
            "get_telemetry",
            "merge_snapshots",
            "phase",
            "span_forest",
        ),
    },
)
