"""The Gleipnir trace model: records, text format, streams, stats, diff.

A *trace* is an ordered sequence of :class:`~repro.trace.record.TraceRecord`
objects, each describing one memory access with the metadata Gleipnir
attaches (function, scope, frame, thread, variable path).  The subpackage
provides:

- :mod:`repro.trace.record` — the record dataclass and access-type enum;
- :mod:`repro.trace.format` — parse/emit the text format shown in the
  paper's Figure 1 and Listing 2 (round-trip safe);
- :mod:`repro.trace.stream` — the :class:`~repro.trace.stream.Trace`
  container plus filtering/windowing helpers;
- :mod:`repro.trace.columns` — the in-memory columns a ``Trace`` can
  carry instead of records, and the one columns-to-records materialiser;
- :mod:`repro.trace.stats` — footprint and access-mix statistics;
- :mod:`repro.trace.diff` — the structural diff used for Figures 5/8/9.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.trace.record": ("AccessType", "TraceRecord"),
        "repro.trace.format": (
            "format_record",
            "format_trace",
            "parse_line",
            "parse_trace",
            "read_trace",
            "write_trace",
        ),
        "repro.trace.stream": ("Trace",),
        "repro.trace.stats": ("TraceStats", "compute_stats"),
        "repro.trace.diff": ("DiffEntry", "DiffOp", "TraceDiff", "diff_traces"),
        "repro.trace.physical": ("iter_physical", "to_physical"),
        "repro.trace.dinero": (
            "from_dinero",
            "read_dinero",
            "to_dinero",
            "write_dinero",
        ),
        "repro.trace.binformat": ("load_binary", "save_binary"),
    },
)
