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

from repro.trace.record import AccessType, TraceRecord
from repro.trace.format import (
    format_record,
    format_trace,
    parse_line,
    parse_trace,
    read_trace,
    write_trace,
)
from repro.trace.stream import Trace
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.diff import DiffEntry, DiffOp, TraceDiff, diff_traces
from repro.trace.physical import iter_physical, to_physical
from repro.trace.dinero import from_dinero, read_dinero, to_dinero, write_dinero
from repro.trace.binformat import load_binary, save_binary

__all__ = [
    "AccessType",
    "TraceRecord",
    "Trace",
    "format_record",
    "format_trace",
    "parse_line",
    "parse_trace",
    "read_trace",
    "write_trace",
    "TraceStats",
    "compute_stats",
    "DiffOp",
    "DiffEntry",
    "TraceDiff",
    "diff_traces",
    "to_physical",
    "iter_physical",
    "to_dinero",
    "from_dinero",
    "read_dinero",
    "write_dinero",
    "save_binary",
    "load_binary",
]
