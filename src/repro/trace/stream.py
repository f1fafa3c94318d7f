"""The :class:`Trace` container and stream utilities.

A :class:`Trace` is an immutable-ish sequence of records with the common
query/derivation operations the analysis and transformation layers
need: filtering by predicate, function, variable or scope; slicing into
windows; projecting addresses into numpy arrays for the vectorized
cache simulator.

A trace holds either a record list or
:class:`~repro.trace.columns.TraceColumns` (the columnar v2 column set
with its function and variable-path tables), or both.  The tracer, both
binary readers and the transform engine return columns-backed traces:
their length, projections, slices, both binary writers and the fast
simulation path read the columns, and the record list is built once,
on first record access, by the shared materialiser
(:meth:`TraceColumns.records`).  A trace built from records derives
columns only when a column consumer (a writer) asks for them, and does
not keep them.

For traces too large to materialize, :func:`iter_records` streams records
from any trace file (text, gzipped text, or ``TDST`` binary, auto-detected
by magic bytes); :func:`repro.simbatch.simulate_batch` feeds such a
stream to the cache kernel in bounded-size chunks, and
:func:`iter_record_chunks` batches it into the trace store's chunk blobs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.trace.columns import TraceColumns
from repro.trace.format import iter_trace_lines, read_trace, write_trace
from repro.trace.record import AccessType, TraceRecord


class Trace(Sequence[TraceRecord]):
    """An ordered sequence of trace records.

    Supports the full :class:`Sequence` protocol plus trace-specific
    filters.  Derivation methods return new ``Trace`` objects and never
    mutate the receiver.
    """

    __slots__ = ("_list", "_columns")

    def __init__(self, records: Iterable[TraceRecord] = ()) -> None:
        self._list: Optional[List[TraceRecord]] = list(records)
        self._columns: Optional[TraceColumns] = None

    @classmethod
    def from_columns(cls, columns: TraceColumns) -> "Trace":
        """A trace backed by ``columns``; records are built on first use."""
        trace = cls.__new__(cls)
        trace._list = None
        trace._columns = columns
        return trace

    @property
    def _records(self) -> List[TraceRecord]:
        if self._list is None:
            assert self._columns is not None
            self._list = self._columns.records()
        return self._list

    def columns(self) -> TraceColumns:
        """The trace as columns: its own, or derived from its records.

        Derived columns are not kept, so a record-backed trace that a
        writer saves holds no second copy of itself afterwards.
        """
        if self._columns is None:
            return TraceColumns.from_records(self._records)
        return self._columns

    # -- Sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._list)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, item):
        if isinstance(item, slice):
            if self._columns is not None and item.step in (None, 1):
                start, stop, _ = item.indices(len(self._columns))
                return Trace.from_columns(
                    self._columns.window(start, max(start, stop))
                )
            return Trace(self._records[item])
        return self._records[item]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return len(self) == len(other) and self._records == other._records
        return NotImplemented

    def __repr__(self) -> str:
        return f"<Trace of {len(self)} records>"

    # -- construction -------------------------------------------------------

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Load a Gleipnir-format trace file."""
        return cls(read_trace(path))

    @classmethod
    def load_any(cls, path: Union[str, Path]) -> "Trace":
        """Load a trace file, auto-detecting the format by magic bytes.

        Files starting with the ``TDST`` magic load through the binary
        readers (version 1 = compact record stream, version 2 =
        columnar); everything else (including gzipped text) goes
        through the Gleipnir text parser.
        """
        version = _binary_version(path)
        if version == 2:
            from repro.trace.columnar import load_columnar

            return load_columnar(path)
        if version is not None:
            from repro.trace.binformat import load_binary

            return load_binary(path)
        return cls.load(path)

    def save(self, path: Union[str, Path], *, pid: int = 10000) -> None:
        """Write the trace in Gleipnir format."""
        write_trace(self._records, path, pid=pid)

    def _drop_columns(self) -> None:
        """Keep only the records (built now if need be): they are about
        to change, and the columns would go stale."""
        self._list = self._records
        self._columns = None

    def append(self, record: TraceRecord) -> None:
        """Append a record (used by trace builders only)."""
        if self._columns is not None:
            self._drop_columns()
        self._list.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append many records."""
        if self._columns is not None:
            self._drop_columns()
        self._list.extend(records)

    # -- derivation ----------------------------------------------------------

    def filter(self, predicate: Callable[[TraceRecord], bool]) -> "Trace":
        """Records satisfying ``predicate``, in order."""
        return Trace(r for r in self._records if predicate(r))

    def only_ops(self, *ops: AccessType) -> "Trace":
        """Restrict to the given access types."""
        wanted = set(ops)
        return self.filter(lambda r: r.op in wanted)

    def data_accesses(self) -> "Trace":
        """Drop ``X`` (miscellaneous) lines; keep loads/stores/modifies."""
        return self.filter(lambda r: r.op is not AccessType.MISC)

    def in_function(self, func: str) -> "Trace":
        """Accesses performed while executing ``func``."""
        return self.filter(lambda r: r.func == func)

    def touching_variable(self, base_name: str) -> "Trace":
        """Accesses whose resolved variable has the given base name."""
        return self.filter(lambda r: r.base_name == base_name)

    def with_scope(self, *scopes: str) -> "Trace":
        """Restrict to the given Gleipnir scopes (``LV``, ``GS``...)."""
        wanted = set(scopes)
        return self.filter(lambda r: r.scope in wanted)

    def symbolized(self) -> "Trace":
        """Only records that resolved to a variable."""
        return self.filter(lambda r: r.var is not None)

    def window(self, start: int, length: int) -> "Trace":
        """A contiguous slice of the trace."""
        return self[start : start + length]

    def map(self, fn: Callable[[TraceRecord], TraceRecord]) -> "Trace":
        """Apply ``fn`` to every record."""
        return Trace(fn(r) for r in self._records)

    def concat(self, other: "Trace") -> "Trace":
        """This trace followed by ``other``."""
        return Trace([*self._records, *other._records])

    # -- projections ---------------------------------------------------------

    def addresses(self) -> np.ndarray:
        """All addresses as a ``uint64`` array (vectorized simulator input)."""
        if self._columns is not None:
            return self._columns.addr.astype(np.uint64)
        return np.fromiter(
            (r.addr for r in self._records), dtype=np.uint64, count=len(self._records)
        )

    def sizes(self) -> np.ndarray:
        """All access sizes as a ``uint32`` array."""
        if self._columns is not None:
            return self._columns.size.astype(np.uint32)
        return np.fromiter(
            (r.size for r in self._records), dtype=np.uint32, count=len(self._records)
        )

    def write_mask(self) -> np.ndarray:
        """Boolean array marking accesses that write memory."""
        if self._columns is not None:
            return self._columns.write_mask()
        return np.fromiter(
            (r.op.writes for r in self._records), dtype=bool, count=len(self._records)
        )

    # -- quick queries ---------------------------------------------------------

    def functions(self) -> Tuple[str, ...]:
        """Distinct function names in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self._records:
            if r.func and r.func not in seen:
                seen[r.func] = None
        return tuple(seen)

    def variable_names(self) -> Tuple[str, ...]:
        """Distinct resolved base variable names in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self._records:
            name = r.base_name
            if name is not None and name not in seen:
                seen[name] = None
        return tuple(seen)

    def address_range(self) -> Optional[Tuple[int, int]]:
        """``(lowest address, highest end)`` over all records."""
        if not self._records:
            return None
        lo = min(r.addr for r in self._records)
        hi = max(r.end for r in self._records)
        return lo, hi


def columns_of(records: Iterable[TraceRecord]) -> TraceColumns:
    """The columns of a :class:`Trace`, or of any other record iterable."""
    if isinstance(records, Trace):
        return records.columns()
    return TraceColumns.from_records(records)


# -- chunked streaming --------------------------------------------------------

#: Default records per chunk: large enough to amortize numpy dispatch,
#: small enough that a chunk's arrays stay well under a megabyte.
DEFAULT_CHUNK_RECORDS = 65536


def _binary_version(path: Union[str, Path]) -> Optional[int]:
    """The ``TDST`` container version of a file, or ``None`` for text."""
    with open(path, "rb") as handle:
        head = handle.read(5)
    if head[:4] != b"TDST" or len(head) < 5:
        return None
    return head[4]


def _iter_columnar_records(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream a columnar file's decoded records, closing the map at EOF."""
    from repro.trace.columnar import ColumnarTrace

    with ColumnarTrace(path) as columnar:
        yield from columnar.iter_records()


def iter_records(
    source: Union[str, Path, Iterable[TraceRecord]],
) -> Iterator[TraceRecord]:
    """Stream records from a trace file or pass an iterable through.

    Paths are auto-detected by magic bytes like :meth:`Trace.load_any`:
    ``TDST`` containers stream through the matching binary reader
    (version 1 record stream or version 2 columnar), everything else
    through the line-at-a-time text parser — none builds the full
    record list.
    """
    if isinstance(source, (str, Path)):
        version = _binary_version(source)
        if version == 2:
            return _iter_columnar_records(source)
        if version is not None:
            from repro.trace.binformat import iter_binary

            return iter_binary(source)
        return iter_trace_lines(source)
    return iter(source)


def iter_record_chunks(
    source: Union[str, Path, Iterable[TraceRecord]],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[List[TraceRecord]]:
    """Batch a record stream into lists of ``chunk_records`` records.

    Every record is kept, ``X`` lines included — the input format of the
    tracestore's content-addressed chunk blobs, whose boundaries must be
    stable functions of record position alone so identical prefixes hash
    identically regardless of container format.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    batch: List[TraceRecord] = []
    for record in iter_records(source):
        batch.append(record)
        if len(batch) >= chunk_records:
            yield batch
            batch = []
    if batch:
        yield batch
