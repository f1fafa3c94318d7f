"""Columnar (struct-of-arrays) binary trace store — format version 2.

The v1 container (:mod:`repro.trace.binformat`) is a zlib-compressed
*record stream*: 20 bytes per record, decoded one Python object at a
time.  That layout is ideal for archival but wrong for simulation — the
vectorized kernels want *columns* (one contiguous ``addr`` array, one
``size`` array, ...), and a campaign re-decodes the identical stream
once per grid point.

Version 2 lays the trace out struct-of-arrays::

    TDST \\x02 COL                                  8-byte header
    addr    column   uint64[n]   (8-byte aligned)
    size    column   uint32[n]
    kind    column   uint8[n]    index into "LSMX"
    scope   column   uint8[n]    index into the Gleipnir scope table
    frame   column   uint8[n]    0xFF = absent
    thread  column   uint8[n]    0xFF = absent
    func_id column   uint16[n]   0xFFFF = absent
    var_id  column   int32[n]    -1 = absent
    zlib function-name table, zlib variable-path table
    footer  (column offsets/lengths + record count)
    u32 footer length, 8-byte trailer magic "TDSTCOLF"

Columns are stored raw (uncompressed) and 8-byte aligned, so
:class:`ColumnarTrace` opens the file with ``mmap`` and exposes every
column as a zero-copy numpy view — loading a 10M-access trace costs one
``mmap`` call and eight ``np.frombuffer`` slices, not 10M object
constructions.  The footer lives at the *end* so writers stream columns
sequentially and readers seek backwards from EOF.

The column set is the in-memory one of
:class:`~repro.trace.columns.TraceColumns`, narrowed: frame and thread
to one byte and function ids to two, each with its top value as the
"absent" marker.  :func:`save_columnar` writes a trace's columns
directly and raises :class:`~repro.errors.TraceFormatError` for a value
the narrow field cannot hold (frame or thread >= 255, function id >=
0xFFFF, size >= 2**32) instead of wrapping it or reading it back as
absent.

Round-trip is exact: ``records -> save_columnar -> iter_records`` yields
the identical record sequence (same guarantee v1 gives), and
:func:`upgrade_binary` converts any existing trace file (text, gzipped
text, or v1 ``TDST``) in one pass through the same atomic
temp-file+rename path every other artifact writer uses.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.binformat import _NO_FIELD, _NO_FUNC, widened
from repro.trace.columns import (
    ABSENT,
    MISC_KIND,
    TraceColumns,
    attribution_ids,
    intern_order,
    narrowed,
    timed_trace,
)
from repro.trace.paths import PathTable
from repro.trace.record import TraceRecord
from repro.trace.stream import DEFAULT_CHUNK_RECORDS, Trace, columns_of

_MAGIC = b"TDST"
_VERSION = 2
#: Full 8-byte header: shared TDST magic, version byte, "COL" pad.
_HEADER = _MAGIC + bytes([_VERSION]) + b"COL"
#: Trailer magic closing every columnar file.
_TRAILER_MAGIC = b"TDSTCOLF"
#: ``<u32 footer length><trailer magic>`` at the very end of the file.
_TRAILER = struct.Struct("<I8s")

#: ``(name, numpy dtype)`` per column, in on-disk order.
_COLUMNS: Tuple[Tuple[str, np.dtype], ...] = (
    ("addr", np.dtype("<u8")),
    ("size", np.dtype("<u4")),
    ("kind", np.dtype("<u1")),
    ("scope", np.dtype("<u1")),
    ("frame", np.dtype("<u1")),
    ("thread", np.dtype("<u1")),
    ("func_id", np.dtype("<u2")),
    ("var_id", np.dtype("<i4")),
)
#: Footer: record count + ``(offset, length)`` per column and per string
#: table (functions, then variables).
_FOOTER = struct.Struct("<Q" + "QQ" * (len(_COLUMNS) + 2))


def _pad8(n: int) -> int:
    """Bytes of zero padding that 8-align an offset of ``n``."""
    return (-n) % 8


def save_columnar(
    records: Iterable[TraceRecord], path: Union[str, Path]
) -> Path:
    """Write records in the columnar v2 format (atomic temp+rename).

    Accepts any record iterable — a :class:`~repro.trace.stream.Trace`
    (whose columns are written directly), a generator from
    :func:`~repro.trace.stream.iter_records`, a list — and interns
    function names and variable paths exactly like the v1 writer, so ids
    are assigned in first-appearance order.  A frame, thread, function
    id or size the format cannot hold raises
    :class:`~repro.errors.TraceFormatError` before anything is written.
    Encoding the columns is one ``trace.encode`` telemetry span.
    """
    cols = columns_of(records)
    columns, func_blob, var_blob = timed_trace(
        "trace.encode", "v2", lambda: _encode(cols), lambda _: (len(cols), cols.paths)
    )
    target = Path(path)
    from repro.obsv.atomic import atomic_write

    with atomic_write(target, "wb") as handle:
        position = handle.write(_HEADER)
        spans: List[Tuple[int, int]] = []
        for column in columns:
            pad = _pad8(position)
            if pad:
                position += handle.write(b"\0" * pad)
            blob = column.tobytes()
            spans.append((position, len(blob)))
            position += handle.write(blob)
        for blob in (func_blob, var_blob):
            spans.append((position, len(blob)))
            position += handle.write(blob)
        footer = _FOOTER.pack(
            len(columns[0]), *(v for span in spans for v in span)
        )
        handle.write(footer)
        handle.write(_TRAILER.pack(len(footer), _TRAILER_MAGIC))
    return target


def _encode(cols: TraceColumns) -> Tuple[Tuple[np.ndarray, ...], bytes, bytes]:
    """The on-disk columns of ``cols`` and its two compressed string
    tables, interned in first-appearance order."""
    func_ids, funcs = intern_order(cols.func_id, cols.functions)
    var_ids, variables = cols.paths.intern(cols.var_id)
    columns = (
        cols.addr.astype(_COLUMNS[0][1]),
        narrowed(cols.size, "size", "v2", _COLUMNS[1][1]),
        cols.kind.astype(_COLUMNS[2][1]),
        cols.scope.astype(_COLUMNS[3][1]),
        narrowed(cols.frame, "frame", "v2", _COLUMNS[4][1], absent=_NO_FIELD),
        narrowed(cols.thread, "thread", "v2", _COLUMNS[5][1], absent=_NO_FIELD),
        narrowed(func_ids, "function id", "v2", _COLUMNS[6][1], absent=_NO_FUNC),
        var_ids.astype(_COLUMNS[7][1]),
    )
    func_blob = zlib.compress("\n".join(funcs).encode("utf-8"))
    var_blob = zlib.compress("\n".join(variables).encode("utf-8"))
    return columns, func_blob, var_blob


def is_columnar(path: Union[str, Path]) -> bool:
    """True when ``path`` starts with the v2 columnar header."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(_HEADER)) == _HEADER
    except OSError:
        return False


class ColumnarTrace:
    """A memory-mapped columnar trace: zero-copy numpy column views.

    Use as a context manager (or call :meth:`close`) to release the
    mapping; the column arrays are *views into the map* and must not
    outlive it.  Decoded forms (:meth:`iter_records`, :meth:`to_trace`)
    are built on demand — the cheap path is to hand the raw columns
    straight to the vectorized simulators.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            try:
                self._mm: Optional[mmap.mmap] = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError as exc:
                raise TraceFormatError(
                    f"{self.path}: cannot map columnar trace: {exc}"
                ) from exc
        try:
            self._parse_footer()
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the mapping (column views become invalid).

        Cached column views are dropped first; if the *caller* still
        holds a view, the map cannot be unmapped eagerly (numpy exports
        a pointer into it), so the reference is released and the OS
        mapping goes away when the last view is garbage-collected.
        """
        if self._mm is not None:
            self._cols = {}
            try:
                self._mm.close()
            except BufferError:
                pass
            self._mm = None

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- parsing -------------------------------------------------------------

    def _fail(self, message: str) -> TraceFormatError:
        return TraceFormatError(f"{self.path}: {message}")

    def _parse_footer(self) -> None:
        mm = self._mm
        assert mm is not None
        size = len(mm)
        if size < len(_HEADER) or mm[:4] != _MAGIC:
            raise self._fail("not a TDST trace file")
        if mm[4] != _VERSION:
            raise self._fail(
                f"version {mm[4]} is not the columnar format "
                f"(expected {_VERSION}; version-1 streams go through "
                "repro.trace.binformat)"
            )
        if size < len(_HEADER) + _TRAILER.size:
            raise self._fail(
                f"truncated at offset {size}: no room for the "
                f"{_TRAILER.size}-byte trailer"
            )
        footer_len, trailer_magic = _TRAILER.unpack_from(
            mm, size - _TRAILER.size
        )
        if trailer_magic != _TRAILER_MAGIC:
            raise self._fail(
                f"bad trailer magic at offset {size - 8}: "
                f"{trailer_magic!r} (file truncated or overwritten?)"
            )
        footer_off = size - _TRAILER.size - footer_len
        if footer_len != _FOOTER.size or footer_off < len(_HEADER):
            raise self._fail(
                f"footer length {footer_len} at offset {footer_off} is "
                f"invalid (expected {_FOOTER.size})"
            )
        fields = _FOOTER.unpack_from(mm, footer_off)
        self._count = fields[0]
        spans = list(zip(fields[1::2], fields[2::2]))
        names = [name for name, _ in _COLUMNS] + ["functions", "variables"]
        for name, (off, length) in zip(names, spans):
            if off + length > footer_off:
                raise self._fail(
                    f"truncated at offset {footer_off}: {name} column "
                    f"needs bytes [{off}, {off + length})"
                )
        self._spans = dict(zip(names, spans))
        view = memoryview(mm)
        self._cols: Dict[str, np.ndarray] = {}
        for name, dtype in _COLUMNS:
            off, length = self._spans[name]
            if length != self._count * dtype.itemsize:
                raise self._fail(
                    f"{name} column length {length} does not match "
                    f"{self._count} records of {dtype.itemsize} bytes"
                )
            self._cols[name] = np.frombuffer(
                view, dtype=dtype, count=self._count, offset=off
            )
        self._funcs: Optional[List[str]] = None
        self._vars: Optional[List[str]] = None
        self._table: Optional[PathTable] = None

    def _strings(self, which: str) -> List[str]:
        mm = self._mm
        if mm is None:
            raise self._fail("columnar trace is closed")
        off, length = self._spans[which]
        try:
            blob = zlib.decompress(mm[off : off + length])
        except zlib.error as exc:
            raise self._fail(
                f"corrupt {which} table at offset {off}: {exc}"
            ) from exc
        return blob.decode("utf-8").split("\n") if blob else []

    # -- columns (zero-copy views) -------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def addrs(self) -> np.ndarray:
        """``uint64[n]`` access addresses."""
        return self._cols["addr"]

    @property
    def sizes(self) -> np.ndarray:
        """``uint32[n]`` access sizes."""
        return self._cols["size"]

    @property
    def kinds(self) -> np.ndarray:
        """``uint8[n]`` op codes (index into ``"LSMX"``)."""
        return self._cols["kind"]

    @property
    def var_ids(self) -> np.ndarray:
        """``int32[n]`` variable-path ids (``-1`` = unresolved)."""
        return self._cols["var_id"]

    @property
    def func_ids(self) -> np.ndarray:
        """``uint16[n]`` function ids (``0xFFFF`` = absent)."""
        return self._cols["func_id"]

    @property
    def nbytes_mapped(self) -> int:
        """Total bytes of the underlying map (telemetry)."""
        return len(self._mm) if self._mm is not None else 0

    @property
    def functions(self) -> List[str]:
        """The interned function-name table."""
        if self._funcs is None:
            self._funcs = self._strings("functions")
        return self._funcs

    @property
    def variables(self) -> List[str]:
        """The interned variable-path table."""
        if self._vars is None:
            self._vars = self._strings("variables")
        return self._vars

    @property
    def paths(self) -> PathTable:
        """The variable-path table split into templates and index rows,
        once per open trace (a ``trace.decode`` telemetry span)."""
        if self._table is None:
            self._table = timed_trace(
                "trace.decode",
                "v2",
                lambda: PathTable.from_texts(self.variables),
                lambda table: (self._count, table),
            )
        return self._table

    def data_indices(self) -> np.ndarray:
        """Indices of demand accesses (``X`` records dropped)."""
        return np.nonzero(self.kinds != MISC_KIND)[0]

    def attribution_ids(
        self, attribution: str = "base"
    ) -> Tuple[List[str], np.ndarray]:
        """Per-record attribution labels as ``(names, int64 ids)``.

        Labels every table entry, in table order, with
        :func:`repro.trace.columns.attribution_ids` (one label per path
        template, then a gather) and maps the ``var_id`` column through
        the result.  The writers intern paths in first-appearance
        order, so ids follow the *record stream* (the same order the
        per-record pipeline produces); ``-1`` marks unattributed records.
        """
        table = self.paths
        names, entry_ids = attribution_ids(
            np.arange(len(table)), table, attribution
        )
        # var_id -1 picks the ABSENT slot appended at the end.
        return names, np.append(entry_ids, ABSENT)[self.var_ids]

    # -- decoded views -------------------------------------------------------

    def columns(
        self, start: int = 0, stop: Optional[int] = None
    ) -> TraceColumns:
        """Records ``[start, stop)`` as in-memory columns (copied out of
        the map, absent markers widened to ``-1``): one ``trace.decode``
        telemetry span, after the path table's own."""
        paths = self.paths
        return timed_trace(
            "trace.decode",
            "v2",
            lambda: self._columns(start, stop, paths),
            lambda cols: (len(cols), paths),
        )

    def _columns(
        self, start: int, stop: Optional[int], paths: PathTable
    ) -> TraceColumns:
        part = slice(start, self._count if stop is None else stop)
        cols = {name: column[part] for name, column in self._cols.items()}
        return TraceColumns(
            kind=cols["kind"].copy(),
            addr=cols["addr"].copy(),
            size=cols["size"].astype(np.int64),
            scope=cols["scope"].copy(),
            frame=widened(cols["frame"], _NO_FIELD, np.int64),
            thread=widened(cols["thread"], _NO_FIELD, np.int64),
            func_id=widened(cols["func_id"], _NO_FUNC, np.int32),
            var_id=cols["var_id"].copy(),
            functions=tuple(self.functions),
            paths=paths,
        )

    def iter_records(self) -> Iterator[TraceRecord]:
        """Yield decoded :class:`TraceRecord` objects, one window of
        records at a time (bounded memory for any file size)."""
        for start in range(0, self._count, DEFAULT_CHUNK_RECORDS):
            yield from self.columns(start, start + DEFAULT_CHUNK_RECORDS).records()

    def to_trace(self) -> Trace:
        """The whole trace, columns-backed (records built on first use)."""
        return Trace.from_columns(self.columns())


def open_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """Open a columnar trace for zero-copy column access."""
    return ColumnarTrace(path)


def load_columnar(path: Union[str, Path]) -> Trace:
    """Read a columnar trace fully into a columns-backed ``Trace``."""
    with ColumnarTrace(path) as columnar:
        return columnar.to_trace()


def upgrade_binary(
    source: Union[str, Path], target: Union[str, Path]
) -> Path:
    """One-shot upgrade: any trace file -> columnar v2.

    ``source`` may be a v1 ``TDST`` stream, plain or gzipped Gleipnir
    text — anything :func:`repro.trace.stream.iter_records` reads.  The
    record sequence is preserved exactly; upgrading an already-columnar
    file is a plain rewrite.
    """
    from repro.trace.stream import iter_records

    return save_columnar(iter_records(source), target)
