"""Compact binary trace format for large traces.

The text format is human-auditable but ~50 bytes/record; kernels at
figure scale produce multi-million-line traces where parse time dominates
(the repro-band's "slow simulation of large traces" concern).  This
module defines a compact container:

- magic ``TDST``, version byte;
- two zlib-compressed string tables (function names, variable paths);
- a zlib-compressed record array of fixed 20-byte entries:
  ``op(1) scope(1) frame(1) thread(1) size(2) func_id(2) var_id(4) addr(8)``.

Round-trip is exact (same records in, same records out); a 1M-record
trace stores in ~2-6 MB depending on path diversity and loads ~5x faster
than text.

:func:`save_binary` packs a trace's columns
(:class:`~repro.trace.columns.TraceColumns`) into the record array as
one numpy structured array, and the readers decode it back into columns
the same way: :func:`load_binary` decompresses the body and reads it
with one ``np.frombuffer``, returning a columns-backed
:class:`~repro.trace.stream.Trace`; :func:`iter_binary` does the same
per decompression window and builds each window's records.  Frame and
thread are one byte each and function ids two, with the top value
(``0xFF``, ``0xFFFF``) meaning "absent"; a real value there, or a size
above 65535, raises :class:`~repro.errors.TraceFormatError` naming the
field, the value and the record index instead of being saved as
something else.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.columns import (
    ABSENT,
    OPS,
    SCOPES,
    TraceColumns,
    intern_order,
    narrowed,
    timed_trace,
)
from repro.trace.paths import PathTable
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace, columns_of

_MAGIC = b"TDST"
_VERSION = 1
#: The 20-byte record as a packed numpy structured dtype.
_RECORD_DTYPE = np.dtype(
    [
        ("op", "u1"),
        ("scope", "u1"),
        ("frame", "u1"),
        ("thread", "u1"),
        ("size", "<u2"),
        ("func_id", "<u2"),
        ("var_id", "<u4"),
        ("addr", "<u8"),
    ]
)

#: sentinel ids for "absent" fields
_NO_FIELD = 0xFF
_NO_VAR = 0xFFFFFFFF
_NO_FUNC = 0xFFFF


def pack_records(cols: TraceColumns) -> Tuple[bytes, List[str], List[str]]:
    """The v1 record array of ``cols`` plus its function and variable
    tables, interned in first-appearance order (path texts are rendered
    for the used entries only).  One ``trace.encode`` telemetry span.

    Raises :class:`TraceFormatError` for a frame or thread >= 255, a
    function id >= 0xFFFF or a size > 65535.
    """
    return timed_trace(
        "trace.encode", "v1", lambda: _pack(cols), lambda _: (len(cols), cols.paths)
    )


def _pack(cols: TraceColumns) -> Tuple[bytes, List[str], List[str]]:
    func_ids, funcs = intern_order(cols.func_id, cols.functions)
    var_ids, variables = cols.paths.intern(cols.var_id)
    body = np.empty(len(cols), dtype=_RECORD_DTYPE)
    body["op"] = cols.kind
    body["scope"] = cols.scope
    body["frame"] = narrowed(cols.frame, "frame", "v1", "u1", absent=_NO_FIELD)
    body["thread"] = narrowed(cols.thread, "thread", "v1", "u1", absent=_NO_FIELD)
    body["size"] = narrowed(cols.size, "size", "v1", "<u2")
    body["func_id"] = narrowed(
        func_ids, "function id", "v1", "<u2", absent=_NO_FUNC
    )
    body["var_id"] = narrowed(
        var_ids, "variable id", "v1", "<u4", absent=_NO_VAR
    )
    body["addr"] = cols.addr
    return body.tobytes(), funcs, variables


def save_binary(records: Iterable[TraceRecord], path: Union[str, Path]) -> Path:
    """Write records in the compact binary format.

    A :class:`~repro.trace.stream.Trace` is written from its columns;
    any other record iterable is turned into columns first.
    """
    cols = columns_of(records)
    body, funcs, variables = pack_records(cols)
    count = len(cols)
    func_blob = zlib.compress("\n".join(funcs).encode("utf-8"))
    var_blob = zlib.compress("\n".join(variables).encode("utf-8"))
    body_blob = zlib.compress(body)
    target = Path(path)
    from repro.obsv.atomic import atomic_write

    with atomic_write(target, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(bytes([_VERSION]))
        for blob in (func_blob, var_blob, body_blob):
            handle.write(struct.pack("<I", len(blob)))
        handle.write(struct.pack("<I", count))
        handle.write(func_blob)
        handle.write(var_blob)
        handle.write(body_blob)
    return target


#: Compressed bytes fed to the streaming decompressor per step.
_DECOMPRESS_CHUNK = 1 << 18

#: File-layout offsets: magic+version header, then three blob lengths
#: and the record count.
_HEADER_SIZE = 5
_COUNTS_SIZE = 16
_BODY_PREFIX = _HEADER_SIZE + _COUNTS_SIZE


def _decompress_blob(
    mm, start: int, length: int, what: str, path: Path
) -> bytes:
    try:
        return zlib.decompress(mm[start : start + length])
    except zlib.error as exc:
        raise TraceFormatError(
            f"{path}: corrupt {what} at offset {start}: {exc}"
        ) from exc


def _parse_header(head: bytes, size: int, path: Path) -> Tuple[int, int, int, int]:
    """Check a v1 header and the blob lengths it declares against the
    file size; returns ``(func_len, var_len, body_len, count)``.

    ``head`` is the file's first :data:`_BODY_PREFIX` bytes (or all of
    them, if the file is shorter).
    """
    if size == 0:
        raise TraceFormatError(f"{path}: not a TDST binary trace (empty file)")
    if len(head) < _HEADER_SIZE or head[:4] != _MAGIC:
        raise TraceFormatError(f"{path}: not a TDST binary trace")
    if head[4] != _VERSION:
        hint = (
            " (version 2 is the columnar format; "
            "use repro.trace.columnar)"
            if head[4] == 2
            else ""
        )
        raise TraceFormatError(
            f"{path}: unsupported version {head[4]} "
            f"(expected {_VERSION}){hint}"
        )
    if size < _BODY_PREFIX:
        raise TraceFormatError(
            f"{path}: truncated at offset {size}: header needs "
            f"{_BODY_PREFIX} bytes"
        )
    func_len, var_len, body_len, count = struct.unpack_from(
        "<IIII", head, _HEADER_SIZE
    )
    offset = _BODY_PREFIX
    for what, length in (
        ("function table", func_len),
        ("variable table", var_len),
        ("record body", body_len),
    ):
        if offset + length > size:
            raise TraceFormatError(
                f"{path}: truncated at offset {size}: {what} needs "
                f"bytes [{offset}, {offset + length})"
            )
        offset += length
    return func_len, var_len, body_len, count


def _record_windows(
    mm, body_off: int, body_len: int, count: int, path: Path
) -> Iterator[bytes]:
    """Decompress the record body incrementally, yielding each window of
    whole records as it completes; checks the body against ``count``."""
    decomp = zlib.decompressobj()
    buffer = bytearray()
    decoded = 0
    rec_size = _RECORD_DTYPE.itemsize
    position = body_off
    body_end = body_off + body_len
    while position < body_end:
        step = min(_DECOMPRESS_CHUNK, body_end - position)
        try:
            buffer += decomp.decompress(mm[position : position + step])
        except zlib.error as exc:
            raise TraceFormatError(
                f"{path}: corrupt record body at offset {position}: {exc}"
            ) from exc
        position += step
        if position >= body_end:
            buffer += decomp.flush()
        n_full = len(buffer) // rec_size
        if n_full:
            if decoded + n_full > count:
                raise TraceFormatError(
                    f"{path}: record body at offset {body_off} "
                    f"holds more than the declared {count} records"
                )
            decoded += n_full
            window = bytes(buffer[: n_full * rec_size])
            del buffer[: n_full * rec_size]
            yield window
    if buffer:
        raise TraceFormatError(
            f"{path}: record body at offset {body_off} ends with "
            f"{len(buffer)} trailing bytes (not a whole "
            f"{rec_size}-byte record)"
        )
    if decoded != count:
        raise TraceFormatError(
            f"{path}: record body at offset {body_off} decoded "
            f"{decoded} records but the header declares {count}"
        )


def widened(raw: np.ndarray, absent: int, dtype: type) -> np.ndarray:
    """A narrow file column as an in-memory one: ``raw`` cast to
    ``dtype``, with the file's ``absent`` marker replaced by ``ABSENT``."""
    out = raw.astype(dtype)
    out[raw == absent] = ABSENT
    return out


def _columns(
    window: bytes,
    start: int,
    funcs: Sequence[str],
    paths: PathTable,
    path: Path,
) -> TraceColumns:
    """Whole v1 records, the first at record ``start``, as in-memory
    columns."""
    body = np.frombuffer(window, dtype=_RECORD_DTYPE)
    cols = TraceColumns(
        kind=body["op"].copy(),
        addr=body["addr"].astype(np.uint64),
        size=body["size"].astype(np.int64),
        scope=body["scope"].copy(),
        frame=widened(body["frame"], _NO_FIELD, np.int64),
        thread=widened(body["thread"], _NO_FIELD, np.int64),
        func_id=widened(body["func_id"], _NO_FUNC, np.int32),
        var_id=widened(body["var_id"], _NO_VAR, np.int32),
        functions=tuple(funcs),
        paths=paths,
    )
    for field, column, limit in (
        ("op code", cols.kind, len(OPS)),
        ("scope code", cols.scope, len(SCOPES)),
        ("function id", cols.func_id, len(funcs)),
        ("variable id", cols.var_id, len(paths)),
    ):
        bad = column >= limit
        if bad.any():
            i = int(np.argmax(bad))
            raise TraceFormatError(
                f"{path}: record {start + i} holds {field} {int(column[i])} "
                f"but the file defines only {limit}"
            )
    return cols


def _decode(path: Union[str, Path], *, whole: bool = False) -> Iterator[TraceColumns]:
    """Decode a v1 trace into columns, one decompression window at a
    time, or (``whole``) as one set of columns.

    The file is memory-mapped and the zlib-compressed record body is
    decompressed *incrementally*; each window of whole records is read
    with one ``np.frombuffer``, and the variable table is split into
    templates and index rows once (:meth:`PathTable.from_texts`).
    Truncated or corrupt files raise :class:`TraceFormatError` naming
    the byte offset where the file stopped making sense.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:
            raise TraceFormatError(f"{path}: not a TDST binary trace (empty file)")
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        func_len, var_len, body_len, count = _parse_header(
            mm[:_BODY_PREFIX], len(mm), path
        )
        func_off = _BODY_PREFIX
        var_off = func_off + func_len
        body_off = var_off + var_len
        func_blob = _decompress_blob(
            mm, func_off, func_len, "function table", path
        )
        var_blob = _decompress_blob(
            mm, var_off, var_len, "variable table", path
        )
        funcs = func_blob.decode("utf-8").split("\n") if func_blob else []
        variables = var_blob.decode("utf-8").split("\n") if var_blob else []
        paths = PathTable.from_texts(variables)
        windows: Iterable[bytes] = _record_windows(
            mm, body_off, body_len, count, path
        )
        if whole:
            windows = [b"".join(windows)]
        start = 0
        for window in windows:
            cols = _columns(window, start, funcs, paths, path)
            start += len(cols)
            yield cols
    finally:
        mm.close()


def iter_binary(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Yield records from a compact binary trace, built one
    decompression window at a time, so peak resident memory is one
    window — not the whole file and not the full 20-byte-per-record
    body (a 100M-record trace used to pin ~2 GiB before the first
    record came out).
    """
    for cols in _decode(path):
        yield from cols.records()


def load_binary(path: Union[str, Path]) -> Trace:
    """Read a compact binary trace into a columns-backed :class:`Trace`:
    the whole body is decompressed and read with one ``np.frombuffer``,
    and records are built only if a consumer asks for them.  One
    ``trace.decode`` telemetry span."""
    (cols,) = timed_trace(
        "trace.decode",
        "v1",
        lambda: list(_decode(path, whole=True)),
        lambda r: (len(r[0]), r[0].paths),
    )
    return Trace.from_columns(cols)
