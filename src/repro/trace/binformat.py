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
one numpy structured array.  Frame and thread are one byte each and
function ids two, with the top value (``0xFF``, ``0xFFFF``) meaning
"absent"; a real value there, or a size above 65535, raises
:class:`~repro.errors.TraceFormatError` naming the field, the value and
the record index instead of being saved as something else.
:func:`read_record_count` reads the record count from the header after
the same checks :func:`iter_binary` makes before it decompresses.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.ctypes_model.path import VariablePath
from repro.trace.columns import OPS, SCOPES, TraceColumns, intern_order, narrowed
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace, columns_of

_MAGIC = b"TDST"
_VERSION = 1
_RECORD = struct.Struct("<BBBBHHIQ")
#: The same 20-byte record as a packed numpy structured dtype.
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
    tables, interned in first-appearance order.

    Raises :class:`TraceFormatError` for a frame or thread >= 255, a
    function id >= 0xFFFF or a size > 65535.
    """
    func_ids, funcs = intern_order(cols.func_id, cols.functions)
    var_ids, variables = intern_order(cols.var_id, cols.variables)
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


def read_record_count(path: Union[str, Path]) -> int:
    """The record count a v1 trace's header declares, without decoding.

    Runs the checks :func:`iter_binary` makes before it decompresses
    (magic, version, blob lengths that fit inside the file), so a
    truncated or foreign file raises :class:`TraceFormatError` here too.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(_BODY_PREFIX)
    return _parse_header(head, size, path)[3]


def iter_binary(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Yield records from a compact binary trace one at a time.

    The file is memory-mapped and the zlib-compressed record body is
    decompressed *incrementally*, so peak resident memory is one
    decompression window plus one record — not the whole file and not
    the full 20-byte-per-record body (a 100M-record trace used to pin
    ~2 GiB before the first record came out).

    Truncated or corrupt files raise :class:`TraceFormatError` naming
    the byte offset where the file stopped making sense, so a torn
    download or interrupted copy is diagnosable from the message alone.
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

        parsed_paths: Dict[int, VariablePath] = {}
        decomp = zlib.decompressobj()
        buffer = bytearray()
        yielded = 0
        rec_size = _RECORD.size
        position = body_off
        body_end = body_off + body_len
        while position < body_end or buffer:
            if position < body_end:
                step = min(_DECOMPRESS_CHUNK, body_end - position)
                try:
                    buffer += decomp.decompress(mm[position : position + step])
                except zlib.error as exc:
                    raise TraceFormatError(
                        f"{path}: corrupt record body at offset "
                        f"{position}: {exc}"
                    ) from exc
                position += step
                if position >= body_end:
                    buffer += decomp.flush()
            n_full = len(buffer) // rec_size
            if n_full:
                window = bytes(buffer[: n_full * rec_size])
                del buffer[: n_full * rec_size]
                for fields in _RECORD.iter_unpack(window):
                    op_i, scope_i, frame, thread, size_, func_id, var_id, addr = fields
                    if yielded >= count:
                        raise TraceFormatError(
                            f"{path}: record body at offset {body_off} "
                            f"holds more than the declared {count} records"
                        )
                    var: Optional[VariablePath] = None
                    if var_id != _NO_VAR:
                        var = parsed_paths.get(var_id)
                        if var is None:
                            var = VariablePath.parse(variables[var_id])
                            parsed_paths[var_id] = var
                    yielded += 1
                    yield TraceRecord(
                        op=AccessType(OPS[op_i]),
                        addr=addr,
                        size=size_,
                        func=funcs[func_id] if func_id != _NO_FUNC else "",
                        scope=SCOPES[scope_i] if scope_i else None,
                        frame=frame if frame != _NO_FIELD else None,
                        thread=thread if thread != _NO_FIELD else None,
                        var=var,
                    )
            elif position >= body_end:
                break
        if buffer:
            raise TraceFormatError(
                f"{path}: record body at offset {body_off} ends with "
                f"{len(buffer)} trailing bytes (not a whole "
                f"{rec_size}-byte record)"
            )
        if yielded != count:
            raise TraceFormatError(
                f"{path}: record body at offset {body_off} decoded "
                f"{yielded} records but the header declares {count}"
            )
    finally:
        mm.close()


def load_binary(path: Union[str, Path]) -> Trace:
    """Read a compact binary trace."""
    return Trace(iter_binary(path))
