"""In-memory trace columns: the columnar (v2) column set, held in numpy.

A :class:`TraceColumns` is one trace laid out struct-of-arrays, with the
same columns the v2 file stores (:mod:`repro.trace.columnar`) plus the
interned function-name table and a :class:`~repro.trace.paths.PathTable`
(each path template once, an index row per entry):

===========  ======  ================================================
``kind``     uint8   op code, index into :data:`OPS`
``addr``     uint64  access address
``size``     int64   access size in bytes
``scope``    uint8   index into :data:`SCOPES` (0 = no scope)
``frame``    int64   frame distance, ``-1`` = absent
``thread``   int64   thread id, ``-1`` = absent
``func_id``  int32   index into ``functions``, ``-1`` = absent
``var_id``   int32   index into ``paths``, ``-1`` = absent
===========  ======  ================================================

In memory, ``-1`` marks an absent field, so every real frame, thread and
function id survives.  The file formats narrow these columns to one or
two bytes and reserve their top value as the "absent" marker;
:func:`narrowed` refuses a value that would collide with that marker or
overflow the field, naming the field, the value and the record index.

The tracer builds columns directly (one symbolisation per distinct
symbol and offset, one template per symbol and leaf), both binary
readers decode into them, the transform engine rewrites them, the
writers encode them without a per-record loop (rendering path texts
only for the entries the records use), and :meth:`TraceColumns.records`
is the one place that turns columns back into :class:`TraceRecord`
objects — for a whole :class:`~repro.trace.stream.Trace` or window by
window for :meth:`repro.trace.columnar.ColumnarTrace.iter_records` and
:func:`repro.trace.binformat.iter_binary`.  Every record it builds is
counted in the ``trace.records_built`` telemetry counter.
:func:`attribution_ids` labels a ``var_id`` column for per-variable
simulation counts, one label per template and one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.ctypes_model.path import VariablePath
from repro.errors import TraceFormatError
from repro.obsv.telemetry import get_telemetry
from repro.trace.paths import PathTable, first_use, groups, label_of
from repro.trace.record import AccessType, TraceRecord

#: Op codes of the ``kind`` column: a record's op is ``OPS[kind]``.
OPS = "LSMX"
#: Op code of miscellaneous (``X``) records, which the simulators skip.
MISC_KIND = OPS.index("X")
#: Scope codes of the ``scope`` column; code 0 means "no scope".
SCOPES = ("", "LV", "LS", "GV", "GS", "HV", "HS")
SCOPE_ID = {name: i for i, name in enumerate(SCOPES)}
#: In-memory marker of an absent frame, thread, function or variable.
ABSENT = -1

_OP_OF = tuple(AccessType(code) for code in OPS)
_SCOPE_OF = (None, *SCOPES[1:])
_T = TypeVar("_T")


def _optional(column: np.ndarray) -> List[Optional[int]]:
    """A column as Python ints, with ``None`` where it holds ``ABSENT``."""
    values = column.astype(object)
    values[column < 0] = None
    return values.tolist()


def _negative(field: str, value: int, index: int) -> TraceFormatError:
    return TraceFormatError(
        f"{field} {value} at record {index} is negative: trace columns "
        f"store {field} values 0 and up ({ABSENT} marks an absent {field})"
    )


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """One trace as columns plus its function and path tables.

    Tables built by the tracer and by :meth:`from_records` list each
    path once, in the order the records first use it; the writers
    re-intern any other table (a slice, a file window, the engine's
    output) with :meth:`PathTable.intern`.
    """

    kind: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    scope: np.ndarray
    frame: np.ndarray
    thread: np.ndarray
    func_id: np.ndarray
    var_id: np.ndarray
    functions: Tuple[str, ...]
    paths: PathTable

    def __len__(self) -> int:
        return len(self.addr)

    @property
    def variables(self) -> Tuple[str, ...]:
        """The text of each entry of ``paths`` (rendered on demand)."""
        return self.paths.texts()

    def window(self, start: int, stop: int) -> "TraceColumns":
        """Records ``[start, stop)`` as views sharing this trace's tables."""
        part = slice(start, stop)
        return TraceColumns(
            kind=self.kind[part],
            addr=self.addr[part],
            size=self.size[part],
            scope=self.scope[part],
            frame=self.frame[part],
            thread=self.thread[part],
            func_id=self.func_id[part],
            var_id=self.var_id[part],
            functions=self.functions,
            paths=self.paths,
        )

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """``parts`` one after another, as one column set.

        Each part's ``func_id`` and ``var_id`` shift by the sizes of the
        tables before it (``ABSENT`` stays ``ABSENT``); the function
        tables are joined and the path tables merged with
        :meth:`PathTable.concat`.  No record is built.
        """
        def shifted(ids: np.ndarray, by: int) -> np.ndarray:
            return np.where(ids == ABSENT, ids, ids + by)

        head = parts[0]
        func_ids, var_ids = [head.func_id], [head.var_id]
        functions, paths = list(head.functions), head.paths
        for part in parts[1:]:
            func_ids.append(shifted(part.func_id, len(functions)))
            var_ids.append(shifted(part.var_id, len(paths)))
            functions.extend(part.functions)
            paths = paths.concat(part.paths)

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(part, name) for part in parts])

        return cls(
            kind=joined("kind"),
            addr=joined("addr"),
            size=joined("size"),
            scope=joined("scope"),
            frame=joined("frame"),
            thread=joined("thread"),
            func_id=np.concatenate(func_ids),
            var_id=np.concatenate(var_ids),
            functions=tuple(functions),
            paths=paths,
        )

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceColumns":
        """Columns of a record sequence, interned like the writers intern.

        Raises :class:`TraceFormatError` for a negative frame or thread,
        which the columns could not tell apart from an absent one.
        """
        kinds: List[int] = []
        addrs: List[int] = []
        sizes: List[int] = []
        scopes: List[int] = []
        frames: List[int] = []
        threads: List[int] = []
        func_ids: List[int] = []
        var_ids: List[int] = []
        func_table: Dict[str, int] = {}
        var_table: Dict[str, int] = {}
        for i, r in enumerate(records):
            kinds.append(OPS.index(r.op))
            addrs.append(r.addr)
            sizes.append(r.size)
            scopes.append(SCOPE_ID.get(r.scope or "", 0))
            frame, thread = r.frame, r.thread
            if frame is None:
                frame = ABSENT
            elif frame < 0:
                raise _negative("frame", frame, i)
            if thread is None:
                thread = ABSENT
            elif thread < 0:
                raise _negative("thread", thread, i)
            frames.append(frame)
            threads.append(thread)
            func_ids.append(
                func_table.setdefault(r.func, len(func_table)) if r.func else ABSENT
            )
            if r.var is None:
                var_ids.append(ABSENT)
            else:
                var_ids.append(var_table.setdefault(str(r.var), len(var_table)))
        return cls(
            kind=np.array(kinds, dtype=np.uint8),
            addr=np.array(addrs, dtype=np.uint64),
            size=np.array(sizes, dtype=np.int64),
            scope=np.array(scopes, dtype=np.uint8),
            frame=np.array(frames, dtype=np.int64),
            thread=np.array(threads, dtype=np.int64),
            func_id=np.array(func_ids, dtype=np.int32),
            var_id=np.array(var_ids, dtype=np.int32),
            functions=tuple(func_table),
            paths=PathTable.from_texts(list(var_table)),
        )

    def records(self) -> List[TraceRecord]:
        """Build the :class:`TraceRecord` list (the one materialiser)."""
        functions = [*self.functions, ""]  # ABSENT (-1) picks the ""
        # Paths are built for the entries these records use (the last
        # slot, None, serves var_id -1).
        paths = [*self.paths.objects(first_use(self.var_id)), None]
        built = list(
            map(
                TraceRecord,
                map(_OP_OF.__getitem__, self.kind.tolist()),
                self.addr.tolist(),
                self.size.tolist(),
                map(functions.__getitem__, self.func_id.tolist()),
                map(_SCOPE_OF.__getitem__, self.scope.tolist()),
                _optional(self.frame),
                _optional(self.thread),
                map(paths.__getitem__, self.var_id.tolist()),
            )
        )
        get_telemetry().add("trace.records_built", len(built))
        return built

    def write_mask(self) -> np.ndarray:
        """Boolean array marking accesses that write memory."""
        return (self.kind == OPS.index("S")) | (self.kind == OPS.index("M"))


def intern_order(
    ids: np.ndarray, texts: Sequence[str]
) -> Tuple[np.ndarray, List[str]]:
    """Re-intern an id column so its table is in first-appearance order.

    Returns ``(ids, table)`` as the record writers would intern them:
    each text once, numbered in the order the records first use it,
    unused entries dropped, ``ABSENT`` kept.  A column that is already
    in that order (the tracer's, :meth:`TraceColumns.from_records`'s)
    passes an O(n) check and comes back unchanged.
    """
    table = list(texts)
    order = first_use(ids)
    in_order = np.array_equal(order, np.arange(len(table)))
    if in_order and len(set(table)) == len(table):
        return ids, table
    # The extra last slot maps ABSENT (-1) to itself.
    mapping = np.full(len(table) + 1, ABSENT, dtype=np.int64)
    interned: Dict[str, int] = {}
    for old in order.tolist():
        mapping[old] = interned.setdefault(table[old], len(interned))
    return mapping[ids].astype(ids.dtype), list(interned)


def path_label(path: VariablePath, mode: str) -> str:
    """The attribution label of one variable path.

    - ``"base"``  — the root variable name (``lSoA``), the default;
    - ``"member"``— root plus field names with indices stripped
      (``lSoA.mX``), which separates the per-field series the paper's
      Figure 3 plots for the structure-of-arrays layout.
    """
    if mode == "base":
        return path.base
    if mode == "member":
        fields = path.field_names()
        if fields:
            return path.base + "." + ".".join(fields)
        return path.base
    raise ValueError(f"unknown attribution mode {mode!r}")


def attribution_ids(
    var_id: np.ndarray, paths: PathTable, mode: str
) -> Tuple[List[str], np.ndarray]:
    """Per-record attribution labels of a ``var_id`` column as
    ``(names, int64 ids)``.

    Each template the column uses is labelled once (as
    :func:`path_label` labels each of its paths) and the ids are one
    gather.  Names are numbered in the order the records first use them;
    a label only unused table entries carry is left out, and ``-1``
    marks records without a variable.  One ``trace.attribution``
    telemetry span.
    """
    tele = get_telemetry()
    if not tele.enabled:
        return _attribution_ids(var_id, paths, mode)
    with tele.span(
        "trace.attribution",
        cat="trace",
        mode=mode,
        records=len(var_id),
        templates=len(paths.templates),
    ):
        return _attribution_ids(var_id, paths, mode)


def _attribution_ids(
    var_id: np.ndarray, paths: PathTable, mode: str
) -> Tuple[List[str], np.ndarray]:
    used = first_use(var_id)
    label_ids: Dict[str, int] = {}
    tids = paths.template_id[used]
    per_template = np.full(len(paths.templates), ABSENT, dtype=np.int64)
    for t, _ in groups(tids):
        label = label_of(paths.templates[t], mode)
        per_template[t] = label_ids.setdefault(label, len(label_ids))
    # var_id -1 indexes the ABSENT slot at the end of lut.
    lut = np.full(len(paths) + 1, ABSENT, dtype=np.int64)
    lut[used] = per_template[tids]
    return list(label_ids), lut[var_id]


def timed_trace(
    name: str,
    container: str,
    body: Callable[[], _T],
    describe: Callable[[_T], Tuple[int, PathTable]],
) -> _T:
    """``body()``, timed as one ``name`` telemetry span when telemetry
    is on.  The span carries the container and the records, paths and
    templates ``describe`` reads off the result; with telemetry off
    this is one registry lookup and the call."""
    tele = get_telemetry()
    if not tele.enabled:
        return body()
    with tele.span(name, cat="trace", container=container) as span:
        result = body()
        records, paths = describe(result)
        span.args.update(
            records=records, paths=len(paths), templates=len(paths.templates)
        )
    return result


def narrowed(
    values: np.ndarray,
    field: str,
    fmt: str,
    dtype: str,
    *,
    absent: Optional[int] = None,
) -> np.ndarray:
    """``values`` cast to a file format's ``dtype``, refusing lossy values.

    ``absent`` is the format's marker for a missing field, which replaces
    the in-memory ``ABSENT``; a real value equal to or above it could not
    be told apart from a missing one.  Any value outside the field's range
    raises :class:`TraceFormatError` naming the field, the value and its
    record index.  (A bare ``astype`` would wrap such values silently.)
    """
    if absent is None:
        low, high = 0, int(np.iinfo(dtype).max)
    else:
        low, high = ABSENT, absent - 1
    bad = (values < low) | (values > high)
    if bad.any():
        i = int(np.argmax(bad))
        marker = "" if absent is None else f"; {absent:#x} marks an absent {field}"
        raise TraceFormatError(
            f"cannot save {field} {int(values[i])} at record {i}: the {fmt} "
            f"format stores {field} values 0..{high}{marker}"
        )
    if absent is not None:
        values = np.where(values < 0, absent, values)
    return values.astype(dtype)
