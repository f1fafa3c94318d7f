"""Variable paths as a template table plus integer index rows.

Gleipnir names every access by a nested path such as
``glStructArray[0].myArray[0]``.  The paper's kernels index arrays of
structures, so the distinct paths of a trace differ mostly in their
indices: the three paper traces at LEN=1024 hold 6,150 path texts in 8
*templates*.  A template is a path text with each ``[n]`` written
``[]`` (``lSoA.mX[]``).  A :class:`PathTable` holds each template once
and, per entry, a template id and a row of int64 indices, so whatever
depends on a path's shape (its attribution labels, a rule's plan) is
worked out once per template and spread over the entries with a numpy
gather.

:meth:`PathTable.from_texts` splits a whole text table in one pass: one
regular-expression split of the joined table into text runs and index
digits, then one check per distinct template.  A malformed text raises
the :class:`~repro.errors.PathError` that
:meth:`VariablePath.parse <repro.ctypes_model.path.VariablePath.parse>`
raises for it.

Texts are rendered only where bytes leave memory: the writers
(:meth:`PathTable.intern`), iteration (one :class:`VariablePath` per
entry, for :meth:`~repro.trace.columns.TraceColumns.records` and the
oracles) and error messages.  A table decoded from a file keeps the
texts it was read from, so a decoded trace saves back byte for byte.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ctypes_model.path import (
    SLOT,
    Field,
    Index,
    PathElement,
    VariablePath,
    fill_slots,
    parse_template,
)
from repro.ctypes_model.types import ArrayType, CType, StructType, UnionType
from repro.errors import PathError

_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
#: One index of a path text (the grammar :meth:`VariablePath.parse` reads).
_INDEX_RE = re.compile(r"\[(\d+)\]")
#: A well-formed template: a base name, then ``[]``, ``.f`` or ``->f`` steps.
_TEMPLATE_RE = re.compile(rf"{_IDENT}(?:\[\]|\.{_IDENT}|->{_IDENT})*")
_BASE_RE = re.compile(_IDENT)
_INT64_MAX = 2**63 - 1

def first_use(ids: np.ndarray) -> np.ndarray:
    """The distinct ids ``>= 0`` of a column, in first-appearance order.

    A column whose ids first appear as 0, 1, 2, ... (the tracer's,
    :meth:`TraceColumns.from_records`'s) passes an O(n) check; any other
    column costs one sort.
    """
    used = ids[ids >= 0]
    if not len(used):
        return np.empty(0, dtype=np.int64)
    top = np.maximum.accumulate(used)
    if used[0] == 0 and not (np.diff(top) > 1).any():
        return np.arange(int(top[-1]) + 1)
    unique, first = np.unique(used, return_index=True)
    return unique[np.argsort(first)]


def groups(ids: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """``(id, positions)`` for each distinct value of ``ids``, ids in
    first-appearance order and positions ascending."""
    if not len(ids):
        return
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    bounds = np.r_[starts, len(ids)]
    runs = [
        (int(sorted_ids[a]), order[a:b]) for a, b in zip(bounds, bounds[1:])
    ]
    runs.sort(key=lambda run: int(run[1][0]))
    yield from runs


def locate(
    ctype: CType, offsets: np.ndarray
) -> List[Tuple[Tuple[PathElement, ...], np.ndarray, np.ndarray]]:
    """:meth:`CType.path_at` of many offsets in one walk of the type.

    Returns ``(skeleton, positions, index rows)`` per leaf the offsets
    land in: an array level divides by its stride, a struct or union
    level splits the offsets among its members (the first member
    holding an offset wins, padding stays at the aggregate).
    """
    out: List[Tuple[Tuple[PathElement, ...], np.ndarray, np.ndarray]] = []

    def walk(ct, off, pos, prefix, cols):
        if isinstance(ct, ArrayType):
            i = off // ct.stride
            walk(ct.element, off - i * ct.stride, pos, (*prefix, SLOT), [*cols, i])
            return
        if isinstance(ct, (StructType, UnionType)):
            left = np.ones(len(off), dtype=bool)
            for f in ct.fields:
                inside = left & (off >= f.offset) & (off < f.offset + f.ctype.size)
                if inside.any():
                    left &= ~inside
                    walk(
                        f.ctype,
                        off[inside] - f.offset,
                        pos[inside],
                        (*prefix, Field(f.name)),
                        [c[inside] for c in cols],
                    )
            if not left.any():
                return
            pos, cols = pos[left], [c[left] for c in cols]
        rows = np.stack(cols, axis=1) if cols else np.zeros((len(pos), 0), np.int64)
        out.append((prefix, pos, rows))

    walk(ctype, offsets, np.arange(len(offsets)), (), [])
    return out


def label_of(template: str, mode: str) -> str:
    """The attribution label every path of a template carries (what
    :func:`repro.trace.columns.path_label` gives each of them)."""
    if mode == "base":
        return _BASE_RE.match(template).group()
    if mode == "member":
        return template.replace("[]", "").replace("->", ".")
    raise ValueError(f"unknown attribution mode {mode!r}")


def _index_rows(flat: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """``flat`` values laid out as rows of ``counts`` values each, padded
    with zeros to ``width`` columns."""
    index = np.zeros((len(counts), width), dtype=np.int64)
    if len(flat):
        rows = np.repeat(np.arange(len(counts)), counts)
        cols = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
        index[rows, cols] = flat
    return index


def _too_large(texts: Sequence[str]) -> PathError:
    for text in texts:
        for digits in _INDEX_RE.findall(text):
            if int(digits) > _INT64_MAX:
                return PathError(
                    f"index {int(digits)} in path {text.strip()!r} does not "
                    "fit in 64 bits"
                )
    raise AssertionError("no oversized index")  # pragma: no cover


class _Indices(dict):
    """``Index`` objects by value, made on first use."""

    def __missing__(self, value: int) -> Index:
        index = self[value] = Index(value)
        return index


class PathTable:
    """Each template once, plus a template id and an index row per entry.

    ``templates`` are canonical template texts; ``template_id`` (int32)
    and ``index`` (int64, one row per entry, as wide as the widest
    template, zero-padded) describe the entries.  Entry ``e`` is the
    path ``templates[template_id[e]]`` with its ``[]`` slots set to
    ``index[e]``.  Iterating yields one :class:`VariablePath` per entry;
    tables compare equal when their entry texts are equal.
    """

    __slots__ = ("templates", "template_id", "index", "_texts", "_paths")

    def __init__(
        self,
        templates: Sequence[str],
        template_id: np.ndarray,
        index: np.ndarray,
        texts: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        self.templates: Tuple[str, ...] = tuple(templates)
        self.template_id = template_id
        self.index = index
        #: entry texts as read from a file (None: render when asked)
        self._texts: Optional[List[Optional[str]]] = (
            None if texts is None else list(texts)
        )
        self._paths: Optional[List[Optional[VariablePath]]] = None

    @classmethod
    def empty(cls) -> "PathTable":
        return cls((), np.empty(0, dtype=np.int32), np.empty((0, 0), np.int64), ())

    @classmethod
    def from_texts(cls, texts: Sequence[str]) -> "PathTable":
        """Split a text table into templates and index rows in one pass.

        Each distinct template is checked once; a malformed text raises
        the :class:`PathError` :meth:`VariablePath.parse` raises for the
        first such text.  The texts are kept for the writers.
        """
        texts = list(texts)
        if not texts:
            return cls.empty()
        # One regex pass: text runs and index digits alternate.
        parts = _INDEX_RE.split("\n".join(texts))
        digits = parts[1::2]
        shapes = "[]".join(parts[0::2]).split("\n")
        raw = {shape: i for i, shape in enumerate(dict.fromkeys(shapes))}
        raw_ids = np.fromiter(map(raw.__getitem__, shapes), np.int64, len(shapes))
        canonical: dict = {}
        remap = [canonical.setdefault(s.strip(), len(canonical)) for s in raw]
        templates = tuple(canonical)
        arity = np.array([t.count("[]") for t in templates], dtype=np.int64)
        tid = np.array(remap, dtype=np.int32)[raw_ids]
        counts = arity[tid]
        if int(counts.sum()) != len(digits) or not all(
            map(_TEMPLATE_RE.fullmatch, templates)
        ):
            for text in texts:  # raise the parse error of the first bad text
                VariablePath.parse(text)
            raise AssertionError("path table split disagrees with the parser")  # pragma: no cover
        try:
            flat = np.fromiter(map(int, digits), np.int64, len(digits))
        except OverflowError:
            raise _too_large(texts) from None
        return cls(templates, tid, _index_rows(flat, counts, int(arity.max())), texts)

    @classmethod
    def from_parts(cls, parts: Sequence[Tuple[str, np.ndarray]]) -> "PathTable":
        """A table of ``(template, index rows)`` runs, entries in run order."""
        templates: dict = {}
        tids = [
            np.full(len(index), templates.setdefault(t, len(templates)), dtype=np.int32)
            for t, index in parts
        ]
        width = max((index.shape[1] for _, index in parts), default=0)
        index = np.zeros((sum(map(len, tids)), width), dtype=np.int64)
        start = 0
        for _, rows in parts:
            index[start : start + len(rows), : rows.shape[1]] = rows
            start += len(rows)
        tid = np.concatenate(tids) if tids else np.empty(0, dtype=np.int32)
        return cls(tuple(templates), tid, index)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.template_id)

    def arity(self, t: int) -> int:
        """Index slots of template ``t``."""
        return self.templates[t].count("[]")

    def rows(self, t: int, entries: np.ndarray) -> np.ndarray:
        """The index rows of ``entries`` (all of template ``t``)."""
        return self.index[entries, : self.arity(t)]

    def _render(self, entries: np.ndarray) -> List[str]:
        out = np.empty(len(entries), dtype=object)
        for t, pos in groups(self.template_id[entries]):
            template = self.templates[t]
            k = template.count("[]")
            if not k:
                out[pos] = template
            elif k == 1:
                head, tail = template.split("[]")
                out[pos] = [f"{head}[{v}]{tail}" for v in self.index[entries[pos], 0].tolist()]
            else:
                fmt = template.replace("[]", "[%d]")
                rows = self.index[entries[pos], :k].tolist()
                out[pos] = [fmt % tuple(r) for r in rows]
        return out.tolist()

    def texts_of(self, entries: np.ndarray) -> List[str]:
        """The texts of ``entries``: as read, or rendered from the table
        (once per entry)."""
        if self._texts is None:
            self._texts = [None] * len(self)
        texts = self._texts
        wanted = entries.tolist()
        missing = [e for e in wanted if texts[e] is None]
        if missing:
            for e, text in zip(missing, self._render(np.array(missing))):
                texts[e] = text
        return [texts[e] for e in wanted]

    def texts(self) -> Tuple[str, ...]:
        """Every entry's text, in table order."""
        return tuple(self.texts_of(np.arange(len(self))))

    def intern(self, ids: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        """Re-intern an id column by text, as the record writers store it:
        each text once, numbered in the order the records first use it,
        unused entries dropped, ``-1`` kept.  Only the used entries'
        texts are rendered; a column already in that order comes back
        unchanged."""
        order = first_use(ids)
        texts = self.texts_of(order)
        if np.array_equal(order, np.arange(len(self))) and len(set(texts)) == len(texts):
            return ids, texts
        # The extra last slot maps -1 (absent) to itself.
        mapping = np.full(len(self) + 1, -1, dtype=np.int64)
        interned: dict = {}
        for old, text in zip(order.tolist(), texts):
            mapping[old] = interned.setdefault(text, len(interned))
        return mapping[ids].astype(ids.dtype), list(interned)

    def objects(self, entries: np.ndarray) -> List[Optional[VariablePath]]:
        """A list by entry id holding the :class:`VariablePath` of each
        of ``entries`` (built once per table; entries share their
        :class:`Index` objects) and None for entries not built yet."""
        if self._paths is None:
            self._paths = [None] * len(self)
        built = self._paths
        missing = np.array([e for e in entries.tolist() if built[e] is None], dtype=np.int64)
        indices = _Indices()
        for t, pos in groups(self.template_id[missing]):
            at = missing[pos].tolist()
            base, elements = parse_template(self.templates[t])
            slots = [j for j, e in enumerate(elements) if e == SLOT]
            if not slots:
                made = [VariablePath(base, elements)] * len(at)
            elif len(slots) == 1:
                head, tail = elements[: slots[0]], elements[slots[0] + 1 :]
                made = [
                    VariablePath(base, head + (indices[v],) + tail)
                    for v in self.index[at, 0].tolist()
                ]
            else:
                made = []
                for row in self.index[at, : len(slots)].tolist():
                    filled = list(elements)
                    for j, v in zip(slots, row):
                        filled[j] = indices[v]
                    made.append(VariablePath(base, tuple(filled)))
            for e, path in zip(at, made):
                built[e] = path
        return built

    def __iter__(self) -> Iterator[VariablePath]:
        return iter(self.objects(np.arange(len(self))))

    def __getitem__(self, entry: int) -> VariablePath:
        t = int(self.template_id[entry])
        base, elements = parse_template(self.templates[t])
        return VariablePath(
            base, fill_slots(elements, self.index[entry, : self.arity(t)].tolist())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathTable):
            return NotImplemented
        return self.texts() == other.texts()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<PathTable of {len(self)} paths in {len(self.templates)} templates>"

    # -- derivation ------------------------------------------------------------

    def concat(self, other: "PathTable") -> "PathTable":
        """This table's entries followed by ``other``'s (ids of ``other``
        shift by ``len(self)``); templates are merged by text."""
        if not len(other):
            return self
        merged = {t: i for i, t in enumerate(self.templates)}
        remap = np.array(
            [merged.setdefault(t, len(merged)) for t in other.templates],
            dtype=np.int32,
        )
        width = max(self.index.shape[1], other.index.shape[1])
        index = np.zeros((len(self) + len(other), width), dtype=np.int64)
        index[: len(self), : self.index.shape[1]] = self.index
        index[len(self) :, : other.index.shape[1]] = other.index
        texts = None
        if self._texts is not None or other._texts is not None:
            texts = (self._texts or [None] * len(self)) + (
                other._texts or [None] * len(other)
            )
        return PathTable(
            tuple(merged),
            np.concatenate([self.template_id, remap[other.template_id]]),
            index,
            texts,
        )
