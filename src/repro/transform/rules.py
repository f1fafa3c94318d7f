"""Rule model: the three transformation kinds and their mapping math.

A rule is a pure description: it knows which *in* variable it covers, what
*out* objects must be allocated (the engine assigns their base addresses,
step 1 of the paper's process), and how to translate one access path.
Translation returns the target location *relative to an out allocation*
plus any accesses to insert before it (pointer indirections, injected
index loads); the engine turns those into concrete trace records.

The element-name matching limitation of the paper ("structure's element
names must match because we rely on the element's name to map") is
honoured: every mapping is keyed on field names (plus array indices).

:meth:`Rule.translate` is the per-path definition (lint, the soundness
oracle and the record-at-a-time reference engine use it).  The engine
calls :meth:`Rule.translate_rows` once per path *template*
(``lSoA.mX[]``) with the integer index rows of every path of that
template; layout, outline, split and stride rules map the rows with
numpy (affine maps of the index columns, or a gather over the stride
formula's image), and the default (tile, displace and pool rules) loops
over :meth:`Rule.translate`.  numpy is imported only inside those methods, so
parsing and linting rule files stays numpy-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import RuleError
from repro.ctypes_model.path import (
    SLOT,
    Field,
    Index,
    PathElement,
    fill_slots,
    slot_values,
    template_text,
)
from repro.ctypes_model.types import (
    ArrayType,
    CType,
    PointerType,
    StructType,
    UnionType,
)
from repro.trace.record import AccessType
from repro.transform.formula import IndexFormula

if TYPE_CHECKING:
    import numpy as np

#: Leaf key: the name-and-index identity of a scalar component.
LeafKey = Tuple[Tuple[str, ...], Tuple[int, ...]]


def leaf_key(elements: Sequence[PathElement]) -> LeafKey:
    """Key a path by its field names and indices, ignoring their order.

    ``lSoA.mX[3]`` and ``lAoS[3].mX`` produce the same key
    ``(("mX",), (3,))`` — exactly the identity the paper matches on.
    """
    names: List[str] = []
    indices: List[int] = []
    for e in elements:
        if isinstance(e, Field):
            names.append(e.name)
        elif isinstance(e, Index):
            indices.append(e.value)
    return tuple(names), tuple(indices)


@dataclass(frozen=True)
class OutAllocation:
    """An out object the engine must give a fresh base address."""

    name: str
    size: int
    alignment: int
    #: scope code suggestion for synthesised records (``LS``/``LV``...)
    scope: str = "LS"


@dataclass(frozen=True)
class MappedAccess:
    """A location inside an out allocation."""

    alloc: str
    elements: Tuple[PathElement, ...]
    offset: int
    size: int


@dataclass(frozen=True)
class InsertedAccess:
    """An access to synthesise before the translated one.

    ``mapped`` targets an out allocation; ``existing_var`` instead reuses
    the last-seen address of a variable already present in the trace
    (used when injected index arithmetic re-reads the loop counter).
    """

    op: AccessType
    mapped: Optional[MappedAccess] = None
    existing_var: Optional[str] = None
    size: int = 4


@dataclass(frozen=True)
class Translation:
    """Result of translating one access path.

    Two addressing modes:

    - ``target`` set — the access lands inside a freshly allocated out
      object (layout/outline/stride rules);
    - ``address_delta`` set — the access keeps its object but shifts by a
      constant (displacement rules); ``rename`` optionally renames the
      base variable in the emitted record.
    """

    target: Optional[MappedAccess]
    inserts: Tuple[InsertedAccess, ...] = ()
    address_delta: Optional[int] = None
    rename: Optional[str] = None


@dataclass(frozen=True)
class InjectSpec:
    """One ``inject:`` clause line: an access to add per translated line."""

    op: AccessType
    name: str
    size: int = 4
    count: int = 1
    #: True when ``name`` refers to a variable already in the trace
    #: (engine reuses its address) rather than a new synthetic scalar.
    existing: bool = False


@dataclass(frozen=True)
class RowTarget:
    """Where some paths of one template land: one out template, and one
    index row and one offset inside ``alloc`` per path."""

    alloc: str
    #: the out path template; its ``[]`` slots take the rows of ``index``
    template: str
    index: "np.ndarray"
    offset: "np.ndarray"


@dataclass(frozen=True)
class RowInsert:
    """One access inserted before each path of a :class:`RowTranslation`
    (an :class:`InsertedAccess` with per-path targets)."""

    op: AccessType
    size: int = 4
    target: Optional[RowTarget] = None
    existing_var: Optional[str] = None


@dataclass(frozen=True)
class RowTranslation:
    """The translation of some paths of one template (a
    :class:`Translation` per path, held as columns).

    ``rows`` are the paths' positions among the template's index rows;
    every one of them maps into ``target`` (or shifts by
    ``address_delta``) and gets the same ``inserts``.
    """

    rows: "np.ndarray"
    target: Optional[RowTarget] = None
    inserts: Tuple[RowInsert, ...] = ()
    address_delta: Optional[int] = None
    rename: Optional[str] = None


def rows_in_bounds(index: "np.ndarray", slots: Sequence[Tuple[int, int]]) -> "np.ndarray":
    """Rows of ``index`` whose every value fits its slot's length."""
    import numpy as np

    lengths = np.array([length for _, length in slots], dtype=np.int64)
    return np.flatnonzero(((index >= 0) & (index < lengths)).all(axis=1))


def slot_offsets(index: "np.ndarray", slots: Sequence[Tuple[int, int]]) -> "np.ndarray":
    """``sum(i_k * stride_k)`` per row of ``index``."""
    import numpy as np

    strides = np.array([stride for stride, _ in slots], dtype=np.int64)
    return index @ strides if len(strides) else np.zeros(len(index), np.int64)


def _mapped_rows(accesses: Sequence[MappedAccess]) -> RowTarget:
    """A run of mapped accesses sharing an out template, as columns."""
    import numpy as np

    first = accesses[0]
    index = np.array([slot_values(a.elements) for a in accesses], dtype=np.int64)
    return RowTarget(
        first.alloc,
        template_text(first.alloc, first.elements),
        index.reshape(len(accesses), -1),
        np.array([a.offset for a in accesses], dtype=np.int64),
    )


def _shape(mapped: Optional[MappedAccess]) -> Optional[Tuple[str, str]]:
    return None if mapped is None else (mapped.alloc, template_text(mapped.alloc, mapped.elements))


def _rows_of(translations: List[Tuple[int, Translation]]) -> RowTranslation:
    """Per-path translations with one shape, as a :class:`RowTranslation`."""
    import numpy as np

    first = translations[0][1]
    return RowTranslation(
        np.array([r for r, _ in translations], dtype=np.int64),
        None
        if first.target is None
        else _mapped_rows([t.target for _, t in translations]),
        tuple(
            RowInsert(
                insert.op,
                insert.size,
                None
                if insert.mapped is None
                else _mapped_rows([t.inserts[j].mapped for _, t in translations]),
                insert.existing_var,
            )
            for j, insert in enumerate(first.inserts)
        ),
        first.address_delta,
        first.rename,
    )


class Rule:
    """Base interface; concrete rules implement the mapping."""

    #: the variable name the rule consumes
    in_name: str
    #: human-readable rule label (for reports)
    name: str
    #: True for rules that match trace variables by pattern rather than
    #: exact name (the engine then routes through ``translate_named``).
    is_pattern: bool = False
    #: 1-based file line of the rule's first section, set by the rule
    #: parser (None for programmatically built rules).
    source_line: Optional[int] = None

    def matches(self, base_name: str) -> bool:
        """Whether the rule covers a trace record's base variable."""
        return base_name == self.in_name

    def out_allocations(self) -> Tuple[OutAllocation, ...]:
        """The fresh objects this rule's output lives in (step 1 of the
        paper's process assigns each a new base address)."""
        raise NotImplementedError

    def out_names(self) -> Tuple[str, ...]:
        """Names the rule *produces* (never re-transformed; the paper's
        one-directional mapping)."""
        return tuple(a.name for a in self.out_allocations())

    def translate(self, elements: Sequence[PathElement]) -> Optional[Translation]:
        """Translate an access path (relative to the in variable).

        Returns ``None`` when the path is not covered (the engine counts
        it as ignored, per the paper's "simply ignore it" behaviour).
        """
        raise NotImplementedError

    def translate_rows(
        self, base: str, elements: Sequence[PathElement], index: "np.ndarray"
    ) -> List[RowTranslation]:
        """Translate every path of one template at once.

        ``elements`` are the template's (:data:`SLOT` for each ``[]``)
        relative to ``base``, and each row of ``index`` fills the slots
        of one path.  Rows no translation lists are not covered.  This
        default calls :meth:`translate` (``translate_named`` for pattern
        rules) per row and groups the rows whose translations share an
        out template and insert shapes.
        """
        by_shape: Dict[Any, List[Tuple[int, Translation]]] = {}
        for r, row in enumerate(index.tolist()):
            path = fill_slots(elements, row)
            if self.is_pattern:
                translation = self.translate_named(base, path)  # type: ignore[attr-defined]
            else:
                translation = self.translate(path)
            if translation is None:
                continue
            shape = (
                translation.address_delta,
                translation.rename,
                _shape(translation.target),
                tuple(
                    (i.op, i.size, i.existing_var, _shape(i.mapped))
                    for i in translation.inserts
                ),
            )
            by_shape.setdefault(shape, []).append((r, translation))
        return [_rows_of(group) for group in by_shape.values()]


#: LayoutRule enumerates every scalar element of both structures to build
#: and validate the one-to-one mapping; this caps the table size (1M
#: elements ~ 300 MB of dict) with a clear error instead of an OOM.
MAX_LAYOUT_ELEMENTS = 1_000_000


class LayoutRule(Rule):
    """T1: generic structure re-layout (SoA <-> AoS, field reorder...).

    Built from the full in/out type definitions.  Every scalar leaf of the
    in type must correspond to exactly one leaf of the out type with the
    same :func:`leaf_key` and the same size (one-to-one mapping, as the
    paper requires).  Structures above :data:`MAX_LAYOUT_ELEMENTS` scalar
    elements are rejected — the mapping table is fully enumerated for
    validation, exactly as the paper's one-to-one rule check implies.
    """

    def __init__(
        self,
        in_name: str,
        in_type: CType,
        out_name: str,
        out_type: CType,
        *,
        scope: str = "LS",
    ) -> None:
        approx = sum(1 for _ in zip(range(MAX_LAYOUT_ELEMENTS + 1), in_type.iter_leaves()))
        if approx > MAX_LAYOUT_ELEMENTS:
            raise RuleError(
                f"layout rule for {in_name!r} exceeds {MAX_LAYOUT_ELEMENTS} "
                "elements; split the structure or use a stride rule"
            )
        self.in_name = in_name
        self.in_type = in_type
        self._out_name = out_name
        self.out_type = out_type
        self.scope = scope
        self.name = f"layout:{in_name}->{out_name}"
        out_leaves: Dict[LeafKey, Tuple[Tuple[PathElement, ...], int, CType]] = {}
        for elements, offset, leaf in out_type.iter_leaves():
            key = leaf_key(elements)
            if key in out_leaves:
                raise RuleError(
                    f"{self.name}: out structure has duplicate element {key}",
                    code="TDST005",
                )
            out_leaves[key] = (elements, offset, leaf)
        self._map: Dict[LeafKey, Tuple[Tuple[PathElement, ...], int, int]] = {}
        for elements, offset, leaf in in_type.iter_leaves():
            key = leaf_key(elements)
            target = out_leaves.pop(key, None)
            if target is None:
                raise RuleError(
                    f"{self.name}: in element {key} has no out counterpart "
                    "(element names and indices must match)",
                    code="TDST005",
                )
            t_elements, t_offset, t_leaf = target
            if t_leaf.size != leaf.size:
                raise RuleError(
                    f"{self.name}: element {key} changes size "
                    f"{leaf.size} -> {t_leaf.size}",
                    code="TDST005",
                )
            self._map[key] = (t_elements, t_offset, t_leaf.size)
        if out_leaves:
            extra = next(iter(out_leaves))
            raise RuleError(
                f"{self.name}: out structure has {len(out_leaves)} unmatched "
                f"element(s), e.g. {extra}",
                code="TDST005",
            )

    def out_allocations(self) -> Tuple[OutAllocation, ...]:
        """A single allocation: the re-laid-out structure."""
        return (
            OutAllocation(
                self._out_name,
                self.out_type.size,
                self.out_type.alignment,
                scope=self.scope,
            ),
        )

    def translate(self, elements: Sequence[PathElement]) -> Optional[Translation]:
        entry = self._map.get(leaf_key(elements))
        if entry is None:
            return None
        t_elements, t_offset, size = entry
        return Translation(
            MappedAccess(self._out_name, t_elements, t_offset, size)
        )

    def translate_rows(
        self, base: str, elements: Sequence[PathElement], index: "np.ndarray"
    ) -> List[RowTranslation]:
        """An affine map of the index columns.

        A leaf's field names fix its path through a type, and the
        one-to-one check makes the in and out leaves with those names
        the same box of indices, in the same order.  So every path of
        the template keeps its index row and lands at the out leaf's
        offset plus the index row times the out strides.
        """
        names = tuple(e.name for e in elements if isinstance(e, Field))
        entry = self._map.get((names, (0,) * index.shape[1]))
        if entry is None:
            return []
        t_elements = tuple(SLOT if isinstance(e, Index) else e for e in entry[0])
        offset, slots, _ = self.out_type.resolve_slots(t_elements)
        rows = rows_in_bounds(index, slots)
        kept = index[rows]
        return [
            RowTranslation(
                rows,
                RowTarget(
                    self._out_name,
                    template_text(self._out_name, t_elements),
                    kept,
                    offset + slot_offsets(kept, slots),
                ),
            )
        ]


def _split_index(
    elements: Sequence[PathElement], length: int
) -> Tuple[Optional[int], Tuple[PathElement, ...], Tuple[PathElement, ...]]:
    """``(index, prefix, rest)`` of a path into an array of ``length``
    structs (a lone struct when ``length`` is 1): the leading ``[i]``,
    as an int and as the prefix to keep, and the elements after it.
    ``index`` is ``None`` when an array path lacks its leading index."""
    elements = tuple(elements)
    if length <= 1:
        return 0, (), elements
    if not elements or not isinstance(elements[0], Index):
        return None, (), ()
    return elements[0].value, elements[:1], elements[1:]


class _PointerLoads:
    """The inserted pointer load of a split rule's cold accesses.

    One tuple per element index, shared by every cold access of that
    element, so the engine lays out each element's load once.
    """

    _out_name: str
    pointer_member: str
    out_elem: StructType
    _ptr_offset: int
    _pointer_loads: Dict[int, Tuple[InsertedAccess, ...]]

    def _pointer_load(
        self, index: int, prefix: Tuple[PathElement, ...]
    ) -> Tuple[InsertedAccess, ...]:
        loads = self._pointer_loads
        load = loads.get(index)
        if load is None:
            pointer_access = MappedAccess(
                self._out_name,
                (*prefix, Field(self.pointer_member)),
                index * self.out_elem.size + self._ptr_offset,
                8,
            )
            load = loads[index] = (
                InsertedAccess(AccessType.LOAD, mapped=pointer_access, size=8),
            )
        return load

    def _rows_into(
        self,
        elem: StructType,
        alloc: str,
        elements: Sequence[PathElement],
        index: "np.ndarray",
        *,
        cold: bool,
    ) -> List[RowTranslation]:
        """Rows of a template ``[i].<elements>`` (``.<elements>`` for a
        lone struct) mapped into ``alloc[i].<elements>``; a cold access
        also gets the pointer load of its element."""
        import numpy as np

        prefix = (SLOT,) if self.length > 1 else ()
        try:
            offset, slots, leaf = elem.resolve_slots(elements)
        except Exception:
            return []
        if not leaf.is_scalar:
            return []
        rows = rows_in_bounds(index[:, len(prefix) :], slots)
        kept = index[rows]
        lead = kept[:, 0] if prefix else np.zeros(len(kept), dtype=np.int64)
        target = RowTarget(
            alloc,
            template_text(alloc, (*prefix, *elements)),
            kept,
            lead * elem.size + offset + slot_offsets(kept[:, len(prefix) :], slots),
        )
        inserts: Tuple[RowInsert, ...] = ()
        if cold:
            pointer = RowTarget(
                self._out_name,
                template_text(self._out_name, (*prefix, Field(self.pointer_member))),
                kept[:, : len(prefix)],
                lead * self.out_elem.size + self._ptr_offset,
            )
            inserts = (RowInsert(AccessType.LOAD, 8, pointer),)
        return [RowTranslation(rows, target, inserts)]

    def _split_template(
        self, elements: Sequence[PathElement]
    ) -> Optional[Tuple[str, Tuple[PathElement, ...]]]:
        """The head member name and the elements after the leading
        ``[]`` of an array rule's template (``None``: not covered)."""
        rest = tuple(elements)
        if self.length > 1:
            if not rest or rest[0] != SLOT:
                return None
            rest = rest[1:]
        if not rest or not isinstance(rest[0], Field):
            return None
        return rest[0].name, rest


class OutlineRule(_PointerLoads, Rule):
    """T2: outline a nested member into a storage pool behind a pointer.

    Accesses to the hot members are re-laid into the new outer structure;
    accesses to the outlined (cold) member become an inserted pointer load
    (``L outer[i].<ptr>``) followed by the access into
    ``storage[i].<rest>`` — the indirection the paper highlights in
    Figure 8.
    """

    def __init__(
        self,
        in_name: str,
        in_type: CType,
        out_name: str,
        out_type: CType,
        storage_name: str,
        storage_type: CType,
        pointer_member: str,
        *,
        scope: str = "LS",
    ) -> None:
        self.in_name = in_name
        self._out_name = out_name
        self.storage_name = storage_name
        self.pointer_member = pointer_member
        self.scope = scope
        self.name = f"outline:{in_name}->{out_name}+{storage_name}"

        self.in_elem, self.length = self._array_of_struct(in_name, in_type)
        self.out_elem, out_len = self._array_of_struct(out_name, out_type)
        self.storage_elem, storage_len = self._array_of_struct(
            storage_name, storage_type
        )
        self.in_type = in_type
        self.out_type = out_type
        self.storage_type = storage_type
        if out_len != self.length or storage_len != self.length:
            raise RuleError(
                f"{self.name}: array lengths differ "
                f"(in {self.length}, out {out_len}, storage {storage_len})"
            )
        # The outlined member must exist in the in struct and be an
        # aggregate; the out struct replaces it with a pointer.
        cold = self.in_elem.member(pointer_member)
        if not isinstance(cold.ctype, (StructType, UnionType)):
            raise RuleError(
                f"{self.name}: outlined member {pointer_member!r} is not a struct"
            )
        self.cold_type = cold.ctype
        ptr = self.out_elem.member(pointer_member)
        if not isinstance(ptr.ctype, PointerType):
            raise RuleError(
                f"{self.name}: out member {pointer_member!r} must be a pointer"
            )
        self._ptr_offset = ptr.offset
        self._pointer_loads = {}
        # Hot members map by name between in and out structs.
        self._hot: Dict[str, Tuple[int, int]] = {}
        for f in self.in_elem.fields:
            if f.name == pointer_member:
                continue
            try:
                out_field = self.out_elem.member(f.name)
            except Exception as exc:
                raise RuleError(
                    f"{self.name}: hot member {f.name!r} missing in out struct"
                ) from exc
            if out_field.ctype.size != f.ctype.size:
                raise RuleError(
                    f"{self.name}: member {f.name!r} changes size"
                )
            self._hot[f.name] = (out_field.offset, out_field.ctype.size)
        # Cold members map by name into the storage struct.
        for elements, _, leaf in self.cold_type.iter_leaves():
            try:
                s_off, s_leaf = self.storage_elem.resolve(elements)
            except Exception as exc:
                raise RuleError(
                    f"{self.name}: cold element {elements} missing in storage "
                    "struct"
                ) from exc
            if s_leaf.size != leaf.size:
                raise RuleError(
                    f"{self.name}: cold element {elements} changes size"
                )

    @staticmethod
    def _array_of_struct(name: str, ctype: CType) -> Tuple[StructType, int]:
        if isinstance(ctype, ArrayType) and isinstance(ctype.element, StructType):
            return ctype.element, ctype.length
        if isinstance(ctype, StructType):
            return ctype, 1
        raise RuleError(
            f"outline rule needs struct or array-of-struct, got "
            f"{ctype.c_name()} for {name!r}"
        )

    def out_allocations(self) -> Tuple[OutAllocation, ...]:
        """Two allocations: the slimmed outer structure and the pool."""
        return (
            OutAllocation(
                self._out_name,
                self.out_type.size,
                self.out_type.alignment,
                scope=self.scope,
            ),
            OutAllocation(
                self.storage_name,
                self.storage_type.size,
                self.storage_type.alignment,
                scope=self.scope,
            ),
        )

    def translate(self, elements: Sequence[PathElement]) -> Optional[Translation]:
        # Normalise the optional leading index ([i] for array rules).
        index, prefix, rest = _split_index(elements, self.length)
        if index is None or not rest or not isinstance(rest[0], Field):
            return None
        head = rest[0].name
        if head == self.pointer_member:
            # Cold access: pointer load + storage access.
            cold_elements = rest[1:]
            try:
                s_offset, s_leaf = self.storage_elem.resolve(cold_elements)
            except Exception:
                return None
            if not s_leaf.is_scalar:
                return None
            target = MappedAccess(
                self.storage_name,
                prefix + cold_elements,
                index * self.storage_elem.size + s_offset,
                s_leaf.size,
            )
            return Translation(target, inserts=self._pointer_load(index, prefix))
        # Hot access: relocate into the out struct.
        entry = self._hot.get(head)
        if entry is None:
            return None
        try:
            rel_offset, leaf = self.out_elem.resolve(rest)
        except Exception:
            return None
        if not leaf.is_scalar:
            return None
        return Translation(
            MappedAccess(
                self._out_name,
                prefix + rest,
                index * self.out_elem.size + rel_offset,
                leaf.size,
            )
        )

    def translate_rows(
        self, base: str, elements: Sequence[PathElement], index: "np.ndarray"
    ) -> List[RowTranslation]:
        """Affine maps of the element index and the member's indices."""
        split = self._split_template(elements)
        if split is None:
            return []
        head, rest = split
        if head == self.pointer_member:
            return self._rows_into(
                self.storage_elem, self.storage_name, rest[1:], index, cold=True
            )
        if head not in self._hot:
            return []
        return self._rows_into(self.out_elem, self._out_name, rest, index, cold=False)


class HotColdSplitRule(_PointerLoads, Rule):
    """T2 variant: outline *direct* cold fields behind a pointer.

    The paper's Listing 8 assumes the cold fields already sit in a nested
    struct.  Real structures usually have them inline; this rule splits a
    flat struct: fields present in the out struct stay hot, fields present
    in the storage struct move cold, and accesses to cold fields gain the
    inserted pointer load.  (This is the shape the transformation advisor
    generates.)
    """

    def __init__(
        self,
        in_name: str,
        in_type: CType,
        out_name: str,
        out_type: CType,
        storage_name: str,
        storage_type: CType,
        pointer_member: str,
        *,
        scope: str = "LS",
    ) -> None:
        self.in_name = in_name
        self._out_name = out_name
        self.storage_name = storage_name
        self.pointer_member = pointer_member
        self.scope = scope
        self.name = f"split:{in_name}->{out_name}+{storage_name}"
        self.in_elem, self.length = OutlineRule._array_of_struct(in_name, in_type)
        self.out_elem, out_len = OutlineRule._array_of_struct(out_name, out_type)
        self.storage_elem, storage_len = OutlineRule._array_of_struct(
            storage_name, storage_type
        )
        self.in_type = in_type
        self.out_type = out_type
        self.storage_type = storage_type
        if out_len != self.length or storage_len != self.length:
            raise RuleError(f"{self.name}: array lengths differ")
        ptr = self.out_elem.member(pointer_member)
        if not isinstance(ptr.ctype, PointerType):
            raise RuleError(
                f"{self.name}: out member {pointer_member!r} must be a pointer"
            )
        self._ptr_offset = ptr.offset
        self._pointer_loads = {}
        self._hot = {
            f.name for f in self.out_elem.fields if f.name != pointer_member
        }
        self._cold = {f.name for f in self.storage_elem.fields}
        in_fields = set(self.in_elem.member_names())
        if self._hot & self._cold:
            raise RuleError(
                f"{self.name}: fields {sorted(self._hot & self._cold)} are "
                "both hot and cold"
            )
        if in_fields != self._hot | self._cold:
            raise RuleError(
                f"{self.name}: hot+cold fields {sorted(self._hot | self._cold)} "
                f"must exactly cover the in struct {sorted(in_fields)}"
            )
        for name in in_fields:
            side = self.out_elem if name in self._hot else self.storage_elem
            if side.member(name).ctype.size != self.in_elem.member(name).ctype.size:
                raise RuleError(f"{self.name}: member {name!r} changes size")

    def out_allocations(self) -> Tuple[OutAllocation, ...]:
        """Two allocations: the hot structure and the cold pool."""
        return (
            OutAllocation(
                self._out_name,
                self.out_type.size,
                self.out_type.alignment,
                scope=self.scope,
            ),
            OutAllocation(
                self.storage_name,
                self.storage_type.size,
                self.storage_type.alignment,
                scope=self.scope,
            ),
        )

    def translate(self, elements: Sequence[PathElement]) -> Optional[Translation]:
        index, prefix, rest = _split_index(elements, self.length)
        if index is None or not rest or not isinstance(rest[0], Field):
            return None
        head = rest[0].name
        if head in self._cold:
            try:
                s_offset, leaf = self.storage_elem.resolve(rest)
            except Exception:
                return None
            if not leaf.is_scalar:
                return None
            return Translation(
                MappedAccess(
                    self.storage_name,
                    prefix + rest,
                    index * self.storage_elem.size + s_offset,
                    leaf.size,
                ),
                inserts=self._pointer_load(index, prefix),
            )
        if head in self._hot:
            try:
                rel_offset, leaf = self.out_elem.resolve(rest)
            except Exception:
                return None
            if not leaf.is_scalar:
                return None
            return Translation(
                MappedAccess(
                    self._out_name,
                    prefix + rest,
                    index * self.out_elem.size + rel_offset,
                    leaf.size,
                )
            )
        return None

    def translate_rows(
        self, base: str, elements: Sequence[PathElement], index: "np.ndarray"
    ) -> List[RowTranslation]:
        """Affine maps of the element index and the member's indices."""
        split = self._split_template(elements)
        if split is None:
            return []
        head, rest = split
        if head in self._cold:
            return self._rows_into(
                self.storage_elem, self.storage_name, rest, index, cold=True
            )
        if head in self._hot:
            return self._rows_into(self.out_elem, self._out_name, rest, index, cold=False)
        return []


class StrideRule(Rule):
    """T3: remap a 1-D array through an index formula (set pinning).

    ``in`` is the original array; ``out`` is the (larger) strided array
    whose index is ``formula(original_index)``.  ``inject`` lists accesses
    to synthesise before every remapped line — the index-arithmetic loads
    the paper pre-selected by hand.
    """

    def __init__(
        self,
        in_name: str,
        in_type: CType,
        out_name: str,
        out_length: int,
        formula: IndexFormula,
        *,
        inject: Sequence[InjectSpec] = (),
        scope: str = "LS",
    ) -> None:
        if not isinstance(in_type, ArrayType) or not in_type.element.is_scalar:
            raise RuleError(
                f"stride rule needs a 1-D scalar array, got {in_type.c_name()}",
                code="TDST006",
            )
        self.in_name = in_name
        self.in_type = in_type
        self._out_name = out_name
        self.out_length = out_length
        self.formula = formula
        self.inject = tuple(inject)
        self.scope = scope
        self.elem = in_type.element
        self.name = f"stride:{in_name}->{out_name}"
        worst = formula.max_index(in_type.length)
        if worst >= out_length:
            raise RuleError(
                f"{self.name}: formula maps index up to {worst} but the out "
                f"array has only {out_length} elements",
                code="TDST008",
            )
        if not formula.is_injective(in_type.length):
            raise RuleError(
                f"{self.name}: index formula is not injective over "
                f"0..{in_type.length - 1} — distinct elements would alias "
                "the same out location, so the trace would not be a sound "
                "stand-in for the transformed program",
                code="TDST007",
            )
        # The same accesses precede every remapped line.
        inserts: List[InsertedAccess] = []
        for spec in self.inject:
            for _ in range(spec.count):
                if spec.existing:
                    inserts.append(
                        InsertedAccess(spec.op, existing_var=spec.name, size=spec.size)
                    )
                else:
                    inserts.append(
                        InsertedAccess(
                            spec.op,
                            mapped=MappedAccess(spec.name, (), 0, spec.size),
                            size=spec.size,
                        )
                    )
        self._inserts: Tuple[InsertedAccess, ...] = tuple(inserts)

    def out_allocations(self) -> Tuple[OutAllocation, ...]:
        """The strided array plus any synthetic inject scalars."""
        allocations = [
            OutAllocation(
                self._out_name,
                self.elem.size * self.out_length,
                self.elem.alignment,
                scope=self.scope,
            )
        ]
        for spec in self.inject:
            if not spec.existing:
                allocations.append(
                    OutAllocation(spec.name, spec.size, spec.size, scope="LV")
                )
        return tuple(allocations)

    def translate(self, elements: Sequence[PathElement]) -> Optional[Translation]:
        if len(elements) != 1 or not isinstance(elements[0], Index):
            return None
        index = elements[0].value
        if not 0 <= index < self.in_type.length:
            return None
        new_index = self.formula(index)
        return Translation(
            MappedAccess(
                self._out_name,
                (Index(new_index),),
                new_index * self.elem.size,
                self.elem.size,
            ),
            inserts=self._inserts,
        )

    def translate_rows(
        self, base: str, elements: Sequence[PathElement], index: "np.ndarray"
    ) -> List[RowTranslation]:
        """A gather of the in indices over the formula's image."""
        import numpy as np

        if tuple(elements) != (SLOT,):
            return []
        rows = rows_in_bounds(index, [(0, self.in_type.length)])
        image = np.asarray(self.formula.image(self.in_type.length), dtype=np.int64)
        new = image[index[rows, 0]]
        none = np.zeros((len(rows), 0), dtype=np.int64)
        inserts = tuple(
            RowInsert(
                insert.op,
                insert.size,
                None
                if insert.mapped is None
                else RowTarget(
                    insert.mapped.alloc,
                    insert.mapped.alloc,
                    none,
                    np.full(len(rows), insert.mapped.offset, dtype=np.int64),
                ),
                insert.existing_var,
            )
            for insert in self._inserts
        )
        return [
            RowTranslation(
                rows,
                RowTarget(
                    self._out_name,
                    f"{self._out_name}[]",
                    new[:, None],
                    new * self.elem.size,
                ),
                inserts,
            )
        ]


@dataclass
class RuleSet:
    """An ordered collection of rules, indexed by in-variable name."""

    rules: List[Rule] = field(default_factory=list)

    def add(self, rule: Rule) -> "RuleSet":
        """Add a rule, rejecting duplicates and chained (out->in) rules."""
        if rule.in_name in self.by_in_name():
            raise RuleError(
                f"duplicate rule for variable {rule.in_name!r}", code="TDST009"
            )
        produced = {n for r in self.rules for n in r.out_names()}
        new_out = set(rule.out_names())
        if rule.in_name in produced or rule.in_name in new_out:
            raise RuleError(
                f"rule input {rule.in_name!r} is produced by a rule; "
                "mappings are not bi-directional (paper Section IV)",
                code="TDST009",
            )
        clashes = new_out & (produced | set(self.by_in_name()))
        if clashes:
            raise RuleError(
                f"out object(s) {sorted(clashes)} collide with names other "
                "rules already consume or produce",
                code="TDST009",
            )
        self.rules.append(rule)
        return self

    def by_in_name(self) -> Dict[str, Rule]:
        """Map of in-variable name -> rule."""
        return {r.in_name: r for r in self.rules}

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)
