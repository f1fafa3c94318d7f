"""The C type hierarchy and SysV x86-64 ABI layout computation.

Types are immutable value objects.  A type knows its ``size`` (``sizeof``),
its ``alignment`` (``_Alignof``) and how to navigate *into* itself:

- ``resolve(path_elements)`` walks a :class:`~repro.ctypes_model.path`
  element list and returns ``(offset, leaf_type)``;
- ``path_at(offset)`` does the inverse: given a byte offset it returns the
  deepest path that contains the offset, which is how the symbol table turns
  a raw address back into ``glStructArray[1].myArray[1]`` strings;
- ``iter_leaves()`` enumerates every scalar (primitive or pointer) component
  with its offset, which drives address-map construction in the
  transformation engine.

Layout rules implemented (System V AMD64 ABI §3.1):

- primitives have natural alignment equal to their size (with ``long double``
  at 16);
- a struct member is placed at the next multiple of its alignment;
- a struct's alignment is the maximum member alignment; its size is padded
  up to a multiple of that alignment;
- a union's size is the maximum member size padded to the maximum alignment;
- array alignment equals element alignment; the stride is exactly
  ``sizeof(element)`` (the element size already includes padding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

from repro.errors import LayoutError, PathError
from repro.ctypes_model.path import SLOT, Field, Index, PathElement

#: Size (and alignment) of every data pointer on the modelled machine.
POINTER_SIZE = 8


def _align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise LayoutError(f"alignment must be positive, got {alignment}")
    return (value + alignment - 1) // alignment * alignment


class CType:
    """Abstract base for all C types.

    Subclasses must provide :attr:`size`, :attr:`alignment` and a C-ish
    spelling via :meth:`c_name`.
    """

    #: sizeof(T) in bytes.
    size: int
    #: _Alignof(T) in bytes.
    alignment: int

    def c_name(self) -> str:
        """Return the C spelling of this type (``int``, ``struct foo``...)."""
        raise NotImplementedError

    # -- navigation ------------------------------------------------------

    def resolve(self, elements: Sequence[PathElement]) -> Tuple[int, "CType"]:
        """Walk ``elements`` into this type.

        Returns ``(byte_offset, leaf_type)``.  Raises :class:`PathError` if
        an element does not apply (indexing a scalar, unknown field...).
        """
        offset = 0
        current: CType = self
        for elem in elements:
            step_offset, current = current._step(elem)
            offset += step_offset
        return offset, current

    def resolve_slots(
        self, elements: Sequence[PathElement]
    ) -> Tuple[int, Tuple[Tuple[int, int], ...], "CType"]:
        """:meth:`resolve` of a path template (:data:`SLOT` for each
        ``[]``): ``(offset, slots, leaf_type)`` with one ``(stride,
        length)`` per slot.  Filling the slots with ``i_k`` gives the
        path at ``offset + sum(i_k * stride_k)``, which resolves when
        every ``0 <= i_k < length_k``.  Raises :class:`PathError` when
        no filling resolves.
        """
        offset = 0
        slots: list[Tuple[int, int]] = []
        current: CType = self
        for elem in elements:
            if elem == SLOT:
                if not isinstance(current, ArrayType):
                    raise PathError(f"cannot index {current.c_name()}")
                slots.append((current.stride, current.length))
                current = current.element
                continue
            step_offset, current = current._step(elem)
            offset += step_offset
        return offset, tuple(slots), current

    def _step(self, elem: PathElement) -> Tuple[int, "CType"]:
        """Apply a single path element; overridden by aggregates."""
        raise PathError(f"cannot apply {elem!r} to {self.c_name()}")

    def path_at(self, offset: int) -> Tuple[PathElement, ...]:
        """Return the deepest path whose storage contains ``offset``.

        For scalars the path is empty.  ``offset`` that falls into struct
        padding resolves to the empty path at that aggregate level.
        """
        if not 0 <= offset < max(self.size, 1):
            raise PathError(
                f"offset {offset} outside {self.c_name()} of size {self.size}"
            )
        return ()

    def iter_leaves(self) -> Iterator[Tuple[Tuple[PathElement, ...], int, "CType"]]:
        """Yield ``(path, offset, scalar_type)`` for every scalar component."""
        yield (), 0, self

    # -- classification --------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        """True for primitives and pointers (directly load/storable)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.c_name()} size={self.size}>"


@dataclass(frozen=True)
class PrimitiveType(CType):
    """A fundamental C type (``int``, ``double``, ``char``...)."""

    name: str
    size: int
    alignment: int

    def c_name(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(CType):
    """A data pointer.  All pointers are 8 bytes on the modelled machine.

    ``pointee_name`` is kept as a *name* rather than a type object so that
    rule files can reference structures that are declared later (and so that
    self-referential types such as linked-list nodes are representable).
    """

    pointee_name: str
    size: int = POINTER_SIZE
    alignment: int = POINTER_SIZE

    def c_name(self) -> str:
        return f"{self.pointee_name} *"


@dataclass(frozen=True)
class ArrayType(CType):
    """A fixed-length C array ``T[length]``."""

    element: CType
    length: int
    size: int = field(init=False)
    alignment: int = field(init=False)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise LayoutError(f"array length must be positive, got {self.length}")
        object.__setattr__(self, "size", self.element.size * self.length)
        object.__setattr__(self, "alignment", self.element.alignment)

    def c_name(self) -> str:
        return f"{self.element.c_name()}[{self.length}]"

    @property
    def stride(self) -> int:
        """Distance in bytes between consecutive elements."""
        return self.element.size

    @property
    def is_scalar(self) -> bool:
        return False

    def _step(self, elem: PathElement) -> Tuple[int, CType]:
        if not isinstance(elem, Index):
            raise PathError(f"expected an index into {self.c_name()}, got {elem!r}")
        if not 0 <= elem.value < self.length:
            raise PathError(
                f"index {elem.value} out of bounds for {self.c_name()}"
            )
        return elem.value * self.stride, self.element

    def path_at(self, offset: int) -> Tuple[PathElement, ...]:
        if not 0 <= offset < self.size:
            raise PathError(
                f"offset {offset} outside {self.c_name()} of size {self.size}"
            )
        index = offset // self.stride
        inner = self.element.path_at(offset - index * self.stride)
        return (Index(index), *inner)

    def iter_leaves(self) -> Iterator[Tuple[Tuple[PathElement, ...], int, CType]]:
        for i in range(self.length):
            base = i * self.stride
            for sub_path, sub_off, leaf in self.element.iter_leaves():
                yield (Index(i), *sub_path), base + sub_off, leaf


@dataclass(frozen=True)
class StructField:
    """A named member of a struct or union with its computed offset."""

    name: str
    ctype: CType
    offset: int

    @property
    def end(self) -> int:
        """One past the last byte occupied by this field."""
        return self.offset + self.ctype.size


class StructType(CType):
    """A C struct laid out with SysV ABI rules.

    Parameters
    ----------
    tag:
        The struct tag (``struct <tag>``); may be ``""`` for anonymous
        structs used inline inside other declarations.
    members:
        Ordered ``(name, ctype)`` pairs.
    packed:
        When true, emulates ``__attribute__((packed))``: every member is
        placed immediately after the previous one and the struct alignment
        is 1.  The paper's examples never pack, but the transformation
        engine uses packed layouts to model "ideal" transformed structures
        in ablations.
    """

    def __init__(
        self,
        tag: str,
        members: Sequence[Tuple[str, CType]],
        *,
        packed: bool = False,
    ) -> None:
        if not members:
            raise LayoutError(f"struct {tag or '<anon>'} must have members")
        seen: set[str] = set()
        fields: list[StructField] = []
        offset = 0
        max_align = 1
        for name, ctype in members:
            if name in seen:
                raise LayoutError(f"duplicate member {name!r} in struct {tag}")
            seen.add(name)
            align = 1 if packed else ctype.alignment
            offset = _align_up(offset, align)
            fields.append(StructField(name, ctype, offset))
            offset += ctype.size
            max_align = max(max_align, align)
        self.tag = tag
        self.packed = packed
        self.fields: Tuple[StructField, ...] = tuple(fields)
        self.alignment = max_align
        self.size = _align_up(offset, max_align)
        self._by_name = {f.name: f for f in self.fields}

    def c_name(self) -> str:
        return f"struct {self.tag}" if self.tag else "struct <anon>"

    @property
    def is_scalar(self) -> bool:
        return False

    def member(self, name: str) -> StructField:
        """Look up a member by name, raising :class:`PathError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise PathError(f"{self.c_name()} has no member {name!r}") from None

    def member_names(self) -> Tuple[str, ...]:
        """The member names in declaration order."""
        return tuple(f.name for f in self.fields)

    def _step(self, elem: PathElement) -> Tuple[int, CType]:
        if not isinstance(elem, Field):
            raise PathError(f"expected a field of {self.c_name()}, got {elem!r}")
        f = self.member(elem.name)
        return f.offset, f.ctype

    def path_at(self, offset: int) -> Tuple[PathElement, ...]:
        if not 0 <= offset < self.size:
            raise PathError(
                f"offset {offset} outside {self.c_name()} of size {self.size}"
            )
        for f in self.fields:
            if f.offset <= offset < f.end:
                inner = f.ctype.path_at(offset - f.offset)
                return (Field(f.name), *inner)
        # Offset lands in padding: attribute it to the struct itself.
        return ()

    def iter_leaves(self) -> Iterator[Tuple[Tuple[PathElement, ...], int, CType]]:
        for f in self.fields:
            for sub_path, sub_off, leaf in f.ctype.iter_leaves():
                yield (Field(f.name), *sub_path), f.offset + sub_off, leaf

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructType)
            and self.tag == other.tag
            and self.packed == other.packed
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.tag, self.packed, self.fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = "; ".join(f"{f.ctype.c_name()} {f.name}@{f.offset}" for f in self.fields)
        return f"<struct {self.tag} {{ {inner} }} size={self.size}>"


class UnionType(CType):
    """A C union: all members at offset zero, size = max member size padded."""

    def __init__(self, tag: str, members: Sequence[Tuple[str, CType]]) -> None:
        if not members:
            raise LayoutError(f"union {tag or '<anon>'} must have members")
        seen: set[str] = set()
        fields: list[StructField] = []
        max_align = 1
        max_size = 0
        for name, ctype in members:
            if name in seen:
                raise LayoutError(f"duplicate member {name!r} in union {tag}")
            seen.add(name)
            fields.append(StructField(name, ctype, 0))
            max_align = max(max_align, ctype.alignment)
            max_size = max(max_size, ctype.size)
        self.tag = tag
        self.fields: Tuple[StructField, ...] = tuple(fields)
        self.alignment = max_align
        self.size = _align_up(max_size, max_align)
        self._by_name = {f.name: f for f in self.fields}

    def c_name(self) -> str:
        return f"union {self.tag}" if self.tag else "union <anon>"

    @property
    def is_scalar(self) -> bool:
        return False

    def member(self, name: str) -> StructField:
        """Look up a member by name, raising :class:`PathError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise PathError(f"{self.c_name()} has no member {name!r}") from None

    def _step(self, elem: PathElement) -> Tuple[int, CType]:
        if not isinstance(elem, Field):
            raise PathError(f"expected a field of {self.c_name()}, got {elem!r}")
        return 0, self.member(elem.name).ctype

    def path_at(self, offset: int) -> Tuple[PathElement, ...]:
        if not 0 <= offset < self.size:
            raise PathError(
                f"offset {offset} outside {self.c_name()} of size {self.size}"
            )
        # A union offset is ambiguous; attribute to the first member that
        # covers it, matching how debuggers display unions by default.
        for f in self.fields:
            if offset < f.ctype.size:
                inner = f.ctype.path_at(offset)
                return (Field(f.name), *inner)
        return ()

    def iter_leaves(self) -> Iterator[Tuple[Tuple[PathElement, ...], int, CType]]:
        for f in self.fields:
            for sub_path, sub_off, leaf in f.ctype.iter_leaves():
                yield (Field(f.name), *sub_path), sub_off, leaf

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnionType)
            and self.tag == other.tag
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.tag, self.fields))


# -- primitive registry ---------------------------------------------------

CHAR = PrimitiveType("char", 1, 1)
UCHAR = PrimitiveType("unsigned char", 1, 1)
SHORT = PrimitiveType("short", 2, 2)
USHORT = PrimitiveType("unsigned short", 2, 2)
INT = PrimitiveType("int", 4, 4)
UINT = PrimitiveType("unsigned int", 4, 4)
LONG = PrimitiveType("long", 8, 8)
ULONG = PrimitiveType("unsigned long", 8, 8)
FLOAT = PrimitiveType("float", 4, 4)
DOUBLE = PrimitiveType("double", 8, 8)
LONG_DOUBLE = PrimitiveType("long double", 16, 16)
BOOL = PrimitiveType("_Bool", 1, 1)

_PRIMITIVES: dict[str, PrimitiveType] = {
    t.name: t
    for t in (
        CHAR,
        UCHAR,
        SHORT,
        USHORT,
        INT,
        UINT,
        LONG,
        ULONG,
        FLOAT,
        DOUBLE,
        LONG_DOUBLE,
        BOOL,
    )
}
# Common aliases accepted by the declaration parser.
_PRIMITIVES["signed char"] = CHAR
_PRIMITIVES["signed int"] = INT
_PRIMITIVES["unsigned"] = UINT
_PRIMITIVES["long int"] = LONG
_PRIMITIVES["long long"] = LONG
_PRIMITIVES["unsigned long long"] = ULONG
_PRIMITIVES["size_t"] = ULONG
_PRIMITIVES["int8_t"] = CHAR
_PRIMITIVES["uint8_t"] = UCHAR
_PRIMITIVES["int16_t"] = SHORT
_PRIMITIVES["uint16_t"] = USHORT
_PRIMITIVES["int32_t"] = INT
_PRIMITIVES["uint32_t"] = UINT
_PRIMITIVES["int64_t"] = LONG
_PRIMITIVES["uint64_t"] = ULONG


def primitive(name: str) -> PrimitiveType:
    """Look up a primitive type by its C spelling (including aliases)."""
    try:
        return _PRIMITIVES[name]
    except KeyError:
        raise LayoutError(f"unknown primitive type {name!r}") from None


def primitive_names() -> tuple[str, ...]:
    """All spellings accepted by :func:`primitive` (for the parser)."""
    return tuple(_PRIMITIVES)
