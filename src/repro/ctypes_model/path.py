"""Structured variable access paths (``lAoS[3].mX``).

Gleipnir's trace lines identify the accessed data element with a nested
name such as ``glStructArray[0].myArray[0]``.  The transformation engine
needs to *parse* those names, match them against rules, rewrite indices and
fields, and re-serialize them.  This module is the single source of truth
for that syntax.

A path is a base variable name plus a tuple of :class:`PathElement`:

>>> p = VariablePath.parse("glStructArray[0].myArray[1]")
>>> p.base
'glStructArray'
>>> p.elements
(Index(0), Field('myArray'), Index(1))
>>> str(p)
'glStructArray[0].myArray[1]'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from repro.errors import PathError

_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
_TOKEN_RE = re.compile(rf"({_IDENT})|\[(\d+)\]|(\.)|(->)")


@dataclass(frozen=True, order=True)
class Field:
    """A ``.name`` step into a struct or union."""

    name: str

    def __str__(self) -> str:
        return f".{self.name}"

    def __repr__(self) -> str:
        return f"Field({self.name!r})"


@dataclass(frozen=True, order=True)
class Index:
    """A ``[i]`` step into an array."""

    value: int

    def __str__(self) -> str:
        return f"[{self.value}]"

    def __repr__(self) -> str:
        return f"Index({self.value})"


@dataclass(frozen=True, order=True)
class Deref:
    """A ``->`` step through a pointer member.

    Gleipnir itself never emits ``->`` (it sees the concrete accessed
    object), but transformed traces describing indirect accesses keep the
    pointer hop explicit in intermediate form before the engine resolves it
    to the storage object's own path.
    """

    name: str

    def __str__(self) -> str:
        return f"->{self.name}"

    def __repr__(self) -> str:
        return f"Deref({self.name!r})"


PathElement = Union[Field, Index, Deref]

#: Marks an index slot in the elements of a path template (the
#: ``[]`` of ``lSoA.mX[]``); real indices are never negative.
SLOT = Index(-1)

_TEMPLATE_STEP_RE = re.compile(rf"\[\]|\.({_IDENT})|->({_IDENT})")
_BASE_RE = re.compile(_IDENT)


def parse_template(template: str) -> Tuple[str, Tuple[PathElement, ...]]:
    """The base name and elements of a well-formed path template, with
    :data:`SLOT` for each ``[]``."""
    base = _BASE_RE.match(template).group()
    elements: list[PathElement] = []
    for m in _TEMPLATE_STEP_RE.finditer(template, len(base)):
        if m.group(1) is not None:
            elements.append(Field(m.group(1)))
        elif m.group(2) is not None:
            elements.append(Deref(m.group(2)))
        else:
            elements.append(SLOT)
    return base, tuple(elements)


def template_text(base: str, elements: Iterable[PathElement]) -> str:
    """The template of a base name and elements: indices and
    :data:`SLOT` both render as ``[]``."""
    return base + "".join("[]" if isinstance(e, Index) else str(e) for e in elements)


def fill_slots(
    elements: Iterable[PathElement], row: Iterable[int]
) -> Tuple[PathElement, ...]:
    """Template elements with their slots set to ``row``, in order."""
    values = iter(row)
    return tuple(Index(next(values)) if e == SLOT else e for e in elements)


def slot_values(elements: Iterable[PathElement]) -> Tuple[int, ...]:
    """The index values of concrete path elements, in order (the row
    that :func:`fill_slots` puts back into their template)."""
    return tuple(e.value for e in elements if isinstance(e, Index))


@dataclass(frozen=True)
class VariablePath:
    """A parsed variable access path.

    Immutable; all mutators return new paths.
    """

    base: str
    elements: Tuple[PathElement, ...] = ()

    # -- construction ----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "VariablePath":
        """Parse the Gleipnir spelling of a path.

        Accepts ``name``, ``name[3]``, ``name.field``, ``name->field`` and
        arbitrary nesting thereof.  Raises :class:`PathError` on malformed
        input.
        """
        text = text.strip()
        if not text:
            raise PathError("empty variable path")
        pos = 0
        tokens: list[tuple[str, str]] = []
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise PathError(f"malformed path {text!r} at offset {pos}")
            if m.group(1) is not None:
                tokens.append(("ident", m.group(1)))
            elif m.group(2) is not None:
                tokens.append(("index", m.group(2)))
            elif m.group(3) is not None:
                tokens.append(("dot", "."))
            else:
                tokens.append(("arrow", "->"))
            pos = m.end()
        if tokens[0][0] != "ident":
            raise PathError(f"path {text!r} must start with an identifier")
        base = tokens[0][1]
        elements: list[PathElement] = []
        i = 1
        while i < len(tokens):
            kind, value = tokens[i]
            if kind == "index":
                elements.append(Index(int(value)))
                i += 1
            elif kind in ("dot", "arrow"):
                if i + 1 >= len(tokens) or tokens[i + 1][0] != "ident":
                    raise PathError(f"dangling {value!r} in path {text!r}")
                name = tokens[i + 1][1]
                elements.append(Field(name) if kind == "dot" else Deref(name))
                i += 2
            else:
                raise PathError(f"unexpected identifier {value!r} in {text!r}")
        return cls(base, tuple(elements))

    # -- queries ---------------------------------------------------------

    @property
    def is_bare(self) -> bool:
        """True when the path is just the base variable name."""
        return not self.elements

    @property
    def leading_index(self) -> int | None:
        """The value of the first element if it is an :class:`Index`."""
        if self.elements and isinstance(self.elements[0], Index):
            return self.elements[0].value
        return None

    def field_names(self) -> Tuple[str, ...]:
        """All field/deref names along the path, in order."""
        return tuple(
            e.name for e in self.elements if isinstance(e, (Field, Deref))
        )

    def indices(self) -> Tuple[int, ...]:
        """All array indices along the path, in order."""
        return tuple(e.value for e in self.elements if isinstance(e, Index))

    # -- derivation ------------------------------------------------------

    def child(self, element: PathElement) -> "VariablePath":
        """Return a new path extended by one element."""
        return VariablePath(self.base, (*self.elements, element))

    def extend(self, elements: Iterable[PathElement]) -> "VariablePath":
        """Return a new path extended by several elements."""
        return VariablePath(self.base, (*self.elements, *tuple(elements)))

    def with_base(self, base: str) -> "VariablePath":
        """Return the same path rooted at a different base variable."""
        return VariablePath(base, self.elements)

    def parent(self) -> "VariablePath":
        """Drop the last element; raises :class:`PathError` on bare paths."""
        if not self.elements:
            raise PathError(f"path {self} has no parent")
        return VariablePath(self.base, self.elements[:-1])

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return self.base + "".join(map(str, self.elements))

    def __repr__(self) -> str:
        return f"VariablePath({str(self)!r})"
