"""Symbol table: the debug-info substitute.

A :class:`Symbol` records where a named object lives (base address, size),
what it is (its :class:`~repro.ctypes_model.types.CType`), which segment it
belongs to, and — for locals — which function owns it and at what call
depth it was created.

:class:`SymbolTable` supports:

- interval lookup: address -> containing symbol (``bisect`` over sorted,
  non-overlapping live intervals), or -> the symbol's *slot*
  (:meth:`SymbolTable.find_slot`), a small int naming it for good;
- symbolisation: address -> full :class:`VariablePath` including array
  indices and struct fields (``lcStrcArray[1].dl`` style), via
  :meth:`SymbolTable.symbolize`;
- scope classification into Gleipnir's ``LV``/``LS``/``GV``/``GS`` codes
  (plus ``HV``/``HS`` for heap objects, an extension used by the dynamic
  structure support the paper lists as future work).

Symbols can be retired (stack frame popped, heap block freed); retired
intervals are removed so addresses can be reused by later frames.
"""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MemoryModelError
from repro.ctypes_model.path import VariablePath
from repro.ctypes_model.types import CType


class Segment(enum.Enum):
    """Which part of the address space an object lives in."""

    GLOBAL = "global"
    STACK = "stack"
    HEAP = "heap"


@dataclass(frozen=True)
class Symbol:
    """A live named object in the simulated address space."""

    name: str
    ctype: CType
    base: int
    segment: Segment
    #: Function that owns the symbol (empty for globals).
    function: str = ""
    #: Call depth at which the owning frame was pushed (stack symbols only).
    depth: int = 0
    #: Thread that allocated the object.
    thread: int = 1

    @property
    def size(self) -> int:
        return self.ctype.size

    @property
    def end(self) -> int:
        """One past the last byte of the object."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this object's storage."""
        return self.base <= address < self.end

    def path_for(self, address: int) -> VariablePath:
        """Symbolise an address within this object to a full path."""
        return VariablePath(self.name, self.ctype.path_at(address - self.base))

    @property
    def is_aggregate(self) -> bool:
        """True when the symbol is a struct/array (Gleipnir's ``*S`` codes)."""
        return not self.ctype.is_scalar

    @property
    def scope_code(self) -> str:
        """Gleipnir's two-letter scope: L/G/H + V/S."""
        suffix = "S" if self.is_aggregate else "V"
        return _SCOPE_PREFIX[self.segment] + suffix


_SCOPE_PREFIX = {Segment.GLOBAL: "G", Segment.STACK: "L", Segment.HEAP: "H"}


@dataclass(frozen=True)
class Symbolized:
    """The result of symbolising an address."""

    symbol: Symbol
    path: VariablePath
    offset: int

    @property
    def scope_code(self) -> str:
        """Gleipnir's two-letter scope: L/G/H + V/S."""
        return self.symbol.scope_code


class SymbolTable:
    """Sorted, non-overlapping interval map of live symbols."""

    def __init__(self) -> None:
        # Parallel sorted structures: _starts for bisect, the rest aligned.
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._symbols: List[Symbol] = []
        self._slots: List[int] = []
        #: every symbol ever registered, indexed by slot.  Symbols equal in
        #: every field share one slot, so a function called in a loop
        #: reuses its locals' slots instead of growing this list.
        self.slot_symbols: List[Symbol] = []
        self._slot_of: Dict[Tuple[object, ...], int] = {}
        #: insertion-ordered name index; names may repeat across frames, the
        #: most recent live symbol wins for name lookup (shadowing).
        self._by_name: Dict[str, List[Symbol]] = {}

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    # -- registration ----------------------------------------------------

    def add(self, symbol: Symbol) -> Symbol:
        """Register a live symbol; rejects overlap with any live interval."""
        if symbol.size <= 0:
            raise MemoryModelError(f"symbol {symbol.name!r} has no storage")
        idx = bisect_right(self._starts, symbol.base)
        if idx > 0 and self._symbols[idx - 1].end > symbol.base:
            raise MemoryModelError(
                f"symbol {symbol.name!r} at {symbol.base:#x} overlaps "
                f"{self._symbols[idx - 1].name!r}"
            )
        if idx < len(self._symbols) and self._symbols[idx].base < symbol.end:
            raise MemoryModelError(
                f"symbol {symbol.name!r} at {symbol.base:#x} overlaps "
                f"{self._symbols[idx].name!r}"
            )
        key = (
            symbol.name,
            id(symbol.ctype),
            symbol.base,
            symbol.segment,
            symbol.function,
            symbol.depth,
            symbol.thread,
        )
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self.slot_symbols)
            self.slot_symbols.append(symbol)
        self._starts.insert(idx, symbol.base)
        self._ends.insert(idx, symbol.end)
        self._symbols.insert(idx, symbol)
        self._slots.insert(idx, slot)
        self._by_name.setdefault(symbol.name, []).append(symbol)
        return symbol

    def remove(self, symbol: Symbol) -> None:
        """Retire a live symbol (frame pop / free)."""
        idx = bisect_right(self._starts, symbol.base) - 1
        if idx < 0 or self._symbols[idx] is not symbol:
            raise MemoryModelError(f"symbol {symbol.name!r} is not live")
        del self._starts[idx]
        del self._ends[idx]
        del self._symbols[idx]
        del self._slots[idx]
        stack = self._by_name.get(symbol.name, [])
        if symbol in stack:
            stack.remove(symbol)
        if not stack:
            self._by_name.pop(symbol.name, None)

    # -- lookup ----------------------------------------------------------

    def find(self, address: int) -> Optional[Symbol]:
        """The live symbol containing ``address``, or ``None``."""
        idx = bisect_right(self._starts, address) - 1
        if idx >= 0 and address < self._ends[idx]:
            return self._symbols[idx]
        return None

    def find_slot(self, address: int) -> int:
        """The slot of the live symbol containing ``address``, or -1.

        ``slot_symbols[slot]`` is that symbol (or one equal to it in
        every field) for as long as the table exists.
        """
        idx = bisect_right(self._starts, address) - 1
        if idx >= 0 and address < self._ends[idx]:
            return self._slots[idx]
        return -1

    def symbolize(self, address: int) -> Optional[Symbolized]:
        """Full symbolisation: symbol + nested path + byte offset."""
        sym = self.find(address)
        if sym is None:
            return None
        return Symbolized(sym, sym.path_for(address), address - sym.base)

    def lookup_name(self, name: str) -> Optional[Symbol]:
        """Most recently registered live symbol with this name (shadowing)."""
        stack = self._by_name.get(name)
        return stack[-1] if stack else None

    def live_in_segment(self, segment: Segment) -> Tuple[Symbol, ...]:
        """All live symbols in one segment, ordered by base address."""
        return tuple(s for s in self._symbols if s.segment is segment)
