"""Unit tests for the symbol table."""

import pytest

from repro.errors import MemoryModelError
from repro.ctypes_model.types import ArrayType, DOUBLE, INT, StructType
from repro.memory.symbols import Segment, Symbol, SymbolTable


def sym(name, ctype, base, segment=Segment.GLOBAL, **kw):
    return Symbol(name, ctype, base, segment, **kw)


class TestRegistration:
    def test_add_and_find(self):
        table = SymbolTable()
        s = table.add(sym("x", INT, 0x1000))
        assert table.find(0x1000) is s
        assert table.find(0x1003) is s
        assert table.find(0x1004) is None

    def test_overlap_rejected(self):
        table = SymbolTable()
        table.add(sym("a", ArrayType(INT, 4), 0x1000))
        with pytest.raises(MemoryModelError):
            table.add(sym("b", INT, 0x100C))
        with pytest.raises(MemoryModelError):
            table.add(sym("c", ArrayType(INT, 8), 0x0FF0))

    def test_adjacent_ok(self):
        table = SymbolTable()
        table.add(sym("a", INT, 0x1000))
        table.add(sym("b", INT, 0x1004))
        assert len(table) == 2

    def test_remove_frees_interval(self):
        table = SymbolTable()
        s = table.add(sym("a", INT, 0x1000))
        table.remove(s)
        assert table.find(0x1000) is None
        table.add(sym("b", DOUBLE, 0x1000))  # reuse

    def test_remove_non_live(self):
        table = SymbolTable()
        s = sym("a", INT, 0x1000)
        with pytest.raises(MemoryModelError):
            table.remove(s)


class TestSlots:
    def test_find_slot_names_the_live_symbol(self):
        table = SymbolTable()
        a = table.add(sym("a", ArrayType(INT, 4), 0x1000))
        b = table.add(sym("b", INT, 0x2000))
        assert table.slot_symbols[table.find_slot(0x100C)] is a
        assert table.slot_symbols[table.find_slot(0x2000)] is b
        assert table.find_slot(0x1010) == -1
        assert table.find_slot(0x0FFF) == -1

    def test_slots_outlive_removal_and_equal_symbols_share_one(self):
        """A frame popped and pushed again (same function, same depth)
        re-declares equal locals: they reuse the slot, so the slot list
        grows with distinct symbols, not with calls."""
        table = SymbolTable()
        first = table.add(sym("i", INT, 0x3000, Segment.STACK, function="f"))
        slot = table.find_slot(0x3000)
        table.remove(first)
        assert table.find_slot(0x3000) == -1
        assert table.slot_symbols[slot] is first
        table.add(sym("i", INT, 0x3000, Segment.STACK, function="f"))
        assert table.find_slot(0x3000) == slot
        table.remove(table.find(0x3000))
        table.add(sym("i", INT, 0x3000, Segment.STACK, function="f", depth=1))
        assert table.find_slot(0x3000) != slot
        assert len(table.slot_symbols) == 2


class TestSymbolization:
    def test_nested_path(self, point_struct):
        table = SymbolTable()
        aos = ArrayType(point_struct, 4)
        table.add(sym("pts", aos, 0x2000))
        resolved = table.symbolize(0x2000 + 16 * 2 + 8)
        assert str(resolved.path) == "pts[2].y"
        assert resolved.offset == 40

    def test_scope_codes(self, point_struct):
        table = SymbolTable()
        table.add(sym("g", INT, 0x100, Segment.GLOBAL))
        table.add(sym("gs", point_struct, 0x200, Segment.GLOBAL))
        table.add(sym("l", INT, 0x300, Segment.STACK))
        table.add(sym("ls", ArrayType(INT, 2), 0x400, Segment.STACK))
        table.add(sym("h", DOUBLE, 0x500, Segment.HEAP))
        assert table.symbolize(0x100).scope_code == "GV"
        assert table.symbolize(0x200).scope_code == "GS"
        assert table.symbolize(0x300).scope_code == "LV"
        assert table.symbolize(0x400).scope_code == "LS"
        assert table.symbolize(0x500).scope_code == "HV"

    def test_symbolize_miss(self):
        assert SymbolTable().symbolize(0x1234) is None


class TestNameLookup:
    def test_shadowing(self):
        table = SymbolTable()
        outer = table.add(sym("i", INT, 0x100, Segment.STACK, depth=0))
        inner = table.add(sym("i", INT, 0x200, Segment.STACK, depth=1))
        assert table.lookup_name("i") is inner
        table.remove(inner)
        assert table.lookup_name("i") is outer

    def test_lookup_missing(self):
        assert SymbolTable().lookup_name("nope") is None

    def test_live_in_segment(self):
        table = SymbolTable()
        table.add(sym("g", INT, 0x100, Segment.GLOBAL))
        table.add(sym("l", INT, 0x300, Segment.STACK))
        assert [s.name for s in table.live_in_segment(Segment.GLOBAL)] == ["g"]
