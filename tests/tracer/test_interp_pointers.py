"""Interpreter tests: pointers, indirection, heap objects."""

import pytest

from repro.errors import InterpreterError
from repro.ctypes_model.types import ArrayType, DOUBLE, INT, PointerType, StructType
from repro.memory.layout_constants import GLOBAL_BASE
from repro.tracer.expr import AddrOf, Const, Deref, V
from repro.tracer.interp import trace_program
from repro.tracer.program import Function, Program
from repro.tracer.stmt import (
    Assign,
    DeclLocal,
    HeapAlloc,
    HeapFree,
    StartInstrumentation,
    simple_for,
)
from repro.trace.record import AccessType


def run(body, structs=()):
    program = Program()
    for tag, t in structs:
        program.register_struct(tag, t)
    program.add_function(Function("main", body=body))
    return trace_program(program, emit_zzq=False)


class TestPointers:
    def test_address_of_no_access(self):
        t = run(
            [
                DeclLocal("x", INT),
                DeclLocal("p", PointerType("int")),
                StartInstrumentation(),
                Assign(V("p"), AddrOf(V("x"))),
            ]
        )
        # Only the store of p; &x touches nothing.
        assert [(r.op.value, str(r.var)) for r in t] == [("S", "p")]

    def test_deref_store(self):
        t = run(
            [
                DeclLocal("x", INT),
                DeclLocal("p", PointerType("int")),
                Assign(V("p"), AddrOf(V("x"))),
                StartInstrumentation(),
                Assign(Deref(V("p")), Const(9)),
            ]
        )
        # L p (address computation), S x (through the pointer).
        assert [(r.op.value, str(r.var)) for r in t] == [("L", "p"), ("S", "x")]

    def test_pointer_arithmetic_scales(self):
        t = run(
            [
                DeclLocal("a", ArrayType(DOUBLE, 8)),
                DeclLocal("p", PointerType("double")),
                Assign(V("p"), V("a") + 3),  # array decays, +3 scales by 8
                StartInstrumentation(),
                Assign(Deref(V("p")), Const(1.0)),
            ]
        )
        store = [r for r in t if r.op is AccessType.STORE][0]
        assert str(store.var) == "a[3]"

    def test_arrow_member(self, point_struct):
        t = run(
            [
                DeclLocal("s", point_struct),
                DeclLocal("p", PointerType("Point")),
                Assign(V("p"), AddrOf(V("s"))),
                StartInstrumentation(),
                Assign(V("p").arrow("y"), Const(2.0)),
            ]
        )
        assert [(r.op.value, str(r.var)) for r in t] == [("L", "p"), ("S", "s.y")]

    def test_deref_uninitialised_pointer(self):
        with pytest.raises(InterpreterError):
            run(
                [
                    DeclLocal("p", PointerType("int")),
                    Assign(Deref(V("p")), Const(1)),
                ]
            )

    def test_access_below_address_zero_is_an_error(self):
        """Pointer arithmetic can walk below address 0; the access is
        refused instead of wrapping to a huge unsigned address."""
        program = Program()
        program.add_global("g", INT)
        program.add_function(
            Function(
                "main",
                body=[
                    DeclLocal("p", PointerType("int")),
                    Assign(V("p"), AddrOf(V("g"))),
                    # 4-byte ints: two below address 0.
                    Assign(V("p"), V("p") - Const(GLOBAL_BASE // 4 + 2)),
                    StartInstrumentation(),
                    Assign(Deref(V("p")), Const(1)),
                ],
            )
        )
        with pytest.raises(InterpreterError, match="negative address -8"):
            trace_program(program, emit_zzq=False)

    def test_subscript_through_pointer(self, point_struct):
        t = run(
            [
                DeclLocal("arr", ArrayType(point_struct, 4)),
                DeclLocal("p", PointerType("Point")),
                Assign(V("p"), V("arr")),
                StartInstrumentation(),
                Assign(V("p")[Const(2)].fld("x"), Const(5)),
            ]
        )
        assert [(r.op.value, str(r.var)) for r in t] == [
            ("L", "p"),
            ("S", "arr[2].x"),
        ]


class TestHeap:
    def _node(self):
        return StructType("Node", [("value", INT), ("next", PointerType("Node"))])

    def test_heap_alloc_traces_store_of_pointer(self):
        node = self._node()
        t = run(
            [
                DeclLocal("p", PointerType("Node")),
                StartInstrumentation(),
                HeapAlloc(V("p"), "n0", node),
            ],
            structs=[("Node", node)],
        )
        assert [(r.op.value, str(r.var)) for r in t] == [("S", "p")]

    def test_heap_access_scope(self):
        node = self._node()
        t = run(
            [
                DeclLocal("p", PointerType("Node")),
                HeapAlloc(V("p"), "n0", node),
                StartInstrumentation(),
                Assign(V("p").arrow("value"), Const(1)),
            ],
            structs=[("Node", node)],
        )
        store = [r for r in t if r.op is AccessType.STORE][0]
        assert store.scope == "HS"
        assert str(store.var) == "n0.value"

    def test_heap_free_retires_symbol_and_reuses_address(self):
        node = self._node()
        t = run(
            [
                DeclLocal("p", PointerType("Node")),
                DeclLocal("q", PointerType("Node")),
                StartInstrumentation(),
                HeapAlloc(V("p"), "n0", node),
                HeapFree("n0"),
                HeapAlloc(V("q"), "n1", node),
                Assign(V("q").arrow("value"), Const(1)),
            ],
            structs=[("Node", node)],
        )
        store = [r for r in t if r.scope == "HS"][0]
        assert str(store.var) == "n1.value"

    def test_heap_free_unknown_object(self):
        from repro.errors import MemoryModelError

        node = self._node()
        with pytest.raises(MemoryModelError):
            run([HeapFree("ghost")], structs=[("Node", node)])

    def test_linked_list_traversal_chases_pointers(self):
        node = self._node()
        body = [
            DeclLocal("h0", PointerType("Node")),
            DeclLocal("h1", PointerType("Node")),
            DeclLocal("cur", PointerType("Node")),
            DeclLocal("sum", INT),
            HeapAlloc(V("h0"), "n0", node),
            HeapAlloc(V("h1"), "n1", node),
            Assign(V("h0").arrow("next"), V("h1")),
            Assign(V("h1").arrow("next"), Const(0)),
            StartInstrumentation(),
            Assign(V("cur"), V("h0")),
        ]
        from repro.tracer.stmt import Block, While, AugAssign

        body.append(
            While(
                V("cur").ne(Const(0)),
                Block(
                    [
                        AugAssign(V("sum"), "+", V("cur").arrow("value")),
                        Assign(V("cur"), V("cur").arrow("next")),
                    ]
                ),
            )
        )
        t = run(body, structs=[("Node", node)])
        visited = [str(r.var) for r in t if r.scope == "HS"]
        assert visited == ["n0.value", "n0.next", "n1.value", "n1.next"]
