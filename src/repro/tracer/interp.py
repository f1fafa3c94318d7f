"""The trace-emitting interpreter (the "Gleipnir" of this reproduction).

The interpreter executes a :class:`~repro.tracer.program.Program` against a
simulated :class:`~repro.memory.address_space.AddressSpace`, maintaining
real values in memory (so pointer indirection and computed indices work),
and records every memory access made while instrumentation is enabled.

Emission builds no objects.  :meth:`Interpreter._emit` appends raw fields
to one growable column buffer: op code, address, size, the executing
frame's context (a function id interned once per frame, and the frame
depth), and the slot of the live symbol the symbol table's bisect finds
(-1 when the access is unsymbolised).  After the run, one pass derives
everything Gleipnir reads from debug information: the scope
(``LV``/``LS``/``GV``/``GS``/``HV``/``HS``), thread id and frame distance
once per symbol, and the variable paths as a
:class:`~repro.trace.paths.PathTable`: each symbol type is walked once
over the distinct offsets of its symbols, a (symbol name, leaf) pair is
one template (``lSoA.mX[]``) and integer division by the array strides
gives each offset's index row, so no path text or
:class:`~repro.ctypes_model.path.VariablePath` is built.  Function
names and paths are numbered in first-appearance order, exactly as the
v1 and v2 writers intern them,
and the run returns a columns-backed :class:`~repro.trace.stream.Trace`
(see :mod:`repro.trace.columns`): its records are built only if a
consumer asks for them, and both binary writers read the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import InterpreterError
from repro.ctypes_model.types import (
    ArrayType,
    CType,
    PointerType,
    PrimitiveType,
    StructType,
    ULONG,
    UnionType,
)
from repro.ctypes_model.path import template_text
from repro.memory.address_space import AddressSpace
from repro.memory.symbols import Segment, Symbol
from repro.obsv.telemetry import get_telemetry
from repro.trace.columns import ABSENT, OPS, SCOPE_ID, TraceColumns, intern_order
from repro.trace.paths import PathTable, groups, locate
from repro.trace.stream import Trace
from repro.tracer.expr import (
    AddrOf,
    Arrow,
    BinOp,
    Cast,
    Const,
    Deref,
    Expr,
    Member,
    PointerValue,
    Subscript,
    Var,
)
from repro.tracer.program import Function, Program
from repro.tracer.stmt import (
    Assign,
    AugAssign,
    Block,
    Call,
    CallAssign,
    DeclLocal,
    ExprStmt,
    For,
    HeapAlloc,
    HeapFree,
    If,
    Return,
    StartInstrumentation,
    Stmt,
    StopInstrumentation,
    While,
)

Value = Union[int, float, PointerValue]

#: ``kind`` codes of the access types (see :data:`repro.trace.columns.OPS`).
_LOAD, _STORE, _MODIFY, _MISC = (OPS.index(code) for code in "LSMX")

#: Fields per access in the emission buffer: kind, addr, size, ctx, slot.
_FIELDS = 5
#: A frame context packs the function id above the frame depth.
_CTX_SHIFT = 32

#: What ``_memory`` returns for a never-stored address.
_UNSET = object()

_INT_NAMES = {
    "char",
    "unsigned char",
    "short",
    "unsigned short",
    "int",
    "unsigned int",
    "long",
    "unsigned long",
    "_Bool",
}


@dataclass(frozen=True)
class LValue:
    """A resolved storage location: address plus the object's type."""

    addr: int
    ctype: CType


class _ReturnSignal(Exception):
    """Internal control flow for ``return``."""

    def __init__(self, value: Optional[Value]) -> None:
        self.value = value
        super().__init__()


class Interpreter:
    """Executes a program and collects its memory trace.

    Parameters
    ----------
    program:
        The program to run.
    address_space:
        Pre-built address space (a fresh one is created by default).
    emit_zzq:
        Emit the ``_zzq_result`` store/load artefact when instrumentation
        turns on, mirroring Valgrind's client-request machinery visible at
        the top of every trace in the paper.
    thread:
        Thread id stamped on emitted records.
    max_steps:
        Safety valve: abort after this many executed statements/loop
        iterations (guards against accidental infinite loops in workloads).
    """

    def __init__(
        self,
        program: Program,
        *,
        address_space: Optional[AddressSpace] = None,
        emit_zzq: bool = True,
        thread: int = 1,
        max_steps: int = 50_000_000,
        trace_on: bool = False,
        emit_instruction_fetches: bool = False,
    ) -> None:
        self.program = program
        self.space = address_space if address_space is not None else AddressSpace()
        self.trace = Trace()
        #: flat emission buffer, :data:`_FIELDS` ints per access
        self._buffer: List[int] = []
        #: function names interned per frame (ids in push order)
        self._func_ids: Dict[str, int] = {}
        #: the executing frame's context: function id and frame depth
        self._ctx = ABSENT << _CTX_SHIFT
        #: statement type -> bound ``_exec_*`` method, filled on first use
        self._dispatch: Dict[type, Callable[[Stmt], None]] = {}
        self.tracing = trace_on
        self.emit_zzq = emit_zzq
        self.thread = thread
        self.max_steps = max_steps
        self._steps = 0
        self._memory: Dict[int, Value] = {}
        # Instruction-fetch modelling (the option the paper's authors
        # disabled; see Section III): every statement gets a stable
        # synthetic code region, so loop bodies re-fetch the same PCs and
        # an I-cache sees realistic locality.
        self.emit_instruction_fetches = emit_instruction_fetches
        self._code_base = 0x400000
        self._stmt_pc: Dict[int, int] = {}
        self._stmt_region = 64  # bytes of code per statement
        self._current_stmt_pc = self._code_base
        self._access_index_in_stmt = 0
        # Bounded well below Python's own recursion limit: each simulated
        # call nests several interpreter frames.
        self._call_depth_limit = 64
        #: base addresses observed per symbol name (for reports/tests)
        self.layout: Dict[str, int] = {}

    # -- top level ---------------------------------------------------------

    def run(self) -> Trace:
        """Lay out globals, execute ``main``, return the collected trace."""
        for decl in self.program.globals:
            sym = self.space.declare_global(decl.name, decl.ctype, thread=self.thread)
            self.layout[decl.name] = sym.base
        self._call(self.program.main, [])
        with get_telemetry().span("trace.symbolize", cat="trace"):
            self.trace = self._build_trace()
        return self.trace

    # -- bookkeeping ---------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpreterError(
                f"exceeded max_steps={self.max_steps}; likely runaway loop"
            )

    # -- trace emission --------------------------------------------------------

    def _emit(
        self,
        kind: int,
        addr: int,
        size: int,
        *,
        symbolize: bool = True,
    ) -> None:
        if not self.tracing:
            return
        if self.emit_instruction_fetches and kind != _MISC:
            # The instruction performing this access: a stable PC inside
            # the executing statement's code region.
            pc = self._current_stmt_pc + 4 * (
                self._access_index_in_stmt % (self._stmt_region // 4)
            )
            self._access_index_in_stmt += 1
            self._buffer += (_MISC, pc, 4, self._ctx, -1)
        slot = self.space.symbols.find_slot(addr) if symbolize else -1
        self._buffer += (kind, addr, size, self._ctx, slot)

    def _frame_ctx(self, function: str, depth: int) -> int:
        """A frame's context: its function id (interned here, once per
        frame) above its depth."""
        if not function:
            return (ABSENT << _CTX_SHIFT) | depth
        fid = self._func_ids.setdefault(function, len(self._func_ids))
        return (fid << _CTX_SHIFT) | depth

    def _build_trace(self) -> Trace:
        """The post-run pass: symbolise the emission buffer into columns.

        Scope, thread and frame distance are derived once per symbol; the
        variable paths come from one walk of each symbol type over its
        distinct offsets (:func:`_path_table`).
        """
        raw = np.array(self._buffer, dtype=np.int64).reshape(-1, _FIELDS)
        self._buffer = []
        kind, addr, size, ctx, slot = raw.T
        if len(addr) and int(addr.min()) < 0:
            i = int(np.argmax(addr < 0))
            raise InterpreterError(
                f"access {i} is to negative address {int(addr[i])}"
            )
        n = len(raw)
        depth = ctx & ((1 << _CTX_SHIFT) - 1)
        # Frame-interned ids, renumbered in record order.
        func_id, functions = intern_order(
            (ctx >> _CTX_SHIFT).astype(np.int32), list(self._func_ids)
        )

        # Per-slot tables, with one extra row (index -1) for unsymbolised
        # accesses.
        symbols = self.space.symbols.slot_symbols
        used = np.flatnonzero(np.bincount(slot[slot >= 0])).tolist()
        rows = len(symbols) + 1
        scope_of = np.zeros(rows, dtype=np.uint8)
        thread_of = np.full(rows, ABSENT, dtype=np.int64)
        base_of = np.zeros(rows, dtype=np.int64)
        depth_of = np.zeros(rows, dtype=np.int64)
        stack = np.zeros(rows, dtype=bool)
        heap = np.zeros(rows, dtype=bool)
        for s in used:
            symbol = symbols[s]
            scope_of[s] = SCOPE_ID[symbol.scope_code]
            base_of[s] = symbol.base
            if symbol.segment is not Segment.GLOBAL:
                thread_of[s] = symbol.thread
                depth_of[s] = symbol.depth
                stack[s] = symbol.segment is Segment.STACK
                heap[s] = symbol.segment is Segment.HEAP
        frame = np.where(
            stack[slot],
            np.maximum(depth - depth_of[slot], 0),
            np.where(heap[slot], 0, ABSENT),
        )

        # One template per (symbol name, leaf), one index row per
        # distinct (slot, offset); entries numbered in the order the
        # records first use their text.
        var_id = np.full(n, ABSENT, dtype=np.int32)
        table = PathTable.empty()
        hit = slot >= 0
        if hit.any():
            offset = addr[hit] - base_of[slot[hit]]
            span = int(offset.max()) + 1
            keys, first, inverse = np.unique(
                slot[hit] * span + offset, return_index=True, return_inverse=True
            )
            table, key_entry = _path_table(symbols, keys // span, keys % span, first)
            var_id[hit] = key_entry[inverse]

        return Trace.from_columns(
            TraceColumns(
                kind=kind.astype(np.uint8),
                addr=addr.astype(np.uint64),
                size=size.copy(),
                scope=scope_of[slot],
                frame=frame,
                thread=thread_of[slot],
                func_id=func_id,
                var_id=var_id,
                functions=tuple(functions),
                paths=table,
            )
        )

    # -- memory values -----------------------------------------------------------

    def _default_value(self, ctype: CType) -> Value:
        if isinstance(ctype, PointerType):
            return PointerValue(0, None)
        if isinstance(ctype, PrimitiveType) and ctype.name in ("float", "double", "long double"):
            return 0.0
        return 0

    def _load_value(self, lv: LValue) -> Value:
        value = self._memory.get(lv.addr, _UNSET)
        if value is _UNSET:
            return self._default_value(lv.ctype)
        return value

    def _store_value(self, lv: LValue, value: Value) -> None:
        self._memory[lv.addr] = self._coerce(lv.ctype, value)

    def _coerce(self, ctype: CType, value: Value) -> Value:
        """Apply C conversion on store/cast (truncation to int, etc.)."""
        if isinstance(value, PointerValue):
            return value
        if isinstance(ctype, PointerType):
            if isinstance(value, (int, float)):
                return PointerValue(int(value), None)
            return value
        if isinstance(ctype, PrimitiveType):
            if ctype.name in _INT_NAMES:
                return int(value)
            return float(value)
        return value

    # -- expression evaluation ----------------------------------------------------

    def eval(self, expr: Expr) -> Value:
        """Evaluate an rvalue, emitting the loads it performs."""
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, AddrOf):
            lv = self.lvalue(expr.base)
            return PointerValue(lv.addr, lv.ctype)
        if isinstance(expr, Cast):
            return self._coerce(expr.ctype, self.eval(expr.operand))
        if isinstance(expr, BinOp):
            return self._binop(expr)
        # Everything else resolves through an lvalue.
        lv = self.lvalue(expr)
        if isinstance(lv.ctype, ArrayType):
            # Array rvalue decays to a pointer to its first element.
            return PointerValue(lv.addr, lv.ctype.element)
        if isinstance(lv.ctype, (StructType, UnionType)):
            raise InterpreterError(
                f"cannot use aggregate {lv.ctype.c_name()} as an rvalue; "
                "take its address or access a member"
            )
        self._emit(_LOAD, lv.addr, lv.ctype.size)
        value = self._load_value(lv)
        if isinstance(lv.ctype, PointerType) and isinstance(value, (int, float)):
            value = PointerValue(int(value), None)
        return value

    def _binop(self, expr: BinOp) -> Value:
        lhs = self.eval(expr.lhs)
        rhs = self.eval(expr.rhs)
        op = expr.op
        if op in ("<", "<=", ">", ">=", "==", "!="):
            a = lhs.addr if isinstance(lhs, PointerValue) else lhs
            b = rhs.addr if isinstance(rhs, PointerValue) else rhs
            result = {
                "<": a < b,
                "<=": a <= b,
                ">": a > b,
                ">=": a >= b,
                "==": a == b,
                "!=": a != b,
            }[op]
            return int(result)
        if isinstance(lhs, PointerValue) or isinstance(rhs, PointerValue):
            return self._pointer_arith(op, lhs, rhs)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if isinstance(lhs, int) and isinstance(rhs, int):
                if rhs == 0:
                    raise InterpreterError("integer division by zero")
                # C semantics: truncation toward zero.
                q = abs(lhs) // abs(rhs)
                return q if (lhs >= 0) == (rhs >= 0) else -q
            return lhs / rhs
        if op == "%":
            if not (isinstance(lhs, int) and isinstance(rhs, int)):
                raise InterpreterError("% requires integer operands")
            if rhs == 0:
                raise InterpreterError("integer modulo by zero")
            # C semantics: sign of the dividend.
            return lhs - rhs * (abs(lhs) // abs(rhs) * (1 if (lhs >= 0) == (rhs >= 0) else -1))
        if op in ("&", "|", "^", "<<", ">>"):
            if not (isinstance(lhs, int) and isinstance(rhs, int)):
                raise InterpreterError(f"{op} requires integer operands")
            if op == "&":
                return lhs & rhs
            if op == "|":
                return lhs | rhs
            if op == "^":
                return lhs ^ rhs
            if op == "<<":
                return lhs << rhs
            return lhs >> rhs
        raise InterpreterError(f"unsupported operator {op!r}")

    def _pointer_arith(self, op: str, lhs: Value, rhs: Value) -> Value:
        if isinstance(lhs, PointerValue) and isinstance(rhs, PointerValue):
            if op != "-":
                raise InterpreterError(f"invalid pointer op {op!r} between pointers")
            scale = lhs.pointee.size if lhs.pointee else 1
            return (lhs.addr - rhs.addr) // scale
        if isinstance(rhs, PointerValue):  # n + p
            lhs, rhs = rhs, lhs
        assert isinstance(lhs, PointerValue)
        if not isinstance(rhs, (int, float)):
            raise InterpreterError("pointer arithmetic needs an integer")
        scale = lhs.pointee.size if lhs.pointee else 1
        offset = int(rhs) * scale
        if op == "+":
            return PointerValue(lhs.addr + offset, lhs.pointee)
        if op == "-":
            return PointerValue(lhs.addr - offset, lhs.pointee)
        raise InterpreterError(f"invalid pointer op {op!r}")

    # -- lvalue resolution ---------------------------------------------------------

    def lvalue(self, expr: Expr) -> LValue:
        """Resolve an expression to a storage location.

        Emits the loads performed while *computing the address* (index
        variables, pointer loads for ``->`` and pointer subscripts) but not
        the access to the resulting location itself.
        """
        if isinstance(expr, Var):
            symbol = self.space.lookup(expr.name)
            return LValue(symbol.base, symbol.ctype)
        if isinstance(expr, Subscript):
            base = self.lvalue_or_pointer(expr.base)
            index = self.eval(expr.index)
            if isinstance(index, PointerValue):
                raise InterpreterError("array index cannot be a pointer")
            if isinstance(base.ctype, ArrayType):
                elem = base.ctype.element
                return LValue(base.addr + int(index) * elem.size, elem)
            raise InterpreterError(
                f"cannot subscript {base.ctype.c_name()}"
            )
        if isinstance(expr, Member):
            base = self.lvalue(expr.base)
            if not isinstance(base.ctype, (StructType, UnionType)):
                raise InterpreterError(
                    f".{expr.name} applied to non-struct {base.ctype.c_name()}"
                )
            fld = base.ctype.member(expr.name)
            return LValue(base.addr + fld.offset, fld.ctype)
        if isinstance(expr, Arrow):
            ptr = self.eval(expr.base)  # emits the pointer load
            return self._pointee_member(ptr, expr.name)
        if isinstance(expr, Deref):
            ptr = self.eval(expr.base)
            if not isinstance(ptr, PointerValue):
                raise InterpreterError("cannot dereference a non-pointer")
            if ptr.pointee is None:
                raise InterpreterError("dereference of untyped/null pointer")
            return LValue(ptr.addr, ptr.pointee)
        raise InterpreterError(f"{expr!r} is not an lvalue")

    def lvalue_or_pointer(self, expr: Expr) -> LValue:
        """Resolve a subscript base: arrays stay in place, pointers load.

        ``p[i]`` where ``p`` is a pointer loads ``p`` (emitting ``L p``)
        and produces an lvalue of the pointed-to array slice, which the
        subscript then indexes — matching the ``L StrcParam`` lines in the
        paper's Listing 2.
        """
        lv = self._try_lvalue_no_deref(expr)
        if lv is not None and isinstance(lv.ctype, ArrayType):
            return lv
        if lv is not None and isinstance(lv.ctype, PointerType):
            self._emit(_LOAD, lv.addr, lv.ctype.size)
            ptr = self._load_value(lv)
            if not isinstance(ptr, PointerValue) or ptr.pointee is None:
                raise InterpreterError(
                    f"subscript through uninitialised pointer at {lv.addr:#x}"
                )
            # Present the pointee as an unbounded array for indexing.
            return LValue(ptr.addr, ArrayType(ptr.pointee, 1 << 30))
        # Fall back: an expression producing a pointer value.
        value = self.eval(expr)
        if isinstance(value, PointerValue) and value.pointee is not None:
            return LValue(value.addr, ArrayType(value.pointee, 1 << 30))
        raise InterpreterError(f"cannot subscript {expr!r}")

    def _try_lvalue_no_deref(self, expr: Expr) -> Optional[LValue]:
        """lvalue() but returning None when the node isn't a plain lvalue."""
        if isinstance(expr, (Var, Subscript, Member, Arrow, Deref)):
            return self.lvalue(expr)
        return None

    def _pointee_member(self, ptr: Value, name: str) -> LValue:
        if not isinstance(ptr, PointerValue):
            raise InterpreterError(f"-> applied to non-pointer while accessing {name!r}")
        pointee = ptr.pointee
        if pointee is None:
            # Untyped pointer: recover the type from the symbol table.
            resolved = self.space.symbolize(ptr.addr)
            if resolved is None:
                raise InterpreterError(
                    f"->{name} through pointer {ptr.addr:#x} with unknown pointee"
                )
            offset0, pointee = resolved.symbol.ctype.resolve(resolved.path.elements)
            del offset0
        if not isinstance(pointee, (StructType, UnionType)):
            raise InterpreterError(
                f"->{name} applied to pointer to {pointee.c_name()}"
            )
        fld = pointee.member(name)
        return LValue(ptr.addr + fld.offset, fld.ctype)

    # -- statement execution -----------------------------------------------------------

    def exec(self, stmt: Stmt) -> None:
        """Execute one statement (dispatching on its node type)."""
        self._tick()
        if self.emit_instruction_fetches:
            pc = self._stmt_pc.get(id(stmt))
            if pc is None:
                pc = self._code_base + len(self._stmt_pc) * self._stmt_region
                self._stmt_pc[id(stmt)] = pc
            self._current_stmt_pc = pc
            self._access_index_in_stmt = 0
        method = self._dispatch.get(type(stmt))
        if method is None:
            method = getattr(self, f"_exec_{type(stmt).__name__}", None)
            if method is None:
                raise InterpreterError(
                    f"unsupported statement {type(stmt).__name__}"
                )
            self._dispatch[type(stmt)] = method
        method(stmt)

    def exec_block(self, block: Block) -> None:
        """Execute a statement block in order."""
        for stmt in block.statements:
            self.exec(stmt)

    def _exec_Block(self, stmt: Block) -> None:
        self.exec_block(stmt)

    def _exec_DeclLocal(self, stmt: DeclLocal) -> None:
        sym = self.space.declare_local(stmt.name, stmt.ctype, thread=self.thread)
        self.layout.setdefault(stmt.name, sym.base)
        if stmt.init is not None:
            self._exec_Assign(Assign(Var(stmt.name), stmt.init))

    def _exec_Assign(self, stmt: Assign) -> None:
        target = self.lvalue(stmt.target)
        value = self.eval(stmt.value)
        self._emit(_STORE, target.addr, target.ctype.size)
        self._store_value(target, value)

    def _exec_AugAssign(self, stmt: AugAssign) -> None:
        target = self.lvalue(stmt.target)
        rhs = self.eval(stmt.value)
        old = self._load_value(target)
        new = self._binop_values(stmt.op, old, rhs)
        self._emit(_MODIFY, target.addr, target.ctype.size)
        self._store_value(target, new)

    def _binop_values(self, op: str, lhs: Value, rhs: Value) -> Value:
        """Apply an arithmetic op to already-evaluated values (no loads)."""
        if isinstance(lhs, PointerValue) or isinstance(rhs, PointerValue):
            return self._pointer_arith(op, lhs, rhs)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if isinstance(lhs, int) and isinstance(rhs, int):
                q = abs(lhs) // abs(rhs)
                return q if (lhs >= 0) == (rhs >= 0) else -q
            return lhs / rhs
        if op == "%":
            return lhs % rhs if (lhs >= 0) == (rhs >= 0) else -((-lhs) % rhs)
        raise InterpreterError(f"unsupported compound op {op!r}")

    def _exec_ExprStmt(self, stmt: ExprStmt) -> None:
        self.eval(stmt.expr)

    def _exec_If(self, stmt: If) -> None:
        cond = self.eval(stmt.cond)
        truth = cond.addr != 0 if isinstance(cond, PointerValue) else bool(cond)
        if truth:
            self.exec_block(stmt.then)
        elif stmt.orelse is not None:
            self.exec_block(stmt.orelse)

    def _exec_While(self, stmt: While) -> None:
        own_pc = self._current_stmt_pc
        while True:
            self._tick()
            # Condition code belongs to the loop statement itself.
            self._current_stmt_pc = own_pc
            self._access_index_in_stmt = 0
            cond = self.eval(stmt.cond)
            truth = cond.addr != 0 if isinstance(cond, PointerValue) else bool(cond)
            if not truth:
                break
            self.exec_block(stmt.body)

    def _exec_For(self, stmt: For) -> None:
        own_pc = self._current_stmt_pc
        self.exec(stmt.init)
        while True:
            self._tick()
            self._current_stmt_pc = own_pc
            self._access_index_in_stmt = 0
            cond = self.eval(stmt.cond)
            truth = cond.addr != 0 if isinstance(cond, PointerValue) else bool(cond)
            if not truth:
                break
            self.exec_block(stmt.body)
            self.exec(stmt.step)

    def _exec_Call(self, stmt: Call) -> None:
        self._call(self.program.function(stmt.callee), [self.eval(a) for a in stmt.args])

    def _exec_CallAssign(self, stmt: CallAssign) -> None:
        args = [self.eval(a) for a in stmt.args]
        target = self.lvalue(stmt.target)
        result = self._call(self.program.function(stmt.callee), args)
        if result is None:
            raise InterpreterError(
                f"{stmt.callee} returned no value but its result is used"
            )
        self._emit(_STORE, target.addr, target.ctype.size)
        self._store_value(target, result)

    def _exec_Return(self, stmt: Return) -> None:
        value = self.eval(stmt.value) if stmt.value is not None else None
        raise _ReturnSignal(value)

    def _exec_HeapAlloc(self, stmt: HeapAlloc) -> None:
        symbol = self.space.malloc_object(stmt.object_name, stmt.ctype, thread=self.thread)
        self.layout.setdefault(stmt.object_name, symbol.base)
        target = self.lvalue(stmt.target)
        pointee: CType = stmt.ctype
        if isinstance(pointee, ArrayType):
            pointee = pointee.element
        self._emit(_STORE, target.addr, target.ctype.size)
        self._store_value(target, PointerValue(symbol.base, pointee))

    def _exec_HeapFree(self, stmt: HeapFree) -> None:
        symbol = self.space.lookup(stmt.object_name)
        self.space.free_object(symbol)

    def _exec_StartInstrumentation(self, stmt: StartInstrumentation) -> None:
        self.tracing = True
        if self.emit_zzq:
            frame = self.space.stack.current
            existing = frame.locals.get("_zzq_result")
            if existing is None:
                symbol = self.space.declare_local(
                    "_zzq_result", ULONG, thread=self.thread
                )
                addr = symbol.base
            else:
                addr = existing[0]
            self._emit(_STORE, addr, 8)
            self._emit(_LOAD, addr, 8, symbolize=False)

    def _exec_StopInstrumentation(self, stmt: StopInstrumentation) -> None:
        self.tracing = False

    # -- calls ---------------------------------------------------------------------

    def _call(self, function: Function, args: List[Value]) -> Optional[Value]:
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{function.name} expects {len(function.params)} args, got {len(args)}"
            )
        if self.space.stack.depth >= self._call_depth_limit:
            raise InterpreterError("call depth limit exceeded")
        is_entry = self.space.stack.depth == 0
        if not is_entry:
            # Call overhead: push of the return address (attributed to the
            # caller) mirrors the anonymous stores in the paper's traces.
            ret_slot = self.space.stack.current.cursor - 8
            self._emit(_STORE, ret_slot, 8, symbolize=False)
        caller_ctx = self._ctx
        frame = self.space.push_frame(function.name)
        self._ctx = self._frame_ctx(frame.function, frame.depth)
        if not is_entry:
            # Saved frame pointer, attributed to the callee.
            self._emit(_STORE, frame.upper, 8, symbolize=False)
        for param, value in zip(function.params, args):
            symbol = self.space.declare_local(param.name, param.ctype, thread=self.thread)
            self._emit(_STORE, symbol.base, param.ctype.size)
            # Arrays decay: a PointerValue argument stored into an array-
            # typed param is kept as a pointer.
            self._store_value(LValue(symbol.base, param.ctype), value)
        result: Optional[Value] = None
        try:
            self.exec_block(function.body)
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            self.space.pop_frame()
            self._ctx = caller_ctx
        return result


def _path_table(
    symbols: List[Symbol],
    key_slot: np.ndarray,
    key_off: np.ndarray,
    first: np.ndarray,
) -> Tuple[PathTable, np.ndarray]:
    """The path table of distinct (slot, offset) keys, and each key's
    entry.

    A symbol's type is walked once over the offsets of every symbol of
    that type (:func:`~repro.trace.paths.locate`: integer division by
    the array strides gives the indices), a template is one (symbol
    name, leaf) pair, and keys spelling the same text share an entry.
    Entries are numbered by the first record (``first``) of any of
    their keys.
    """
    names: Dict[str, int] = {}
    types: Dict[int, int] = {}
    ctypes: List[CType] = []
    name_of = np.zeros(len(symbols), dtype=np.int64)
    type_of = np.zeros(len(symbols), dtype=np.int64)
    for s in np.flatnonzero(np.bincount(key_slot)).tolist():
        symbol = symbols[s]
        name_of[s] = names.setdefault(symbol.name, len(names))
        t = types.setdefault(id(symbol.ctype), len(types))
        if t == len(ctypes):
            ctypes.append(symbol.ctype)
        type_of[s] = t
    name_list = list(names)
    key_name = name_of[key_slot]
    key_tid = np.zeros(len(key_slot), dtype=np.int64)
    templates: Dict[str, int] = {}
    leaves = []
    for t, pos in groups(type_of[key_slot]):
        for elements, where, rows in locate(ctypes[t], key_off[pos]):
            at = pos[where]
            suffix = template_text("", elements)
            used, inv = np.unique(key_name[at], return_inverse=True)
            tids = [
                templates.setdefault(name_list[u] + suffix, len(templates))
                for u in used.tolist()
            ]
            key_tid[at] = np.array(tids, dtype=np.int64)[inv]
            leaves.append((at, rows))
    width = max(rows.shape[1] for _, rows in leaves)
    key_index = np.zeros((len(key_slot), width), dtype=np.int64)
    for at, rows in leaves:
        key_index[at, : rows.shape[1]] = rows
    order = np.argsort(first, kind="stable")
    _, entry_first, inv = np.unique(
        np.column_stack([key_tid, key_index])[order],
        axis=0,
        return_index=True,
        return_inverse=True,
    )
    rank = np.empty(len(entry_first), dtype=np.int64)
    rank[np.argsort(entry_first)] = np.arange(len(entry_first))
    key_entry = np.empty(len(key_slot), dtype=np.int32)
    key_entry[order] = rank[inv.reshape(-1)]
    entry_key = order[np.sort(entry_first)]
    table = PathTable(
        tuple(templates), key_tid[entry_key].astype(np.int32), key_index[entry_key]
    )
    return table, key_entry


def trace_program(
    program: Program,
    *,
    emit_zzq: bool = True,
    thread: int = 1,
    trace_on: bool = False,
    emit_instruction_fetches: bool = False,
) -> Trace:
    """Run ``program`` and return its trace (convenience wrapper)."""
    interp = Interpreter(
        program,
        emit_zzq=emit_zzq,
        thread=thread,
        trace_on=trace_on,
        emit_instruction_fetches=emit_instruction_fetches,
    )
    tele = get_telemetry()
    with tele.span("trace.program", cat="trace", main=program.main.name):
        trace = interp.run()
    tele.add("trace.records", len(trace))
    return trace
