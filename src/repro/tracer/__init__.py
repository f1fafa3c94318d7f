"""A miniature C-like program model and trace-emitting interpreter.

This package is the reproduction's substitute for Valgrind + Gleipnir
(see DESIGN.md).  Programs are small ASTs (:mod:`~repro.tracer.expr`,
:mod:`~repro.tracer.stmt`) grouped into functions and a
:class:`~repro.tracer.program.Program`.  The
:class:`~repro.tracer.interp.Interpreter` *executes* a program against a
simulated :class:`~repro.memory.address_space.AddressSpace` and records
every memory access as raw columns, symbolised through the address space
after the run — producing traces with the same structure as the paper's
listings (loop-index loads, call-overhead stores, ``LV``/``GS`` scopes,
frame distances, the ``_zzq_result`` instrumentation artefact).

Access-emission model (documented deviation: we model a simple non-
optimising compiler; see DESIGN.md "substitutions"):

- evaluating a variable rvalue emits one ``L``;
- an assignment evaluates the target address first (left-to-right,
  emitting index/pointer loads), then the right-hand side, then emits
  ``S``;
- compound assignment (``+=``, ``++``) emits its RHS loads then one ``M``
  on the target;
- a ``for`` loop emits its init store, a condition evaluation per
  iteration (including the final failing check), and one ``M`` per step;
- calls emit two anonymous 8-byte stores (return address, saved frame
  pointer) and one ``S`` per parameter.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.tracer.expr": (
            "AddrOf",
            "Arrow",
            "BinOp",
            "Cast",
            "Const",
            "Deref",
            "Expr",
            "Member",
            "PointerValue",
            "Subscript",
            "Var",
            "V",
        ),
        "repro.tracer.stmt": (
            "Assign",
            "AugAssign",
            "Block",
            "Call",
            "CallAssign",
            "DeclLocal",
            "ExprStmt",
            "For",
            "HeapAlloc",
            "HeapFree",
            "If",
            "Return",
            "StartInstrumentation",
            "Stmt",
            "StopInstrumentation",
            "While",
            "simple_for",
        ),
        "repro.tracer.program": ("Function", "GlobalDecl", "Program"),
        "repro.tracer.interp": ("Interpreter", "trace_program"),
    },
)
