"""Simulated virtual address space: stack, globals, heap, and symbols.

Gleipnir traces real virtual addresses assigned by the loader (globals), the
stack pointer (locals) and malloc (heap), and uses Valgrind's debug-info
parser to map each address back to a variable.  This package provides the
same two facilities for our simulated programs:

- allocation: :class:`~repro.memory.address_space.AddressSpace` hands out
  addresses for globals (``.data``/``.bss`` style, upward from
  ``GLOBAL_BASE``), stack frames (downward from ``STACK_TOP``, like x86-64),
  and heap blocks (:class:`~repro.memory.heap.HeapAllocator`).
- symbolisation: :class:`~repro.memory.symbols.SymbolTable` maps any address
  back to ``(symbol, VariablePath, offset)`` — exactly the information the
  compiler's ``-g`` debug section gives Gleipnir.

The default base addresses are chosen to look like the paper's traces
(globals near ``0x601040``, stack near ``0x7ff000xxx``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.memory.layout_constants": (
            "GLOBAL_BASE",
            "HEAP_BASE",
            "STACK_ALIGNMENT",
            "STACK_TOP",
        ),
        "repro.memory.symbols": ("Symbol", "SymbolTable", "Segment"),
        "repro.memory.stack": ("StackAllocator", "StackFrame"),
        "repro.memory.heap": ("HeapAllocator", "HeapBlock"),
        "repro.memory.address_space": ("AddressSpace",),
        "repro.memory.paging": ("PAGE_SIZE", "PageTable"),
    },
)
