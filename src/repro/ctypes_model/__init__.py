"""C type system with System-V x86-64 ABI layout rules.

This package plays the role of the compiler's type layout engine in the
paper's pipeline: Gleipnir reads gcc debug information to know where every
struct field and array element lives; we compute the same information from
first principles using the SysV ABI rules (natural alignment, struct padding,
trailing padding to the struct's own alignment).

Public surface:

- :class:`~repro.ctypes_model.types.CType` hierarchy
  (:class:`PrimitiveType`, :class:`PointerType`, :class:`ArrayType`,
  :class:`StructType`, :class:`UnionType`) and the primitive registry
  (:func:`primitive`, ``INT``, ``DOUBLE``...).
- :class:`~repro.ctypes_model.path.VariablePath` — structured access paths
  such as ``lAoS[3].mX`` with parse/format round-trip.
- :func:`~repro.ctypes_model.parser.parse_declarations` — a C declaration
  parser covering the subset used by the paper's rule files.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ctypes_model.path": ("Field", "Index", "PathElement", "VariablePath"),
        "repro.ctypes_model.types": (
            "CHAR",
            "DOUBLE",
            "FLOAT",
            "INT",
            "LONG",
            "POINTER_SIZE",
            "SHORT",
            "UCHAR",
            "UINT",
            "ULONG",
            "USHORT",
            "ArrayType",
            "CType",
            "PointerType",
            "PrimitiveType",
            "StructField",
            "StructType",
            "UnionType",
            "primitive",
        ),
        "repro.ctypes_model.parser": ("parse_declaration", "parse_declarations"),
    },
)
