"""A C declaration parser for the subset used by the paper's rule files.

The transformation rules in the paper (Listings 5, 8 and 11) describe
structures with plain C declaration syntax::

    struct lSoA {
        int mX[16];
        double mY[16];
    };

    struct lAoS {
        int mX;
        double mY;
    }[16];                      # <- array suffix on the closing brace

    struct lS1 {
        int mFrequentlyUsed;
        struct mRarelyUsed;     # <- embed a previously declared struct,
    }[16];                      #    member name defaults to the tag

This module parses that subset (plus pointers, multi-dimensional arrays,
inline anonymous structs, unions, and top-level variable declarations) into
:mod:`repro.ctypes_model.types` objects.

Notes on fidelity: the paper's listings use identifiers such as ``lSoA``
(lowercase-L prefix for "local").  The tokenizer also tolerates identifiers
with leading digits so that files transcribed from the paper's PDF (where
``l`` is easily confused with ``1``) still parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DeclarationSyntaxError, LayoutError
from repro.ctypes_model.types import (
    ArrayType,
    CType,
    PointerType,
    StructType,
    UnionType,
    primitive,
    primitive_names,
)

#: The comments the lexer skips: ``//`` and ``#`` to the end of the
#: line, ``/* ... */`` across lines.
_COMMENT = r"//[^\n]*|\#[^\n]*|/\*.*?\*/"
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>{_COMMENT})
  | (?P<ident>[A-Za-z0-9_$]+)
  | (?P<punct>[{{}}\[\];,*:+])
    """,
    re.VERBOSE | re.DOTALL,
)
_COMMENT_RE = re.compile(_COMMENT, re.DOTALL)
_DEFINE_RE = re.compile(r"#\s*define\b")


def blank_comments(text: str) -> str:
    """``text`` with every comment the lexer skips blanked out.

    Newlines inside a comment stay, so line numbers hold, and a
    ``#define`` (a rule file's named constant) is kept.  Passes that
    scan declaration text before the lexer does run on this.
    """

    def blank(m: re.Match) -> str:
        comment = m.group()
        if _DEFINE_RE.match(comment):
            return comment
        return "\n" * comment.count("\n")

    return _COMMENT_RE.sub(blank, text)

# Multi-word primitive spellings, longest first so "unsigned long long"
# wins over "unsigned long" over "unsigned".
_MULTIWORD = sorted((n.split() for n in primitive_names()), key=len, reverse=True)


@dataclass
class Token:
    """A lexed token with position information for error messages."""

    kind: str  # "num" | "ident" | "punct" | "eof"
    text: str
    line: int


@dataclass(frozen=True)
class _ForwardStruct(CType):
    """An incomplete struct reference (``Node *next;`` inside ``Node``).

    Only valid behind a pointer; the declarator rejects it otherwise.
    """

    tag: str
    size: int = 0
    alignment: int = 1

    def c_name(self) -> str:
        return self.tag


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into tokens, skipping whitespace and comments."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise DeclarationSyntaxError(
                f"unexpected character {source[pos]!r}", line
            )
        text = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            kind = m.lastgroup or "punct"
            # Treat pure numbers as "num"; identifiers may contain digits.
            if kind == "ident" and text.isdigit():
                kind = "num"
            tokens.append(Token(kind, text, line))
        line += text.count("\n")
        pos = m.end()
    tokens.append(Token("eof", "", line))
    return tokens


@dataclass
class Declaration:
    """A single top-level declaration: a named variable (or bare struct).

    ``name`` is empty for pure type declarations (``struct foo {...};``)
    that introduce a tag without declaring a variable.
    """

    name: str
    ctype: CType


@dataclass
class DeclarationSet:
    """The result of parsing a declaration source.

    Attributes
    ----------
    structs:
        Struct/union tag -> type object, in declaration order.
    variables:
        Top-level declared variable name -> type object.
    order:
        All declarations in source order (for deterministic layout).
    """

    structs: Dict[str, CType] = field(default_factory=dict)
    variables: Dict[str, CType] = field(default_factory=dict)
    order: List[Declaration] = field(default_factory=list)

    def struct(self, tag: str) -> CType:
        try:
            return self.structs[tag]
        except KeyError:
            raise DeclarationSyntaxError(f"unknown struct tag {tag!r}") from None

    def variable(self, name: str) -> CType:
        try:
            return self.variables[name]
        except KeyError:
            raise DeclarationSyntaxError(f"unknown variable {name!r}") from None


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: Sequence[Token], registry: Optional[Dict[str, CType]] = None):
        self.tokens = tokens
        self.pos = 0
        self.result = DeclarationSet()
        if registry:
            self.result.structs.update(registry)

    # -- token helpers ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise DeclarationSyntaxError(
                f"expected {text!r}, found {tok.text or '<eof>'!r}", tok.line
            )
        return tok

    def error(self, message: str) -> DeclarationSyntaxError:
        return DeclarationSyntaxError(message, self.peek().line)

    # -- grammar ---------------------------------------------------------

    def parse(self) -> DeclarationSet:
        while self.peek().kind != "eof":
            self.declaration()
        return self.result

    def declaration(self) -> None:
        """Parse one top-level declaration and record it."""
        base = self.type_specifier()
        # Bare `struct foo { ... };` or `struct foo { ... }[16];`
        if self.peek().text == "[":
            line = self.peek().line
            dims = self.array_dims()
            try:
                ctype = _wrap_array(base, dims)
            except LayoutError as exc:
                raise DeclarationSyntaxError(str(exc), line) from exc
            self.expect(";")
            tag = base.tag if isinstance(base, (StructType, UnionType)) else ""
            decl = Declaration(tag, ctype)
            self.result.order.append(decl)
            if tag:
                # An arrayed struct declaration also declares a variable
                # named after the tag (this is the rule-file convention:
                # `struct lAoS { ... }[16];` *is* the transformed object).
                self.result.variables[tag] = ctype
            return
        if self.peek().text == ";":
            tok = self.next()
            if not isinstance(base, (StructType, UnionType)) or not base.tag:
                raise DeclarationSyntaxError(
                    "declaration declares nothing", tok.line
                )
            self.result.order.append(Declaration("", base))
            return
        # Declarator list: `int a, *b, c[4];`
        while True:
            name, ctype = self.declarator(base)
            self.result.variables[name] = ctype
            self.result.order.append(Declaration(name, ctype))
            tok = self.next()
            if tok.text == ";":
                break
            if tok.text != ",":
                raise DeclarationSyntaxError(
                    f"expected ',' or ';', found {tok.text!r}", tok.line
                )

    def type_specifier(self) -> CType:
        """Parse a type specifier: primitive, struct/union def or reference."""
        tok = self.peek()
        if tok.text in ("struct", "union"):
            return self.struct_or_union()
        if tok.kind != "ident":
            raise self.error(f"expected a type, found {tok.text!r}")
        return self.primitive_specifier()

    def primitive_specifier(self) -> CType:
        """Parse a (possibly multi-word) primitive type name."""
        for words in _MULTIWORD:
            if all(
                self.peek(i).text == w for i, w in enumerate(words)
            ):
                for _ in words:
                    self.next()
                return primitive(" ".join(words))
        tok = self.peek()
        # Unknown single identifier: could be a previously declared tag used
        # without the `struct` keyword (typedef-style reference).
        if tok.text in self.result.structs:
            self.next()
            return self.result.structs[tok.text]
        # A name only used behind a pointer may be the struct currently
        # being defined (self-referential node types) or any forward tag.
        if tok.kind == "ident" and self.peek(1).text == "*":
            self.next()
            return _ForwardStruct(tok.text)
        raise self.error(f"unknown type name {tok.text!r}")

    def struct_or_union(self) -> CType:
        keyword = self.next().text  # struct | union
        tag = ""
        if self.peek().kind in ("ident", "num") and self.peek().text != "{":
            tag = self.next().text
        if self.peek().text != "{":
            # Reference to a previously declared tag.
            if not tag:
                raise self.error(f"anonymous {keyword} reference")
            try:
                return self.result.structs[tag]
            except KeyError:
                raise DeclarationSyntaxError(
                    f"reference to undeclared {keyword} {tag!r}",
                    self.peek().line,
                ) from None
        self.expect("{")
        members: List[Tuple[str, CType]] = []
        while self.peek().text != "}":
            members.extend(self.member_declaration())
        self.expect("}")
        try:
            ctype: CType = (
                StructType(tag, members)
                if keyword == "struct"
                else UnionType(tag, members)
            )
        except LayoutError as exc:
            raise DeclarationSyntaxError(str(exc), self.peek().line) from exc
        if tag:
            self.result.structs[tag] = ctype
        return ctype

    def member_declaration(self) -> List[Tuple[str, CType]]:
        """Parse one member line inside a struct/union body."""
        tok = self.peek()
        if tok.text in ("struct", "union"):
            base = self.struct_or_union()
            # `struct mRarelyUsed;` -- embed under the tag name (paper's
            # Listing 8 convention).
            if self.peek().text == ";":
                self.next()
                tag = base.tag if isinstance(base, (StructType, UnionType)) else ""
                if not tag:
                    raise self.error("anonymous embedded struct needs a name")
                return [(tag, base)]
        else:
            base = self.primitive_specifier()
        members: List[Tuple[str, CType]] = []
        while True:
            name, ctype = self.declarator(base)
            members.append((name, ctype))
            tok = self.next()
            if tok.text == ";":
                return members
            if tok.text != ",":
                raise DeclarationSyntaxError(
                    f"expected ',' or ';', found {tok.text!r}", tok.line
                )

    def declarator(self, base: CType) -> Tuple[str, CType]:
        """Parse ``*name[dims]`` and apply it to ``base``."""
        pointer_depth = 0
        while self.peek().text == "*":
            self.next()
            pointer_depth += 1
        tok = self.next()
        if tok.kind not in ("ident", "num") or tok.text.isdigit():
            raise DeclarationSyntaxError(
                f"expected a declarator name, found {tok.text!r}", tok.line
            )
        name = tok.text
        ctype: CType = base
        if isinstance(ctype, _ForwardStruct) and pointer_depth == 0:
            raise DeclarationSyntaxError(
                f"incomplete type {ctype.tag!r} is only valid behind a pointer",
                tok.line,
            )
        for _ in range(pointer_depth):
            pointee = ctype.c_name() if pointer_depth == 1 else "void"
            ctype = PointerType(pointee)
        dims = self.array_dims()
        try:
            ctype = _wrap_array(ctype, dims)
        except LayoutError as exc:
            raise DeclarationSyntaxError(str(exc), tok.line) from exc
        return name, ctype

    def array_dims(self) -> List[int]:
        """Parse zero or more ``[N]`` suffixes."""
        dims: List[int] = []
        while self.peek().text == "[":
            self.next()
            tok = self.next()
            if tok.kind != "num":
                raise DeclarationSyntaxError(
                    f"expected an array length, found {tok.text!r}", tok.line
                )
            dims.append(int(tok.text))
            self.expect("]")
        return dims


def _wrap_array(base: CType, dims: Sequence[int]) -> CType:
    """Apply array dimensions outermost-first: ``int a[2][3]`` is 2 rows."""
    ctype = base
    for dim in reversed(dims):
        ctype = ArrayType(ctype, dim)
    return ctype


def parse_declarations(
    source: str, *, registry: Optional[Dict[str, CType]] = None
) -> DeclarationSet:
    """Parse a block of C declarations.

    Parameters
    ----------
    source:
        C declaration text (struct definitions and variable declarations).
    registry:
        Optional pre-existing tag registry, so rule files can reference
        structs declared in an earlier section.
    """
    return _Parser(tokenize(source), registry).parse()


def parse_declaration(source: str) -> Declaration:
    """Parse exactly one declaration; convenience for tests and the CLI."""
    decls = parse_declarations(source)
    if len(decls.order) != 1:
        raise DeclarationSyntaxError(
            f"expected exactly one declaration, found {len(decls.order)}"
        )
    return decls.order[0]
