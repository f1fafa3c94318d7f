"""Parser for transformation rule files (paper Listings 5, 8, 11).

A rule file contains one or more rules, each an ``in:`` section followed
by an ``out:`` section (and optionally ``inject:``)::

    in:
    struct lSoA {
        int mX[16];
        double mY[16];
    };
    out:
    struct lAoS {
        int mX;
        double mY;
    }[16];

Syntax extensions beyond plain C declarations, as printed in the paper:

- ``struct T { ... }[N];`` — the struct *is* the (array) variable; its
  tag names the program variable the rule matches/produces.
- ``+ member:StorageVar;`` inside an out struct — a pointer member whose
  pointee lives in the ``StorageVar`` pool (Listing 8's indirection).
- ``type Name[N]:OutName;`` in an in section — array alias declaring a
  stride rule targeting ``OutName`` (Listing 11).
- ``type OutName[N((formula))];`` in an out section — the strided array
  with its index formula (the paper's ``256((lI/8)*(16*8)+(lI%8))``).
- ``define NAME = VALUE`` — named constants usable inside formulas.
- ``inject: <op> <name> <size> [xCOUNT] [existing]`` lines — accesses to
  synthesise before every remapped line (the index-arithmetic loads the
  paper's authors pre-selected by hand for T3).

The sections are preprocessed into plain C and handed to
:mod:`repro.ctypes_model.parser`; the extracted extensions select and
parameterise the rule class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import DeclarationSyntaxError, RuleError, RuleFileError
from repro.ctypes_model.parser import (
    DeclarationSet,
    blank_comments,
    parse_declarations,
)
from repro.ctypes_model.types import ArrayType, CType, PointerType, StructType
from repro.trace.record import AccessType
from repro.transform.formula import FormulaError, IndexFormula
from repro.transform.rules import (
    HotColdSplitRule,
    InjectSpec,
    LayoutRule,
    OutlineRule,
    Rule,
    RuleSet,
    StrideRule,
)

_SECTION_RE = re.compile(
    r"^\s*(in|out|inject|displace|pool|tile)\s*:\s*$", re.MULTILINE
)
_DEFINE_RE = re.compile(
    r"^\s*(?:#\s*)?define\s+([A-Za-z_$][A-Za-z0-9_$]*)\s*=?\s*(\d+)\s*;?\s*$",
    re.MULTILINE,
)
_POINTER_MEMBER_RE = re.compile(
    r"^\s*\+\s*([A-Za-z_$][A-Za-z0-9_$]*)\s*:\s*([A-Za-z_$][A-Za-z0-9_$]*)\s*;",
    re.MULTILINE,
)
_ALIAS_RE = re.compile(
    r"\]\s*:\s*([A-Za-z_$][A-Za-z0-9_$]*)\s*;"
)
_INJECT_LINE_RE = re.compile(
    r"^\s*([LSMX])\s+([A-Za-z_$][A-Za-z0-9_$]*)\s+(\d+)"
    r"(?:\s+x(\d+))?(?:\s+(existing))?\s*$"
)


@dataclass
class _Section:
    """One preprocessed rule section.

    ``line`` is the 1-based file line of the section header (``in:``...);
    line ``N`` inside :attr:`text` maps to file line ``line + N - 1``.
    """

    kind: str
    text: str
    line: int = 1

    def at(self, body_line: Optional[int] = None) -> int:
        """File line for a 1-based line within the section body."""
        if body_line is None:
            return self.line
        return self.line + body_line - 1


@dataclass
class _OutExtras:
    """Extensions extracted from an out section."""

    pointer_members: Dict[str, str] = field(default_factory=dict)
    formulas: Dict[str, str] = field(default_factory=dict)
    defines: Dict[str, int] = field(default_factory=dict)


def _split_sections(source: str) -> List[_Section]:
    matches = list(_SECTION_RE.finditer(source))
    if not matches:
        raise RuleError(
            "rule file has no 'in:' / 'out:' sections",
            line=1,
            code="TDST001",
        )
    head_lines = [
        ln.strip()
        for ln in source[: matches[0].start()].splitlines()
        if ln.strip() and not ln.strip().startswith(("#", "//"))
    ]
    if head_lines:
        head = " ".join(head_lines)
        raise RuleError(
            f"unexpected text before first section: {head[:60]!r}",
            line=1,
            code="TDST001",
        )
    sections: List[_Section] = []
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(source)
        line = source.count("\n", 0, m.start()) + 1
        # Comments are blanked here, so the pre-passes (defines, stride
        # aliases, formulas, pointer members, pool objects) never read
        # commented-out text.
        text = blank_comments(source[m.end() : end])
        sections.append(_Section(m.group(1), text, line))
    return sections


def _at_line(exc: RuleError, line: int) -> RuleError:
    """Anchor an un-positioned rule error to a file line."""
    if exc.line is not None:
        return exc
    return RuleError(str(exc), line=line, code=exc.code)


def _extract_defines(text: str) -> Tuple[str, Dict[str, int]]:
    defines: Dict[str, int] = {}

    def repl(m: re.Match) -> str:
        defines[m.group(1)] = int(m.group(2))
        return ""

    return _DEFINE_RE.sub(repl, text), defines


def _extract_pointer_members(text: str) -> Tuple[str, Dict[str, str]]:
    members: Dict[str, str] = {}

    def repl(m: re.Match) -> str:
        members[m.group(1)] = m.group(2)
        # A same-layout stand-in; re-typed to PointerType after parsing.
        return f"unsigned long {m.group(1)};"

    return _POINTER_MEMBER_RE.sub(repl, text), members


def _extract_formulas(text: str) -> Tuple[str, Dict[str, str]]:
    """Pull ``Name[LEN((formula))]`` apart into ``Name[LEN]`` + formula.

    Scans for ``[`` followed by digits followed by ``(`` and consumes the
    balanced parenthesised expression.
    """
    formulas: Dict[str, str] = {}
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        m = re.compile(
            r"([A-Za-z_$][A-Za-z0-9_$]*)\s*\[\s*(\d+)\s*\("
        ).search(text, i)
        if m is None:
            out.append(text[i:])
            break
        out.append(text[i : m.start()])
        name, length = m.group(1), m.group(2)
        # Find the matching close paren of the formula.
        depth = 1
        j = m.end()
        while j < n and depth:
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
            j += 1
        if depth:
            raise RuleError(
                f"unbalanced formula parentheses after {name!r}", code="TDST003"
            )
        formula = text[m.end() : j - 1]
        # Expect the closing bracket next.
        k = j
        while k < n and text[k].isspace():
            k += 1
        if k >= n or text[k] != "]":
            raise RuleError(
                f"expected ']' after formula for {name!r}", code="TDST003"
            )
        formulas[name] = formula.strip()
        out.append(f"{name}[{length}]")
        i = k + 1
    return "".join(out), formulas


def _extract_alias(text: str) -> Tuple[str, Optional[str]]:
    aliases: List[str] = []

    def repl(m: re.Match) -> str:
        aliases.append(m.group(1))
        return "];"

    new_text = _ALIAS_RE.sub(repl, text)
    if len(aliases) > 1:
        raise RuleError("at most one stride alias per in section", code="TDST006")
    return new_text, aliases[0] if aliases else None


def _parse_inject(text: str, section: Optional[_Section] = None) -> List[InjectSpec]:
    specs: List[InjectSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "//")):
            continue
        m = _INJECT_LINE_RE.match(line)
        if m is None:
            raise RuleError(
                f"bad inject line: {line!r}",
                line=section.at(lineno) if section else None,
                code="TDST004",
            )
        specs.append(
            InjectSpec(
                op=AccessType(m.group(1)),
                name=m.group(2),
                size=int(m.group(3)),
                count=int(m.group(4)) if m.group(4) else 1,
                existing=bool(m.group(5)),
            )
        )
    return specs


def _retype_pointer_members(
    decls: DeclarationSet, pointer_members: Dict[str, str]
) -> None:
    """Replace the ``unsigned long`` stand-ins with real pointer types.

    Rebuilds any struct containing a stand-in member (StructType is
    immutable) and patches both the tag registry and variable types.
    """
    if not pointer_members:
        return
    rebuilt: Dict[int, StructType] = {}

    def rebuild(ctype: CType) -> CType:
        if id(ctype) in rebuilt:
            return rebuilt[id(ctype)]
        if isinstance(ctype, StructType):
            changed = False
            members: List[Tuple[str, CType]] = []
            for f in ctype.fields:
                if f.name in pointer_members and f.ctype.size == 8:
                    members.append((f.name, PointerType(pointer_members[f.name])))
                    changed = True
                else:
                    new = rebuild(f.ctype)
                    changed = changed or new is not f.ctype
                    members.append((f.name, new))
            if changed:
                new_struct = StructType(ctype.tag, members, packed=ctype.packed)
                rebuilt[id(ctype)] = new_struct
                return new_struct
            return ctype
        if isinstance(ctype, ArrayType):
            new_elem = rebuild(ctype.element)
            if new_elem is not ctype.element:
                return ArrayType(new_elem, ctype.length)
            return ctype
        return ctype

    for tag in list(decls.structs):
        decls.structs[tag] = rebuild(decls.structs[tag])
    for name in list(decls.variables):
        decls.variables[name] = rebuild(decls.variables[name])


def _section_variables(decls: DeclarationSet) -> Dict[str, CType]:
    """Variables a section declares, with bare struct tags counting as
    variables of their own type (the rule-file convention)."""
    variables: Dict[str, CType] = dict(decls.variables)
    for tag, ctype in decls.structs.items():
        variables.setdefault(tag, ctype)
    return variables


def _build_rule(
    in_section: _Section,
    out_section: _Section,
    inject_section: Optional[_Section],
) -> Rule:
    # -- preprocess ----------------------------------------------------------
    in_text, in_defines = _extract_defines(in_section.text)
    try:
        in_text, alias = _extract_alias(in_text)
    except RuleError as exc:
        raise _at_line(exc, in_section.line) from None
    out_text, out_defines = _extract_defines(out_section.text)
    out_text, pointer_members = _extract_pointer_members(out_text)
    try:
        out_text, formulas = _extract_formulas(out_text)
    except RuleError as exc:
        raise _at_line(exc, out_section.line) from None
    defines = {**in_defines, **out_defines}
    inject = (
        _parse_inject(inject_section.text, inject_section)
        if inject_section
        else []
    )

    try:
        in_decls = parse_declarations(in_text)
    except DeclarationSyntaxError as exc:
        raise RuleError(
            f"rule declarations failed to parse: {exc}",
            line=in_section.at(exc.line),
            code="TDST002",
        ) from exc
    try:
        out_decls = parse_declarations(out_text, registry=dict(in_decls.structs))
    except DeclarationSyntaxError as exc:
        raise RuleError(
            f"rule declarations failed to parse: {exc}",
            line=out_section.at(exc.line),
            code="TDST002",
        ) from exc
    _retype_pointer_members(out_decls, pointer_members)

    in_vars = _section_variables(in_decls)
    out_vars = _section_variables(out_decls)

    # -- stride rule (T3) ------------------------------------------------------
    if alias is not None:
        in_candidates = [
            (name, ctype)
            for name, ctype in in_decls.variables.items()
        ] or list(in_vars.items())
        if len(in_candidates) != 1:
            raise RuleError(
                "stride rule needs exactly one in array",
                line=in_section.line,
                code="TDST006",
            )
        in_name, in_type = in_candidates[0]
        if alias not in out_vars:
            raise RuleError(
                f"stride alias target {alias!r} not declared in out section",
                line=out_section.line,
                code="TDST006",
            )
        out_type = out_vars[alias]
        if not isinstance(out_type, ArrayType):
            raise RuleError(
                f"stride out {alias!r} must be an array",
                line=out_section.line,
                code="TDST006",
            )
        formula_text = formulas.get(alias)
        if formula_text is None:
            raise RuleError(
                f"stride out {alias!r} has no index formula",
                line=out_section.line,
                code="TDST006",
            )
        # FormulaError is a ReproError but not a RuleError; re-raise as
        # one so the collector (and lint) can position and code it.  The
        # formula is also *evaluated* here (range/injectivity proofs in
        # StrideRule), so division-by-zero-style errors surface too.
        try:
            formula = IndexFormula(formula_text, constants=defines)
            return StrideRule(
                in_name,
                in_type,
                alias,
                out_type.length,
                formula,
                inject=inject,
            )
        except FormulaError as exc:
            raise RuleError(
                str(exc), line=out_section.line, code="TDST003"
            ) from exc

    if inject:
        raise RuleError(
            "inject: sections are only valid for stride rules",
            line=inject_section.line if inject_section else None,
            code="TDST004",
        )

    # -- outline rule (T2) --------------------------------------------------------
    if pointer_members:
        if len(pointer_members) != 1:
            raise RuleError("exactly one pointer member is supported per rule")
        ptr_name, storage_name = next(iter(pointer_members.items()))
        # The outer out struct is the one containing the pointer member.
        outer_candidates = [
            (name, ctype)
            for name, ctype in out_vars.items()
            if _struct_elem(ctype) is not None
            and any(
                f.name == ptr_name and isinstance(f.ctype, PointerType)
                for f in _struct_elem(ctype).fields
            )
        ]
        if len(outer_candidates) != 1:
            raise RuleError(
                "could not identify the outer out struct with the pointer member",
                line=out_section.line,
                code="TDST005",
            )
        out_name, out_type = outer_candidates[0]
        if storage_name not in out_vars:
            raise RuleError(
                f"pointer target {storage_name!r} not declared in out section",
                line=out_section.line,
                code="TDST005",
            )
        storage_type = out_vars[storage_name]
        # The in variable is the outer in struct: the one that has the
        # outlined member (the deepest struct is declared first, the outer
        # one last — the paper's bottom-up convention).
        inner_candidates = [
            (name, ctype)
            for name, ctype in in_vars.items()
            if _struct_elem(ctype) is not None
            and any(f.name == ptr_name for f in _struct_elem(ctype).fields)
        ]
        if len(inner_candidates) == 1:
            in_name, in_type = inner_candidates[0]
            return OutlineRule(
                in_name,
                in_type,
                out_name,
                out_type,
                storage_name,
                storage_type,
                ptr_name,
            )
        # No in struct nests the pointer member: this is a *flat* hot/cold
        # split — cold fields are direct members moved into the storage
        # struct (the advisor-generated shape).
        flat_candidates = [
            (name, ctype)
            for name, ctype in in_vars.items()
            if _struct_elem(ctype) is not None
            and name not in (out_name, storage_name)
        ]
        if len(flat_candidates) != 1:
            raise RuleError(
                f"could not identify the in struct for pointer member "
                f"{ptr_name!r}",
                line=in_section.line,
                code="TDST005",
            )
        in_name, in_type = flat_candidates[0]
        return HotColdSplitRule(
            in_name,
            in_type,
            out_name,
            out_type,
            storage_name,
            storage_type,
            ptr_name,
        )

    # -- layout rule (T1) -----------------------------------------------------------
    in_items = _principal_variable(in_vars, in_decls)
    out_items = _principal_variable(out_vars, out_decls)
    in_name, in_type = in_items
    out_name, out_type = out_items
    return LayoutRule(in_name, in_type, out_name, out_type)


def _struct_elem(ctype: CType) -> Optional[StructType]:
    if isinstance(ctype, ArrayType) and isinstance(ctype.element, StructType):
        return ctype.element
    if isinstance(ctype, StructType):
        return ctype
    return None


def _principal_variable(
    variables: Dict[str, CType], decls: DeclarationSet
) -> Tuple[str, CType]:
    """The single variable a layout section talks about.

    Prefer explicitly declared variables (arrayed structs); fall back to
    the last struct tag (inner helper structs are declared first).
    """
    if len(decls.variables) == 1:
        return next(iter(decls.variables.items()))
    if decls.variables:
        raise RuleError(
            f"layout section declares multiple variables: {sorted(decls.variables)}",
            code="TDST005",
        )
    if not decls.structs:
        raise RuleError("layout section declares nothing", code="TDST005")
    tag = list(decls.structs)[-1]
    return tag, decls.structs[tag]


def parse_rules_collect(source: str) -> Tuple[RuleSet, List[RuleError]]:
    """Parse a rule file's text, collecting *every* problem.

    Returns the rules that did parse plus the list of :class:`RuleError`
    instances (one per broken rule/section, each carrying ``line`` and
    ``code`` when known).  This is the multi-diagnostic entry point the
    ``tdst lint`` pass and :func:`parse_rules` share; a broken rule never
    hides problems in the rules after it.
    """
    from repro.transform.displace import parse_displacements
    from repro.transform.dynamic import parse_pool_rules

    errors: List[RuleError] = []
    rules = RuleSet()
    try:
        sections = _split_sections(source)
    except RuleError as exc:
        return rules, [exc]

    def add_rule(rule: Rule, section: _Section) -> None:
        if rule.source_line is None:
            rule.source_line = section.line
        try:
            rules.add(rule)
        except RuleError as exc:
            errors.append(_at_line(exc, section.line))

    i = 0
    while i < len(sections):
        section = sections[i]
        kind = section.kind
        if kind in ("displace", "pool", "tile"):
            if kind == "displace":
                parser = parse_displacements
            elif kind == "pool":
                parser = parse_pool_rules
            else:
                from repro.transform.tile import parse_tile_rules

                parser = parse_tile_rules
            try:
                for rule in parser(section.text):
                    add_rule(rule, section)
            except RuleError as exc:
                errors.append(_at_line(exc, section.line))
            i += 1
            continue
        if kind != "in":
            errors.append(
                RuleError(
                    f"expected 'in:' section, found '{kind}:'",
                    line=section.line,
                    code="TDST001",
                )
            )
            i += 1
            continue
        if i + 1 >= len(sections) or sections[i + 1].kind != "out":
            errors.append(
                RuleError(
                    "every 'in:' section needs a following 'out:'",
                    line=section.line,
                    code="TDST001",
                )
            )
            i += 1
            continue
        in_section = sections[i]
        out_section = sections[i + 1]
        inject_section = None
        i += 2
        if i < len(sections) and sections[i].kind == "inject":
            inject_section = sections[i]
            i += 1
        try:
            rule = _build_rule(in_section, out_section, inject_section)
        except RuleError as exc:
            errors.append(_at_line(exc, in_section.line))
            continue
        add_rule(rule, in_section)
    return rules, errors


def parse_rules(source: str) -> RuleSet:
    """Parse a rule file's text into a :class:`RuleSet`.

    All problems in the file are gathered before raising: a single
    problem raises its own :class:`RuleError`, several raise one
    :class:`RuleFileError` whose message (and ``errors`` attribute)
    lists every one.
    """
    rules, errors = parse_rules_collect(source)
    if len(errors) == 1:
        raise errors[0]
    if errors:
        raise RuleFileError(errors)
    return rules


def parse_rules_file(path: Union[str, Path]) -> RuleSet:
    """Parse a rule file from disk."""
    return parse_rules(Path(path).read_text(encoding="utf-8"))
