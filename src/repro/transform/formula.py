"""Index formulas for stride rules (T3).

The paper's Listing 11 rule embeds the stride computation in the out
declaration::

    int lSetHashingArray[256((lI/8)*(16*8)+(lI%8))];

The parenthesised expression maps the original element index to the new
element index.  :class:`IndexFormula` parses and evaluates that expression
with C integer semantics (``/`` truncates, ``%`` keeps the dividend's
sign).  The free variable (``lI`` above — any identifier not bound as a
constant) denotes the original index; named constants can be supplied via
``define NAME=VALUE`` lines in the rule file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ReproError


class FormulaError(ReproError):
    """A stride formula failed to parse or evaluate."""


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_$][A-Za-z0-9_$]*)|([-+*/%()]))")


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise FormulaError("division by zero in stride formula")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        raise FormulaError("modulo by zero in stride formula")
    return a - b * _c_div(a, b)


@dataclass(frozen=True)
class _Node:
    """AST node: op in {num, var, +, -, *, /, %, neg}."""

    op: str
    value: int = 0
    name: str = ""
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None


class IndexFormula:
    """A parsed index-mapping expression.

    Parameters
    ----------
    text:
        The formula source, e.g. ``(lI/8)*(16*8)+(lI%8)``.
    constants:
        Named constants usable in the formula.  Exactly one identifier
        must remain unbound — it becomes the index variable.  If *no*
        identifier appears the formula is constant (allowed but odd).
    """

    def __init__(self, text: str, constants: Optional[Mapping[str, int]] = None):
        self.text = text.strip()
        self.constants: Dict[str, int] = dict(constants or {})
        self._root, names = _parse(self.text)
        free = [n for n in names if n not in self.constants]
        if len(set(free)) > 1:
            raise FormulaError(
                f"formula {self.text!r} has multiple free variables: {sorted(set(free))}"
            )
        self.index_name: str = free[0] if free else "i"
        self._images: Dict[int, Tuple[int, ...]] = {}

    def __call__(self, index: int) -> int:
        """Map an original element index to the transformed index."""
        return self._eval(self._root, index)

    def _eval(self, node: _Node, index: int) -> int:
        if node.op == "num":
            return node.value
        if node.op == "var":
            if node.name in self.constants:
                return self.constants[node.name]
            return index
        if node.op == "neg":
            return -self._eval(node.left, index)
        a = self._eval(node.left, index)
        b = self._eval(node.right, index)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return _c_div(a, b)
        if node.op == "%":
            return _c_mod(a, b)
        raise FormulaError(f"unknown operator {node.op!r}")  # pragma: no cover

    def image(self, n: int) -> Tuple[int, ...]:
        """The formula applied to ``0..n-1`` (for range validation, and
        the table a stride rule gathers its rows from); computed once
        per ``n``."""
        image = self._images.get(n)
        if image is None:
            image = self._images[n] = tuple(self(i) for i in range(n))
        return image

    def max_index(self, n: int) -> int:
        """Largest transformed index over original indices ``0..n-1``."""
        return max(self.image(n)) if n else 0

    def is_injective(self, n: int) -> bool:
        """True when indices ``0..n-1`` map to distinct targets."""
        img = self.image(n)
        return len(set(img)) == len(img)

    def __repr__(self) -> str:
        return f"IndexFormula({self.text!r}, index={self.index_name!r})"


def _parse(text: str) -> Tuple[_Node, Tuple[str, ...]]:
    tokens: list[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise FormulaError(f"bad character in formula at {text[pos:]!r}")
        if m.group(1):
            tokens.append(("num", m.group(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2)))
        elif m.group(3):
            tokens.append(("punct", m.group(3)))
        pos = m.end()
    names: list[str] = [t for k, t in tokens if k == "var"]

    idx = 0

    def peek() -> Optional[Tuple[str, str]]:
        return tokens[idx] if idx < len(tokens) else None

    def take() -> Tuple[str, str]:
        nonlocal idx
        if idx >= len(tokens):
            raise FormulaError(f"unexpected end of formula {text!r}")
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_primary() -> _Node:
        kind, val = take()
        if kind == "num":
            return _Node("num", value=int(val))
        if kind == "var":
            return _Node("var", name=val)
        if val == "(":
            node = parse_add()
            kind2, val2 = take()
            if val2 != ")":
                raise FormulaError(f"expected ')' in formula {text!r}")
            return node
        if val == "-":
            return _Node("neg", left=parse_primary())
        raise FormulaError(f"unexpected token {val!r} in formula {text!r}")

    def parse_mul() -> _Node:
        node = parse_primary()
        while True:
            nxt = peek()
            if nxt and nxt[1] in ("*", "/", "%"):
                _, op = take()
                node = _Node(op, left=node, right=parse_primary())
            # Implicit multiplication `256(expr)` is NOT folded in: the
            # rule parser splits the array length from the formula before
            # this parser sees the text.
            else:
                return node

    def parse_add() -> _Node:
        node = parse_mul()
        while True:
            nxt = peek()
            if nxt and nxt[1] in ("+", "-"):
                _, op = take()
                node = _Node(op, left=node, right=parse_mul())
            else:
                return node

    root = parse_add()
    if idx != len(tokens):
        raise FormulaError(f"trailing tokens in formula {text!r}")
    return root, tuple(names)
