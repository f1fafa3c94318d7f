"""The paper's three rule files (Listings 5, 8, 11) as reusable text.

Each constant is a rule-file source parameterised by array length through
``.format(...)``; the ``paper_rule`` helper builds the parsed
:class:`~repro.transform.rules.RuleSet` directly.

Listing fidelity notes:

- Listing 5 / 8 are reproduced as printed (modulo the ``l``/``1``
  typesetting of variable names and Listing 8's storage member types,
  which the paper prints as ``int mY; double mZ;`` although the original
  struct declares ``double mY; int mZ;`` — the mapping is by name, so we
  keep the original types).
- Listing 11's formula ``256((1/8)*(16*8)+(1%8))`` is interpreted with
  ``lI`` as the index variable and multiplication in the first term (the
  text's 64 KiB size computation confirms ``*``); the injected
  index-arithmetic loads the authors "hand forced" are expressed with an
  explicit ``inject:`` section.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.transform.rules import RuleSet

#: T1 — structure of arrays -> array of structures (Listing 5).
RULE_T1_SOA_TO_AOS = """\
in:
struct lSoA {{
    int mX[{length}];
    double mY[{length}];
}};
out:
struct lAoS {{
    int mX;
    double mY;
}}[{length}];
"""

#: T2 — nested structure -> indirect storage pool (Listing 8).
RULE_T2_OUTLINE = """\
in:
struct mRarelyUsed {{
    double mY;
    int mZ;
}};
struct lS1 {{
    int mFrequentlyUsed;
    struct mRarelyUsed;
}}[{length}];
out:
struct lStorageForRarelyUsed {{
    double mY;
    int mZ;
}}[{length}];
struct lS2 {{
    int mFrequentlyUsed;
    + mRarelyUsed:lStorageForRarelyUsed;
}}[{length}];
"""

#: T3 — contiguous array -> set-pinning stride (Listing 11).
#: ``out_length = length * sets``; the formula uses the paper's constants
#: (ITEMSPERLINE = 8 for 32-byte lines of ints, SETS = 16).
RULE_T3_STRIDE = """\
in:
int lContiguousArray[{length}]:lSetHashingArray;
out:
int lSetHashingArray[{out_length}((lI/{ipl})*({sets}*{ipl})+(lI%{ipl}))];
inject:
L ITEMSPERLINE 4 x3
L lI 4 x2 existing
"""


def _parsed(text: str) -> RuleSet:
    # Imported on use: campaign planning reads the texts above and
    # never parses them.
    from repro.transform.rule_parser import parse_rules

    return parse_rules(text)


def rule_t1(length: int = 16) -> RuleSet:
    """Parsed Listing 5 rule for arrays of ``length`` elements."""
    return _parsed(RULE_T1_SOA_TO_AOS.format(length=length))


def rule_t2(length: int = 16) -> RuleSet:
    """Parsed Listing 8 rule for arrays of ``length`` elements."""
    return _parsed(RULE_T2_OUTLINE.format(length=length))


def rule_t3(length: int = 1024, *, sets: int = 16, cacheline: int = 32) -> RuleSet:
    """Parsed Listing 11 rule (ITEMSPERLINE derived from the line size)."""
    ipl = cacheline // 4
    return _parsed(
        RULE_T3_STRIDE.format(
            length=length, out_length=length * sets, ipl=ipl, sets=sets
        )
    )


def paper_rule(name: str, length: int = 16) -> RuleSet:
    """Rule set by transformation name: ``"t1"``, ``"t2"``, ``"t3"``."""
    factories = {"t1": rule_t1, "t2": rule_t2, "t3": rule_t3}
    try:
        factory = factories[name.lower()]
    except KeyError:
        raise KeyError(f"unknown rule {name!r}; choose t1, t2 or t3") from None
    return factory(length)
