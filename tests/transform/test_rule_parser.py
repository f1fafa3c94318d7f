"""Unit tests for the rule-file parser (paper Listings 5, 8, 11).

The checked-in corpus under ``tests/data/rules`` (also consumed by the
fuzz harness as mutation seeds) pins the parser's accept/reject
behaviour: every ``valid/*.rules`` must parse, every ``bad/*.rules``
must raise a :class:`ReproError`.
"""

from pathlib import Path

import pytest

from repro.errors import ReproError, RuleError, RuleFileError
from repro.ctypes_model.path import Field, Index
from repro.transform.rule_parser import (
    parse_rules,
    parse_rules_collect,
    parse_rules_file,
)
from repro.transform.rules import LayoutRule, OutlineRule, StrideRule

RULE_CORPUS = Path(__file__).resolve().parent.parent / "data" / "rules"

LISTING5 = """
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
"""

LISTING8 = """
in:
struct mRarelyUsed {
    double mY;
    int mZ;
};
struct lS1 {
    int mFrequentlyUsed;
    struct mRarelyUsed;
}[16];
out:
struct lStorageForRarelyUsed {
    double mY;
    int mZ;
}[16];
struct lS2 {
    int mFrequentlyUsed;
    + mRarelyUsed:lStorageForRarelyUsed;
}[16];
"""

LISTING11 = """
in:
int lContiguousArray[1024]:lSetHashingArray;
out:
int lSetHashingArray[16384((lI/8)*(16*8)+(lI%8))];
inject:
L ITEMSPERLINE 4 x3
L lI 4 x2 existing
"""


class TestListing5:
    def test_parses_to_layout_rule(self):
        rules = parse_rules(LISTING5)
        assert len(rules) == 1
        rule = list(rules)[0]
        assert isinstance(rule, LayoutRule)
        assert rule.in_name == "lSoA"
        assert rule.out_names() == ("lAoS",)

    def test_mapping_works(self):
        rule = list(parse_rules(LISTING5))[0]
        tr = rule.translate((Field("mY"), Index(2)))
        assert tr.target.elements == (Index(2), Field("mY"))


class TestListing8:
    def test_parses_to_outline_rule(self):
        rules = parse_rules(LISTING8)
        rule = list(rules)[0]
        assert isinstance(rule, OutlineRule)
        assert rule.in_name == "lS1"
        assert set(rule.out_names()) == {"lS2", "lStorageForRarelyUsed"}
        assert rule.pointer_member == "mRarelyUsed"

    def test_pointer_member_layout(self):
        rule = list(parse_rules(LISTING8))[0]
        ptr = rule.out_elem.member("mRarelyUsed")
        assert ptr.ctype.size == 8
        assert ptr.offset == 8
        assert rule.out_elem.size == 16

    def test_cold_translation_through_parsed_rule(self):
        rule = list(parse_rules(LISTING8))[0]
        tr = rule.translate((Index(1), Field("mRarelyUsed"), Field("mY")))
        assert tr.target.alloc == "lStorageForRarelyUsed"
        assert len(tr.inserts) == 1


class TestListing11:
    def test_parses_to_stride_rule(self):
        rule = list(parse_rules(LISTING11))[0]
        assert isinstance(rule, StrideRule)
        assert rule.in_name == "lContiguousArray"
        assert rule.out_length == 16384
        assert rule.formula(8) == 128

    def test_inject_specs(self):
        rule = list(parse_rules(LISTING11))[0]
        assert len(rule.inject) == 2
        ipl, li = rule.inject
        assert (ipl.name, ipl.count, ipl.existing) == ("ITEMSPERLINE", 3, False)
        assert (li.name, li.count, li.existing) == ("lI", 2, True)

    def test_defines_feed_formula(self):
        text = """
in:
int a[8]:b;
out:
define K = 4
int b[32((i*K)%32)];
"""
        rule = list(parse_rules(text))[0]
        assert rule.formula(3) == 12


class TestMultiRuleFiles:
    def test_two_rules_in_one_file(self):
        rules = parse_rules(LISTING5 + LISTING11)
        assert len(rules) == 2
        kinds = {type(r) for r in rules}
        assert kinds == {LayoutRule, StrideRule}

    def test_file_loading(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(LISTING5)
        rules = parse_rules_file(path)
        assert len(rules) == 1


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "struct x { int a; };",  # no sections
            "in:\nstruct x { int a; };",  # missing out
            "out:\nstruct x { int a; };",  # out before in
            "in:\nint a[4]:b;\nout:\nint b[64];",  # stride without formula
            LISTING5 + "inject:\nL x 4",  # inject on layout rule
            "in:\nbroken {{{\nout:\nint b[4];",
            "in:\nint a[4]:b;\nout:\nint b[4((i*i]);",  # unbalanced
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(RuleError):
            parse_rules(bad)

    def test_bad_inject_line(self):
        text = LISTING11.replace("L ITEMSPERLINE 4 x3", "LOAD what")
        with pytest.raises(RuleError):
            parse_rules(text)

    def test_stride_alias_without_target(self):
        text = """
in:
int a[4]:missing;
out:
int b[64((i*2))];
"""
        with pytest.raises(RuleError):
            parse_rules(text)

    def test_noninjective_stride_formula(self):
        text = """
in:
int a[64]:b;
out:
int b[64((lI%8))];
"""
        with pytest.raises(RuleError, match="injective"):
            parse_rules(text)

    def test_rule_mapping_its_own_out_name(self):
        # Found by the rule fuzzer: a rule whose in variable equals one
        # of its out names never transforms anything (out names pass
        # through), silently producing an unsound layout claim.
        text = """
in:
struct lSame {
    int mX[8];
};
out:
struct lSame {
    int mX;
}[8];
"""
        with pytest.raises(RuleError, match="bi-directional"):
            parse_rules(text)


class TestCollectAndPositions:
    """parse_rules_collect reports every broken rule with its file line."""

    # Two broken rules (bad formula at out line, stride without formula)
    # sandwiched around one valid rule; the valid one must still parse.
    MIXED = (
        "in:\n"                      # 1
        "int lA[8]:lB;\n"            # 2
        "out:\n"                     # 3
        "int lB[64((lI*]);\n"        # 4  unbalanced formula
        + LISTING5                   # valid (starts with its own blank line)
        + "in:\n"
        "int lC[4]:lD;\n"
        "out:\n"
        "int lD[64];\n"              # stride alias but no formula
    )

    def test_all_problems_collected_with_good_rules_kept(self):
        rules, errors = parse_rules_collect(self.MIXED)
        assert len(rules) == 1  # the LISTING5 layout rule survived
        assert len(errors) == 2

    def test_errors_carry_file_lines_and_codes(self):
        _, errors = parse_rules_collect(self.MIXED)
        first, second = sorted(errors, key=lambda e: e.line or 0)
        assert first.line == 3  # anchored to the broken out: section
        assert first.code == "TDST003"
        assert second.code == "TDST006"

    def test_parse_rules_raises_rulefileerror_listing_all(self):
        with pytest.raises(RuleFileError) as excinfo:
            parse_rules(self.MIXED)
        exc = excinfo.value
        assert len(exc.errors) == 2
        assert "2 problems" in str(exc)

    def test_single_error_message_keeps_position(self):
        with pytest.raises(RuleError, match=r"line \d+"):
            parse_rules("in:\nint lA[4]:lB;\nout:\nint lB[4((lI*]);\n")

    def test_rules_remember_their_source_line(self):
        rules = parse_rules(LISTING5 + LISTING11)
        lines = {type(r).__name__: r.source_line for r in rules}
        # The section matcher absorbs the blank line before each in:,
        # so the first rule anchors at line 1 and the second after
        # LISTING5's eleven lines.
        assert lines["LayoutRule"] == 1
        assert lines["StrideRule"] == 12

    def test_collect_on_unsectioned_text_returns_one_error(self):
        rules, errors = parse_rules_collect("just some text\n")
        assert len(rules) == 0
        assert len(errors) == 1
        assert errors[0].code == "TDST001"
        assert errors[0].line == 1

    def test_leading_comments_are_allowed(self):
        rules = parse_rules("# header comment\n// another\n" + LISTING5)
        assert len(rules) == 1


class TestCorpus:
    """The checked-in rule corpus pins accept/reject behaviour."""

    def test_corpus_present(self):
        assert sorted((RULE_CORPUS / "valid").glob("*.rules"))
        assert sorted((RULE_CORPUS / "bad").glob("*.rules"))

    @pytest.mark.parametrize(
        "path",
        sorted((RULE_CORPUS / "valid").glob("*.rules")),
        ids=lambda p: p.stem,
    )
    def test_valid_corpus_parses(self, path):
        rules = parse_rules_file(path)
        assert len(rules) >= 1

    @pytest.mark.parametrize(
        "path",
        sorted((RULE_CORPUS / "bad").glob("*.rules")),
        ids=lambda p: p.stem,
    )
    def test_bad_corpus_rejected(self, path):
        with pytest.raises(ReproError):
            parse_rules_file(path)


POOL = """pool:
struct Node { int value; Node *next; };
objects node* : nodePool[8];
"""


def _summary(rules):
    """What a parsed rule set does: each rule's kind, name, allocations,
    injects, formula and pointer member."""
    return [
        (
            type(rule).__name__,
            rule.name,
            rule.in_name,
            rule.out_allocations(),
            getattr(rule, "inject", ()),
            getattr(getattr(rule, "formula", None), "text", None),
            getattr(rule, "pointer_member", None),
        )
        for rule in rules
    ]


def _with_line(text, before, line):
    """``text`` with ``line`` inserted before the first ``before``."""
    at = text.index(before)
    return text[:at] + line + text[at:]


class TestCommentedPrePassLines:
    """The pre-passes that scan a section before the declaration lexer
    (stride alias, index formula, pointer member, pool objects) skip
    comments, as the lexer does."""

    @pytest.mark.parametrize(
        "text, before, comment",
        [
            (LISTING11, "out:\n", "// int lOld[16]:lStride;\n"),
            (LISTING11, "inject:\n", "# int lOld[64((lI*4))];\n"),
            (LISTING8, "    + mRarelyUsed", "    /* + mOther:lElsewhere;\n    */\n"),
            (POOL, "objects", "// objects leaf* : leafPool[4];\n"),
        ],
        ids=["alias", "formula", "pointer-member", "objects"],
    )
    def test_commented_line_changes_nothing(self, text, before, comment):
        commented = _with_line(text, before, comment)
        assert _summary(parse_rules(commented)) == _summary(parse_rules(text))

    def test_define_is_kept_and_a_commented_define_is_not(self):
        text = LISTING11.replace("8)*(16*8)+(lI%8)", "W)*(16*W)+(lI%W)")
        commented = _with_line(text, "int lSetHashingArray", "#define W 8\n// #define W 2\n")
        (rule,) = parse_rules(commented)
        assert rule.formula(9) == (9 // 8) * 128 + 9 % 8
