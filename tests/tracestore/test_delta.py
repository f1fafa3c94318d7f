"""Static rule-edit delta: soundness of the chunk-reuse proof."""

import pytest

from repro.cache.config import CacheConfig
from repro.tracestore import rule_delta

pytestmark = pytest.mark.tracestore


def soa_rule(name, out, n=16):
    return (
        f"in:\nstruct {name} {{\n    int mX[{n}];\n    double mY[{n}];\n}};\n"
        f"out:\nstruct {out} {{\n    int mX;\n    double mY;\n}}[{n}];\n"
    )


TWO_RULES = soa_rule("lA", "lAoS") + soa_rule("lB", "lBoS")

POOL_RULE = """
pool:
struct Node { int value; Node *next; };
objects node* : nodePool[64];
"""

EXISTING_INJECT = """in:
int lContiguousArray[1024]:lSetHashingArray;
out:
int lSetHashingArray[16384((lI/8)*(16*8)+(lI%8))];
inject:
L ITEMSPERLINE 4 x3
L lI 4 x2 existing
"""


class TestExactDeltas:
    def test_identical_text_changes_nothing(self):
        d = rule_delta(TWO_RULES, TWO_RULES)
        assert not d.conservative
        assert d.changed == frozenset()
        assert not d.affects(["lA", "lB", "anything"])

    def test_editing_second_rule_spares_first(self):
        edited = soa_rule("lA", "lAoS") + soa_rule("lB", "lB2")
        d = rule_delta(TWO_RULES, edited)
        assert not d.conservative
        assert "lB" in d.changed and "lBoS" in d.changed and "lB2" in d.changed
        assert not d.affects(["lA", "lAoS"])
        assert d.affects(["lB"])
        assert d.modified == ("lB",)

    def test_editing_first_rule_shifts_second_allocation(self):
        # Growing lA's output moves the arena cursor, so lB's textually
        # identical rule now allocates at a different base: its records
        # transform to different addresses and it MUST count as changed.
        edited = soa_rule("lA", "lAoS", n=32) + soa_rule("lB", "lBoS")
        d = rule_delta(TWO_RULES, edited)
        assert not d.conservative
        assert d.affects(["lA"])
        assert d.affects(["lB"]), "allocation shift must mark lB changed"

    def test_added_and_removed_rules(self):
        d = rule_delta(soa_rule("lA", "lAoS"), TWO_RULES)
        assert d.added == ("lB",)
        assert d.affects(["lB"])
        assert not d.affects(["lA"])
        d = rule_delta(TWO_RULES, soa_rule("lA", "lAoS"))
        assert d.removed == ("lB",)
        assert d.affects(["lBoS"])

    def test_out_name_flip_is_tracked(self):
        # A variable that stops being a rule output flips how the
        # engine treats records already carrying that name.
        edited = soa_rule("lA", "lAoS") + soa_rule("lB", "lOther")
        d = rule_delta(TWO_RULES, edited)
        assert "lBoS" in d.changed and "lOther" in d.changed

    def test_affected_sets_are_bounded(self):
        edited = soa_rule("lA", "lAoS") + soa_rule("lB", "lB2")
        d = rule_delta(TWO_RULES, edited)
        config = CacheConfig(size=4096, block_size=32, associativity=2)
        sets = d.affected_sets(config)
        assert sets is not None
        assert sets  # the changed allocation touches some sets
        assert all(0 <= s < config.n_sets for s in sets)
        fps = d.affected_footprints(config)
        assert "lB2" in fps or "lBoS" in fps


class TestCommentEdits:
    """Blank lines and whole-line comments, which the parsers skip,
    change no rule."""

    @pytest.mark.parametrize(
        "suffix", ["# tuning note\n", "\n", "// note\n\n  # indented\n"]
    )
    def test_appended_comment_or_blank_line_changes_nothing(self, suffix):
        d = rule_delta(TWO_RULES, TWO_RULES + suffix)
        assert not d.conservative
        assert d.changed == frozenset()
        assert d.modified == ()

    def test_comment_between_rules_changes_nothing(self):
        edited = (
            soa_rule("lA", "lAoS") + "\n# lB follows\n" + soa_rule("lB", "lBoS")
        )
        d = rule_delta(TWO_RULES, edited)
        assert d.changed == frozenset()

    def test_member_type_change_beside_a_comment_is_modified(self):
        edited = (
            soa_rule("lA", "lAoS")
            + soa_rule("lB", "lBoS").replace("int mX", "long mX")
            + "# tuning note\n"
        )
        d = rule_delta(TWO_RULES, edited)
        assert not d.conservative
        assert d.modified == ("lB",)
        assert d.affects(["lB"]) and not d.affects(["lA"])

    @pytest.mark.parametrize("comment", ["# end */\n"])
    def test_comment_a_pre_pass_could_read_is_compared(self, comment):
        d = rule_delta(TWO_RULES, TWO_RULES + comment)
        assert not d.conservative
        assert d.modified == ("lB",)

    def test_bracket_comment_changes_nothing(self):
        # The rule parser blanks comments before its pre-passes, so a
        # commented-out alias or formula cannot change a rule.
        d = rule_delta(TWO_RULES, TWO_RULES + "// see mX[0]\n")
        assert not d.conservative
        assert d.changed == frozenset()
        assert d.modified == ()

    def test_define_line_is_not_a_comment(self):
        rule = (
            "in:\nint lA[1024]:lH;\nout:\n#define W {w}\n"
            "int lH[16384((lI/W)*(16*W)+(lI%W))];\n"
        )
        d = rule_delta(rule.format(w=8), rule.format(w=16))
        assert not d.conservative
        assert d.modified == ("lA",)

    def test_apply_rules_reuses_every_chunk(self, tmp_path):
        from repro.ctypes_model.path import VariablePath
        from repro.trace.record import AccessType, TraceRecord
        from repro.trace.stream import Trace
        from repro.tracestore import TraceStore, apply_rules

        records = [
            TraceRecord(
                op=AccessType.LOAD, addr=0x1000 + 4 * i, size=4, func="main",
                scope="GS", var=VariablePath.parse(f"{name}.mX[0]"),
            )
            for name in ("lA", "lB")
            for i in range(16)
        ]
        store = TraceStore(tmp_path / "ts")
        base = store.commit_trace(Trace(records), chunk_records=8)
        first = apply_rules(store, base, TWO_RULES)
        again = apply_rules(
            store, base, TWO_RULES + "\n# tuning note\n", prev=first.commit
        )
        assert again.delta.changed == frozenset()
        assert again.chunks_transformed == 0
        assert again.chunks_reused == again.chunks_total == 4

    def test_bracket_comment_reuses_every_chunk(self, tmp_path):
        from repro.ctypes_model.path import VariablePath
        from repro.trace.record import AccessType, TraceRecord
        from repro.trace.stream import Trace
        from repro.tracestore import TraceStore, apply_rules

        records = [
            TraceRecord(
                op=AccessType.LOAD, addr=0x1000 + 4 * i, size=4, func="main",
                scope="GS", var=VariablePath.parse(f"{name}.mX[{i}]"),
            )
            for name in ("lA", "lB")
            for i in range(16)
        ]
        store = TraceStore(tmp_path / "ts")
        base = store.commit_trace(Trace(records), chunk_records=8)
        first = apply_rules(store, base, TWO_RULES)
        edited = TWO_RULES.replace("out:", "// int lOld[16]:lStride;\nout:", 1)
        again = apply_rules(store, base, edited, prev=first.commit)
        assert again.delta.changed == frozenset()
        assert again.chunks_transformed == 0
        assert again.chunks_reused == again.chunks_total == 4


class TestConservativeDegradation:
    def test_unparseable_text(self):
        d = rule_delta(TWO_RULES, "in:\nthis is not a rule file")
        assert d.conservative
        assert d.affects(["anything"])
        assert d.affected_sets(CacheConfig(size=1024, block_size=32)) is None

    def test_pattern_rules_old_side(self):
        d = rule_delta(POOL_RULE, TWO_RULES)
        assert d.conservative
        assert "pattern" in d.reason

    def test_pattern_rules_new_side(self):
        d = rule_delta(TWO_RULES, POOL_RULE)
        assert d.conservative

    def test_existing_injects(self):
        edited = EXISTING_INJECT.replace("x2", "x4")
        d = rule_delta(EXISTING_INJECT, edited)
        assert d.conservative
        assert "existing" in d.reason


class TestReorderEquivalence:
    """Reordered-but-equivalent files: the commutation proof's delta side."""

    def test_displacement_reorder_changes_nothing(self):
        # Displacements allocate nothing, so any order plans the same
        # (empty) base map: the delta proves the reorder free.
        a = "displace:\nlA + 4096\n"
        b = "displace:\nlB + 64\n"
        d = rule_delta(a + b, b + a)
        assert not d.conservative
        assert d.changed == frozenset()
        assert "reordered" in d.reason
        assert not d.affects(["lA", "lB"])

    def test_reorder_reason_matches_chain_prover(self):
        from repro.lint.cost import prove_reorder

        a = "displace:\nlA + 4096\n"
        b = "displace:\nlB + 64\n"
        proof = prove_reorder(a + b, b + a)
        assert proof.holds
        assert "reordered" in proof.reason

    def test_base_shifting_reorder_still_counts_as_changed(self):
        swapped = soa_rule("lB", "lBoS") + soa_rule("lA", "lAoS")
        d = rule_delta(TWO_RULES, swapped)
        assert d.changed, "swapping allocating rules moves both bases"
        assert "reordered" not in d.reason
