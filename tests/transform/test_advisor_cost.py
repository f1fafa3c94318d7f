"""Cost-model-driven advisor: candidate generation, pruning, soundness."""

import pytest

from repro.cache.config import CacheConfig
from repro.ctypes_model.types import ArrayType, DOUBLE, INT, StructType
from repro.lint import lint_rules_text
from repro.tracer.expr import Const, V
from repro.tracer.interp import trace_program
from repro.tracer.program import Function, Program
from repro.tracer.stmt import (
    Assign,
    AugAssign,
    DeclLocal,
    StartInstrumentation,
    simple_for,
)
from repro.transform.advisor import (
    advise,
    generate_candidates,
    rank_candidates,
)
from repro.transform.rules import RuleSet

pytestmark = pytest.mark.cost

N = 64


def particle_layout():
    return ArrayType(
        StructType(
            "parts",
            [
                ("x", DOUBLE),
                ("vx", DOUBLE),
                ("mass", DOUBLE),
                ("charge", DOUBLE),
                ("id", INT),
            ],
        ),
        N,
    )


@pytest.fixture(scope="module")
def hot_cold_trace():
    layout = particle_layout()
    body = [
        DeclLocal("parts", layout),
        DeclLocal("i", INT),
        StartInstrumentation(),
        *simple_for(
            "i",
            0,
            N,
            [
                AugAssign(
                    V("parts")[V("i")].fld("x"),
                    "+",
                    V("parts")[V("i")].fld("vx"),
                )
            ],
        ),
        *simple_for("i", 0, 4, [Assign(V("parts")[V("i")].fld("mass"), V("i"))]),
    ]
    program = Program()
    program.add_function(Function("main", body=body))
    return list(trace_program(program))


@pytest.fixture(scope="module")
def config():
    return CacheConfig.paper_direct_mapped()


class TestGeneration:
    def test_identity_always_present(self, hot_cold_trace):
        candidates = generate_candidates(
            hot_cold_trace, "parts", particle_layout()
        )
        assert any(c.is_identity for c in candidates)
        assert len(candidates) >= 2

    def test_no_duplicate_rule_texts(self, hot_cold_trace):
        candidates = generate_candidates(
            hot_cold_trace, "parts", particle_layout()
        )
        texts = [c.rule_text for c in candidates if c.rule_text]
        assert len(texts) == len(set(texts))

    def test_every_candidate_passes_the_prover(self, hot_cold_trace):
        # The property the issue demands: advice never includes a rule
        # file the symbolic prover rejects.
        candidates = generate_candidates(
            hot_cold_trace, "parts", particle_layout()
        )
        for c in candidates:
            if c.is_identity:
                continue
            assert lint_rules_text(c.rule_text).ok, c.label


class TestRanking:
    def test_deterministic_golden_ranking(self, hot_cold_trace, config):
        # Same inputs, same ranking, twice — and the split candidate
        # wins on this hot/cold trace (the paper's T2 scenario).
        first = advise(hot_cold_trace, "parts", particle_layout(), config)
        second = advise(hot_cold_trace, "parts", particle_layout(), config)
        assert [r.candidate.label for r in first.ranked] == [
            r.candidate.label for r in second.ranked
        ]
        assert first.top is not None
        assert first.top.candidate.label.startswith("split")
        assert first.top.misses is not None

    def test_prune_preserves_top1(self, hot_cold_trace, config):
        pruned = advise(hot_cold_trace, "parts", particle_layout(), config)
        full = advise(
            hot_cold_trace, "parts", particle_layout(), config, prune=False
        )
        assert pruned.top.candidate.label == full.top.candidate.label
        assert pruned.top.misses == full.top.misses

    def test_prune_skips_simulations(self, hot_cold_trace, config):
        pruned = advise(hot_cold_trace, "parts", particle_layout(), config)
        full = advise(
            hot_cold_trace, "parts", particle_layout(), config, prune=False
        )
        assert pruned.skipped > 0
        assert pruned.simulations < full.simulations
        assert full.skipped == 0

    def test_pruned_entries_carry_their_reason(self, hot_cold_trace, config):
        report = advise(hot_cold_trace, "parts", particle_layout(), config)
        for entry in report.ranked:
            if not entry.simulated:
                assert entry.pruned_by
                assert entry.interval is not None

    def test_never_recommends_prover_rejected_rule(
        self, hot_cold_trace, config
    ):
        report = advise(hot_cold_trace, "parts", particle_layout(), config)
        top = report.top
        if not top.candidate.is_identity:
            assert lint_rules_text(top.candidate.rule_text).ok

    def test_intervals_contain_simulated_counts(self, hot_cold_trace, config):
        report = advise(
            hot_cold_trace, "parts", particle_layout(), config, prune=False
        )
        for entry in report.ranked:
            if entry.simulated and entry.interval is not None:
                assert entry.interval.contains(entry.misses)

    def test_lines_render(self, hot_cold_trace, config):
        report = advise(hot_cold_trace, "parts", particle_layout(), config)
        text = "\n".join(report.lines())
        assert "identity" in text
        assert str(report.top.misses) in text

    def test_rank_candidates_accepts_identity_only(
        self, hot_cold_trace, config
    ):
        from repro.transform.advisor import Candidate

        report = rank_candidates(
            hot_cold_trace,
            [Candidate(label="identity", rule_text="", source="identity")],
            config,
        )
        assert report.top.candidate.is_identity
        assert report.top.simulated


class TestAdviseCli:
    @pytest.fixture
    def advise_inputs(self, tmp_path, hot_cold_trace):
        from repro.trace.format import write_trace

        trace_path = tmp_path / "t.out"
        write_trace(hot_cold_trace, trace_path)
        layout_file = tmp_path / "layout.h"
        layout_file.write_text(
            "struct parts { double x; double vx; double mass; "
            "double charge; int id; }[64];"
        )
        return trace_path, layout_file

    def test_ranked_candidates_printed(self, advise_inputs, capsys):
        from repro.cli import main

        trace_path, layout_file = advise_inputs
        assert main(["advise", str(trace_path), str(layout_file), "parts"]) == 0
        out = capsys.readouterr().out
        assert "ranked candidates" in out
        assert "identity" in out

    def test_rules_out_writes_winner(self, advise_inputs, tmp_path, capsys):
        from repro.cli import main
        from repro.transform.rule_parser import parse_rules

        trace_path, layout_file = advise_inputs
        rules_out = tmp_path / "win.rules"
        assert (
            main(
                [
                    "advise", str(trace_path), str(layout_file), "parts",
                    "--rules-out", str(rules_out),
                ]
            )
            == 0
        )
        assert rules_out.exists()
        assert len(parse_rules(rules_out.read_text())) >= 1
