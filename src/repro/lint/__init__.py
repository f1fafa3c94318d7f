"""Static analysis of the three declarative inputs — no trace needed.

``tdst lint`` (and the mandatory campaign pre-flight) prove or refute
rule validity, layout legality and T3 set-pinning effects *before* a
single trace record is generated — the paper explores layouts without
recompiling; this pass explores rule files without replaying:

- :mod:`~repro.lint.diagnostics` — stable ``TDSTnnn`` codes, severity,
  source span, fix-it hints (see ``docs/LINTING.md`` for the catalogue);
- :mod:`~repro.lint.emit` — text / JSON / SARIF 2.1.0 renderers;
- :mod:`~repro.lint.rules_lint` — rule files: collected parse errors,
  dead/shadowed rules, program-model cross-check, and the symbolic
  layout proof establishing the dynamic oracle's invariants
  (injective, in-bounds, non-overlapping, ABI-aligned) over the whole
  element domain;
- :mod:`~repro.lint.layout_lint` — declaration files: padding and
  alignment feedback;
- :mod:`~repro.lint.spec_lint` — campaign TOML: structure, cache
  geometry, dangling ``file:`` refs, duplicate grid points;
- :mod:`~repro.lint.setconflict` — static cache-set footprints,
  T3 pinning prediction and pairwise conflict warnings;
- :mod:`~repro.lint.cost` — the static cost model: sound miss-count
  intervals per cache geometry from a one-pass trace digest, plus
  rule-chain proofs (commutativity, idempotence, domination) —
  ``tdst lint --cost --trace <t>`` and the advisor's pruning pass;
- :mod:`~repro.lint.runner` — kind dispatch and multi-file runs.
"""

from repro._lazy import lazy_exports

# Bound at import, not on first read, so that wrappers patching the
# package attribute when it is imported (the e2e benchmark's
# ``lint.preflight`` span) find it; it loads no rule or cost machinery.
from repro.lint.spec_lint import lint_spec_text

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lint.cost": (
            "ChainProof",
            "CostReport",
            "MissInterval",
            "evaluate_rules",
            "lint_cost",
        ),
        "repro.lint.diagnostics": (
            "CODES",
            "Diagnostic",
            "LintReport",
            "from_rule_error",
            "summarize",
        ),
        "repro.lint.emit": (
            "render",
            "render_text",
            "to_json",
            "to_sarif",
            "write_report",
        ),
        "repro.lint.layout_lint": ("lint_layout_text", "packed_size", "struct_padding"),
        "repro.lint.rules_lint": ("lint_rules_text",),
        "repro.lint.runner": ("detect_kind", "lint_file", "lint_paths"),
        "repro.lint.setconflict": (
            "SetFootprint",
            "lint_set_conflicts",
            "predicted_conflicts",
            "set_footprints",
        ),
        "repro.lint.spec_lint": ("lint_spec_text",),
        "repro.lint.symbolic": (
            "PlannedAllocation",
            "RuleImage",
            "plan_allocations",
            "prove_rule",
            "rule_image",
        ),
    },
)
