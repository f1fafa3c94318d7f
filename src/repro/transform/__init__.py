"""The paper's core contribution: rule-based trace transformation.

The engine rewrites a Gleipnir trace *during analysis* so that the cache
simulator sees the memory behaviour of a transformed data-structure layout
without the application ever being edited or re-run.  Section IV of the
paper defines the process:

1. **Initialize the rules** — parse the ``in:``/``out:`` rule file; give
   every ``out`` structure a fresh base address and size.
2. **Check validity** — break each trace line's variable into a nested
   path and test whether it is covered by an ``in`` rule.
3. **Apply transformation** — map the ``in`` element to the ``out``
   element and compute the new address; indirect ``out`` structures get
   extra inserted pointer-load lines.
4. **Print the transformation** — write ``transformed_trace.out``.
5. **Compare** — diff original vs transformed (:mod:`repro.trace.diff`).

Three rule kinds reproduce the paper's Section V:

- :class:`~repro.transform.rules.LayoutRule` — SoA <-> AoS and general
  field re-layout (T1);
- :class:`~repro.transform.rules.OutlineRule` — nested structure ->
  pointer-indirected storage pool, with injected pointer loads (T2);
- :class:`~repro.transform.rules.StrideRule` — index-formula remapping
  for cache-set pinning, with injected index-arithmetic loads (T3).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.transform.formula": ("FormulaError", "IndexFormula"),
        "repro.transform.rules": (
            "InjectSpec",
            "LayoutRule",
            "OutlineRule",
            "Rule",
            "RuleSet",
            "StrideRule",
        ),
        "repro.transform.displace": ("DisplaceRule",),
        "repro.transform.dynamic": ("PoolRule",),
        "repro.transform.tile": ("TileRule", "tiled_struct"),
        "repro.transform.rule_parser": ("parse_rules", "parse_rules_file"),
        "repro.transform.engine": (
            "TransformEngine",
            "TransformReport",
            "TransformResult",
            "transform_trace",
        ),
    },
)
