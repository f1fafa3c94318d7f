"""Static cost model: miss-count intervals and chain proofs, no simulation.

Public surface:

- :func:`repro.trace.digest.compute_digest` produces the one-pass trace
  summary everything here consumes;
- :func:`evaluate_rules` prices a candidate rule file against a digest,
  returning a :class:`CostReport` with a sound ``[lo, hi]`` miss
  interval per cache geometry;
- :mod:`repro.lint.cost.chains` proves commutativity, idempotence,
  domination and layout equivalence between rule chains;
- :func:`lint_cost` packages both as TDST040-047 diagnostics for
  ``tdst lint --cost --trace <t>``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lint.cost.chains": (
            "ChainProof",
            "canonical_stream",
            "commuting_pairs",
            "layout_equivalent",
            "prove_dominates",
            "prove_idempotent",
            "prove_reorder",
        ),
        "repro.lint.cost.lint": ("lint_cost",),
        "repro.lint.cost.model": (
            "CostReport",
            "ElementGroup",
            "LayoutImage",
            "MissInterval",
            "SetPressure",
            "build_layout_image",
            "evaluate_rules",
        ),
    },
)
