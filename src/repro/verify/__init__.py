"""Differential verification: soundness, golden corpus, kernel agreement,
rule fuzzing.

The subsystem answers one question from four directions: *is a
transformed trace really a faithful stand-in for the rewritten
program?*

- :mod:`repro.verify.soundness` — independent replay oracle asserting
  the layout invariants (injective remap, non-overlapping out fields,
  byte conservation, indirection spec compliance);
- :mod:`repro.verify.golden` — checked-in end-to-end metrics for the
  paper's T1/T2/T3 pipelines, regenerated via ``UPDATE_GOLDEN=1``;
- :mod:`repro.verify.agreement` — reference vs fast simulation kernel
  cross-check;
- :mod:`repro.verify.fuzz` — hypothesis-driven random programs and
  mutated rule files (lazy dependency).

``repro.verify.runner.verify_paper`` combines the first three; the CLI
(``tdst verify``) and the campaign layer's opt-in post-job check build
on these entry points.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.verify.agreement": ("AgreementReport", "check_kernel_agreement"),
        "repro.verify.golden": (
            "GOLDEN_DIR",
            "UPDATE_GOLDEN_ENV",
            "GoldenCase",
            "paper_cases",
            "run_case",
            "update_requested",
        ),
        "repro.verify.runner": (
            "CaseOutcome",
            "VerifyOutcome",
            "verify_case",
            "verify_paper",
        ),
        "repro.verify.soundness": (
            "MAX_RECORDED_VIOLATIONS",
            "SoundnessReport",
            "Violation",
            "check_result",
            "check_transform",
        ),
    },
)
