"""The paper verification runner: soundness + golden + kernel agreement.

``verify_paper`` drives every :func:`~repro.verify.golden.paper_cases`
pipeline end to end and layers the three check families on the same
artifacts:

1. **soundness** — the transformed trace is replayed against its rule
   set by the independent oracle (:mod:`repro.verify.soundness`);
2. **golden** — the metrics document is compared against the checked-in
   expectation (or regenerated with ``update_golden``);
3. **agreement** — reference and fast simulation kernels are cross-run
   on both the baseline and the transformed trace for every geometry the
   fast path covers.

This is what ``tdst verify --paper`` executes and what the campaign
layer's opt-in post-job check reuses per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.obsv.telemetry import get_telemetry
from repro.verify.agreement import AgreementReport, check_kernel_agreement
from repro.verify.golden import (
    GoldenCase,
    compare_payloads,
    load_golden,
    paper_cases,
    run_case,
    save_golden,
)
from repro.verify.soundness import SoundnessReport, check_result


@dataclass
class CaseOutcome:
    """Everything verification established about one golden case."""

    name: str
    soundness: SoundnessReport
    golden_diffs: List[str] = field(default_factory=list)
    golden_missing: bool = False
    updated: bool = False
    agreements: List[AgreementReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.soundness.ok
            and not self.golden_diffs
            and not self.golden_missing
            and all(a.ok for a in self.agreements)
        )

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        lines = [f"case {self.name}: {status}"]
        lines.append(
            "  soundness: "
            + ("ok" if self.soundness.ok else
               f"{self.soundness.total_violations} violation(s)")
        )
        if self.updated:
            lines.append("  golden: regenerated")
        elif self.golden_missing:
            lines.append(
                "  golden: MISSING (run with --update-golden to create)"
            )
        elif self.golden_diffs:
            lines.append(f"  golden: {len(self.golden_diffs)} difference(s)")
            lines.extend(f"    {d}" for d in self.golden_diffs[:8])
            if len(self.golden_diffs) > 8:
                lines.append(
                    f"    ... and {len(self.golden_diffs) - 8} more"
                )
        else:
            lines.append("  golden: ok")
        checked = [a for a in self.agreements if not a.skipped]
        skipped = len(self.agreements) - len(checked)
        agree = "ok" if all(a.ok for a in checked) else "FAILED"
        lines.append(
            f"  kernel agreement: {agree} "
            f"({len(checked)} checked, {skipped} skipped)"
        )
        for a in self.agreements:
            if not a.ok:
                lines.extend(f"    {m}" for m in a.mismatches)
        if not self.soundness.ok:
            lines.extend(
                "    " + line for line in self.soundness.summary().splitlines()
            )
        return "\n".join(lines)


@dataclass
class VerifyOutcome:
    """Aggregate result of one ``verify_paper`` run."""

    cases: List[CaseOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def summary(self) -> str:
        lines = [c.summary() for c in self.cases]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"verify: {verdict} "
            f"({sum(c.ok for c in self.cases)}/{len(self.cases)} cases ok)"
        )
        return "\n".join(lines)


def verify_case(
    case: GoldenCase,
    *,
    update_golden: bool = False,
    golden_dir: Optional[Path] = None,
) -> CaseOutcome:
    """Run one golden case through all three check families."""
    tele = get_telemetry()
    with tele.span("verify.case", cat="verify", case=case.name):
        payload, result, trace, rules = run_case(case)
        outcome = CaseOutcome(
            name=case.name, soundness=check_result(result, rules)
        )
        if update_golden:
            save_golden(case, payload, golden_dir)
            outcome.updated = True
        else:
            expected = load_golden(case, golden_dir)
            if expected is None:
                outcome.golden_missing = True
            else:
                outcome.golden_diffs = compare_payloads(expected, payload)
        for _, config in case.caches:
            outcome.agreements.append(check_kernel_agreement(trace, config))
            outcome.agreements.append(
                check_kernel_agreement(result.trace, config)
            )
    tele.add("verify.cases")
    return outcome


def verify_paper(
    *,
    update_golden: bool = False,
    golden_dir: Optional[Path] = None,
) -> VerifyOutcome:
    """Verify the T1/T2/T3 pipelines (soundness + golden + agreement).

    ``update_golden=True`` rewrites the golden documents instead of
    comparing against them (``tdst verify --paper --update-golden``).
    """
    outcome = VerifyOutcome()
    with get_telemetry().span("verify.paper", cat="verify"):
        for case in paper_cases():
            outcome.cases.append(
                verify_case(
                    case, update_golden=update_golden, golden_dir=golden_dir
                )
            )
    return outcome
