"""Lint campaign TOML specs before the scheduler spends anything.

Catches the failure classes the scheduler would otherwise surface one
worker-crash at a time: malformed TOML (TDST020), dangling ``file:``
rule references (TDST021 — deliberately *not* checked by
``validate_rule_ref``, which treats it as an execution-time concern),
invalid cache geometries (TDST023) and duplicate grid points (TDST022).
Each top-level name and ``[campaign]`` key the loader ignores (a
misspelling such as ``[bacth]``, or a table a past version read, such
as ``[service]`` or ``[batch]``) is one TDST026 warning; TDST024 and
TDST025 (``[batch]`` options) are retired.
Referenced rule files are recursively linted with the full rule pass so
a campaign fails fast on an unsound rule file, not at job time.
"""

from __future__ import annotations

import tomllib
from pathlib import Path
from typing import Optional, Tuple

from repro.errors import CampaignError
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.obsv import get_telemetry


def lint_spec_text(
    text: str,
    *,
    path: Optional[str] = None,
    base_dir: Optional[Path] = None,
    lint_rule_refs: bool = True,
) -> LintReport:
    """Lint one campaign spec's TOML text.  Never raises on bad input.

    ``base_dir`` anchors relative ``file:`` references (defaults to the
    spec file's directory when ``path`` is given, else the cwd).
    """
    from repro.campaign.spec import CampaignSpec

    tele = get_telemetry()
    report = LintReport()
    report.note_file(path)
    # Recursively linted rule files count their own diagnostics; track
    # them so the final tally only adds this spec's findings once.
    sub_counts = {sev: 0 for sev in ("error", "warning", "info")}
    if base_dir is None:
        base_dir = Path(path).parent if path else Path(".")

    with tele.phase("lint.spec", file=path or "<input>"):
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            report.add(
                Diagnostic(
                    code="TDST020",
                    message=f"invalid TOML: {exc}",
                    path=path,
                )
            )
            _count(tele, report)
            return report
        _lint_unknown_keys(report, data, path)
        try:
            spec = CampaignSpec.from_dict(data)
        except CampaignError as exc:
            report.add(
                Diagnostic(code="TDST020", message=str(exc), path=path)
            )
            _count(tele, report)
            return report

        # Cache geometries: CacheSpec construction is lazy about
        # legality; realise each one.
        seen_cache_errors = set()
        for cache in set(spec.caches) | {
            c for e in spec.grid for c in e.caches
        }:
            try:
                cache.to_config()
            except Exception as exc:
                key = str(exc)
                if key not in seen_cache_errors:
                    seen_cache_errors.add(key)
                    report.add(
                        Diagnostic(
                            code="TDST023",
                            message=f"cache {cache.label()!r}: {exc}",
                            path=path,
                        )
                    )

        # Duplicate grid points: the scheduler dedupes by artifact key,
        # so duplicates silently waste spec lines — warn.
        seen_points = set()
        for entry in spec.grid:
            for rule in entry.rules:
                for cache in spec.caches_for(entry):
                    for mode in spec.attribution:
                        point = (entry.kernel.lower(), entry.length, rule, cache, mode)
                        if point in seen_points:
                            report.add(
                                Diagnostic(
                                    code="TDST022",
                                    message=(
                                        f"grid point kernel={entry.kernel} "
                                        f"length={entry.length} rules={rule!r} "
                                        f"cache={cache.label()} appears more "
                                        "than once"
                                    ),
                                    path=path,
                                )
                            )
                        seen_points.add(point)

        # file: rule references — resolve and recursively lint.
        seen_refs = set()
        for entry in spec.grid:
            for rule in entry.rules:
                if not rule.startswith("file:"):
                    continue
                ref = rule[len("file:") :].strip()
                if ref in seen_refs:
                    continue
                seen_refs.add(ref)
                rule_path = Path(ref)
                if not rule_path.is_absolute():
                    rule_path = base_dir / rule_path
                if not rule_path.is_file():
                    report.add(
                        Diagnostic(
                            code="TDST021",
                            message=(
                                f"rule file {ref!r} not found "
                                f"(resolved to {rule_path})"
                            ),
                            path=path,
                        )
                    )
                    continue
                if lint_rule_refs:
                    from repro.lint.rules_lint import lint_rules_text

                    sub = lint_rules_text(
                        rule_path.read_text(encoding="utf-8"),
                        path=str(rule_path),
                    )
                    for severity, count in sub.counts().items():
                        sub_counts[severity] += count
                    report.extend(sub)

    _count(tele, report, sub_counts)
    return report


def _lint_unknown_keys(report: LintReport, data: dict, path) -> None:
    """TDST026: one warning per top-level name or ``[campaign]`` key the
    loader ignores."""
    from repro.campaign.spec import CAMPAIGN_KEYS, SPEC_TABLES

    scopes = [("top-level name", data, SPEC_TABLES)]
    campaign = data.get("campaign")
    if isinstance(campaign, dict):
        scopes.append(("[campaign] key", campaign, CAMPAIGN_KEYS))
    for what, table, known in scopes:
        for key in table:
            if key not in known:
                report.add(
                    Diagnostic(
                        code="TDST026",
                        message=(
                            f"unknown {what} {key!r} is ignored "
                            f"(known: {', '.join(known)})"
                        ),
                        path=path,
                        hint="fix the spelling or drop it",
                    )
                )


def _count(tele, report: LintReport, sub_counts=None) -> None:
    for severity, count in report.counts().items():
        count -= (sub_counts or {}).get(severity, 0)
        if count > 0:
            tele.add(f"lint.diagnostics.{severity}", count)
