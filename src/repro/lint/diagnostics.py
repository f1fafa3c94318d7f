"""Diagnostic model for the static analyzer: stable codes, severities, spans.

Findings are *data*, not exceptions: a lint run over a corrupt input
still completes and reports everything it saw.  Every diagnostic carries
a stable ``TDSTnnn`` code so CI annotations, SARIF consumers and the
test-suite can match on identity rather than message wording.

The catalogue below is the single source of truth; ``docs/LINTING.md``
documents one example per code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: severity ranks, most severe first (used for sorting and exit codes)
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class CodeInfo:
    """Catalogue entry for one diagnostic code."""

    code: str
    severity: str
    title: str


#: The full diagnostic-code catalogue.  Codes are append-only: once
#: published a code never changes meaning (SARIF baselining relies on it).
CODES: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        # -- rule-file structure and parsing (00x) -------------------------
        CodeInfo("TDST001", "error", "rule file section structure invalid"),
        CodeInfo("TDST002", "error", "C declaration failed to parse"),
        CodeInfo("TDST003", "error", "index formula syntax invalid"),
        CodeInfo("TDST004", "error", "inject clause invalid"),
        # -- rule semantics (00x-01x) --------------------------------------
        CodeInfo("TDST005", "error", "layout mapping invalid"),
        CodeInfo("TDST006", "error", "stride rule invalid"),
        CodeInfo("TDST007", "error", "index formula not injective"),
        CodeInfo("TDST008", "error", "formula maps outside the out array"),
        CodeInfo("TDST009", "error", "rule-set conflict"),
        CodeInfo("TDST010", "error", "out layout unsound"),
        CodeInfo("TDST011", "warning", "dead or identity rule"),
        CodeInfo("TDST012", "warning", "shadowed rule"),
        CodeInfo("TDST013", "error", "name does not resolve against program model"),
        # -- layout / declaration files (01x) ------------------------------
        CodeInfo("TDST014", "info", "struct contains padding"),
        CodeInfo("TDST015", "warning", "leaf not ABI-aligned"),
        CodeInfo("TDST016", "info", "analysis truncated"),
        CodeInfo("TDST017", "warning", "file declares nothing"),
        # -- campaign specs (02x) ------------------------------------------
        CodeInfo("TDST020", "error", "campaign spec invalid"),
        CodeInfo("TDST021", "error", "referenced rule file missing"),
        CodeInfo("TDST022", "warning", "duplicate grid point"),
        CodeInfo("TDST023", "error", "cache geometry invalid"),
        # TDST024/025 checked the [batch] table, which nothing reads any
        # more (a [batch] table is now a TDST026); no pass emits them.
        CodeInfo("TDST024", "error", "batch options invalid (retired)"),
        CodeInfo("TDST025", "warning", "batch configuration ineffective (retired)"),
        CodeInfo("TDST026", "warning", "unknown spec key ignored"),
        # -- static cache-set analysis (03x) -------------------------------
        CodeInfo("TDST030", "info", "set footprint summary"),
        CodeInfo("TDST031", "warning", "predicted set conflict"),
        # -- static cost model (04x) ---------------------------------------
        CodeInfo("TDST040", "info", "static miss-count interval"),
        CodeInfo("TDST041", "info", "miss-count interval is exact"),
        CodeInfo("TDST042", "warning", "predicted set overflow"),
        CodeInfo("TDST043", "warning", "cost analysis degraded to conservative bounds"),
        CodeInfo("TDST044", "info", "rules commute (reorder-equivalent)"),
        CodeInfo("TDST045", "info", "rule chain idempotent"),
        CodeInfo("TDST046", "info", "candidate statically dominated"),
        CodeInfo("TDST047", "warning", "rule targets variable absent from trace digest"),
    )
}

#: Fallback when a raise site could not be classified at all.
DEFAULT_RULE_CODE = "TDST005"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, what, how bad, and (optionally) how to fix it.

    ``line``/``column`` are 1-based; ``None`` means the finding applies
    to the whole file (or has no file at all, e.g. ad-hoc text input).
    """

    code: str
    message: str
    path: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None
    severity: str = ""
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", CODES[self.code].severity)
        elif self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def with_path(self, path: str) -> "Diagnostic":
        """The same finding attributed to ``path`` (if not already)."""
        return self if self.path else replace(self, path=path)

    def render(self) -> str:
        """``path:line:col: severity TDSTnnn: message`` (gcc style)."""
        where = self.path or "<input>"
        if self.line is not None:
            where += f":{self.line}"
            if self.column is not None:
                where += f":{self.column}"
        text = f"{where}: {self.severity} {self.code}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class LintReport:
    """All findings from one lint run (possibly over many files)."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: paths that were actually analysed (clean files still count)
    files: List[str] = field(default_factory=list)
    #: identity keys of everything recorded, for duplicate suppression
    _seen: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        for diag in self.diagnostics:
            self._seen.add(
                (diag.code, diag.path, diag.line, diag.column, diag.message)
            )

    def add(self, diag: Diagnostic) -> None:
        """Record a finding, dropping exact duplicates.

        A rule file referenced by several grid points of one campaign
        spec is recursively linted once per reference; without the
        identity check every finding in it would be reported once per
        grid point.  Identity is (code, path, span, message) — the same
        code at the same span with *different* messages is two findings.
        """
        key = (diag.code, diag.path, diag.line, diag.column, diag.message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diagnostics.append(diag)

    def extend(self, other: "LintReport") -> None:
        """Fold another report into this one (order preserved, deduped)."""
        for diag in other.diagnostics:
            self.add(diag)
        for path in other.files:
            if path not in self.files:
                self.files.append(path)

    def note_file(self, path: Optional[str]) -> None:
        if path is not None and path not in self.files:
            self.files.append(path)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "info"]

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings/infos allowed)."""
        return not self.errors

    def codes(self) -> List[str]:
        """The distinct codes present, catalogue order."""
        present = {d.code for d in self.diagnostics}
        return [c for c in CODES if c in present]

    def counts(self) -> Dict[str, int]:
        """``{severity: count}`` over all findings."""
        out = {sev: 0 for sev in SEVERITIES}
        for d in self.diagnostics:
            out[d.severity] += 1
        return out

    def sorted(self) -> List[Diagnostic]:
        """Findings ordered by file, position, then severity."""
        rank = {sev: i for i, sev in enumerate(SEVERITIES)}
        return sorted(
            self.diagnostics,
            key=lambda d: (
                d.path or "",
                d.line or 0,
                d.column or 0,
                rank[d.severity],
                d.code,
            ),
        )


def from_rule_error(exc: BaseException, path: Optional[str] = None) -> Diagnostic:
    """Classify a parser/rule exception into a coded diagnostic.

    Raise sites in ``transform`` tag their errors with ``code=``; anything
    still uncoded is classified by message pattern so third-party
    :class:`~repro.errors.RuleError` subclasses degrade gracefully.
    """
    code = getattr(exc, "code", None)
    line = getattr(exc, "line", None)
    message = str(exc)
    if line is not None and message.startswith(f"line {line}: "):
        message = message[len(f"line {line}: ") :]
    if code is None:
        code = _classify_message(message)
    return Diagnostic(code=code, message=message, path=path, line=line)


#: message-pattern fallback for uncoded errors, first match wins
_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("injective", "TDST007"),
    ("maps index up to", "TDST008"),
    ("formula", "TDST003"),
    ("inject", "TDST004"),
    ("section", "TDST001"),
    ("bi-directional", "TDST009"),
    ("duplicate rule", "TDST009"),
    ("collide", "TDST009"),
    ("declaration", "TDST002"),
    ("stride rule", "TDST006"),
    ("displacement", "TDST006"),
    ("tile", "TDST006"),
    ("pool", "TDST006"),
)


def _classify_message(message: str) -> str:
    lowered = message.lower()
    for needle, code in _PATTERNS:
        if needle in lowered:
            return code
    return DEFAULT_RULE_CODE


def summarize(report: LintReport) -> str:
    """One-line human summary (``3 errors, 1 warning in 2 files``)."""
    counts = report.counts()
    parts = []
    for sev in SEVERITIES:
        n = counts[sev]
        if n:
            plural = "" if n == 1 else "s"
            parts.append(f"{n} {sev}{plural}")
    body = ", ".join(parts) if parts else "no findings"
    n_files = len(report.files)
    files = f"{n_files} file{'' if n_files == 1 else 's'}"
    return f"{body} in {files}"
