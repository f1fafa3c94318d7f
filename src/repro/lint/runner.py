"""Lint entry points: file-kind dispatch and multi-path runs.

Dispatch is by suffix first (``.rules`` / ``.toml``), with a content
sniff as fallback so ad-hoc extensions still lint: a ``[campaign]`` or
``[[grid]]`` table means a spec, an ``in:``/``out:``/``displace:``
section means a rule file, anything else is treated as a declaration
file.  Every file lints on its own: no check spans two files.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.cache.config import CacheConfig
from repro.ctypes_model.parser import DeclarationSet
from repro.errors import LintError
from repro.lint.diagnostics import LintReport
from repro.lint.layout_lint import lint_layout_text
from repro.lint.rules_lint import lint_rules_text
from repro.lint.spec_lint import lint_spec_text
from repro.obsv import get_telemetry

_SECTION_SNIFF = re.compile(
    r"^\s*(in|out|inject|displace|tile|pool)\s*:", re.MULTILINE
)
_SPEC_SNIFF = re.compile(r"^\s*(\[campaign\]|\[\[grid\]\])", re.MULTILINE)


def detect_kind(path: Union[str, Path], text: Optional[str] = None) -> str:
    """``rules`` / ``spec`` / ``layout`` for one input file."""
    suffix = Path(path).suffix.lower()
    if suffix == ".rules":
        return "rules"
    if suffix == ".toml":
        return "spec"
    if suffix in (".c", ".h", ".decl", ".layout"):
        return "layout"
    if text is None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            return "layout"
    if _SPEC_SNIFF.search(text):
        return "spec"
    if _SECTION_SNIFF.search(text):
        return "rules"
    return "layout"


def lint_file(
    path: Union[str, Path],
    *,
    kind: Optional[str] = None,
    model: Optional[DeclarationSet] = None,
    cache_config: Optional[CacheConfig] = None,
) -> LintReport:
    """Lint one file, dispatching on its kind.  Raises
    :class:`LintError` only when the file cannot be read at all."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    kind = kind or detect_kind(path, text)
    if kind == "rules":
        return lint_rules_text(
            text, path=str(path), model=model, cache_config=cache_config
        )
    if kind == "spec":
        return lint_spec_text(text, path=str(path))
    if kind == "layout":
        report, _ = lint_layout_text(text, path=str(path))
        return report
    raise LintError(f"unknown lint kind {kind!r} for {path}")


def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    model: Optional[DeclarationSet] = None,
    cache_config: Optional[CacheConfig] = None,
) -> LintReport:
    """Lint many files into one report (directories recurse over
    ``*.rules`` and ``*.toml``)."""
    tele = get_telemetry()
    report = LintReport()
    with tele.phase("lint.run"):
        for path in _expand(paths):
            tele.add("lint.files")
            report.extend(
                lint_file(path, model=model, cache_config=cache_config)
            )
    return report


def _expand(paths: Iterable[Union[str, Path]]) -> Sequence[Path]:
    out = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.rules")))
            out.extend(sorted(path.rglob("*.toml")))
        else:
            out.append(path)
    return out
