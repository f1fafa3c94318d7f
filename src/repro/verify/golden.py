"""Golden figure corpus: end-to-end fixtures with checked-in metrics.

Each :class:`GoldenCase` pins one full paper pipeline — program → trace →
transform (T1/T2/T3) → cache simulation — to an expected-metrics JSON
document stored in ``golden_data/`` next to this module.  The documents
are deliberately exhaustive (trace lengths, transform report counters,
hit/miss/compulsory/eviction counts, per-variable misses for every cache
geometry): any semantic drift anywhere in the tracer, the rule engine or
either simulation kernel changes at least one number and fails the
comparison.

Regeneration (after an *intentional* semantic change)::

    PYTHONPATH=src python -m repro.cli verify --paper --update-golden

The regenerated files must be committed together with the change that
explains them — that is the whole point of the corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.transform.engine import TransformEngine, TransformResult
from repro.transform.paper_rules import paper_rule
from repro.transform.rules import RuleSet
from repro.workloads.paper_kernels import paper_kernel

#: Where the checked-in expected metrics live (package data).
GOLDEN_DIR = Path(__file__).resolve().parent / "golden_data"


@dataclass(frozen=True)
class GoldenCase:
    """One end-to-end fixture: kernel + rule + cache geometries."""

    name: str
    kernel: str
    length: int
    rule: str
    #: (label, config-factory args) pairs; labels key the JSON document
    caches: Tuple[Tuple[str, CacheConfig], ...]

    def filename(self) -> str:
        return f"{self.name}.json"


def paper_cases() -> Tuple[GoldenCase, ...]:
    """The golden corpus: the paper's three transformation pipelines.

    Lengths are kept small enough that all three cases replay in a couple
    of seconds — the corpus guards semantics, not scale (the campaign
    benchmarks own scale).
    """
    direct = ("32K-direct", CacheConfig.paper_direct_mapped())
    small = (
        "4K-2way-lru",
        CacheConfig(size=4 * 1024, block_size=32, associativity=2, policy="lru"),
    )
    ppc440 = ("ppc440", CacheConfig.ppc440())
    return (
        GoldenCase("t1", "1a", 64, "t1", (direct, small)),
        GoldenCase("t2", "2a", 64, "t2", (direct, small)),
        GoldenCase("t3", "3a", 64, "t3", (ppc440, direct)),
    )


def run_case(case: GoldenCase) -> Tuple[Dict[str, Any], TransformResult, Trace, RuleSet]:
    """Run one fixture end to end; returns (payload, result, trace, rules).

    The payload is the JSON-serialisable metrics document compared (or
    written) against the golden file; the raw objects are returned so the
    caller can run the live checks (soundness, kernel agreement) on the
    same artifacts without recomputing the pipeline.
    """
    trace = trace_program(paper_kernel(case.kernel, length=case.length))
    rules = paper_rule(case.rule, length=case.length)
    engine = TransformEngine(rules)
    result = engine.transform(trace)
    report = result.report
    payload: Dict[str, Any] = {
        "case": case.name,
        "kernel": case.kernel,
        "length": case.length,
        "rule": case.rule,
        "trace_records": len(trace),
        "transformed_records": len(result.trace),
        "transform_report": {
            "transformed": report.transformed,
            "inserted": report.inserted,
            "passthrough": report.passthrough,
            "ignored_out": report.ignored_out,
            "uncovered": report.uncovered,
            "size_mismatches": report.size_mismatches,
            "base_inconsistencies": report.base_inconsistencies,
        },
        "allocations": {
            name: base for name, base in sorted(result.allocations.items())
        },
        "caches": {},
    }
    for label, config in case.caches:
        payload["caches"][label] = {
            "baseline": _metrics(trace, config),
            "transformed": _metrics(result.trace, config),
        }
    return payload, result, trace, rules


def _metrics(trace: Trace, config: CacheConfig) -> Dict[str, Any]:
    """Reference-simulator metrics of one trace under one geometry."""
    stats = simulate(trace, config).stats
    return {
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "miss_ratio": round(stats.miss_ratio, 6),
        "block_hits": stats.block_hits,
        "block_misses": stats.block_misses,
        "compulsory_misses": stats.compulsory_misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "by_variable_misses": {
            name: counts.misses
            for name, counts in sorted(stats.by_variable.items())
        },
    }


def compare_payloads(
    expected: Any, actual: Any, path: str = ""
) -> List[str]:
    """Deep-compare two JSON documents; returns dotted-path differences."""
    diffs: List[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected:
                diffs.append(f"{sub}: unexpected key (got {actual[key]!r})")
            elif key not in actual:
                diffs.append(f"{sub}: missing (expected {expected[key]!r})")
            else:
                diffs.extend(compare_payloads(expected[key], actual[key], sub))
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(
                f"{path}: length {len(actual)} != expected {len(expected)}"
            )
            return diffs
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(compare_payloads(e, a, f"{path}[{i}]"))
        return diffs
    if expected != actual:
        diffs.append(f"{path}: {actual!r} != expected {expected!r}")
    return diffs


def golden_path(case: GoldenCase, golden_dir: Optional[Path] = None) -> Path:
    return (golden_dir or GOLDEN_DIR) / case.filename()


def load_golden(
    case: GoldenCase, golden_dir: Optional[Path] = None
) -> Optional[Dict[str, Any]]:
    """The checked-in expected payload, or ``None`` when absent."""
    path = golden_path(case, golden_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def save_golden(
    case: GoldenCase, payload: Dict[str, Any], golden_dir: Optional[Path] = None
) -> Path:
    """Write (regenerate) one golden document atomically."""
    from repro.obsv.atomic import atomic_write

    path = golden_path(case, golden_dir)
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
