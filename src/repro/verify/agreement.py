"""Kernel agreement: the reference and fast simulators must not disagree.

PR 2 introduced the vectorized fast path (``repro.cache.fastsim``) next
to the reference event-level simulator.  Campaign results silently route
through whichever kernel covers the config, so any divergence between the
two would corrupt figures without failing anything.  This module makes
the cross-check a first-class, reusable verification step: run both
kernels over the same records and compare every count they both produce
(block hits/misses, compulsory misses, and the full per-set vectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.trace.record import AccessType, TraceRecord


@dataclass
class AgreementReport:
    """Outcome of one reference-vs-fast cross-check."""

    config: str
    checked: int = 0
    #: True when no fast kernel covers the config (not a failure)
    skipped: bool = False
    reason: str = ""
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the kernels agreed (or the check was skipped)."""
        return not self.mismatches

    def summary(self) -> str:
        if self.skipped:
            return f"kernel agreement: skipped ({self.reason})"
        if self.ok:
            return (
                f"kernel agreement: ok — fast path matches the reference "
                f"simulator exactly on {self.checked} records"
            )
        lines = [f"kernel agreement: FAILED on {self.checked} records:"]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def check_kernel_agreement(
    records: Iterable[TraceRecord],
    config: CacheConfig,
    *,
    limit: Optional[int] = None,
) -> AgreementReport:
    """Run both simulation kernels over ``records`` and compare counts.

    ``limit`` bounds the number of data records checked (``None`` checks
    everything).  Configs with no fast-path coverage (PLRU, random,
    no-write-allocate...) produce a *skipped* report — there is only one
    kernel to trust there, so there is nothing to cross-check.
    """
    from repro.cache.fastsim import fast_trace_counts
    from repro.cache.simulator import simulate
    from repro.simbatch.plan import supports_fast_path

    label = config.describe()
    if not supports_fast_path(config):
        return AgreementReport(
            config=label,
            skipped=True,
            reason="no fast kernel covers this config",
        )
    data = [r for r in records if r.op is not AccessType.MISC]
    if limit is not None:
        data = data[:limit]
    report = AgreementReport(config=label, checked=len(data))
    addrs = np.fromiter((r.addr for r in data), dtype=np.uint64, count=len(data))
    sizes = np.fromiter((r.size for r in data), dtype=np.uint32, count=len(data))
    fast = fast_trace_counts(addrs, config, sizes).counts
    stats = simulate(data, config).stats
    for name, got, want in (
        ("block hits", fast.hits, stats.block_hits),
        ("block misses", fast.misses, stats.block_misses),
        ("compulsory misses", fast.compulsory_misses, stats.compulsory_misses),
    ):
        if got != want:
            report.mismatches.append(f"{name}: fast {got} != reference {want}")
    if not np.array_equal(fast.per_set.hits, stats.per_set.hits) or not (
        np.array_equal(fast.per_set.misses, stats.per_set.misses)
    ):
        report.mismatches.append("per-set hit/miss vectors differ")
    return report
