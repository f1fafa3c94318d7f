"""Golden soundness of the static cost model: paper kernels x paper rules.

The one property everything else rests on: for every (program, rule
file, geometry) triple, the true block-level miss count of the
*transformed* trace lies inside the interval the evaluator predicts
from the *original* trace's digest.  These are the deterministic golden
triples; the randomized sweep lives in ``test_cost_soundness.py``.
"""

import dataclasses

import pytest

from repro.cache.config import CacheConfig
from repro.ctypes_model.path import VariablePath
from repro.lint.cost import evaluate_rules
from repro.trace.digest import compute_digest
from repro.trace.record import AccessType, TraceRecord
from repro.tracer.interp import trace_program
from repro.transform.engine import transform_trace
from repro.transform.paper_rules import paper_rule
from repro.transform.rules import RuleSet
from repro.workloads.paper_kernels import paper_kernel

from tests.lint.costutils import true_block_misses

pytestmark = [pytest.mark.lint, pytest.mark.cost]

LENGTH = 64

GEOMETRIES = [
    CacheConfig.paper_direct_mapped(),
    CacheConfig(size=1024, block_size=32, associativity=1),
    CacheConfig(size=1024, block_size=32, associativity=2, policy="lru"),
    CacheConfig(size=2048, block_size=64, associativity=4, policy="lru"),
    CacheConfig(size=512, block_size=32, associativity=2, policy="fifo"),
    CacheConfig.ppc440(),
    CacheConfig(size=512, block_size=32, associativity=0, policy="lru"),
]


def _rules(name):
    if name == "identity":
        return RuleSet()
    return paper_rule(name, length=LENGTH)


@pytest.mark.parametrize("kernel", ["1a", "1b", "2a", "2b", "3a"])
@pytest.mark.parametrize("rule_name", ["identity", "t1", "t2", "t3"])
@pytest.mark.parametrize("config", GEOMETRIES, ids=lambda c: c.describe())
def test_true_misses_inside_interval(kernel, rule_name, config):
    trace = list(trace_program(paper_kernel(kernel, length=LENGTH)))
    rules = _rules(rule_name)
    digest = compute_digest(trace)
    report = evaluate_rules(digest, rules, config)
    transformed = transform_trace(trace, rules)
    true = true_block_misses(transformed.trace, config)
    assert report.interval.contains(true), (
        f"{kernel}/{rule_name}/{config.describe()}: true={true} outside "
        f"{report.interval.describe()}"
    )
    if report.exact:
        assert true == report.interval.lo


def _report_body(report):
    return (report.interval, report.overflow_sets, report.per_variable,
            report.reasons)


@pytest.mark.parametrize("kernel", ["1a", "2a", "3a"])
@pytest.mark.parametrize("rule_name", ["identity", "t1", "t3"])
@pytest.mark.parametrize(
    "config", [c for c in GEOMETRIES if c.ways > 1 and c.policy != "lru"],
    ids=lambda c: c.describe(),
)
def test_fifo_reports_use_only_policy_independent_tiers(
    kernel, rule_name, config
):
    """FIFO and round-robin reports equal a PLRU cache's of the same
    geometry: neither earns the LRU guaranteed-hit tier."""
    digest = compute_digest(trace_program(paper_kernel(kernel, length=LENGTH)))
    rules = _rules(rule_name)
    plru = dataclasses.replace(config, policy="plru")
    assert _report_body(evaluate_rules(digest, rules, config)) == _report_body(
        evaluate_rules(digest, rules, plru)
    )


class TestRecencyTier:
    """Only direct-mapped and true-LRU caches get recency bounds."""

    STREAM = [(0, "lA"), (32, "lB"), (0, "lA"), (64, "lC"), (0, "lA")]

    def test_fifo_counter_example(self):
        """``A B A C A`` in one 2-way set: FIFO fills A then B, C evicts
        A (the oldest fill), and the last A misses where LRU hits it.
        The recency tier would call it a guaranteed hit."""
        records = [
            TraceRecord(AccessType.LOAD, addr, 4, "f",
                        var=VariablePath.parse(name))
            for addr, name in self.STREAM
        ]
        digest = compute_digest(records)
        fifo = CacheConfig(size=64, block_size=32, associativity=2,
                           policy="fifo")
        lru = CacheConfig(size=64, block_size=32, associativity=2)
        assert true_block_misses(records, fifo) == 4
        assert true_block_misses(records, lru) == 3
        fifo_report = evaluate_rules(digest, RuleSet(), fifo)
        lru_report = evaluate_rules(digest, RuleSet(), lru)
        assert fifo_report.interval.contains(4)
        assert (fifo_report.interval.lo, fifo_report.interval.hi) == (3, 5)
        assert (lru_report.interval.lo, lru_report.interval.hi) == (3, 3)

    def test_predicate(self):
        from repro.cache.config import AllocatePolicy
        from repro.lint.cost.model import recency_bounds_hold

        def cfg(**kw):
            return CacheConfig(size=512, block_size=32, **kw)

        assert recency_bounds_hold(cfg(associativity=1, policy="fifo"))
        assert recency_bounds_hold(cfg(associativity=4))
        for policy in ("fifo", "round-robin", "rr", "plru", "random"):
            assert not recency_bounds_hold(cfg(associativity=4, policy=policy))
        assert not recency_bounds_hold(CacheConfig.ppc440())
        assert not recency_bounds_hold(
            cfg(associativity=4,
                allocate_policy=AllocatePolicy.NO_WRITE_ALLOCATE)
        )


class TestIntervalShape:
    def test_t2_exact_on_kernel_1a(self):
        trace = list(trace_program(paper_kernel("1a", length=LENGTH)))
        digest = compute_digest(trace)
        report = evaluate_rules(
            digest, paper_rule("t2", length=LENGTH),
            CacheConfig.paper_direct_mapped(),
        )
        assert report.exact
        assert report.interval.lo == report.interval.hi

    def test_t3_conservative_on_kernel_1a(self):
        # T3's existing-variable injects replay records the digest
        # cannot place statically: the interval must widen, not lie.
        trace = list(trace_program(paper_kernel("1a", length=LENGTH)))
        digest = compute_digest(trace)
        report = evaluate_rules(
            digest, paper_rule("t3", length=LENGTH),
            CacheConfig.paper_direct_mapped(),
        )
        assert report.interval.conservative
        assert report.reasons
        assert not report.exact

    def test_compulsory_floor(self):
        # Lower bound can never drop below distinct touched blocks'
        # compulsory misses under any layout: it is at least 1.
        trace = list(trace_program(paper_kernel("1a", length=16)))
        digest = compute_digest(trace)
        report = evaluate_rules(digest, RuleSet(), CacheConfig.paper_direct_mapped())
        assert report.interval.lo >= 1
        assert report.interval.compulsory >= 1
        assert report.interval.lo <= report.interval.hi

    def test_events_upper_bound(self):
        trace = list(trace_program(paper_kernel("2a", length=16)))
        digest = compute_digest(trace)
        report = evaluate_rules(digest, RuleSet(), CacheConfig.paper_direct_mapped())
        assert report.interval.hi <= report.interval.events


class TestExplanations:
    def test_overflow_sets_are_reported(self):
        # A tiny direct-mapped cache forces set overflows on kernel 2a.
        trace = list(trace_program(paper_kernel("2a", length=64)))
        digest = compute_digest(trace)
        config = CacheConfig(size=128, block_size=32, associativity=1)
        report = evaluate_rules(digest, RuleSet(), config)
        assert report.overflow_sets
        worst = report.overflow_sets[0]
        assert worst.overflows
        assert "set" in worst.describe()

    def test_per_variable_attribution_sums_within_interval(self):
        trace = list(trace_program(paper_kernel("1a", length=LENGTH)))
        digest = compute_digest(trace)
        report = evaluate_rules(digest, RuleSet(), CacheConfig.paper_direct_mapped())
        lo_sum = sum(iv.lo for iv in report.per_variable.values())
        hi_sum = sum(iv.hi for iv in report.per_variable.values())
        assert lo_sum <= report.interval.lo
        assert report.interval.hi <= hi_sum or not report.per_variable

    def test_explain_is_readable(self):
        trace = list(trace_program(paper_kernel("1a", length=16)))
        digest = compute_digest(trace)
        report = evaluate_rules(digest, RuleSet(), CacheConfig.paper_direct_mapped())
        text = "\n".join(report.explain())
        assert "misses" in text


class TestIntervalAlgebra:
    def test_contains_and_dominates(self):
        from repro.lint.cost import MissInterval

        a = MissInterval(lo=2, hi=4, events=10, compulsory=2,
                         guaranteed_hits=6, conservative=False)
        b = MissInterval(lo=5, hi=9, events=10, compulsory=2,
                         guaranteed_hits=1, conservative=False)
        assert a.contains(3) and not a.contains(5)
        assert a.dominates(b) and not b.dominates(a)
        assert not a.exact
        assert a.width == 2

    def test_exact_interval(self):
        from repro.lint.cost import MissInterval

        e = MissInterval(lo=7, hi=7, events=12, compulsory=7,
                         guaranteed_hits=5, conservative=False)
        assert e.exact
        assert e.contains(7)
        assert "exactly" in e.describe() or "7" in e.describe()
