"""XFORM-VALID: engine throughput, the columnar engine vs the per-record
engine, and process-step validation.

Not a paper figure, but the paper's Section IV pipeline implies the
transformation runs inline "during cache analysis", so its per-line
overhead must be bounded.  The engine works out one plan per distinct
variable path and rewrites a trace's columns; the per-record engine it
replaced (``tests/reference.py``) matches, translates and builds every
record on its own.  ``test_speedup_factor`` runs T1/T2/T3 through both in
one process, alternating, and keeps each side's best of five rounds, so
host speed cancels out of the ratio.  The timed unit is what a campaign
job's transform stage does: transform the decoded trace (columns for
the columnar engine, records for the per-record one, as each pipeline
decodes), then encode the output as v1.  Output must be byte-equal and
the reports equal, and the floor applies to the three stages together
(the paper grid's transform work).  Measured on a 2-vCPU VM, best of 5
in three runs: 1.8-2.0x (T1), 1.6-1.8x (T2) and 3.3-3.5x (T3) at
LEN=1024, 2.0-2.15x together; 1.8-2.1x together at LEN=256
(``--quick``).
"""

import gc
import time

import pytest

from benchmarks.conftest import FIG_LEN, T3_LEN
from repro.trace.binformat import load_binary, save_binary
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.transform.engine import TransformEngine, transform_trace
from repro.transform.paper_rules import rule_t1, rule_t2, rule_t3
from repro.workloads.paper_kernels import paper_kernel
from tests.reference import RecordEngine

SPEEDUP_FLOOR = 1.5
ROUNDS = 5
PAIRS = (("1a", rule_t1), ("2a", rule_t2), ("3a", rule_t3))


@pytest.mark.parametrize(
    "rule_name",
    ["t1", "t2", "t3"],
)
def test_engine_throughput(benchmark, rule_name, trace_1a, trace_2a, trace_3a):
    trace, rules = {
        "t1": (trace_1a, lambda: rule_t1(FIG_LEN)),
        "t2": (trace_2a, lambda: rule_t2(FIG_LEN)),
        "t3": (trace_3a, lambda: rule_t3(T3_LEN)),
    }[rule_name]

    def run():
        engine = TransformEngine(rules())
        return engine.transform(trace)

    result = benchmark(run)
    rate = len(trace) / benchmark.stats["mean"]
    print(f"\n{rule_name}: {rate:,.0f} records/s through the engine")
    assert result.report.transformed > 0


@pytest.fixture(scope="module")
def decoded(quick, tmp_path_factory):
    """Per paper pair: the rule factory and the v1-decoded input as each
    engine's pipeline sees it (columns, and records built up front)."""
    length = 256 if quick else FIG_LEN
    work = tmp_path_factory.mktemp("engine")
    inputs = []
    for kernel, rule in PAIRS:
        path = work / f"{kernel}.tdst"
        save_binary(trace_program(paper_kernel(kernel, length=length)), path)
        columns = load_binary(path)
        inputs.append(
            (lambda rule=rule: rule(length), columns, Trace(list(columns)))
        )
    return inputs, work


def _stage(engine_cls, rules, trace, target):
    """One campaign transform stage: transform, then encode v1."""
    result = engine_cls(rules).transform(trace)
    save_binary(result.trace, target)
    return result.report


def test_output_equals_reference(decoded):
    inputs, work = decoded
    for (rules, columns, records), (kernel, _) in zip(inputs, PAIRS):
        ours = _stage(TransformEngine, rules(), columns, work / "columns.tdst")
        theirs = _stage(RecordEngine, rules(), records, work / "records.tdst")
        assert ours == theirs, kernel
        assert ours.transformed > 0
        assert (work / "columns.tdst").read_bytes() == (
            work / "records.tdst"
        ).read_bytes(), kernel


def test_speedup_factor(decoded):
    inputs, work = decoded
    totals = {TransformEngine: 0.0, RecordEngine: 0.0}
    for (rules, columns, records), (kernel, _) in zip(inputs, PAIRS):
        sides = {TransformEngine: columns, RecordEngine: records}
        best = dict.fromkeys(sides, float("inf"))
        for _ in range(ROUNDS):
            for engine_cls, trace in sides.items():
                fresh = rules()
                # Collector pauses landing in one side are the main noise
                # on these allocation-heavy stages.
                gc.collect()
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    _stage(engine_cls, fresh, trace, work / "timed.tdst")
                    elapsed = time.perf_counter() - t0
                finally:
                    gc.enable()
                best[engine_cls] = min(best[engine_cls], elapsed)
        ours, theirs = best[TransformEngine], best[RecordEngine]
        print(
            f"\n{kernel}: per-record engine {theirs * 1e3:.1f} ms, columnar "
            f"engine {ours * 1e3:.1f} ms, speedup {theirs / ours:.2f}x on "
            f"{len(columns):,} records"
        )
        for engine_cls in totals:
            totals[engine_cls] += best[engine_cls]
    speedup = totals[RecordEngine] / totals[TransformEngine]
    print(f"paper grid (T1+T2+T3): speedup {speedup:.2f}x")
    assert speedup > SPEEDUP_FLOOR


def test_passthrough_overhead_is_bounded(benchmark, trace_1a):
    """A rule that matches nothing should cost little: passthrough path."""
    from repro.ctypes_model.types import ArrayType, INT, StructType
    from repro.transform.rules import LayoutRule

    unrelated = StructType("zzz", [("a", ArrayType(INT, 4))])
    unrelated_out = ArrayType(StructType("e", [("a", INT)]), 4)
    rule = LayoutRule("zzz", unrelated, "zzz_out", unrelated_out)

    def run():
        return TransformEngine([rule]).transform(trace_1a)

    result = benchmark(run)
    assert result.report.transformed == 0
    assert result.report.passthrough == len(trace_1a)


def test_step4_transformed_trace_file(benchmark, tmp_path, trace_1a):
    """Step 4 of the paper's process: the transformed trace is written to
    transformed_trace.out and round-trips."""
    result = transform_trace(trace_1a, rule_t1(FIG_LEN))
    out = benchmark(result.write, tmp_path / "transformed_trace.out")
    assert out.name == "transformed_trace.out"
    assert Trace.load(out) == result.trace
