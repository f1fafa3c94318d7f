"""Overhead guard: disabled telemetry must not tax the hot paths.

The instrumented entry points (``fast_trace_counts``, the transform
engine, the trace decoders, encoders and attribution labelling) delegate to their private uninstrumented bodies when the
registry is disabled, so the only admissible cost is one registry lookup
and one attribute test per call.  These tests pin that contract by
counting the wrapper's work instead of timing it: a spy registry counts
lookups, spans and counter updates, and a spy body counts delegations.
With telemetry disabled every call makes exactly one lookup, opens no
span, adds no counter and calls the uninstrumented body exactly once.
No clock is read, so the guard cannot flake on a busy host.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cache.fastsim as fastsim
import repro.trace.columns as columns_module
import repro.transform.engine as engine_module
from repro.cache.config import CacheConfig
from repro.obsv.telemetry import Telemetry, get_telemetry
from repro.trace.binformat import load_binary, save_binary
from repro.trace.columnar import load_columnar, save_columnar
from repro.transform.engine import TransformEngine
from repro.transform.paper_rules import paper_rule
from repro.tracer.interp import trace_program
from repro.workloads.paper_kernels import paper_kernel

pytestmark = pytest.mark.obsv

CALLS = 3


class SpyTelemetry(Telemetry):
    """A registry that counts what the wrappers ask of it."""

    def __init__(self, *, enabled: bool) -> None:
        super().__init__(enabled=enabled)
        self.lookups = 0
        self.spans = 0
        self.adds = 0

    def span(self, name, **args):
        self.spans += 1
        return super().span(name, **args)

    def add(self, counter, value=1):
        self.adds += 1
        super().add(counter, value)


def _spy(monkeypatch, module, enabled: bool) -> SpyTelemetry:
    """Make ``module``'s registry lookups return a counting spy."""
    registry = SpyTelemetry(enabled=enabled)

    def lookup() -> SpyTelemetry:
        registry.lookups += 1
        return registry

    monkeypatch.setattr(module, "get_telemetry", lookup)
    return registry


def _counting(owner, name: str, monkeypatch) -> list:
    """Wrap ``owner.name`` so each call appends its result to a list."""
    body = getattr(owner, name)
    results: list = []

    def counted(*args, **kwargs):
        result = body(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(owner, name, counted)
    return results


@pytest.fixture(autouse=True)
def _telemetry_must_be_disabled():
    registry = get_telemetry()
    assert not registry.enabled, "overhead guard requires disabled telemetry"
    yield
    assert not registry.enabled


@pytest.fixture(scope="module")
def fast_inputs():
    rng = np.random.default_rng(7)
    n = 5_000
    addrs = (rng.integers(0, 1 << 20, size=n) * 4).astype(np.uint64)
    sizes = np.full(n, 4, dtype=np.uint32)
    var_ids = (addrs >> 14).astype(np.int64) % 3
    config = CacheConfig(size=32768, block_size=32, associativity=4, policy="lru")
    return addrs, config, sizes, var_ids


@pytest.fixture(scope="module")
def paper_trace():
    return trace_program(paper_kernel("1a", length=64))


def test_fast_simulation_overhead_when_disabled(monkeypatch, fast_inputs):
    """Disabled: one lookup, no span, no counter, one body call per call."""
    registry = _spy(monkeypatch, fastsim, enabled=False)
    bodies = _counting(fastsim, "_fast_trace_counts", monkeypatch)
    results = [fastsim.fast_trace_counts(*fast_inputs) for _ in range(CALLS)]
    assert registry.lookups == CALLS
    assert registry.spans == 0
    assert registry.adds == 0
    assert len(bodies) == CALLS
    assert all(got is body for got, body in zip(results, bodies))


def test_transform_engine_overhead_when_disabled(monkeypatch, paper_trace):
    """Disabled: one lookup, no span, no counter, one body call per call."""
    registry = _spy(monkeypatch, engine_module, enabled=False)
    bodies = _counting(TransformEngine, "_transform", monkeypatch)
    engine = TransformEngine(paper_rule("t1", length=64))
    results = [engine.transform(paper_trace) for _ in range(CALLS)]
    assert registry.lookups == CALLS
    assert registry.spans == 0
    assert registry.adds == 0
    assert len(bodies) == CALLS
    assert all(got is body for got, body in zip(results, bodies))


@pytest.mark.parametrize("which", ["fast", "engine"])
def test_spy_sees_the_enabled_wrapper(monkeypatch, fast_inputs, paper_trace, which):
    """The spy is not vacuous: an enabled registry does get a span and
    counters through the same wrappers, still with one body call."""
    if which == "fast":
        registry = _spy(monkeypatch, fastsim, enabled=True)
        bodies = _counting(fastsim, "_fast_trace_counts", monkeypatch)
        fastsim.fast_trace_counts(*fast_inputs)
    else:
        registry = _spy(monkeypatch, engine_module, enabled=True)
        bodies = _counting(TransformEngine, "_transform", monkeypatch)
        TransformEngine(paper_rule("t1", length=64)).transform(paper_trace)
    assert registry.lookups == 1
    assert registry.spans == 1
    assert registry.adds >= 1
    assert len(bodies) == 1


#: The trace layer's spans: ``trace.decode``, ``trace.encode`` and
#: ``trace.attribution``, each entered through one registry lookup, and
#: how many one call opens (a v2 decode times its path-table split and
#: its column copy apart).
TRACE_CALLS = {
    "v1-decode": (1, lambda d, t: load_binary(d / "t.v1")),
    "v2-decode": (2, lambda d, t: load_columnar(d / "t.v2")),
    "v1-encode": (1, lambda d, t: save_binary(t, d / "o.v1")),
    "v2-encode": (1, lambda d, t: save_columnar(t, d / "o.v2")),
    "attribution": (
        1,
        lambda d, t: columns_module.attribution_ids(
            t.columns().var_id, t.columns().paths, "member"
        ),
    ),
}


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, paper_trace):
    directory = tmp_path_factory.mktemp("files")
    save_binary(paper_trace, directory / "t.v1")
    save_columnar(paper_trace, directory / "t.v2")
    return directory


@pytest.mark.parametrize("enabled", [False, True], ids=["disabled", "enabled"])
@pytest.mark.parametrize("call", sorted(TRACE_CALLS))
def test_trace_span_overhead(monkeypatch, trace_files, paper_trace, call, enabled):
    """Disabled: one lookup per span and no span; enabled (the spy is
    not vacuous): each span opens through its one lookup."""
    registry = _spy(monkeypatch, columns_module, enabled=enabled)
    spans, body = TRACE_CALLS[call]
    for _ in range(CALLS):
        body(trace_files, paper_trace)
    assert registry.lookups == CALLS * spans
    assert registry.spans == (CALLS * spans if enabled else 0)
    assert registry.adds == 0
