"""The kernel's FIFO pass: FIFO and round-robin caches without records.

Every payload the pass produces must equal, byte for byte, what the
per-record reference simulator stores for the same config
(``simulation_fields(..., use_fast=False)``), whatever the geometry,
the policy spelling, the read/write/modify mix, the straddling accesses
and the chunk cuts — with the simulator rebuilt from its own
``state()`` at every cut.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.campaign.jobs import simulation_fields
from repro.ctypes_model.path import VariablePath
from repro.errors import CacheConfigError
from repro.simbatch import MultiConfigSimulator, kernel_fields, plan_batch
from repro.simbatch.kernel import _FifoSets
from repro.trace.columns import MISC_KIND, attribution_ids
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace

pytestmark = pytest.mark.simbatch

PATHS = (None, "lA", "lB[3]", "lS.mX", "lS.mY", "lS1[2].mZ")
OPS = (AccessType.LOAD, AccessType.STORE, AccessType.MODIFY)


def fifo_config(n_sets, ways, policy, block=32):
    """``ways == 0`` makes a fully associative cache of 8 lines."""
    if ways == 0:
        return CacheConfig(size=8 * block, block_size=block, associativity=0,
                           policy=policy)
    return CacheConfig(size=n_sets * ways * block, block_size=block,
                       associativity=ways, policy=policy)


def chunked_fields(trace, config, attribution, cuts):
    """The pass's payload fields, fed in the chunks between ``cuts`` and
    rebuilt from ``state()`` at every cut."""
    cols = trace.columns()
    data = np.flatnonzero(cols.kind != MISC_KIND)
    names, ids = attribution_ids(cols.var_id[data], cols.paths, attribution)
    addrs = cols.addr[data]
    sizes = cols.size[data].astype(np.uint32)
    bounds = [0, *cuts, len(data)]
    sim = MultiConfigSimulator([config])
    for lo, hi in zip(bounds, bounds[1:]):
        state = sim.state()
        sim = MultiConfigSimulator([config])
        sim.restore(state)
        sim.feed(addrs[lo:hi], sizes[lo:hi], ids[lo:hi])
    (counts,) = sim.results()
    return kernel_fields(config, counts, names)


def payload_bytes(fields):
    return json.dumps(fields, sort_keys=True).encode("utf-8")


@st.composite
def geometries(draw):
    ways = draw(st.sampled_from([0, 1, 2, 2, 4, 4, 8, 64]))
    n_sets = 1 if ways == 0 else draw(st.sampled_from([1, 2, 4, 16, 64]))
    policy = draw(st.sampled_from(["fifo", "round-robin", "rr"]))
    block = draw(st.sampled_from([16, 32]))
    return fifo_config(n_sets, ways, policy, block)


@st.composite
def streams(draw, config):
    """Accesses crowding a few sets with more tags than ways, so sets
    fill, evict and re-reference."""
    n_sets, block = config.n_sets, config.block_size
    hot_sets = sorted({0, n_sets // 2, n_sets - 1})
    access = st.tuples(
        st.sampled_from(hot_sets),
        st.integers(0, config.ways + 2),
        st.integers(0, block - 1),
        st.sampled_from([1, 4, 8, 40]),
        st.sampled_from(OPS),
        st.sampled_from(PATHS),
    )
    records = []
    for set_index, tag, offset, size, op, path in draw(
        st.lists(access, max_size=300)
    ):
        addr = (tag * n_sets + set_index) * block + offset
        var = None if path is None else VariablePath.parse(path)
        records.append(TraceRecord(op, addr, size, "f", var=var))
    return records


class TestAgainstReference:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_payload_bytes_equal_reference(self, data):
        config = data.draw(geometries(), label="config")
        records = data.draw(streams(config), label="records")
        attribution = data.draw(st.sampled_from(["base", "member"]))
        cuts = sorted(
            data.draw(st.sets(st.integers(0, len(records)), max_size=6),
                      label="cuts")
        )
        trace = Trace(records)
        (want,) = simulation_fields(trace, [config], attribution,
                                    use_fast=False)
        got = chunked_fields(trace, config, attribution, cuts)
        assert payload_bytes(got) == payload_bytes(want)

    @pytest.mark.parametrize(
        "config",
        [fifo_config(1, 2, "fifo"), fifo_config(4, 4, "round-robin"),
         fifo_config(16, 64, "rr"), fifo_config(1, 0, "fifo")],
        ids=lambda c: c.describe(),
    )
    def test_long_stream_with_many_cuts(self, config):
        """Thousands of accesses over more tags than ways, cut at 40
        random points: every set fills, evicts and re-references
        across restores."""
        rng = np.random.default_rng(11)
        n = 4000
        sets = rng.integers(0, config.n_sets, n)
        tags = rng.integers(0, config.ways + 3, n)
        offsets = rng.integers(0, config.block_size, n)
        addrs = (tags * config.n_sets + sets) * config.block_size + offsets
        records = [
            TraceRecord(OPS[i % 3], int(addr), int(size), "f",
                        var=VariablePath.parse(PATHS[1 + i % 5]))
            for i, (addr, size) in enumerate(
                zip(addrs, rng.choice([1, 4, 40], n))
            )
        ]
        cuts = sorted(rng.choice(np.arange(1, n), 40, replace=False).tolist())
        trace = Trace(records)
        (want,) = simulation_fields(trace, [config], "member", use_fast=False)
        assert want["evictions"] > 0
        got = chunked_fields(trace, config, "member", cuts)
        assert payload_bytes(got) == payload_bytes(want)

    @pytest.mark.parametrize("rule", [None, "t3"])
    @pytest.mark.parametrize("attribution", ["base", "member"])
    def test_ppc440_paper_traces(self, rule, attribution):
        from repro.tracer.interp import trace_program
        from repro.transform.engine import TransformEngine
        from repro.transform.paper_rules import paper_rule
        from repro.workloads.paper_kernels import paper_kernel

        trace = trace_program(paper_kernel("3a", length=64))
        if rule is not None:
            trace = TransformEngine(paper_rule(rule, length=64)).transform(
                trace
            ).trace
        config = CacheConfig.ppc440()
        fast = simulation_fields(trace, [config], attribution)
        slow = simulation_fields(trace, [config], attribution, use_fast=False)
        assert payload_bytes(fast[0]) == payload_bytes(slow[0])

    def test_two_way_fifo_counter_example(self):
        """``A B A C A`` in one 2-way set: FIFO evicts A for C (it was
        filled first), so the last A misses where LRU would hit."""
        blocks = np.array([0, 1, 0, 2, 0], dtype=np.int64)
        sets = _FifoSets(n_sets=1, ways=2)
        assert sets.positions(blocks).tolist() == [1, 1, 0, 1, 1]
        addrs = (blocks * 32).astype(np.uint64)
        fifo = CacheConfig(size=64, block_size=32, associativity=2,
                           policy="fifo")
        lru = CacheConfig(size=64, block_size=32, associativity=2)
        got_fifo, got_lru = MultiConfigSimulator([fifo, lru]).feed(addrs)
        assert (got_fifo.misses, got_lru.misses) == (4, 3)


class TestMixedBatch:
    def test_fifo_members_beside_lru_members(self):
        rng = np.random.default_rng(3)
        addrs = (rng.integers(0, 64, 3000) * 32).astype(np.uint64)
        sizes = rng.choice([1, 8, 40], 3000).astype(np.uint32)
        configs = [
            CacheConfig(size=512, block_size=32, associativity=2),
            CacheConfig(size=512, block_size=32, associativity=2, policy="fifo"),
            CacheConfig(size=512, block_size=32, associativity=2, policy="rr"),
            CacheConfig(size=512, block_size=32, associativity=4,
                        policy="round-robin"),
            CacheConfig(size=512, block_size=32, associativity=0, policy="fifo"),
            CacheConfig(size=512, block_size=32, associativity=1, policy="fifo"),
        ]
        together = MultiConfigSimulator(configs)
        together.feed(addrs, sizes)
        for config, got in zip(configs, together.results()):
            alone = MultiConfigSimulator([config])
            alone.feed(addrs, sizes)
            (want,) = alone.results()
            assert kernel_fields(config, got, []) == kernel_fields(
                config, want, []
            )
            assert np.array_equal(got.counts.per_set.misses,
                                  want.counts.per_set.misses)

    def test_plan_shares_one_pass_per_fifo_geometry(self):
        configs = [
            CacheConfig(size=512, block_size=32, associativity=2),
            CacheConfig(size=512, block_size=32, associativity=2, policy="fifo"),
            CacheConfig(size=512, block_size=32, associativity=2, policy="rr"),
            CacheConfig(size=512, block_size=32, associativity=4, policy="fifo"),
            CacheConfig(size=512, block_size=32, associativity=1, policy="fifo"),
        ]
        plan = plan_batch(configs)
        assert [[m.index for m in g.members] for g in plan.groups] == [[0], [4]]
        assert [[m.index for m in g.members] for g in plan.fifo] == [[3], [1, 2]]
        assert plan.n_fifo == 3 and plan.n_batched == 5
        assert plan.describe() == (
            "5 configs in 4 geometry group(s) over 1 block size(s), 3 FIFO"
        )

    def test_lru_only_describe_unchanged(self):
        plan = plan_batch([CacheConfig(size=512, block_size=32, associativity=2)])
        assert plan.describe() == (
            "1 configs in 1 geometry group(s) over 1 block size(s)"
        )


class TestFifoState:
    def test_residency_newest_first(self):
        sets = _FifoSets(n_sets=2, ways=3)
        # set 0: blocks 0, 2, 4, 6 (6 evicts 0); set 1: block 1 only
        sets.positions(np.array([0, 2, 1, 4, 6], dtype=np.int64))
        assert sets.residency().tolist() == [[6, 4, 2], [1, -1, -1]]

    def test_load_round_trips(self):
        sets = _FifoSets(n_sets=2, ways=3)
        sets.positions(np.array([0, 2, 1, 4, 6, 8], dtype=np.int64))
        again = _FifoSets(n_sets=2, ways=3)
        again.load(sets.residency())
        assert again.residency().tolist() == sets.residency().tolist()
        stream = np.array([2, 10, 4, 1, 3, 6, 12], dtype=np.int64)
        assert again.positions(stream).tolist() == sets.positions(stream).tolist()

    def test_lru_only_state_has_no_fifo_rows(self):
        sim = MultiConfigSimulator([CacheConfig(size=512, block_size=32,
                                                associativity=2)])
        sim.feed(np.arange(0, 4096, 32, dtype=np.uint64))
        assert "fifo" not in sim.state()

    def test_fifo_state_layout(self):
        ppc440 = CacheConfig.ppc440()
        sim = MultiConfigSimulator([ppc440])
        sim.feed(np.arange(0, 64 * 1024, 32, dtype=np.uint64))
        state = sim.state()
        assert state["stacks"].shape == (0, 1)
        rows = state["fifo"].reshape(16, 64)
        # 2048 blocks through 16 sets of 64: each set holds its last 64
        # blocks, newest first.
        assert rows[0, 0] == 2048 - 16 and rows[0, 63] == 1024
        assert (rows[:, :-1] > rows[:, 1:]).all()

    def test_restore_rejects_missing_or_misshapen_fifo_rows(self):
        config = CacheConfig(size=512, block_size=32, associativity=2,
                             policy="fifo")
        sim = MultiConfigSimulator([config])
        sim.feed(np.arange(0, 2048, 32, dtype=np.uint64))
        state = sim.state()
        missing = dict(state)
        del missing["fifo"]
        with pytest.raises(CacheConfigError, match="fifo"):
            MultiConfigSimulator([config]).restore(missing)
        short = dict(state, fifo=state["fifo"][:-1])
        with pytest.raises(CacheConfigError, match="FIFO rows"):
            MultiConfigSimulator([config]).restore(short)


class TestTelemetry:
    def test_fifo_span_only_with_fifo_members(self):
        from repro.obsv.telemetry import get_telemetry

        addrs = np.arange(0, 8192, 8, dtype=np.uint64)
        lru = CacheConfig(size=512, block_size=32, associativity=2)
        fifo = CacheConfig(size=512, block_size=32, associativity=2,
                           policy="fifo")
        tele = get_telemetry()
        tele.reset()
        tele.enable()
        try:
            MultiConfigSimulator([lru]).feed(addrs)
            assert not [
                s for s in tele.snapshot()["spans"] if s["name"] == "simbatch.fifo"
            ]
            MultiConfigSimulator([lru, fifo, fifo]).feed(addrs)
            (span,) = [
                s for s in tele.snapshot()["spans"] if s["name"] == "simbatch.fifo"
            ]
        finally:
            tele.disable()
            tele.reset()
        assert span["args"] == {"configs": 2, "blocks": len(addrs)}
