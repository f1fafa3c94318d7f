"""Incremental re-simulation: bit-identical to a cold full run.

The acceptance property of the whole subsystem: for the paper's golden
T1/T2/T3 pipelines — and for randomized rule edits — transforming and
simulating through the commit store, resuming from residency snapshots,
produces exactly the payload the classic whole-trace route produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.campaign.artifacts import content_key
from repro.campaign.jobs import resolve_rule_text, simulation_fields
from repro.ctypes_model.path import VariablePath
from repro.errors import CacheConfigError
from repro.simbatch.kernel import MultiConfigSimulator
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace, iter_record_chunks
from repro.tracer.interp import trace_program
from repro.tracestore import TraceStore, apply_rules, simulate_chain
from repro.tracestore.resim import snapshot_id
from repro.transform.engine import transform_trace
from repro.workloads.paper_kernels import paper_kernel

pytestmark = pytest.mark.tracestore

CONFIG = CacheConfig(size=1024, block_size=32, associativity=1)
CONFIG_2W = CacheConfig(size=2048, block_size=32, associativity=2)


def v1_direct_mapped_state(sim):
    """``sim``'s state in the ``tdst-snap-v1`` layout, as written before
    every config stored ``(n_sets, ways)`` stacks: direct-mapped kept one
    ``carry`` block per set, scalar totals and per-variable columns."""
    (totals,) = sim.results()
    state = sim.state()
    per_var = sorted(totals.per_variable.items())
    return {
        "config": state["config"],
        "seen_blocks": state["seen_blocks"],
        "per_set_hits": state["per_set_hits"],
        "per_set_misses": state["per_set_misses"],
        "scalars": np.array(
            [
                totals.counts.hits,
                totals.counts.misses,
                totals.counts.compulsory_misses,
                totals.demand_hits,
                totals.demand_accesses,
                sim.chunks_fed,
            ],
            dtype=np.int64,
        ),
        "var_ids": np.array([v for v, _ in per_var], dtype=np.int64),
        "var_hits": np.array([h for _, (h, _) in per_var], dtype=np.int64),
        "var_misses": np.array([m for _, (_, m) in per_var], dtype=np.int64),
        "carry": state["stacks"][:, 0],
    }


def restored(config, state):
    """A one-config simulator loaded from ``state``."""
    sim = MultiConfigSimulator([config])
    sim.restore(state)
    return sim


class TestFastSimState:
    """Snapshots round-trip through a one-config
    :class:`MultiConfigSimulator`, the simulator ``simulate_chain``
    carries."""

    def _arrays(self, n, seed):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 16, size=n).astype(np.uint64)
        sizes = np.full(n, 4, dtype=np.uint32)
        vids = rng.integers(-1, 3, size=n).astype(np.int64)
        return addrs, sizes, vids

    @pytest.mark.parametrize("config", [CONFIG, CONFIG_2W])
    def test_state_round_trip_mid_stream(self, config):
        addrs, sizes, vids = self._arrays(4000, seed=1)
        whole = MultiConfigSimulator([config])
        whole.feed(addrs, sizes, vids)

        first = MultiConfigSimulator([config])
        first.feed(addrs[:1500], sizes[:1500], vids[:1500])
        resumed = restored(config, first.state())
        resumed.feed(addrs[1500:], sizes[1500:], vids[1500:])

        (a,), (b,) = whole.results(), resumed.results()
        assert a.demand_hits == b.demand_hits
        assert a.demand_misses == b.demand_misses
        assert a.evictions == b.evictions
        assert a.counts.compulsory_misses == b.counts.compulsory_misses
        assert a.per_variable == b.per_variable

    def test_state_rejects_other_config(self):
        sim = MultiConfigSimulator([CONFIG])
        with pytest.raises(CacheConfigError):
            restored(CONFIG_2W, sim.state())

    def test_state_stores_stacks_for_direct_mapped(self):
        addrs, sizes, vids = self._arrays(100, seed=3)
        sim = MultiConfigSimulator([CONFIG])
        sim.feed(addrs, sizes, vids)
        state = sim.state()
        assert "carry" not in state
        assert state["stacks"].shape == (CONFIG.n_sets, 1)

    def test_state_refuses_pre_change_direct_mapped_layout(self):
        addrs, sizes, vids = self._arrays(500, seed=4)
        sim = MultiConfigSimulator([CONFIG])
        sim.feed(addrs, sizes, vids)
        with pytest.raises(CacheConfigError, match="stacks"):
            restored(CONFIG, v1_direct_mapped_state(sim))

    def test_state_is_plain_arrays(self):
        addrs, sizes, vids = self._arrays(100, seed=2)
        sim = MultiConfigSimulator([CONFIG])
        sim.feed(addrs, sizes, vids)
        state = sim.state()
        assert all(isinstance(v, np.ndarray) for v in state.values())


class TestIterRecordChunks:
    def test_batches_cover_everything_in_order(self, trace_1a_16):
        records = list(trace_1a_16)
        chunks = list(iter_record_chunks(trace_1a_16, 37))
        assert [r for chunk in chunks for r in chunk] == records
        assert all(len(c) == 37 for c in chunks[:-1])
        assert 0 < len(chunks[-1]) <= 37

    def test_rejects_nonpositive(self, trace_1a_16):
        with pytest.raises(ValueError):
            list(iter_record_chunks(trace_1a_16, 0))


def chain_fields(store, trace, rule_text, config, attribution="base",
                 chunk_records=100, prev=None, snapshots=True):
    base = store.commit_trace(trace, chunk_records=chunk_records)
    applied = apply_rules(store, base, rule_text, prev=prev)
    result = simulate_chain(
        store, applied.commit, config,
        attribution=attribution, snapshots=snapshots,
    )
    return applied, result


@pytest.mark.parametrize(
    "kernel,rule", [("1a", "t1"), ("2a", "t2"), ("3a", "t3")]
)
@pytest.mark.parametrize("attribution", ["base", "member"])
def test_golden_pipelines_incremental_equals_cold(
    tmp_path, kernel, rule, attribution
):
    length = 64
    trace = trace_program(paper_kernel(kernel, length=length))
    rule_text = resolve_rule_text(rule, length)
    reference = transform_trace(trace, rule_text).trace
    (want,) = simulation_fields(reference, [CONFIG], attribution, use_fast=False)

    store = TraceStore(tmp_path / "ts")
    # Cold (no snapshots), warm (writes snapshots), hot (restores them):
    # all three must equal the classic whole-trace payload exactly.
    applied, cold = chain_fields(
        store, trace, rule_text, CONFIG, attribution, snapshots=False
    )
    assert list(store.checkout(applied.commit)) == list(reference)
    assert cold.fields() == want
    _, warm = chain_fields(store, trace, rule_text, CONFIG, attribution)
    assert warm.fields() == want
    _, hot = chain_fields(store, trace, rule_text, CONFIG, attribution)
    assert hot.fields() == want
    assert hot.chunks_skipped == hot.chunks_total
    assert hot.chunks_simulated == 0


def _soa_rule(name, out, n):
    return (
        f"in:\nstruct {name} {{\n    int mX[{n}];\n    double mY[{n}];\n}};\n"
        f"out:\nstruct {out} {{\n    int mX;\n    double mY;\n}}[{n}];\n"
    )


def _synthetic_trace(n=24, reps=4):
    def rec(base, field, addr, size):
        return TraceRecord(
            op=AccessType.LOAD, addr=addr, size=size, func="main",
            scope="GS", var=VariablePath.parse(f"{base}.{field}[0]"),
        )

    records = []
    for _ in range(reps):
        for i in range(n):
            records.append(rec("lA", "mX", 0x1000 + 4 * i, 4))
            records.append(rec("lA", "mY", 0x2000 + 8 * i, 8))
    for i in range(n):
        records.append(rec("lB", "mX", 0x5000 + 4 * i, 4))
        records.append(rec("lB", "mY", 0x6000 + 8 * i, 8))
    return Trace(records)


_sizes = st.sampled_from([8, 16, 24])
_outs = st.sampled_from(["lA1", "lA2"])


@given(n_a=_sizes, n_b=_sizes, out_a=_outs, out_b=st.sampled_from(["lB1", "lB2"]))
@settings(max_examples=10, deadline=None)
def test_random_rule_edits_incremental_equals_cold(
    tmp_path_factory, n_a, n_b, out_a, out_b
):
    """Edit both rules randomly; the incremental chain must match a cold
    engine+simulator run on the edited rules, bit for bit."""
    tmp_path = tmp_path_factory.mktemp("edits")
    trace = _synthetic_trace(n=24)
    v1 = _soa_rule("lA", "lAoS", 24) + _soa_rule("lB", "lBoS", 24)
    v2 = _soa_rule("lA", out_a, n_a) + _soa_rule("lB", out_b, n_b)

    store = TraceStore(tmp_path / "ts")
    applied1, _ = chain_fields(store, trace, v1, CONFIG, chunk_records=32)
    applied2, result2 = chain_fields(
        store, trace, v2, CONFIG, chunk_records=32, prev=applied1.commit
    )
    reference = transform_trace(trace, v2).trace
    assert list(store.checkout(applied2.commit)) == list(reference)
    assert [result2.fields()] == simulation_fields(
        reference, [CONFIG], "base", use_fast=False
    )


def test_single_rule_edit_reuses_untouched_chunks(tmp_path):
    trace = _synthetic_trace(n=24, reps=6)
    v1 = _soa_rule("lA", "lAoS", 24) + _soa_rule("lB", "lBoS", 24)
    v2 = _soa_rule("lA", "lAoS", 24) + _soa_rule("lB", "lB2", 24)
    store = TraceStore(tmp_path / "ts")
    applied1, _ = chain_fields(store, trace, v1, CONFIG, chunk_records=32)
    applied2, result2 = chain_fields(
        store, trace, v2, CONFIG, chunk_records=32, prev=applied1.commit
    )
    # lA-only chunks (the bulk of the trace) are provably untouched.
    assert applied2.chunks_reused > 0
    assert applied2.chunks_transformed < applied2.chunks_total
    assert result2.chunks_skipped > 0
    reference = transform_trace(trace, v2).trace
    assert [result2.fields()] == simulation_fields(
        reference, [CONFIG], "base", use_fast=False
    )


def test_apply_result_trace_equals_checkout(tmp_path):
    """A full transform hands its output columns on; an edit against
    ``prev`` keeps none and reads the commit back.  Either way the
    trace is the commit's."""
    trace = _synthetic_trace(n=24, reps=6)
    v1 = _soa_rule("lA", "lAoS", 24) + _soa_rule("lB", "lBoS", 24)
    v2 = _soa_rule("lA", "lAoS", 24) + _soa_rule("lB", "lB2", 24)
    store = TraceStore(tmp_path / "ts")
    base = store.commit_trace(trace, chunk_records=32)
    full = apply_rules(store, base, v1)
    assert len(full.outputs) == full.chunks_total > 1
    assert list(full.trace(store)) == list(store.checkout(full.commit))
    edit = apply_rules(store, base, v2, prev=full.commit)
    assert edit.chunks_reused > 0 and edit.outputs is None
    assert list(edit.trace(store)) == list(store.checkout(edit.commit))


def test_identical_rule_text_returns_previous_commit(tmp_path):
    trace = _synthetic_trace()
    rule = _soa_rule("lA", "lAoS", 24)
    store = TraceStore(tmp_path / "ts")
    base = store.commit_trace(trace, chunk_records=32)
    first = apply_rules(store, base, rule)
    second = apply_rules(store, base, rule, prev=first.commit)
    assert second.commit.id == first.commit.id
    assert second.chunks_transformed == 0
    assert second.chunks_reused == second.chunks_total


def test_snapshot_mismatch_falls_back_to_cold(tmp_path):
    trace = _synthetic_trace()
    rule = _soa_rule("lA", "lAoS", 24)
    store = TraceStore(tmp_path / "ts")
    applied, warm = chain_fields(store, trace, rule, CONFIG, chunk_records=32)
    # A different geometry shares no snapshots: full simulation, correct
    # numbers, no crash.
    base = store.commit_trace(trace, chunk_records=32)
    other = simulate_chain(store, applied.commit, CONFIG_2W)
    assert other.chunks_skipped == 0
    reference = transform_trace(trace, rule).trace
    assert [other.fields()] == simulation_fields(
        reference, [CONFIG_2W], "base", use_fast=False
    )


def test_pre_change_snapshots_resume_cold(tmp_path):
    trace = _synthetic_trace()
    rule = _soa_rule("lA", "lAoS", 24)
    store = TraceStore(tmp_path / "ts")
    base = store.commit_trace(trace, chunk_records=32)
    commit = apply_rules(store, base, rule).commit
    blob_ids = commit.blob_ids
    sim = MultiConfigSimulator([CONFIG])
    sim.feed(np.arange(0, 4096, 8, dtype=np.uint64))
    stale = v1_direct_mapped_state(sim)
    (want,) = simulation_fields(
        transform_trace(trace, rule).trace, [CONFIG], "base", use_fast=False
    )
    # A store written before the layout change keys its snapshots by
    # the v1 schema tag, which the v2 lookup never asks for ...
    for k in range(1, len(blob_ids) + 1):
        store.put_snapshot(
            content_key("tdst-snap-v1", CONFIG.describe(), "base",
                        *blob_ids[:k]),
            stale,
        )
    cold = simulate_chain(store, commit, CONFIG, snapshots=True)
    assert cold.chunks_skipped == 0
    assert cold.fields() == want
    # ... and a v1 state filed under a v2 id is refused, not misread.
    store = TraceStore(tmp_path / "ts2")
    base = store.commit_trace(trace, chunk_records=32)
    commit = apply_rules(store, base, rule).commit
    for k in range(1, len(blob_ids) + 1):
        store.put_snapshot(snapshot_id(CONFIG, "base", blob_ids[:k]), stale)
    refused = simulate_chain(store, commit, CONFIG)
    assert refused.chunks_skipped == 0
    assert refused.fields() == want


PPC440 = CacheConfig.ppc440()
FIFO_2W = CacheConfig(size=512, block_size=32, associativity=2, policy="fifo")


@pytest.mark.parametrize("attribution", ["base", "member"])
def test_fifo_chain_resumes_from_snapshots(tmp_path, attribution):
    """The PPC440's round-robin chain: cold, warm and hot passes all
    store the reference payload, and the hot pass restores the last
    snapshot instead of simulating."""
    length = 64
    trace = trace_program(paper_kernel("3a", length=length))
    rule_text = resolve_rule_text("t3", length)
    reference = transform_trace(trace, rule_text).trace
    (want,) = simulation_fields(reference, [PPC440], attribution, use_fast=False)
    store = TraceStore(tmp_path / "ts")
    _, cold = chain_fields(
        store, trace, rule_text, PPC440, attribution, snapshots=False
    )
    _, warm = chain_fields(store, trace, rule_text, PPC440, attribution)
    _, hot = chain_fields(store, trace, rule_text, PPC440, attribution)
    assert cold.fields() == warm.fields() == hot.fields() == want
    assert warm.chunks_total > 1 and warm.snapshots_saved == warm.chunks_total
    assert hot.chunks_skipped == hot.chunks_total


def test_fifo_chain_resumes_mid_chain_after_an_edit(tmp_path):
    trace = _synthetic_trace(n=24, reps=6)
    v1 = _soa_rule("lA", "lAoS", 24) + _soa_rule("lB", "lBoS", 24)
    v2 = _soa_rule("lA", "lAoS", 24) + _soa_rule("lB", "lB2", 24)
    store = TraceStore(tmp_path / "ts")
    applied1, _ = chain_fields(store, trace, v1, FIFO_2W, chunk_records=32)
    _, result = chain_fields(
        store, trace, v2, FIFO_2W, chunk_records=32, prev=applied1.commit
    )
    assert 0 < result.chunks_skipped < result.chunks_total
    reference = transform_trace(trace, v2).trace
    assert [result.fields()] == simulation_fields(
        reference, [FIFO_2W], "base", use_fast=False
    )


@pytest.mark.parametrize(
    "expected,argv",
    [
        ("lru_2way_member.txt",
         ["--size", "256", "--assoc", "2", "--attribution", "member"]),
        ("direct_base.txt", ["--size", "128", "--assoc", "1"]),
    ],
)
def test_lru_snapshots_of_an_older_store_restore_every_chunk(
    tmp_path, capsys, expected, argv
):
    """``tests/data/resim_lru_store`` holds a 4-chunk trace commit and
    the LRU snapshots ``tdst resim`` wrote for it before the FIFO pass
    existed, with what that run printed: a resim restores the last
    snapshot and prints the same numbers."""
    import shutil
    from pathlib import Path

    from repro.cli import main

    fixture = Path(__file__).parents[1] / "data" / "resim_lru_store"
    shutil.copytree(fixture / "store", tmp_path / "store")
    args = ["resim", "trace/main", "--store", str(tmp_path / "store"),
            "--block", "32", *argv]
    assert main(args) == 0
    head, *numbers = capsys.readouterr().out.splitlines()
    assert "4 restored from snapshot, 0 simulated, 0 snapshot(s) saved" in head
    want = (fixture / expected).read_text(encoding="utf-8").splitlines()
    assert "0 restored from snapshot, 4 simulated" in want[0]
    assert numbers == want[1:]
    assert main([*args, "--cold"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == want[1:]
