"""Unit tests for the trace-driven simulator front-end."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import CacheSimulator, attribution_label, simulate
from repro.ctypes_model.path import VariablePath
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import Trace


def _rec(op, addr, size=4, var=None, func="main"):
    return TraceRecord(
        op, addr, size, func,
        scope="LS" if var else None,
        frame=0 if var else None,
        thread=1 if var else None,
        var=VariablePath.parse(var) if var else None,
    )


def small_cfg():
    return CacheConfig(size=256, block_size=32, associativity=1)


class TestAccounting:
    def test_hits_plus_misses_equals_accesses(self, trace_1a_16, paper_cache):
        result = simulate(trace_1a_16, paper_cache)
        s = result.stats
        assert s.hits + s.misses == s.accesses
        assert s.accesses == len(trace_1a_16.data_accesses())

    def test_per_set_sums_match_block_totals(self, trace_1a_16, paper_cache):
        s = simulate(trace_1a_16, paper_cache).stats
        assert int(s.per_set.hits.sum()) == s.block_hits
        assert int(s.per_set.misses.sum()) == s.block_misses

    def test_per_variable_sums_bounded_by_totals(self, trace_1a_16, paper_cache):
        s = simulate(trace_1a_16, paper_cache).stats
        var_total = sum(c.accesses for c in s.by_variable.values())
        assert var_total <= s.block_hits + s.block_misses

    def test_modify_counts_once_as_write(self):
        t = [_rec(AccessType.MODIFY, 0x00)]
        s = simulate(t, small_cfg()).stats
        assert s.writes == 1 and s.reads == 0
        assert s.write_misses == 1

    def test_misc_skipped(self):
        t = [_rec(AccessType.MISC, 0x00), _rec(AccessType.LOAD, 0x00)]
        s = simulate(t, small_cfg()).stats
        assert s.accesses == 1

    def test_compulsory_classification(self):
        t = [
            _rec(AccessType.LOAD, 0x00),       # compulsory
            _rec(AccessType.LOAD, 0x100),      # compulsory, evicts 0x00
            _rec(AccessType.LOAD, 0x00),       # conflict (seen before)
        ]
        s = simulate(t, small_cfg()).stats
        assert s.block_misses == 3
        assert s.compulsory_misses == 2
        assert s.conflict_or_capacity_misses == 1

    def test_eviction_and_conflict_matrix(self):
        t = [
            _rec(AccessType.LOAD, 0x00, var="a[0]"),
            _rec(AccessType.LOAD, 0x100, var="b[0]"),
        ]
        result = simulate(t, small_cfg())
        assert result.stats.evictions == 1
        assert result.conflicts.counts[("a", "b")] == 1
        assert result.conflicts.evictions_of("a") == 1
        assert result.conflicts.evictions_by("b") == 1

    def test_empty_trace(self):
        s = simulate([], small_cfg()).stats
        assert s.accesses == 0
        assert s.miss_ratio == 0.0


class TestAttribution:
    def test_base_mode(self):
        r = _rec(AccessType.LOAD, 0, var="lSoA.mX[3]")
        assert attribution_label(r, "base") == "lSoA"

    def test_member_mode(self):
        r = _rec(AccessType.LOAD, 0, var="lSoA.mX[3]")
        assert attribution_label(r, "member") == "lSoA.mX"
        r2 = _rec(AccessType.LOAD, 0, var="lAoS[3].mX")
        assert attribution_label(r2, "member") == "lAoS.mX"

    def test_member_mode_bare(self):
        r = _rec(AccessType.LOAD, 0, var="i")
        assert attribution_label(r, "member") == "i"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            attribution_label(_rec(AccessType.LOAD, 0, var="x"), "weird")

    def test_member_attribution_splits_series(self, trace_1a_16, paper_cache):
        result = simulate(trace_1a_16, paper_cache, attribution="member")
        assert "lSoA.mX" in result.stats.per_var_set
        assert "lSoA.mY" in result.stats.per_var_set

    def test_unsymbolized_not_attributed(self):
        t = [_rec(AccessType.LOAD, 0x00)]
        s = simulate(t, small_cfg()).stats
        assert s.by_variable == {}


class TestIncrementalFeeding:
    def test_feed_accumulates(self, trace_1a_16, paper_cache):
        sim = CacheSimulator(paper_cache)
        sim.feed(trace_1a_16)
        once = sim.result().stats.accesses
        sim.feed(trace_1a_16)
        assert sim.result().stats.accesses == 2 * once

    def test_warm_cache_second_pass_hits(self, trace_1a_16, paper_cache):
        sim = CacheSimulator(paper_cache)
        sim.feed(trace_1a_16)
        first_misses = sim.result().stats.misses
        sim.feed(trace_1a_16)
        assert sim.result().stats.misses == first_misses  # all warm

    def test_summary_text(self, trace_1a_16, paper_cache):
        text = simulate(trace_1a_16, paper_cache).summary()
        assert "demand accesses" in text
        assert "per-variable" in text


class TestModifySemantics:
    """Modify is one dirtying access (cachegrind), not read+write (DineroIV)."""

    def test_modify_only_trace_counts_each_record_once(self):
        cfg = small_cfg()
        t = [
            _rec(AccessType.MODIFY, 0x00),   # miss, fills and dirties
            _rec(AccessType.MODIFY, 0x00),   # hit on the same line
            _rec(AccessType.MODIFY, 0x100),  # miss, evicts dirty 0x00
        ]
        s = simulate(t, cfg).stats
        assert s.accesses == len(t)  # no read+write doubling
        assert s.reads == 0
        assert s.writes == len(t)
        assert s.write_hits == 1
        assert s.write_misses == 2
        # The modified line is dirty, so eviction writes it back.
        assert s.evictions == 1
        assert s.writebacks == 1

    def test_modify_matches_plain_store_outcomes(self):
        cfg = small_cfg()
        addrs = [0x00, 0x20, 0x00, 0x100, 0x00]
        via_modify = simulate(
            [_rec(AccessType.MODIFY, a) for a in addrs], cfg
        ).stats
        via_store = simulate(
            [_rec(AccessType.STORE, a) for a in addrs], cfg
        ).stats
        assert via_modify.hits == via_store.hits
        assert via_modify.misses == via_store.misses
        assert via_modify.writebacks == via_store.writebacks


class TestSimulateStream:
    def _write_trace(self, tmp_path, n=500):
        import random

        from repro.trace.format import write_trace

        rng = random.Random(7)
        records = [
            _rec(
                AccessType.LOAD if rng.random() < 0.7 else AccessType.STORE,
                rng.randrange(0, 1 << 13),
                size=rng.choice([1, 4, 8, 32, 64]),
            )
            for _ in range(n)
        ]
        path = tmp_path / "stream.out"
        write_trace(records, path)
        return path, records

    def test_totals_equal_whole_trace_pass(self, tmp_path):
        from repro.cache.fastsim import fast_trace_counts
        from repro.simbatch import simulate_batch

        path, records = self._write_trace(tmp_path)
        cfg = CacheConfig(size=1024, block_size=32, associativity=4)
        result = simulate_batch(path, [cfg], chunk_records=64)
        (totals,) = result.results
        addrs = Trace(records).addresses()
        sizes = Trace(records).sizes()
        batch = fast_trace_counts(addrs, cfg, sizes)
        assert result.accesses == len(records)
        assert totals.counts.hits == batch.counts.hits
        assert totals.counts.misses == batch.counts.misses
        assert totals.demand_misses == batch.demand_misses
        assert totals.evictions == batch.evictions

    def test_bounded_residency_observed_via_chunks(self, tmp_path, monkeypatch):
        """A file bigger than one chunk streams through in bounded batches."""
        from repro.simbatch import runner, simulate_batch

        fed = []

        class Recording(runner.MultiConfigSimulator):
            def feed(self, addrs, sizes=None, var_ids=None):
                fed.append(len(addrs))
                return super().feed(addrs, sizes, var_ids)

        monkeypatch.setattr(runner, "MultiConfigSimulator", Recording)
        path, records = self._write_trace(tmp_path, n=500)
        result = simulate_batch(path, [small_cfg()], chunk_records=100)
        assert result.chunks == 5
        assert fed == [100] * 5  # bounded residency
        assert sum(fed) == result.accesses == len(records)

    def test_accepts_record_iterable(self):
        from repro.simbatch import simulate_batch

        records = [_rec(AccessType.LOAD, a * 4) for a in range(64)]
        result = simulate_batch(iter(records), [small_cfg()], chunk_records=16)
        assert result.accesses == 64
        assert result.chunks == 4

    def test_matches_reference_simulator(self, tmp_path):
        from repro.simbatch import simulate_batch

        path, records = self._write_trace(tmp_path, n=300)
        cfg = CacheConfig(size=1024, block_size=32, associativity=2)
        (stream,) = simulate_batch(path, [cfg], chunk_records=47).results
        stats = simulate(records, cfg).stats
        assert stream.demand_hits == stats.hits
        assert stream.demand_misses == stats.misses
        assert stream.counts.hits == stats.block_hits
        assert stream.counts.misses == stats.block_misses
        assert stream.counts.compulsory_misses == stats.compulsory_misses

    def test_rejects_uncovered_config(self, tmp_path):
        from repro.errors import CacheConfigError
        from repro.simbatch import simulate_batch

        path, _ = self._write_trace(tmp_path, n=10)
        plru = CacheConfig(size=32 * 1024, block_size=32, associativity=64,
                           policy="plru")
        with pytest.raises(CacheConfigError):
            simulate_batch(path, [plru])

    def test_summary_text(self, tmp_path, capsys):
        from repro.cli import main

        path, _ = self._write_trace(tmp_path, n=50)
        assert main(["sim", str(path), "--fast", "--size", "256"]) == 0
        text = capsys.readouterr().out
        assert "demand accesses" in text
        assert "chunks" in text
