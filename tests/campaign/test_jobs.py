"""Tests for grid expansion, stage keys and the per-job pipeline."""

import pytest

from repro.campaign.artifacts import ArtifactStore
from repro.campaign.jobs import (
    Job,
    execute_job,
    expand_jobs,
    resolve_rule_text,
    simulation_fields,
    trace_key,
    transform_key,
)
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry
from repro.errors import ReproError, TraceFormatError


@pytest.fixture
def spec():
    return CampaignSpec(
        name="t",
        grid=(
            GridEntry(kernel="1a", length=64, rules=("baseline", "t1")),
            GridEntry(kernel="1a", length=64, rules=("baseline",)),
            GridEntry(kernel="3a", length=64, rules=("t3",)),
        ),
        caches=(CacheSpec(size=2048), CacheSpec(size=4096)),
        attribution=("base",),
    )


class TestExpansion:
    def test_job_count_matches_spec(self, spec):
        jobs = expand_jobs(spec)
        # Raw grid product is 8, but "1a baseline" appears in two grid
        # entries, so expansion collapses those duplicates (2 caches).
        assert spec.n_points() == (2 + 1 + 1) * 2
        assert len(jobs) == spec.n_points() - 2

    def test_job_ids_unique(self, spec):
        jobs = expand_jobs(spec)
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == len(ids)


class TestRuleResolution:
    def test_baseline_is_none(self):
        assert resolve_rule_text("baseline", 64) is None
        assert resolve_rule_text("none", 64) is None

    def test_paper_rules_parameterised_by_length(self):
        t1 = resolve_rule_text("t1", 64)
        assert "mX[64]" in t1
        assert resolve_rule_text("t1", 64) != resolve_rule_text("t1", 128)
        assert "lSetHashingArray" in resolve_rule_text("t3", 64)

    def test_file_reference_reads_text(self, tmp_path):
        rules = tmp_path / "r.rules"
        rules.write_text("displace:\nlSoA + 4096\n")
        assert resolve_rule_text(f"file:{rules}", 64) == rules.read_text()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            resolve_rule_text(f"file:{tmp_path}/missing.rules", 64)

    def test_unresolvable_raises(self):
        with pytest.raises(ValueError, match="unresolvable"):
            resolve_rule_text("t9", 64)


def open_blob_spy(monkeypatch):
    """Record every chunk blob the trace store opens from now on."""
    from repro.tracestore.store import TraceStore

    opened = []
    open_blob = TraceStore.open_blob
    monkeypatch.setattr(
        TraceStore, "open_blob",
        lambda store, bid: opened.append(bid) or open_blob(store, bid),
    )
    return opened


class TestExecution:
    def test_grid_task_traces_then_hits_cache(self, tmp_path, monkeypatch):
        """The task that misses a program's trace commits it and
        simulates the trace it holds in memory, opening no blob; a later
        task with another cache hits the commit and decodes it once."""
        from repro.tracestore.store import TraceStore

        opened = open_blob_spy(monkeypatch)
        job = Job(kernel="1a", length=32, rule="baseline",
                  cache=CacheSpec(size=2048))
        first = execute_job(job, tmp_path)
        assert first["cache_hits"] == {"simulation": False, "trace": False}
        assert first["records"] > 0
        assert opened == []
        other = Job(kernel="1a", length=32, rule="baseline",
                    cache=CacheSpec(size=4096))
        second = execute_job(other, tmp_path)
        assert second["cache_hits"] == {"simulation": False, "trace": True}
        assert second["records"] == first["records"]
        base = TraceStore(tmp_path / "tracestore").resolve(
            f"trace/{trace_key('1a', 32)}"
        )
        assert opened == list(base.blob_ids)

    def test_grid_task_trace_hit_reads_the_count_without_decoding(
        self, tmp_path, monkeypatch
    ):
        """On a primed trace store a ``file:`` point whose payload was
        lost takes the record count from the commits, its transform from
        the lineage's head and its counts from the chain's last
        snapshot: it reads no chunk blob."""
        import shutil

        from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS

        rules = tmp_path / "t1.rules"
        rules.write_text(RULE_T1_SOA_TO_AOS.format(length=32))
        job = Job(kernel="1a", length=32, rule=f"file:{rules}",
                  cache=CacheSpec(size=2048))
        root = tmp_path / "c"
        cold = execute_job(job, root)
        shutil.rmtree(root / "artifacts")
        opened = open_blob_spy(monkeypatch)
        warm = execute_job(job, root)
        assert opened == []
        assert warm["route"] == "tracestore"
        assert warm["cache_hits"] == {
            "simulation": False, "trace": True, "transform": True
        }
        assert warm["records"] == cold["records"]
        assert {k: warm[k] for k in ("hits", "misses")} == {
            k: cold[k] for k in ("hits", "misses")
        }

    @pytest.mark.parametrize("cache", [CacheSpec(size=2048),
                                       CacheSpec(ppc440=True)])
    def test_cold_rule_point_simulates_the_engine_output(
        self, tmp_path, monkeypatch, cache
    ):
        """A cold rule point on route ``fast`` decodes its base chunk
        once (to transform it) and never decodes the chunk it just
        wrote: it simulates the engine's output columns."""
        from repro.tracestore.store import TraceStore

        execute_job(
            Job(kernel="3a", length=64, rule="baseline", cache=cache), tmp_path
        )
        open_blob = TraceStore.open_blob
        opened = open_blob_spy(monkeypatch)
        job = Job(kernel="3a", length=64, rule="t3", cache=cache)
        payload = execute_job(job, tmp_path)
        assert payload["route"] == "fast"
        store = TraceStore(tmp_path / "tracestore")
        base = store.resolve(f"trace/{trace_key('3a', 64)}")
        (xref,) = [ref for ref in store.refs() if ref.startswith("xform/")]
        transformed = store.resolve(xref)
        assert sorted(opened) == sorted(base.blob_ids)
        assert not set(opened) & set(transformed.blob_ids)
        monkeypatch.setattr(TraceStore, "open_blob", open_blob)
        (want,) = simulation_fields(
            store.checkout(transformed), [cache.to_config()], "base",
            use_fast=False,
        )
        assert {k: payload[k] for k in want} == want

    def test_grid_task_on_torn_trace_commit_fails(self, tmp_path):
        """A torn commit object behind the trace ref is an error naming
        it, not a silent re-trace or a JSON traceback."""
        from repro.tracestore.store import TraceStore

        def job(size):
            return Job(kernel="1a", length=32, rule="baseline",
                       cache=CacheSpec(size=size))

        execute_job(job(2048), tmp_path)
        store = TraceStore(tmp_path / "tracestore")
        commit = store.commit_path(store.get_ref(f"trace/{trace_key('1a', 32)}"))
        commit.write_bytes(commit.read_bytes()[:-1])
        with pytest.raises(TraceFormatError, match="corrupt commit"):
            execute_job(job(4096), tmp_path)

    def test_baseline_job_end_to_end(self, tmp_path):
        job = Job(kernel="1a", length=32, rule="baseline", cache=CacheSpec(size=2048))
        result = execute_job(job, tmp_path)
        assert result["accesses"] > 0
        assert result["misses"] > 0
        assert result["cache_hits"]["simulation"] is False
        assert "lSoA" in result["by_variable_misses"]

    def test_second_run_is_a_simulation_cache_hit(self, tmp_path):
        job = Job(kernel="1a", length=32, rule="baseline", cache=CacheSpec(size=2048))
        first = execute_job(job, tmp_path)
        second = execute_job(job, tmp_path)
        assert second["cache_hits"] == {"simulation": True}
        assert second["misses"] == first["misses"]

    def test_transform_stage_shared_across_cache_configs(self, tmp_path):
        a = Job(kernel="1a", length=32, rule="t1", cache=CacheSpec(size=2048))
        b = Job(kernel="1a", length=32, rule="t1", cache=CacheSpec(size=4096))
        first = execute_job(a, tmp_path)
        assert first["transformed_records"] is not None
        second = execute_job(b, tmp_path)
        # Different geometry -> new simulation, but the transformed trace
        # and the base trace both come from the cache.
        assert second["cache_hits"]["simulation"] is False
        assert second["cache_hits"]["trace"] is True
        assert second["cache_hits"]["transform"] is True

    def test_bad_rule_file_raises(self, tmp_path):
        rules = tmp_path / "broken.rules"
        rules.write_text("in:\nnot a valid rule {{{\n")
        job = Job(
            kernel="1a", length=32, rule=f"file:{rules}", cache=CacheSpec(size=2048)
        )
        with pytest.raises(ReproError):
            execute_job(job, tmp_path)

    def test_stage_keys_isolate_inputs(self):
        assert trace_key("1a", 32) != trace_key("1a", 64)
        assert trace_key("1a", 32) != trace_key("1b", 32)
        base = trace_key("1a", 32)
        assert transform_key(base, "rule A") != transform_key(base, "rule B")


class TestOneStorePerDirectory:
    def test_sibling_roots_share_nothing(self, tmp_path):
        """A task body keeps both stores inside the directory it is
        handed: two sibling roots running a baseline, a ``t1`` and a
        ``file:`` point write nothing outside themselves, and each holds
        its own trace and transform refs."""
        from repro.tracestore.store import TraceStore
        from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS

        rules = tmp_path / "rules" / "t1.rules"
        rules.parent.mkdir()
        rules.write_text(
            RULE_T1_SOA_TO_AOS.format(length=32).replace("lAoS", "lRenamed")
        )
        runs = tmp_path / "runs"
        roots = [runs / "a", runs / "b"]
        jobs = [
            Job(kernel="1a", length=32, rule=rule, cache=CacheSpec(size=2048))
            for rule in ("baseline", "t1", f"file:{rules}")
        ]
        for root in roots:
            routes = [execute_job(job, root)["route"] for job in jobs]
            assert routes == ["fast", "fast", "tracestore"]
        outside = [
            p for p in tmp_path.rglob("*") if p.is_file() and runs not in p.parents
        ]
        assert outside == [rules]
        assert sorted(p.name for p in runs.iterdir()) == ["a", "b"]
        for root in roots:
            assert sorted(p.name for p in root.iterdir()) == [
                "artifacts", "tracestore"
            ]
            assert len(ArtifactStore(root / "artifacts")) == 3
            refs = TraceStore(root / "tracestore").refs()
            assert sorted(name.split("/")[0] for name in refs) == [
                "trace", "xform", "xform"
            ]


class TestSimulationFields:
    """The fast route must be payload-identical to the reference route."""

    @pytest.fixture(scope="class")
    def kernel_traces(self):
        from repro.tracer.interp import trace_program
        from repro.workloads.paper_kernels import paper_kernel

        return {
            k: trace_program(paper_kernel(k, length=16))
            for k in ("1a", "2a", "3a")
        }

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    @pytest.mark.parametrize("attribution", ["base", "member"])
    def test_routes_agree(self, kernel_traces, assoc, attribution):
        from repro.campaign.jobs import simulation_fields
        from repro.cache.config import CacheConfig

        cfg = CacheConfig(size=2048, block_size=32, associativity=assoc)
        for name, trace in kernel_traces.items():
            fast = simulation_fields(trace, [cfg], attribution, use_fast=True)
            slow = simulation_fields(trace, [cfg], attribution, use_fast=False)
            assert fast == slow, (name, assoc, attribution)

    @pytest.mark.parametrize("attribution", ["base", "member"])
    def test_labels_only_from_data_records(self, attribution):
        """A label only an ``X`` record carries, and a table entry no
        record uses (a window of a bigger trace), stay out of
        ``by_variable_misses`` on both routes, and beside another config."""
        from repro.campaign.jobs import simulation_fields
        from repro.cache.config import CacheConfig
        from repro.ctypes_model.path import VariablePath
        from repro.trace.record import AccessType, TraceRecord
        from repro.trace.stream import Trace

        def access(op, addr, var):
            return TraceRecord(op, addr, 4, "main", "LS",
                               var=VariablePath.parse(var))

        whole = Trace.from_columns(
            Trace(
                [
                    access(AccessType.LOAD, 0x100, "unused.mA"),
                    access(AccessType.MISC, 0x400, "onlyX.mB"),
                    access(AccessType.LOAD, 0x200, "lA.mX"),
                    access(AccessType.STORE, 0x208, "lA[1].mY"),
                    access(AccessType.MODIFY, 0x300, "lB"),
                ]
            ).columns()
        )
        trace = whole[1:]
        cfg = CacheConfig(size=2048, block_size=32, associativity=2)
        (fast,) = simulation_fields(trace, [cfg], attribution, use_fast=True)
        (slow,) = simulation_fields(trace, [cfg], attribution, use_fast=False)
        assert fast == slow
        assert set(fast["by_variable_misses"]) == (
            {"lA", "lB"} if attribution == "base" else {"lA.mX", "lA.mY", "lB"}
        )
        other = CacheConfig(size=1024, block_size=32, associativity=1)
        batched, _ = simulation_fields(trace, [cfg, other], attribution)
        assert batched == fast

    @pytest.mark.parametrize(
        "addrs, assoc, policy",
        [
            ([2**64 - 1, 2**64 - 9], 2, "lru"),
            ([2**64 - 1, 0, 2, 2**64 - 1], 2, "fifo"),
            ([2**64 - 1], 1, "lru"),
        ],
        ids=["lru", "fifo", "direct-mapped"],
    )
    def test_one_byte_blocks_match_the_reference(self, addrs, assoc, policy):
        """With 1-byte blocks every int64 block id names an address, so
        address 2**64-1 is the kernels' empty-way id (-1): the kernel
        declines such caches, and every stream keeps the reference's
        payload (no hit)."""
        from repro.cache.config import CacheConfig
        from repro.ctypes_model.path import VariablePath
        from repro.errors import CacheConfigError
        from repro.simbatch.kernel import MultiConfigSimulator
        from repro.trace.record import AccessType, TraceRecord
        from repro.trace.stream import Trace

        trace = Trace(
            [
                TraceRecord(AccessType.LOAD, addr, 1, "main", "LS",
                            var=VariablePath.parse("lA"))
                for addr in addrs
            ]
        )
        cfg = CacheConfig(size=assoc, block_size=1, associativity=assoc,
                          policy=policy)
        fast = simulation_fields(trace, [cfg], "base")
        slow = simulation_fields(trace, [cfg], "base", use_fast=False)
        assert fast == slow
        assert slow[0]["hits"] == 0
        with pytest.raises(CacheConfigError, match="1-byte blocks"):
            MultiConfigSimulator([cfg])

    def test_uncovered_config_falls_back(self, kernel_traces):
        from repro.campaign.jobs import simulation_fields
        from repro.cache.config import CacheConfig

        # 64-way PLRU, the PPC440's geometry: no fast path
        cfg = CacheConfig(size=32 * 1024, block_size=32, associativity=64,
                          policy="plru")
        lru = CacheConfig(size=2048, block_size=32, associativity=2)
        trace = kernel_traces["1a"]
        auto = simulation_fields(trace, [cfg, lru], "base")
        slow = simulation_fields(trace, [cfg, lru], "base", use_fast=False)
        assert auto == slow

    def test_env_escape_hatch(self, kernel_traces, monkeypatch):
        """The opt-out is an argument; ``simulation_fields`` never reads
        the environment (a ``TDST_NO_FAST`` left set changes nothing)."""
        from repro.campaign.jobs import simulation_fields
        from repro.cache.config import CacheConfig
        from repro.simbatch.kernel import MultiConfigSimulator

        cfg = CacheConfig(size=2048, block_size=32, associativity=2)
        trace = kernel_traces["2a"]
        calls = []
        feed = MultiConfigSimulator.feed
        monkeypatch.setattr(
            MultiConfigSimulator,
            "feed",
            lambda *a, **kw: calls.append(1) or feed(*a, **kw),
        )
        forced_slow = simulation_fields(trace, [cfg], "base", use_fast=False)
        assert calls == []
        monkeypatch.setenv("TDST_NO_FAST", "1")
        fast = simulation_fields(trace, [cfg], "base")
        assert calls == [1]
        assert fast == forced_slow  # identical payloads either way

    def test_payload_has_expected_fields(self, kernel_traces):
        from repro.campaign.jobs import simulation_fields
        from repro.cache.config import CacheConfig

        cfg = CacheConfig(size=2048, block_size=32, associativity=4)
        (fields,) = simulation_fields(kernel_traces["1a"], [cfg], "base")
        assert set(fields) == {
            "config", "accesses", "hits", "misses", "miss_ratio",
            "evictions", "compulsory_misses", "by_variable_misses",
        }
        assert fields["hits"] + fields["misses"] == fields["accesses"]
