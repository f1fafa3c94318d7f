"""Campaign wiring and CLI surface of the trace commit store."""

import pytest

from repro.campaign.grid import plan_route
from repro.campaign.jobs import (
    Job,
    execute_job,
    resolve_rule_text,
    simulation_fields,
)
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry
from repro.cli import main
from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS

pytestmark = pytest.mark.tracestore

ONE_CACHE = (CacheSpec(size=1024, block=32, assoc=1),)
TWO_CACHES = ONE_CACHE + (CacheSpec(size=2048, block=32, assoc=2),)


@pytest.fixture
def rule_file(tmp_path):
    path = tmp_path / "t1.rules"
    path.write_text(RULE_T1_SOA_TO_AOS.format(length=64), encoding="utf-8")
    return path


def file_spec(rule_file, rule=None, **overrides):
    defaults = dict(
        name="edit-loop",
        grid=(
            GridEntry(
                kernel="1a",
                length=64,
                rules=("baseline", rule or f"file:{rule_file}"),
            ),
        ),
        caches=ONE_CACHE,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def routes(result):
    return {o.job_id: o.result["route"] for o in result.outcomes}


class TestEligibility:
    def _job(self, rule_file, **kw):
        defaults = dict(
            kernel="1a",
            length=64,
            rule=f"file:{rule_file}",
            cache=CacheSpec(size=1024, block=32, assoc=1),
        )
        defaults.update(kw)
        return Job(**defaults)

    def test_file_rule_is_eligible(self, rule_file):
        assert plan_route(self._job(rule_file), True) == ("tracestore", None)

    def test_baseline_and_paper_rules_are_not(self, rule_file):
        for rule in ("t1", "baseline"):
            job = self._job(rule_file, rule=rule)
            assert plan_route(job, True) == ("fast", None)

    def test_verify_jobs_take_the_store(self, tmp_path, rule_file):
        """``verify`` checks the transform commit on every route, so a
        ``file:`` point keeps the store route and is verified."""
        job = self._job(rule_file, verify=True)
        assert plan_route(job, True) == ("tracestore", None)
        payload = execute_job(job, tmp_path / "camp")
        assert payload["route"] == "tracestore"
        assert payload["verified"] is True

    def test_env_escape_hatches(self, rule_file, monkeypatch):
        """A route comes from the point and the ``fast`` argument alone;
        the retired ``TDST_NO_*`` variables change nothing."""
        for name in ("TDST_NO_FAST", "TDST_NO_BATCH", "TDST_NO_TRACESTORE"):
            monkeypatch.setenv(name, "1")
        job = self._job(rule_file)
        assert plan_route(job, True) == ("tracestore", None)
        route, reason = plan_route(job, False)
        assert route == "reference" and "--no-fast" in reason

    def test_non_fast_path_config_keeps_classic_route(self, rule_file):
        job = self._job(
            rule_file,
            cache=CacheSpec(size=1024, block=32, assoc=2, policy="plru"),
        )
        route, reason = plan_route(job, True)
        assert route == "reference" and "plru" in reason

    def test_shared_trace_points_take_the_store(self, tmp_path, rule_file):
        """A ``file:`` point keeps its route when a second kernel-covered
        cache shares its trace."""
        result = run_campaign(
            file_spec(rule_file, caches=TWO_CACHES), tmp_path / "camp"
        )
        assert result.n_done == 4
        file_routes = {
            route for job_id, route in routes(result).items() if "file:" in job_id
        }
        assert file_routes == {"tracestore"}
        tracestore = tmp_path / "camp" / "tracestore"
        assert any(tracestore.rglob("*.chunk.tdst"))
        assert len(list(tracestore.rglob("*.npz"))) >= 2


def artifact_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted((directory / "artifacts").rglob("*.json"))
    }


class TestCampaignParity:
    def test_routes_store_identical_artifacts(self, tmp_path, rule_file):
        """A ``file:`` rule holding T1's text stores, through the commit
        store, exactly the artifacts the ``t1`` campaign stores."""
        for n, caches in enumerate((ONE_CACHE, TWO_CACHES)):
            stored = run_campaign(
                file_spec(rule_file, caches=caches), tmp_path / f"file{n}"
            )
            classic = run_campaign(
                file_spec(rule_file, rule="t1", caches=caches),
                tmp_path / f"t1-{n}",
            )
            assert stored.n_done == classic.n_done == 2 * len(caches)
            assert "tracestore" in routes(stored).values()
            assert set(routes(classic).values()) == {"fast"}
            a = artifact_bytes(tmp_path / f"file{n}")
            assert len(a) == 2 * len(caches)
            assert a == artifact_bytes(tmp_path / f"t1-{n}")
            tracestore = tmp_path / f"file{n}" / "tracestore"
            assert any(tracestore.rglob("*.chunk.tdst"))
            assert any(tracestore.rglob("*.npz"))

    def test_edited_rule_file_stays_correct(self, tmp_path, rule_file):
        from repro.obsv.telemetry import get_telemetry
        from repro.tracer.interp import trace_program
        from repro.transform.engine import transform_trace
        from repro.workloads.paper_kernels import paper_kernel

        spec = file_spec(rule_file, caches=TWO_CACHES)
        run_campaign(spec, tmp_path / "camp")
        # Edit: rename the output array.  Same path, new text — the next
        # sweep re-enters the lineage through the stored prev commit and
        # must store what the reference oracle computes for the new text.
        edited = RULE_T1_SOA_TO_AOS.format(length=64).replace(
            "lAoS", "lRenamed"
        )
        rule_file.write_text(edited, encoding="utf-8")
        tele = get_telemetry()
        tele.reset()
        tele.enable()
        try:
            result = run_campaign(spec, tmp_path / "camp")
        finally:
            snapshot = tele.snapshot()
            tele.disable()
        assert result.n_done == 4
        counters = snapshot["counters"]
        # The edit hit every chunk (the rename touches the whole array),
        # so the chain re-transformed rather than reused — but it went
        # through the store.
        assert counters.get("tracestore.chunks_retransformed", 0) > 0
        assert counters.get("tracestore.snapshot_saves", 0) > 0

        trace = trace_program(paper_kernel("1a", length=64))
        oracle = simulation_fields(
            transform_trace(trace, edited).trace,
            [cache.to_config() for cache in TWO_CACHES],
            "base",
            use_fast=False,
        )
        want = {fields["config"]: fields for fields in oracle}
        swept = [o.result for o in result.outcomes if "file:" in o.job_id]
        assert len(swept) == 2
        for payload in swept:
            assert payload["route"] == "tracestore"
            assert payload["cache_hits"]["simulation"] is False
            got = {key: payload[key] for key in oracle[0]}
            assert got == want[payload["config"]]
        assert resolve_rule_text(f"file:{rule_file}", 64) == edited

    def test_execute_job_payload_shape(self, tmp_path, rule_file):
        job = Job(
            kernel="1a",
            length=64,
            rule=f"file:{rule_file}",
            cache=CacheSpec(size=1024, block=32, assoc=1),
        )
        payload = execute_job(job, tmp_path)
        assert payload["kind"] == "simulation"
        assert payload["route"] == "tracestore"
        assert payload["records"] == payload["transformed_records"]
        assert payload["verified"] is False
        assert "miss_ratio" in payload and "by_variable_misses" in payload


class TestCli:
    def test_commit_log_resim_flow(self, tmp_path, rule_file, capsys,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "1a", "--length", "64", "-o", "t.out"]) == 0
        assert main(
            ["commit", "t.out", "--store", "ts", "--ref", "trace/main",
             "--chunk", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out and "chunk(s)" in out
        assert main(
            ["commit", "--store", "ts", "--rules", str(rule_file),
             "--onto", "trace/main", "--ref", "xform/t1"]
        ) == 0
        # Idempotent re-apply: everything reused.
        assert main(
            ["commit", "--store", "ts", "--rules", str(rule_file),
             "--onto", "trace/main", "--ref", "xform/t1"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 transformed" in out
        assert main(["log", "xform/t1", "--store", "ts"]) == 0
        out = capsys.readouterr().out
        assert "transform" in out and "snapshot" in out
        args = ["resim", "xform/t1", "--store", "ts",
                "--size", "1024", "--block", "32", "--assoc", "1"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "6 simulated" in cold
        assert main(args) == 0
        hot = capsys.readouterr().out
        assert "0 simulated" in hot
        # Same numbers both times.
        assert cold.split("miss ratio")[1] == hot.split("miss ratio")[1]

    @pytest.mark.parametrize("policy", ["round-robin", "fifo"])
    def test_resim_fifo_policies(self, tmp_path, capsys, monkeypatch, policy):
        """A round-robin or FIFO cache re-simulates through the kernel's
        FIFO pass: snapshots on the first run, all restored on the
        second, and the reference simulator's numbers both times."""
        from repro.cache.config import CacheConfig
        from repro.campaign.jobs import simulation_fields
        from repro.trace.stream import Trace

        monkeypatch.chdir(tmp_path)
        assert main(["trace", "3a", "--length", "64", "-o", "t.out"]) == 0
        assert main(["commit", "t.out", "--store", "ts", "--ref", "trace/main",
                     "--chunk", "100"]) == 0
        capsys.readouterr()
        args = ["resim", "trace/main", "--store", "ts", "--size", "1024",
                "--block", "32", "--assoc", "4", "--policy", policy]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        hot = capsys.readouterr().out
        assert " 0 restored" in cold and "0 simulated" in hot
        assert cold.splitlines()[1:] == hot.splitlines()[1:]
        config = CacheConfig(size=1024, block_size=32, associativity=4,
                             policy=policy)
        (want,) = simulation_fields(Trace.load("t.out"), [config], "base",
                                    use_fast=False)
        assert f"misses:            {want['misses']}" in hot
        assert f"evictions:         {want['evictions']}" in hot

    def test_log_without_ref_summarises(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["log", "--store", "ts"]) == 0
        assert "blobs" in capsys.readouterr().out

    def test_commit_errors(self, tmp_path, rule_file, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["commit", "--store", "ts", "--rules", str(rule_file)]) == 2
        assert main(["commit", "--store", "ts"]) == 2
        assert main(["log", "nosuch", "--store", "ts"]) == 1
        assert (
            main(["resim", "nosuch", "--store", "ts", "--policy", "plru",
                  "--assoc", "2"])
            == 2
        )
