"""Campaign wiring and CLI surface of the trace commit store."""

import os

import pytest

from repro.campaign.jobs import (
    NO_TRACESTORE_ENV,
    Job,
    execute_job,
    tracestore_eligible,
)
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry
from repro.cli import main
from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS

pytestmark = pytest.mark.tracestore


@pytest.fixture
def rule_file(tmp_path):
    path = tmp_path / "t1.rules"
    path.write_text(RULE_T1_SOA_TO_AOS.format(length=64), encoding="utf-8")
    return path


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(NO_TRACESTORE_ENV, raising=False)
    monkeypatch.delenv("TDST_NO_FAST", raising=False)


def file_spec(rule_file, **overrides):
    defaults = dict(
        name="edit-loop",
        grid=(
            GridEntry(
                kernel="1a",
                length=64,
                rules=("baseline", f"file:{rule_file}"),
            ),
        ),
        caches=(CacheSpec(size=1024, block=32, assoc=1),),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


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

    def test_file_rule_is_eligible(self, rule_file, clean_env):
        job = self._job(rule_file)
        assert tracestore_eligible(job, "in:\nout:\n")

    def test_baseline_and_paper_rules_are_not(self, rule_file, clean_env):
        assert not tracestore_eligible(self._job(rule_file, rule="t1"), "x")
        assert not tracestore_eligible(
            self._job(rule_file, rule="baseline"), None
        )

    def test_verify_jobs_keep_classic_route(self, rule_file, clean_env):
        assert not tracestore_eligible(
            self._job(rule_file, verify=True), "x"
        )

    def test_env_escape_hatches(self, rule_file, clean_env, monkeypatch):
        job = self._job(rule_file)
        # TDST_NO_TRACESTORE is resolved once, by the Scheduler, and
        # reaches workers as the job's own flag.
        opted_out = self._job(rule_file, tracestore=False)
        assert not tracestore_eligible(opted_out, "x")
        monkeypatch.setenv(NO_TRACESTORE_ENV, "1")
        assert tracestore_eligible(job, "x")
        monkeypatch.delenv(NO_TRACESTORE_ENV)
        # TDST_NO_FAST likewise reaches workers as Job.fast.
        assert not tracestore_eligible(self._job(rule_file, fast=False), "x")
        monkeypatch.setenv("TDST_NO_FAST", "1")
        assert tracestore_eligible(job, "x")

    def test_scheduler_resolves_env_onto_jobs(
        self, tmp_path, rule_file, clean_env, monkeypatch
    ):
        from repro.campaign.scheduler import Scheduler

        monkeypatch.setenv(NO_TRACESTORE_ENV, "1")
        scheduler = Scheduler(file_spec(rule_file), tmp_path / "camp")
        assert scheduler.tracestore is False
        monkeypatch.delenv(NO_TRACESTORE_ENV)
        assert Scheduler(file_spec(rule_file), tmp_path / "camp2").tracestore
        monkeypatch.setenv("TDST_NO_FAST", "1")
        assert Scheduler(file_spec(rule_file), tmp_path / "camp3").fast is False
        assert Scheduler(file_spec(rule_file), tmp_path / "camp4", fast=True).fast

    def test_non_fast_path_config_keeps_classic_route(
        self, rule_file, clean_env
    ):
        job = self._job(
            rule_file,
            cache=CacheSpec(size=1024, block=32, assoc=2, policy="plru"),
        )
        assert not tracestore_eligible(job, "x")


def artifact_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted((directory / "artifacts").rglob("*.json"))
    }


class TestCampaignParity:
    def test_routes_store_identical_artifacts(
        self, tmp_path, rule_file, clean_env, monkeypatch
    ):
        spec = file_spec(rule_file)
        monkeypatch.setenv(NO_TRACESTORE_ENV, "1")
        classic = run_campaign(spec, tmp_path / "classic", batch=False)
        monkeypatch.delenv(NO_TRACESTORE_ENV)
        incremental = run_campaign(spec, tmp_path / "incr", batch=False)
        assert classic.n_done == incremental.n_done == 2
        a, b = artifact_bytes(tmp_path / "classic"), artifact_bytes(
            tmp_path / "incr"
        )
        assert a == b
        tracestore = tmp_path / "incr" / "tracestore"
        assert any(tracestore.rglob("*.chunk.tdst"))
        assert any(tracestore.rglob("*.npz"))

    def test_edited_rule_file_stays_correct(
        self, tmp_path, rule_file, clean_env, monkeypatch
    ):
        from repro.obsv.telemetry import get_telemetry

        spec = file_spec(rule_file)
        run_campaign(spec, tmp_path / "camp", batch=False)
        # Edit: rename the output array.  Same path, new text — the next
        # sweep re-enters the lineage through the stored prev commit and
        # must store artifacts identical to a from-scratch classic run.
        edited = RULE_T1_SOA_TO_AOS.format(length=64).replace(
            "lAoS", "lRenamed"
        )
        rule_file.write_text(edited, encoding="utf-8")
        tele = get_telemetry()
        tele.reset()
        tele.enable()
        try:
            result = run_campaign(spec, tmp_path / "camp", batch=False)
        finally:
            snapshot = tele.snapshot()
            tele.disable()
        assert result.n_done == 2
        counters = snapshot["counters"]
        # The edit hit every chunk (the rename touches the whole array),
        # so the chain re-transformed rather than reused — but it went
        # through the store, and the new artifacts match the classic
        # route exactly.
        assert counters.get("tracestore.chunks_retransformed", 0) > 0
        assert counters.get("tracestore.snapshot_saves", 0) > 0
        monkeypatch.setenv(NO_TRACESTORE_ENV, "1")
        run_campaign(spec, tmp_path / "classic", batch=False)
        a = artifact_bytes(tmp_path / "camp")
        b = artifact_bytes(tmp_path / "classic")
        # The incremental dir also holds first-sweep artifacts; every
        # classic artifact must appear byte-identically.
        for name, blob in b.items():
            assert a[name] == blob

    def test_tracestore_false_does_not_leak_into_later_campaigns(
        self, tmp_path, rule_file, clean_env
    ):
        spec = file_spec(rule_file)
        environ = dict(os.environ)
        run_campaign(spec, tmp_path / "classic", batch=False, tracestore=False)
        assert not (tmp_path / "classic" / "tracestore").exists()
        # The opt-out belonged to that campaign alone: the next one in
        # this process takes the default route and writes the store.
        run_campaign(spec, tmp_path / "default", batch=False)
        tracestore = tmp_path / "default" / "tracestore"
        assert any(tracestore.rglob("*.chunk.tdst"))
        assert dict(os.environ) == environ

    def test_execute_job_payload_shape(self, tmp_path, rule_file, clean_env):
        job = Job(
            kernel="1a",
            length=64,
            rule=f"file:{rule_file}",
            cache=CacheSpec(size=1024, block=32, assoc=1),
        )
        payload = execute_job(job, tmp_path / "artifacts")
        assert payload["kind"] == "simulation"
        assert payload["route"] == "tracestore"
        assert payload["records"] == payload["transformed_records"]
        assert payload["verified"] is False
        assert "miss_ratio" in payload and "by_variable_misses" in payload


class TestCli:
    def test_commit_log_resim_flow(self, tmp_path, rule_file, capsys,
                                   monkeypatch, clean_env):
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
