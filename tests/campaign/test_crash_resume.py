"""Crash consistency: stale tmp files, torn manifest lines, safe rerun.

A campaign killed mid-write must leave a directory the next run can pick
up: temp files from interrupted atomic writes are invisible to readers
and swept on store open, a half-appended final manifest line is dropped
with a warning instead of poisoning the read, and a plain rerun
completes with artifacts byte-identical to an uninterrupted one.
"""

import json
import os
import time
import warnings

import pytest

from repro.campaign.artifacts import (
    ArtifactStore,
    STALE_TMP_AGE_S,
    content_key,
)
from repro.campaign.manifest import RunManifest
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry


def small_spec():
    return CampaignSpec(
        name="crashy",
        grid=(GridEntry(kernel="1a", length=32, rules=("baseline", "t1")),),
        caches=(CacheSpec(size=1024, block=32, assoc=1),),
    )


class TestStaleTmpFiles:
    def _store_with_tmp(self, tmp_path, age_s):
        store = ArtifactStore(tmp_path / "store")
        key = content_key("k")
        store.put_json(key, {"v": 1})
        shard = store.root / key[:2]
        tmp_file = shard / f"{key}.json.tmp12345"
        tmp_file.write_text("torn", encoding="utf-8")
        old = time.time() - age_s
        os.utime(tmp_file, (old, old))
        return store, key, tmp_file

    def test_keys_and_len_skip_tmp_entries(self, tmp_path):
        store, key, tmp_file = self._store_with_tmp(tmp_path, age_s=0)
        assert set(store.keys()) == {key}
        assert len(store) == 1

    def test_size_bytes_skips_tmp_entries(self, tmp_path):
        store, key, tmp_file = self._store_with_tmp(tmp_path, age_s=0)
        clean = ArtifactStore(tmp_path / "clean")
        clean.put_json(key, {"v": 1})
        assert store.size_bytes() == clean.size_bytes()

    def test_open_sweeps_stale_tmp(self, tmp_path):
        _, key, tmp_file = self._store_with_tmp(
            tmp_path, age_s=STALE_TMP_AGE_S + 10
        )
        assert tmp_file.exists()
        reopened = ArtifactStore(tmp_path / "store")
        assert not tmp_file.exists()
        assert reopened.get_json(key) == {"v": 1}

    def test_open_keeps_fresh_tmp(self, tmp_path):
        # A tmp file younger than the cutoff may belong to a live writer.
        _, _, tmp_file = self._store_with_tmp(tmp_path, age_s=0)
        ArtifactStore(tmp_path / "store")
        assert tmp_file.exists()

    def test_sweep_returns_count(self, tmp_path):
        store, _, tmp_file = self._store_with_tmp(
            tmp_path, age_s=STALE_TMP_AGE_S + 10
        )
        assert store.sweep_stale_tmp() == 1
        assert store.sweep_stale_tmp() == 0

    def test_open_without_sweep_keeps_stale_tmp(self, tmp_path):
        _, _, tmp_file = self._store_with_tmp(
            tmp_path, age_s=STALE_TMP_AGE_S + 10
        )
        ArtifactStore(tmp_path / "store", sweep=False)
        assert tmp_file.exists()

    def test_inline_campaign_sweeps_once(self, tmp_path, monkeypatch):
        """The store walk runs once per campaign, not once per task."""
        sweeps = []
        sweep = ArtifactStore.sweep_stale_tmp

        def counted(store, *args, **kwargs):
            sweeps.append(store.root)
            return sweep(store, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "sweep_stale_tmp", counted)
        spec = CampaignSpec(
            name="sweeps",
            grid=(
                GridEntry(kernel="1a", length=32, rules=("baseline", "t1")),
                GridEntry(kernel="2a", length=32, rules=("baseline", "t2")),
            ),
            caches=(
                CacheSpec(size=1024, block=32, assoc=1),
                CacheSpec(size=1024, block=32, assoc=1, policy="fifo"),
                CacheSpec(size=2048, block=32, assoc=2, policy="plru"),
            ),
        )
        result = run_campaign(spec, tmp_path / "c", workers=1)
        # 12 points in 8 grid tasks (per rule, the two direct-mapped
        # points share one), two of which trace their program.
        assert result.n_done == 12
        starts = [
            r for r in RunManifest.read(tmp_path / "c" / "manifest.jsonl")
            if r["event"] == "job-start"
        ]
        assert len(starts) == 8
        assert sweeps == [tmp_path / "c" / "artifacts"]


class TestTornManifest:
    def _manifest(self, tmp_path, tail):
        path = tmp_path / "manifest.jsonl"
        rows = [
            json.dumps({"event": "campaign_start", "ts": 1.0}),
            json.dumps({"event": "job_done", "job_id": "a", "ts": 2.0}),
        ]
        path.write_text("\n".join(rows) + "\n" + tail, encoding="utf-8")
        return path

    def test_torn_final_line_warns_and_drops(self, tmp_path):
        path = self._manifest(tmp_path, '{"event": "job_done", "job_')
        with pytest.warns(RuntimeWarning, match="torn final manifest line"):
            rows = RunManifest.read(path)
        assert [r["event"] for r in rows] == ["campaign_start", "job_done"]

    def test_clean_manifest_reads_silently(self, tmp_path):
        path = self._manifest(tmp_path, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = RunManifest.read(path)
        assert len(rows) == 2

    def test_mid_file_garbage_warns_differently(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            '{"event": "campaign_start"}\nnot json\n'
            '{"event": "job_done", "job_id": "a"}\n',
            encoding="utf-8",
        )
        with pytest.warns(RuntimeWarning, match="unparseable manifest line"):
            rows = RunManifest.read(path)
        assert [r["event"] for r in rows] == ["campaign_start", "job_done"]

    def test_rerun_rewrites_torn_manifest(self, tmp_path):
        """A run over a directory whose manifest ends in a torn line
        leaves a manifest that reads back without a warning."""
        directory = tmp_path / "c"
        run_campaign(small_spec(), directory)
        path = directory / "manifest.jsonl"
        path.write_bytes(path.read_bytes() + b'{"half":')
        with pytest.warns(RuntimeWarning, match="torn final manifest line"):
            RunManifest.read(path)
        assert run_campaign(small_spec(), directory).n_done == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = RunManifest.read(path)
        assert rows[0]["event"] == "campaign-start"
        assert rows[-1]["event"] == "campaign-end"


class TestCrashResume:
    """A crashed campaign resumes by running it again."""

    def test_resume_after_simulated_crash(self, tmp_path):
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "ref")
        assert reference.n_failed == 0

        crashed_dir = tmp_path / "crashed"
        first = run_campaign(spec, crashed_dir)
        assert first.n_failed == 0
        # Simulate a crash mid-append: tear the final manifest line and
        # drop a stale tmp file into the artifact store.
        manifest = crashed_dir / "manifest.jsonl"
        data = manifest.read_bytes()
        manifest.write_bytes(data[:-20])
        store_root = crashed_dir / "artifacts"
        key = content_key("junk")
        shard = store_root / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        stale = shard / f"{key}.json.tmp99"
        stale.write_text("{", encoding="utf-8")
        old = time.time() - STALE_TMP_AGE_S - 10
        os.utime(stale, (old, old))

        rerun = run_campaign(spec, crashed_dir)
        assert rerun.n_failed == 0
        assert rerun.n_done == len(reference.outcomes)
        assert not stale.exists()

        def artifacts(d):
            return {
                p.relative_to(d): p.read_bytes()
                for p in sorted((d / "artifacts").rglob("*.json"))
            }

        assert artifacts(crashed_dir) == artifacts(tmp_path / "ref")


class TestOrphanedArtifactRecovery:
    """Regression: death between artifact write and manifest append.

    Artifact writes are atomic and content-addressed, but the manifest
    append happens after them — so a worker killed in that window leaves
    a completed payload with no terminal row (an orphan).  Re-executing
    the job would waste the work.  Every run looks each point up by
    content key before any work starts, so the next plain run answers
    the orphan from the store like any other stored point: a
    ``job-done`` row from worker ``-1``, and no ``job-start`` row.
    """

    def _strip_terminal_rows(self, directory, job_id):
        """Delete a job's job-done manifest rows, keeping its artifacts.

        This is exactly the on-disk state a worker crash in the
        write/append window leaves behind.
        """
        path = directory / "manifest.jsonl"
        kept = []
        dropped = 0
        for line in path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if row.get("event") == "job-done" and row.get("job_id") == job_id:
                dropped += 1
                continue
            kept.append(line)
        assert dropped > 0, f"no job-done row found for {job_id}"
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")

    def test_resume_recovers_orphan_without_reexecution(self, tmp_path):
        spec = small_spec()
        directory = tmp_path / "c"
        first = run_campaign(spec, directory)
        assert first.n_failed == 0
        victim = first.outcomes[0].job_id
        before = {
            p: p.read_bytes()
            for p in sorted((directory / "artifacts").rglob("*.json"))
        }
        self._strip_terminal_rows(directory, victim)

        rerun = run_campaign(spec, directory)
        assert rerun.n_failed == 0
        outcome = {o.job_id: o for o in rerun.outcomes}[victim]
        assert outcome.status == "done"
        assert outcome.attempts == 1
        assert outcome.result["cache_hits"] == {"simulation": True}
        assert outcome.result["misses"] == first.outcomes[0].result["misses"]

        rows = RunManifest.read(directory / "manifest.jsonl")
        (row,) = [r for r in rows if r.get("job_id") == victim]
        assert row["event"] == "job-done"
        assert row["worker"] == -1 and row["attempt"] == 1
        assert row["result"]["route"] == "store"
        assert "recovered" not in row
        assert not [r for r in rows if r["event"] == "job-start"]

        # Artifacts untouched byte-for-byte (nothing was recomputed).
        after = {
            p: p.read_bytes()
            for p in sorted((directory / "artifacts").rglob("*.json"))
        }
        assert after == before

    def test_orphan_rerun_keeps_its_result(self, tmp_path):
        """The rerun's report rows carry the orphan's stored result."""
        spec = small_spec()
        directory = tmp_path / "c"
        first = run_campaign(spec, directory)
        victim = first.outcomes[0].job_id
        self._strip_terminal_rows(directory, victim)

        run_campaign(spec, directory)
        rows = RunManifest.result_rows(
            RunManifest.read(directory / "manifest.jsonl")
        )
        results = {r["job_id"]: r["result"] for r in rows}
        assert set(results) == {o.job_id for o in first.outcomes}
        assert results[victim]["misses"] == first.outcomes[0].result["misses"]

    def test_recovered_results_survive_a_second_resume(self, tmp_path):
        """The run after the one that found the orphan answers it the
        same way, from the store."""
        spec = small_spec()
        directory = tmp_path / "c"
        first = run_campaign(spec, directory)
        victim = first.outcomes[0].job_id
        self._strip_terminal_rows(directory, victim)
        run_campaign(spec, directory)

        again = run_campaign(spec, directory)
        outcome = {o.job_id: o for o in again.outcomes}[victim]
        assert outcome.status == "done"
        assert outcome.result["route"] == "store"
        assert outcome.result["misses"] == first.outcomes[0].result["misses"]
