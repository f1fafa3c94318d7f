"""Campaign integration: the opt-in post-job soundness check.

``--verify`` must check the transform commit where it is produced (or
first reused from the trace commit store) and turn an unsound one into
a :class:`~repro.errors.TransformError` so the scheduler's retry/degrade
policy owns the failure.
"""

import pytest

from repro.campaign.jobs import Job, execute_job, expand_jobs
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry
from repro.errors import TransformError
from repro.trace.stream import Trace


def job_for(rule, *, size=2048, verify=True):
    return Job(
        kernel="1a",
        length=16,
        rule=rule,
        cache=CacheSpec(size=size),
        verify=verify,
    )


class TestSpecPlumbing:
    def test_verify_defaults_off(self):
        spec = CampaignSpec(
            name="t",
            grid=(GridEntry(kernel="1a", length=16, rules=("t1",)),),
            caches=(CacheSpec(size=2048),),
        )
        jobs = expand_jobs(spec)
        assert all(not j.verify for j in jobs)

    def test_verify_propagates_to_every_job(self):
        spec = CampaignSpec(
            name="t",
            grid=(
                GridEntry(kernel="1a", length=16, rules=("baseline", "t1")),
            ),
            caches=(CacheSpec(size=2048),),
            verify=True,
        )
        jobs = expand_jobs(spec)
        assert jobs
        assert all(j.verify for j in jobs)

    def test_from_dict_reads_verify(self):
        spec = CampaignSpec.from_dict(
            {
                "campaign": {"name": "t", "verify": True},
                "grid": [{"kernel": "1a", "length": 16, "rules": ["t1"]}],
                "caches": [{"size": 2048}],
            }
        )
        assert spec.verify


class TestExecuteJob:
    def test_fresh_transform_is_verified(self, tmp_path):
        payload = execute_job(job_for("t1"), tmp_path)
        assert payload["verified"] is True
        assert payload["transformed_records"] is not None

    def test_baseline_jobs_have_nothing_to_verify(self, tmp_path):
        payload = execute_job(job_for("baseline"), tmp_path)
        assert payload["verified"] is False
        assert payload["transformed_records"] is None

    def test_verification_off_by_default(self, tmp_path):
        payload = execute_job(job_for("t1", verify=False), tmp_path)
        assert payload["verified"] is False

    def test_cached_transform_is_reverified(self, tmp_path):
        execute_job(job_for("t1", verify=False), tmp_path)
        # Different cache geometry: simulation key differs, but the
        # transform commit is reused from the store — verification
        # must run on the reused commit too.
        payload = execute_job(job_for("t1", size=4096), tmp_path)
        assert payload["cache_hits"]["transform"] is True
        assert payload["verified"] is True

    def test_tampered_cached_transform_fails_the_job(self, tmp_path):
        """A transform commit tampered with behind its ``xform/`` ref
        fails the next point that reuses it."""
        from repro.tracestore.chain import KIND_TRANSFORM, build_commit
        from repro.tracestore.store import TraceStore

        execute_job(job_for("t1", verify=False), tmp_path)
        store = TraceStore(tmp_path / "tracestore")
        (xref,) = [name for name in store.refs() if name.startswith("xform/")]
        commit = store.resolve(xref)
        records = list(store.checkout(commit))
        for i, record in enumerate(records):
            if record.var is not None and record.var.base == "lAoS":
                records[i] = record.evolve(addr=record.addr + 1)
                break
        chunks, start = [], 0
        for meta in commit.chunks:
            part = records[start : start + meta.records]
            chunks.append(store.put_chunk(Trace(part)))
            start += meta.records
        tampered = store.write_commit(
            build_commit(
                KIND_TRANSFORM, commit.parent, chunks, rule_text=commit.rule_text
            )
        )
        assert tampered.id != commit.id
        store.set_ref(xref, tampered.id)
        with pytest.raises(TransformError, match="soundness"):
            execute_job(job_for("t1", size=4096), tmp_path)

    def test_fully_cached_simulation_skips_verification(self, tmp_path):
        execute_job(job_for("t1", verify=False), tmp_path)
        # Same point again: the simulation payload itself is cached, so
        # nothing is recomputed and nothing is (re)verified.
        payload = execute_job(job_for("t1"), tmp_path)
        assert payload["cache_hits"] == {"simulation": True}
        assert payload["verified"] is False
