"""End-to-end tests for the campaign service (server + client).

The acceptance bar lives here: a campaign's planned tasks submitted to
the service as ``campaign-task`` jobs must leave a byte-identical
artifact tree to the process-pool scheduler on the golden T1/T2/T3
transformation grid, and the protocol endpoint must behave (dedupe,
drain, status, discard accounting, shutdown, socket ownership).
"""

from __future__ import annotations

import asyncio
import hashlib
import tempfile
from pathlib import Path

import pytest

from repro.campaign.grid import expand_jobs, group_batch_jobs
from repro.campaign.scheduler import run_campaign
from repro.campaign.service import (
    CampaignService,
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    service_running,
    service_socket_path,
    task_to_wire,
)
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry


pytestmark = pytest.mark.service


def run(coro):
    """Run one async test body (pytest-asyncio is not available)."""
    return asyncio.run(coro)


def noop_jobs(n):
    """n tiny wire jobs with distinct ids."""
    return [(f"noop/{i}", {"kind": "noop", "echo": i}) for i in range(n)]


def svc_config(tmp_path, **overrides):
    """A small ServiceConfig rooted in the test's tmp dir."""
    defaults = dict(
        socket_path=service_socket_path(tmp_path / "svc"),
        store_root=None,
        shards=2,
        queue_capacity=64,
        retries=1,
        monitor_interval=0.01,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def golden_spec():
    """The golden grid: kernel 1a under baseline + T1/T2/T3, two caches."""
    return CampaignSpec(
        name="golden",
        grid=(
            GridEntry(
                kernel="1a", length=64, rules=("baseline", "t1", "t2", "t3")
            ),
        ),
        caches=(
            CacheSpec(size=1024, block=32, assoc=1),
            CacheSpec(size=2048, block=32, assoc=2),
        ),
        attribution=("base", "member"),
    )


def run_through_service(spec, directory):
    """Plan ``spec`` like the scheduler and run it on a 2-shard service.

    The trace tasks are submitted and drained first, then the grid
    tasks (batched as the scheduler batches them), all as
    ``campaign-task`` jobs against ``directory / "artifacts"``.  Returns
    {job id: returned payload} per grid point, batch members fanned out.
    """
    trace_tasks, jobs = expand_jobs(spec)
    grid_tasks = group_batch_jobs(
        jobs, max_configs=spec.batch.max_configs, chunk=spec.batch.chunk
    )
    config = ServiceConfig(
        socket_path=service_socket_path(directory),
        store_root=str(directory / "artifacts"),
        shards=2,
    )

    async def body():
        payloads = {}
        async with service_running(config):
            client = ServiceClient(config.socket_path, timeout=60.0)
            await client.connect()
            try:
                for phase in (trace_tasks, grid_tasks):
                    await client.submit_many(
                        (t.job_id, task_to_wire(t)) for t in phase
                    )
                    await client.drain(timeout=300.0)
                    for task in phase:
                        res = await client.result(task.job_id)
                        assert res["status"] == "done", res
                        payloads[task.job_id] = res["payload"]
            finally:
                await client.close()
        return payloads

    payloads = run(body())
    rows = {}
    for task in grid_tasks:
        payload = payloads[task.job_id]
        if payload.get("kind") == "batch":
            rows.update(payload["members"])
        else:
            rows[task.job_id] = payload
    return rows


def tree_digest(root: Path):
    """{relative path: sha256} over every file under ``root``."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


class TestServiceLifecycle:
    """Basic serve/submit/poll/drain/status round trips."""

    def test_submit_poll_drain_status(self, tmp_path):
        """50 noops: all done, none lost, none duplicated."""

        async def body():
            config = svc_config(tmp_path)
            async with service_running(config) as service:
                client = ServiceClient(config.socket_path)
                welcome = await client.connect()
                assert welcome["shards"] == 2
                acks = await client.submit_many(noop_jobs(50))
                assert len(acks) == 50
                assert all(not a["dup"] for a in acks)
                drained = await client.drain(timeout=30.0)
                assert drained["counters"]["done"] == 50
                assert drained["counters"]["failed"] == 0
                assert drained["jobs"]["done"] == 50
                assert drained["unsettled"] == 0
                res = await client.result("noop/7")
                assert res["status"] == "done"
                assert res["payload"]["echo"] == 7
                await client.close()
                assert service.counters["done"] == 50

        run(body())

    def test_submit_dedupes_by_job_id(self, tmp_path):
        """Resubmitting a known id acks dup:true and runs nothing twice."""

        async def body():
            config = svc_config(tmp_path)
            async with service_running(config) as service:
                client = ServiceClient(config.socket_path)
                await client.connect()
                first = await client.submit("j1", {"kind": "noop", "echo": 1})
                assert first["dup"] is False
                again = await client.submit("j1", {"kind": "noop", "echo": 1})
                assert again["dup"] is True
                await client.drain()
                assert service.counters["done"] == 1
                assert service.counters["dup_submits"] == 1
                await client.close()

        run(body())

    def test_unknown_and_discarded_poll_answers(self, tmp_path):
        """Polls distinguish never-seen ids from retired keep=false ids."""

        async def body():
            config = svc_config(tmp_path)
            async with service_running(config):
                client = ServiceClient(config.socket_path)
                await client.connect()
                res = await client.poll("never-submitted")
                assert res["status"] == "unknown"
                await client.submit("ephemeral", {"kind": "noop"}, keep=False)
                await client.drain()
                res = await client.poll("ephemeral")
                assert res["status"] == "discarded"
                status = await client.status()
                assert status["jobs"]["retired"] == 1
                await client.close()

        run(body())

    def test_failed_job_reports_error(self, tmp_path):
        """An unknown job kind exhausts retries and lands as failed."""

        async def body():
            config = svc_config(tmp_path, retries=1)
            async with service_running(config) as service:
                client = ServiceClient(config.socket_path)
                await client.connect()
                await client.submit("bad", {"kind": "no-such-kind"})
                res = await client.result("bad")
                assert res["status"] == "failed"
                assert "no-such-kind" in res["error"]
                assert res["attempts"] == 2  # initial + 1 retry
                assert service.counters["failed"] == 1
                assert service.counters["retried"] == 1
                await client.close()

        run(body())

    def test_shutdown_frame_stops_server(self, tmp_path):
        """A shutdown request gets bye and serve_until_shutdown returns."""

        async def body():
            config = svc_config(tmp_path)
            service = CampaignService(config)
            await service.start()
            waiter = asyncio.ensure_future(service.serve_until_shutdown())
            client = ServiceClient(config.socket_path)
            await client.connect()
            bye = await client.shutdown()
            assert bye["type"] == "bye"
            await client.close()
            await asyncio.wait_for(waiter, 10.0)
            assert not Path(config.socket_path).exists()

        run(body())

    def test_hello_version_mismatch_rejected(self, tmp_path):
        """A client speaking the wrong protocol revision is refused."""

        async def body():
            config = svc_config(tmp_path)
            async with service_running(config):
                from repro.campaign.service.protocol import (
                    read_frame,
                    write_frame,
                )

                reader, writer = await asyncio.open_unix_connection(
                    config.socket_path
                )
                await write_frame(
                    writer,
                    {"type": "hello", "role": "client", "proto": 999, "seq": 1},
                )
                reply = await read_frame(reader)
                assert reply["type"] == "error"
                assert "version mismatch" in reply["message"]
                writer.close()

        run(body())

    def test_submit_after_close_rejected(self, tmp_path):
        """Submits racing shutdown get a protocol error, not silence."""

        async def body():
            config = svc_config(tmp_path)
            service = CampaignService(config)
            await service.start()
            client = ServiceClient(config.socket_path)
            await client.connect()
            await service._queue.close()
            with pytest.raises(ProtocolError, match="shutting down"):
                await client.submit("late", {"kind": "noop"})
            await client.close()
            await service.stop()

        run(body())

    def test_config_validation(self, tmp_path):
        """Bad tunables are rejected at construction."""
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            ServiceConfig(socket_path="s", shards=0)
        with pytest.raises(CampaignError):
            ServiceConfig(socket_path="s", queue_capacity=0)
        with pytest.raises(CampaignError):
            ServiceConfig(socket_path="s", retries=-1)

    def test_socket_path_fallback_for_long_directories(self, tmp_path):
        """Deeply nested campaign dirs still get a bindable socket path,
        and a service stopped on it removes the fallback temp dir."""
        deep = tmp_path / ("x" * 120)
        path = service_socket_path(deep)
        assert len(path.encode("utf-8")) <= 108
        assert path.endswith(".sock")
        fallback = Path(path).parent
        assert fallback.parent == Path(tempfile.gettempdir())

        async def body():
            async with service_running(svc_config(tmp_path, socket_path=path)):
                client = ServiceClient(path)
                await client.connect()
                assert (await client.status())["unsettled"] == 0
                await client.close()

        run(body())
        assert not fallback.exists()

    def test_second_start_on_a_live_socket_raises(self, tmp_path):
        """A live server's socket is never clobbered by a second start."""
        import re

        from repro.errors import CampaignError

        async def body():
            config = svc_config(tmp_path)
            async with service_running(config):
                second = CampaignService(config)
                with pytest.raises(
                    CampaignError, match=re.escape(config.socket_path)
                ):
                    await second.start()
                await second.stop()
                client = ServiceClient(config.socket_path)
                await client.connect()
                status = await client.status()
                assert status["shards"] == 2
                await client.close()

        run(body())

    def test_stale_socket_file_is_replaced(self, tmp_path):
        """A socket nobody accepts on (a crashed server's) is rebound."""
        import socket

        config = svc_config(tmp_path)
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(config.socket_path)
        stale.close()  # bound, never listened: connections are refused
        assert Path(config.socket_path).exists()

        async def body():
            async with service_running(config):
                client = ServiceClient(config.socket_path)
                await client.connect()
                await client.submit("j", {"kind": "noop"})
                assert (await client.result("j"))["status"] == "done"
                await client.close()

        run(body())
        assert not Path(config.socket_path).exists()


class TestArtifactParity:
    """``campaign-task`` jobs are byte-identical to the process pool."""

    def test_golden_grid_byte_identical(self, tmp_path):
        """Golden T1/T2/T3 grid: every artifact file matches exactly.

        Process-pool campaign vs the same planned tasks submitted to a
        2-shard service: identical artifact trees, byte for byte.
        """
        pool = run_campaign(golden_spec(), tmp_path / "pool", workers=2)
        rows = run_through_service(golden_spec(), tmp_path / "service")
        assert pool.n_failed == 0
        assert len(rows) == pool.n_done == 16
        left = tree_digest(tmp_path / "pool" / "artifacts")
        right = tree_digest(tmp_path / "service" / "artifacts")
        assert left == right
        assert left  # non-vacuous: the grid produced artifacts

    def test_outcomes_match_one_shot(self, tmp_path):
        """Result rows (misses per job) agree with an inline campaign."""
        one_shot = run_campaign(golden_spec(), tmp_path / "a", workers=1)
        rows = run_through_service(golden_spec(), tmp_path / "b")
        assert sorted(
            (o.job_id, o.result["misses"], o.result["miss_ratio"])
            for o in one_shot.outcomes
        ) == sorted(
            (job_id, row["misses"], row["miss_ratio"])
            for job_id, row in rows.items()
        )


class TestWorkStealing:
    """Imbalanced shards get rebalanced by stealing, visibly."""

    def test_stolen_jobs_counted_and_completed(self, tmp_path):
        """Jobs forced onto one shard still finish; steals are counted."""

        async def body():
            config = svc_config(tmp_path, shards=4)
            async with service_running(config) as service:
                client = ServiceClient(config.socket_path)
                await client.connect()
                # All 40 ids hash where they may; the queue's stealing
                # keeps all four workers busy either way.
                await client.submit_many(noop_jobs(40))
                drained = await client.drain(timeout=30.0)
                assert drained["counters"]["done"] == 40
                status = await client.status()
                assert status["queue"]["depth"] == 0
                assert status["counters"]["stolen"] == service._queue.total_stolen
                await client.close()

        run(body())
