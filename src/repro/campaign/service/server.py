"""The campaign service: an asyncio job server over a local socket.

One :class:`CampaignService` owns a bounded work-stealing
:class:`~repro.campaign.service.queue.ShardQueue`, one asyncio *worker*
coroutine per shard (each executing job bodies in a thread pool so the
event loop never blocks on simulation), and a newline-delimited-JSON
protocol endpoint on a unix socket.  Clients submit wire job
descriptions (:mod:`repro.campaign.service.wire`), poll for results,
and drain.  A ``campaign-task`` job runs the process pool's job body,
so its artifacts are byte-identical to the pool's; campaigns
themselves (``tdst campaign``) never run through the service.

Failure model
-------------

- A job body that *raises* is retried up to ``retries`` times (requeued
  on its home shard at once), then recorded as failed.  Artifact writes
  are content-addressed and atomic, so a retry after a partial run is
  safe.
- A worker coroutine that *dies* (a fault-injection kill, a bug) is
  noticed by the monitor task: its in-flight job is requeued and the
  worker respawned.  Nothing is lost because a job is only settled once
  a payload or a terminal error exists.
- A client that loses a reply resends the same frame with the same
  ``seq``; submits dedupe by job id, so at-least-once delivery on the
  wire still yields exactly-once execution accounting.

Backpressure: the submit handler awaits ``queue.put``, which blocks at
capacity — while it is parked the server is not reading that client's
socket, so the kernel buffer and then the client's ``write`` stall.
"""

from __future__ import annotations

import asyncio
import hashlib
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.campaign.service.protocol import (
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    ProtocolError,
    read_frame,
    reply_to,
    write_frame,
)
from repro.campaign.service.queue import QueueClosed, ShardQueue
from repro.campaign.service.wire import execute_wire_job
from repro.errors import CampaignError
from repro.obsv.telemetry import get_telemetry

#: Unix socket paths are capped around 104-108 bytes on common kernels;
#: beyond this we fall back to a short temp-dir path.
_SOCKET_PATH_BUDGET = 96

#: Name prefix of the temp directory a too-long socket path falls back to.
_FALLBACK_PREFIX = "tdst-svc-"

_TERMINAL = ("done", "failed")


def service_socket_path(directory: Union[str, Path]) -> str:
    """A usable unix-socket path for a service rooted at ``directory``.

    Prefers ``<directory>/service.sock``; when that would overflow the
    kernel's ``sun_path`` limit, falls back to a fresh short path under
    the system temp dir (the campaign directory only hosts the socket
    for discoverability, nothing reads it back).  A service stopped on
    a fallback path removes the temp dir again.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    candidate = directory / "service.sock"
    if len(str(candidate).encode("utf-8")) <= _SOCKET_PATH_BUDGET:
        return str(candidate)
    return str(Path(tempfile.mkdtemp(prefix=_FALLBACK_PREFIX)) / "s.sock")


def _is_fallback_dir(directory: Path) -> bool:
    """True for a temp dir :func:`service_socket_path` fell back to."""
    return directory.name.startswith(_FALLBACK_PREFIX) and (
        directory.parent == Path(tempfile.gettempdir())
    )


def _id_hash(job_id: str) -> int:
    """Stable 64-bit digest of a job id (retired-job memory)."""
    digest = hashlib.blake2b(job_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class ServiceConfig:
    """Tunables of one :class:`CampaignService`."""

    socket_path: str = ""
    store_root: Optional[str] = None
    shards: int = 2
    queue_capacity: int = 1024
    retries: int = 1
    timeout: Optional[float] = None
    monitor_interval: float = 0.05
    stall_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise CampaignError(f"service shards must be positive, got {self.shards}")
        if self.queue_capacity <= 0:
            raise CampaignError(
                f"service queue capacity must be positive, got {self.queue_capacity}"
            )
        if self.retries < 0:
            raise CampaignError(f"service retries must be >= 0, got {self.retries}")


@dataclass
class _JobState:
    """Server-side record of one submitted job."""

    job_id: str
    job: Dict[str, Any]
    keep: bool = True
    status: str = "queued"
    attempts: int = 0
    shard: Optional[int] = None
    stolen: bool = False
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    event: asyncio.Event = field(default_factory=asyncio.Event)


class CampaignService:
    """Asyncio job service: sharded queue, workers, protocol endpoint.

    ``runner`` overrides the job body (``runner(job_dict, store_root)
    -> payload``) — the fault-injection harness swaps in misbehaving
    runners here.  ``send_hook`` maps an outgoing reply frame to the
    list of frames actually written (``[]`` drops it, ``[f, f]``
    duplicates it) — the protocol-fault tests live on this hook.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        runner: Optional[Callable[[Dict[str, Any], Optional[str]], Dict[str, Any]]] = None,
        send_hook: Optional[Callable[[Dict[str, Any]], List[Dict[str, Any]]]] = None,
    ) -> None:
        self.config = config
        self._runner = runner
        self._send_hook = send_hook
        self._queue = ShardQueue(config.shards, capacity=config.queue_capacity)
        self._jobs: Dict[str, _JobState] = {}
        self._retired: set = set()
        self._unsettled = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._shutdown = asyncio.Event()
        self._stopping = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List[asyncio.Task] = []
        self._monitor_task: Optional[asyncio.Task] = None
        self._inflight: List[Optional[str]] = [None] * config.shards
        self._inflight_since: List[float] = [0.0] * config.shards
        self._pool = ThreadPoolExecutor(
            max_workers=config.shards, thread_name_prefix="tdst-svc"
        )
        self.counters: Dict[str, int] = {
            "queued": 0,
            "done": 0,
            "failed": 0,
            "retried": 0,
            "dup_submits": 0,
            "dup_results": 0,
            "respawns": 0,
            "stalls": 0,
        }

    # -- job bodies -----------------------------------------------------------

    def _run_one(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Synchronous job body (runs on the worker thread pool)."""
        runner = self._runner or execute_wire_job
        return runner(job, self.config.store_root)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spawn workers + monitor.

        A socket file already at the path is replaced only when it is
        stale (nothing accepts on it); a live server's socket raises
        :class:`~repro.errors.CampaignError` instead.
        """
        if not self.config.socket_path:
            raise CampaignError("ServiceConfig.socket_path is required to start")
        sock = Path(self.config.socket_path)
        if sock.exists():
            try:
                _, writer = await asyncio.open_unix_connection(str(sock))
            except ConnectionRefusedError:
                sock.unlink()
            else:
                writer.close()
                raise CampaignError(
                    f"a campaign service is already listening on {sock}"
                )
        self._server = await asyncio.start_unix_server(
            self._handle_conn, path=str(sock), limit=MAX_FRAME_BYTES + 2
        )
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._worker(i), name=f"tdst-svc-worker-{i}")
            for i in range(self.config.shards)
        ]
        self._monitor_task = loop.create_task(
            self._monitor(), name="tdst-svc-monitor"
        )

    async def stop(self) -> None:
        """Drain queued work, stop workers, close and remove the socket
        (and the temp dir of a fallback socket path)."""
        if self._stopping:
            return
        self._stopping = True
        bound = self._server is not None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.close()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        self._pool.shutdown(wait=True)
        if not bound:
            return
        sock = Path(self.config.socket_path)
        try:
            sock.unlink(missing_ok=True)
            if _is_fallback_dir(sock.parent):
                sock.parent.rmdir()
        except OSError:
            pass

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` frame arrives, then stop."""
        await self._shutdown.wait()
        await self.stop()

    # -- worker loops ---------------------------------------------------------

    async def _worker(self, shard_id: int) -> None:
        """One shard worker: take (own-first, then steal), run, settle."""
        loop = asyncio.get_running_loop()
        tele = get_telemetry()
        while True:
            try:
                job_id, stolen = await self._queue.take(shard_id)
            except QueueClosed:
                return
            state = self._jobs.get(job_id)
            if state is None or state.status in _TERMINAL:
                # Stale queue entry (job already settled elsewhere).
                self.counters["dup_results"] += 1
                tele.add("service.results_duplicate")
                continue
            if stolen:
                tele.add("service.jobs_stolen")
            state.status = "running"
            state.attempts += 1
            state.shard = shard_id
            state.stolen = state.stolen or stolen
            # NOTE: _inflight is cleared on the success/retry/failure
            # paths only — never in a ``finally`` — so a worker killed
            # by an escaping BaseException leaves its job visible to
            # the monitor for requeueing.
            self._inflight[shard_id] = job_id
            self._inflight_since[shard_id] = loop.time()
            try:
                future = loop.run_in_executor(self._pool, self._run_one, state.job)
                if self.config.timeout is not None:
                    payload = await asyncio.wait_for(future, self.config.timeout)
                else:
                    payload = await future
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._inflight[shard_id] = None
                if state.attempts <= self.config.retries:
                    self.counters["retried"] += 1
                    tele.add("service.jobs_retried")
                    state.status = "queued"
                    await self._queue.requeue(
                        job_id, shard=self._queue.shard_for(job_id)
                    )
                else:
                    self._settle(state, "failed", error=f"{type(exc).__name__}: {exc}")
            else:
                self._inflight[shard_id] = None
                self._settle(state, "done", payload=payload)

    async def _monitor(self) -> None:
        """Respawn dead workers, requeue their in-flight jobs, gauge depth."""
        tele = get_telemetry()
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.monitor_interval)
            if self._stopping:
                continue
            tele.gauge_max("service.queue.peak_depth", self._queue.depth())
            tele.gauge_max("service.queue.peak_imbalance", self._queue.imbalance())
            now = loop.time()
            for shard_id, task in enumerate(self._workers):
                if task.done():
                    if task.cancelled() or task.exception() is None:
                        continue
                    self.counters["respawns"] += 1
                    tele.add("service.workers_respawned")
                    await self._recover_inflight(shard_id)
                    self._workers[shard_id] = loop.create_task(
                        self._worker(shard_id),
                        name=f"tdst-svc-worker-{shard_id}",
                    )
                elif (
                    self.config.stall_timeout is not None
                    and self._inflight[shard_id] is not None
                    and now - self._inflight_since[shard_id]
                    > self.config.stall_timeout
                ):
                    # Heartbeat gone quiet: count it (threads cannot be
                    # killed safely) and reset the clock so one stall is
                    # one incident, not one per monitor tick.
                    self.counters["stalls"] += 1
                    tele.add("service.workers_stalled")
                    self._inflight_since[shard_id] = now

    async def _recover_inflight(self, shard_id: int) -> None:
        """Requeue the job a dead worker was holding, if any."""
        job_id = self._inflight[shard_id]
        self._inflight[shard_id] = None
        if job_id is None:
            return
        state = self._jobs.get(job_id)
        if state is None or state.status != "running":
            return
        state.status = "queued"
        self.counters["retried"] += 1
        get_telemetry().add("service.jobs_retried")
        await self._queue.requeue(job_id, shard=self._queue.shard_for(job_id))

    def _settle(
        self,
        state: _JobState,
        status: str,
        *,
        payload: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Record one job's terminal outcome exactly once."""
        tele = get_telemetry()
        if state.status in _TERMINAL:
            self.counters["dup_results"] += 1
            tele.add("service.results_duplicate")
            return
        state.status = status
        state.payload = payload
        state.error = error
        state.event.set()
        self.counters[status] += 1
        tele.add(f"service.jobs_{status}")
        if not state.keep:
            # Soak-scale memory bound: forget the payload, remember only
            # a 64-bit digest for submit dedupe and poll answers.
            self._retired.add(_id_hash(state.job_id))
            del self._jobs[state.job_id]
        self._unsettled -= 1
        if self._unsettled == 0:
            self._idle.set()

    # -- protocol endpoint ----------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        """Write one reply, routed through the fault-injection hook."""
        frames = [frame] if self._send_hook is None else self._send_hook(frame)
        for out in frames:
            await write_frame(writer, out)

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (strict request/response)."""
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    await self._send(writer, {"type": "error", "message": str(exc)})
                    break
                if frame is None:
                    break
                try:
                    reply = await self._dispatch(frame)
                except ProtocolError as exc:
                    reply = {"type": "error", "message": str(exc)}
                except Exception as exc:  # noqa: BLE001 - reply, never crash
                    reply = {
                        "type": "error",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                await self._send(writer, reply_to(frame, reply))
                if frame.get("type") == "shutdown":
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Compute the reply to one validated request frame."""
        ftype = frame["type"]
        if ftype == "hello":
            if frame.get("proto") != PROTO_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client {frame.get('proto')!r}, "
                    f"server {PROTO_VERSION}"
                )
            return {
                "type": "welcome",
                "proto": PROTO_VERSION,
                "shards": self.config.shards,
            }
        if ftype == "submit":
            return await self._handle_submit(frame)
        if ftype == "poll":
            return await self._handle_poll(frame)
        if ftype == "status":
            return {"type": "status_reply", **self._status_body()}
        if ftype == "drain":
            await self._idle.wait()
            return {"type": "drained", **self._status_body()}
        if ftype == "shutdown":
            return {"type": "bye"}
        if ftype == "heartbeat":
            return {"type": "heartbeat"}
        raise ProtocolError(f"unexpected frame type {ftype!r} for a server")

    async def _handle_submit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Admit one job (idempotent by job id; blocks at capacity)."""
        job_id = str(frame["job_id"])
        job = frame["job"]
        if not isinstance(job, dict):
            raise ProtocolError("submit 'job' must be a JSON object")
        if job_id in self._jobs or _id_hash(job_id) in self._retired:
            self.counters["dup_submits"] += 1
            get_telemetry().add("service.submits_duplicate")
            return {"type": "ack", "job_id": job_id, "dup": True}
        state = _JobState(job_id=job_id, job=job, keep=bool(frame.get("keep", True)))
        self._jobs[job_id] = state
        self._unsettled += 1
        self._idle.clear()
        try:
            shard = await self._queue.put(state.job_id, job_id=job_id)
        except QueueClosed:
            del self._jobs[job_id]
            self._unsettled -= 1
            if self._unsettled == 0:
                self._idle.set()
            raise ProtocolError("service is shutting down; submit rejected")
        state.shard = shard
        self.counters["queued"] += 1
        get_telemetry().add("service.jobs_queued")
        return {"type": "ack", "job_id": job_id, "dup": False}

    async def _handle_poll(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one job query, optionally blocking until terminal."""
        job_id = str(frame["job_id"])
        state = self._jobs.get(job_id)
        if state is None:
            if _id_hash(job_id) in self._retired:
                return {"type": "result", "job_id": job_id, "status": "discarded"}
            return {"type": "result", "job_id": job_id, "status": "unknown"}
        if frame.get("wait") and state.status not in _TERMINAL:
            await state.event.wait()
        body: Dict[str, Any] = {
            "type": "result",
            "job_id": job_id,
            "status": state.status,
            "attempts": state.attempts,
            "stolen": state.stolen,
        }
        if state.status == "done":
            body["payload"] = state.payload
        elif state.status == "failed":
            body["error"] = state.error
        return body

    def _status_body(self) -> Dict[str, Any]:
        """Queue/job/counter snapshot shared by status and drained frames."""
        states: Dict[str, int] = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for state in self._jobs.values():
            states[state.status] = states.get(state.status, 0) + 1
        counters = dict(self.counters)
        counters["stolen"] = self._queue.total_stolen
        return {
            "jobs": {**states, "retired": len(self._retired)},
            "counters": counters,
            "queue": {
                "depth": self._queue.depth(),
                "depths": self._queue.depths(),
                "imbalance": self._queue.imbalance(),
                "peak_depth": self._queue.peak_depth,
                "peak_imbalance": self._queue.peak_imbalance,
            },
            "shards": self.config.shards,
            "unsettled": self._unsettled,
        }


@asynccontextmanager
async def service_running(
    config: ServiceConfig,
    *,
    runner: Optional[Callable[[Dict[str, Any], Optional[str]], Dict[str, Any]]] = None,
    send_hook: Optional[Callable[[Dict[str, Any]], List[Dict[str, Any]]]] = None,
):
    """Async context manager: a started service, stopped on exit."""
    service = CampaignService(config, runner=runner, send_hook=send_hook)
    await service.start()
    try:
        yield service
    finally:
        await service.stop()


def serve_forever(config: ServiceConfig) -> None:
    """Blocking entry point for ``tdst serve`` (runs until shutdown).

    Opening the artifact store here sweeps its stale temp files once;
    the job bodies open it without sweeping.
    """
    if config.store_root:
        from repro.campaign.artifacts import ArtifactStore

        ArtifactStore(config.store_root)

    async def _main() -> None:
        async with service_running(config) as service:
            await service._shutdown.wait()

    asyncio.run(_main())
