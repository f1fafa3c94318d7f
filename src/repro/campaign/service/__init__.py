"""Campaign service: asyncio job queue with work-stealing shard workers.

The service is a long-lived local endpoint (``tdst serve``) that runs
job descriptions clients submit (``tdst submit``, :class:`ServiceClient`):
``campaign-task``, ``simulate`` and ``noop`` jobs arrive as plain JSON
over a newline-delimited-JSON unix-socket protocol, land on a bounded
work-stealing shard queue, and execute on worker threads.  A
``campaign-task`` job runs :func:`repro.campaign.jobs.execute_task`, the
job body the scheduler's process pool runs, so its artifacts are
byte-identical to the pool's by construction.  ``tdst campaign`` itself
runs inline or on the process pool, never through the service.

Layers (bottom up): :mod:`~repro.campaign.service.protocol` (wire
frames), :mod:`~repro.campaign.service.queue` (work-stealing shard
queue), :mod:`~repro.campaign.service.wire` (task <-> JSON codec),
:mod:`~repro.campaign.service.server` and
:mod:`~repro.campaign.service.client`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.campaign.service.client": ("ServiceClient",),
        "repro.campaign.service.protocol": (
            "MAX_FRAME_BYTES",
            "PROTO_VERSION",
            "ProtocolError",
        ),
        "repro.campaign.service.queue": ("QueueClosed", "ShardQueue"),
        "repro.campaign.service.server": (
            "CampaignService",
            "ServiceConfig",
            "serve_forever",
            "service_running",
            "service_socket_path",
        ),
        "repro.campaign.service.wire": (
            "execute_wire_job",
            "task_from_wire",
            "task_to_wire",
        ),
    },
)
