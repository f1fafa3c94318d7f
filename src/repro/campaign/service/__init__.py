"""Campaign service: asyncio job queue with work-stealing shard workers.

The service turns the one-shot campaign scheduler into a long-lived
local endpoint: jobs arrive as plain-JSON descriptions over a
newline-delimited-JSON unix-socket protocol, land on a bounded
work-stealing shard queue, and execute through
:func:`repro.campaign.jobs.execute_task`, the job body the scheduler's
process pool runs — so a service-run campaign produces byte-identical
artifacts by construction.

Layers (bottom up): :mod:`~repro.campaign.service.protocol` (wire
frames), :mod:`~repro.campaign.service.queue` (work-stealing shard
queue), :mod:`~repro.campaign.service.wire` (task <-> JSON codec),
:mod:`~repro.campaign.service.server` and
:mod:`~repro.campaign.service.client`.
"""

from repro.campaign.service.client import ServiceClient
from repro.campaign.service.protocol import (
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    ProtocolError,
)
from repro.campaign.service.queue import QueueClosed, ShardQueue
from repro.campaign.service.server import (
    CampaignService,
    ServiceConfig,
    serve_forever,
    service_running,
    service_socket_path,
)
from repro.campaign.service.wire import (
    execute_wire_job,
    task_from_wire,
    task_to_wire,
)

__all__ = [
    "CampaignService",
    "MAX_FRAME_BYTES",
    "PROTO_VERSION",
    "ProtocolError",
    "QueueClosed",
    "ServiceClient",
    "ServiceConfig",
    "ShardQueue",
    "execute_wire_job",
    "serve_forever",
    "service_running",
    "service_socket_path",
    "task_from_wire",
    "task_to_wire",
]
