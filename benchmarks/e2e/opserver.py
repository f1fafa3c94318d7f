"""Op server: runs the in-process workloads' timed calls in a fresh process.

    python benchmarks/e2e/opserver.py

reads one JSON request per line on stdin and answers one JSON line on
stdout (the program's own prints are sent to stderr):

- ``{"cmd": "init", "workload": ..., ...}`` builds the workload's state;
- ``{"cmd": "op", "traced": bool, ...}`` times one call and replies
  ``{"t0", "t1", "cpu", "error", ...}`` plus spans when traced;
- ``{"cmd": "exit"}`` replies ``{"maxrss_kib"}`` — the peak resident
  memory of this process — and exits.

Peak memory is read from ``VmHWM``, the high-water mark of this
process's own address space: ``ru_maxrss`` would also carry the peak of
the client that started it.
"""

import json
import os
import sys
import time
import traceback

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[0] = _ROOT

from benchmarks.e2e import spans, workloads  # noqa: E402


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _leaked_escape_hatches() -> list:
    return sorted(k for k in os.environ if k.startswith("TDST_NO_"))


def run_op(state, request, tracer):
    """Time one ``state.op`` call (traced on request) and build the reply."""
    traced = bool(request.get("traced"))
    before = state.disk_bytes() if traced and hasattr(state, "disk_bytes") else None
    restore = spans.install(tracer) if traced else None
    error = None
    value = None
    c0, t0 = time.process_time(), time.monotonic()
    try:
        value = state.op(request)
    except Exception:  # noqa: BLE001 - a failed op is a result, not a crash
        error = traceback.format_exc(limit=8)
    finally:
        t1, c1 = time.monotonic(), time.process_time()
        if restore is not None:
            restore()
    reply = {"t0": t0, "t1": t1, "cpu": c1 - c0, "error": error}
    leaked = _leaked_escape_hatches()
    if leaked and error is None:
        reply["error"] = f"op left {leaked} in the process environment"
    if error is None:
        reply.update(state.reply(value, request))
    if traced:
        reply["spans"] = tracer.drain()
        if before is not None:
            reply["attrs"] = {"bytes_written": state.disk_bytes() - before}
    return reply


def main() -> int:
    out = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    if _leaked_escape_hatches():
        raise SystemExit(f"op server started with {_leaked_escape_hatches()}")
    tracer = spans.Tracer()
    state = None
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        if cmd == "init":
            try:
                state = workloads.SERVER_STATES[request["workload"]](request)
                reply = {"error": None}
            except Exception:  # noqa: BLE001 - reported to the client
                reply = {"error": traceback.format_exc(limit=8)}
        elif cmd == "op":
            reply = run_op(state, request, tracer)
        else:
            reply = {"maxrss_kib": peak_rss_kib()}
        out.write(json.dumps(reply) + "\n")
        out.flush()
        if cmd == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
