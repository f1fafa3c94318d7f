"""Spawner: starts, times and reaps the benchmark's CLI processes.

    python benchmarks/e2e/spawner.py

Linux carries a parent's peak resident memory into the ``ru_maxrss`` of
every child it forks and execs, so a CLI op started from the benchmark
client (which holds the program, numpy and the oracles) would report the
client's peak, not its own.  This process stays small — it imports
neither — and the client asks it, one JSON line per request, to run a
command:

    {"cmd": "run", "argv": [...], "env": {...}, "cwd": ..., "log": path,
     "timeout": seconds}

It replies ``{"t0", "t1", "code", "timed_out", "cpu", "maxrss_kib"}``:
``wait4``'s usage, which covers the child and every descendant it
reaped (the CLI's campaign workers).  ``{"cmd": "exit"}`` stops it;
``SIGTERM`` also kills and reaps the command in flight.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def run(request, in_flight):
    """Run one command in its own process group; time and reap it."""
    with open(request["log"], "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        in_flight[:] = [proc.pid]
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], request["timeout"])
        finally:
            os.close(fd)
        if not ready:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        in_flight.clear()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "pid": proc.pid,
        "t0": t0,
        "t1": t1,
        "code": proc.returncode,
        "timed_out": not ready,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }


def main() -> int:
    out = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    in_flight = []

    def stop(signum, frame):
        for pid in in_flight:
            try:
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "exit":
            out.write("{}\n")
            out.flush()
            break
        out.write(json.dumps(run(request, in_flight)) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
