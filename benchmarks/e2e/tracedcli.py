"""Run the ``tdst`` CLI with the benchmark's layer wrappers installed.

    python benchmarks/e2e/tracedcli.py <tdst arguments...>

behaves like ``python -m repro.cli <tdst arguments...>``; in addition it
times every module import as ``cli.import``, wraps every layer entry
point (see :mod:`spans`), and writes its spans and its forked workers'
spans to ``$E2E_SPAN_DIR/<pid>.jsonl``.  A ``bench.boot`` span marks the
stretch of the process this script controls; the client charges the
rest of the process lifetime (interpreter start and exit) to
``cli.process``.
"""

import os
import sys
import time

t_start = time.monotonic()
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[0] = _ROOT

from benchmarks.e2e import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer(os.environ["E2E_SPAN_DIR"])
    spans.install(tracer)
    import repro.cli

    sid, parent = tracer.begin()
    t0 = time.monotonic()
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        tracer.end("bench.cli", sid, parent, t0, time.monotonic())
        tracer.add("bench.boot", t_start, time.monotonic())
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
