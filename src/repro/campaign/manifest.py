"""Run manifests: append-only JSONL observability for campaign runs.

Every scheduler event — job start, completion, retry, terminal failure
— is appended as one JSON object per line, flushed immediately, so a
crashed or killed run leaves a readable record up to the moment of
death.  Each run writes its manifest afresh; it is the ``--report``
source (the summary table renders from ``job-done`` rows without
re-running anything).
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Union

#: Event names written by the scheduler.
EVENT_CAMPAIGN_START = "campaign-start"
EVENT_CAMPAIGN_END = "campaign-end"
EVENT_JOB_START = "job-start"
EVENT_JOB_DONE = "job-done"
EVENT_JOB_RETRY = "job-retry"
EVENT_JOB_FAILED = "job-failed"
#: Written only by older runs that carried a manifest's rows forward;
#: still read, so ``--report`` renders their directories as before.
EVENT_JOB_SKIPPED = "job-skipped"
#: Merged campaign telemetry (counters/gauges), written when profiling.
EVENT_TELEMETRY = "telemetry"


class RunManifest:
    """JSONL event log of one campaign run; opening it truncates the
    previous run's log."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")

    # -- writing -------------------------------------------------------------

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event row (flushed immediately) and return it."""
        row = {"ts": round(time.time(), 3), "event": event, **fields}
        self._handle.write(json.dumps(row, sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()
        return row

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading -------------------------------------------------------------

    @staticmethod
    def read(path: Union[str, Path]) -> List[Dict[str, Any]]:
        """All event rows of an existing manifest, in write order.

        Tolerates a torn final line (a worker hard-killed mid-append
        leaves incomplete JSON at EOF): the partial row is dropped with a
        warning instead of raising, so ``--report`` still works after a
        crash.  A malformed row *before* EOF means real corruption, not a
        crash artifact — it is also dropped, but warned about separately.
        """
        rows: List[Dict[str, Any]] = []
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                rows.append(json.loads(stripped))
            except json.JSONDecodeError:
                if lineno == len(lines) and not text.endswith("\n"):
                    warnings.warn(
                        f"{path}: dropping torn final manifest line "
                        f"{lineno} (writer crashed mid-append)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    warnings.warn(
                        f"{path}: dropping unparseable manifest line "
                        f"{lineno}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                continue
        return rows

    @staticmethod
    def result_rows(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Terminal per-job rows (done, failed, skipped), in event order."""
        terminal = {EVENT_JOB_DONE, EVENT_JOB_FAILED, EVENT_JOB_SKIPPED}
        latest: Dict[str, Dict[str, Any]] = {}
        for row in rows:
            if row.get("event") in terminal and "job_id" in row:
                latest[row["job_id"]] = row
        return list(latest.values())
