"""Content-addressed artifact store for campaign results.

Every grid point's simulation payload is written under a SHA-256 key
derived from the point's *complete* input description — program
identity, rule text, cache-config tuple.  Re-running a campaign
therefore costs only the points whose inputs changed; ``--resume`` and
iterative spec editing are incremental for free.

Layout on disk (two-level fan-out keeps directories small at scale)::

    <root>/ab/abcdef....json          # simulation-result artifact

Traces are not kept here: a campaign directory keeps them as commits in
its trace commit store beside this one
(``<dir>/tracestore``, :class:`repro.tracestore.store.TraceStore`).

Writes are atomic (temp file + ``os.replace``) so parallel workers
racing to produce the same artifact cannot leave a torn file; the loser
of the race simply overwrites with identical bytes.

The store needs nothing but the standard library: the campaign
scheduler answers stored grid points through it without loading numpy.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.obsv.atomic import atomic_write

#: Artifact filename suffix.
JSON_SUFFIX = ".json"

#: In-flight/stale temporary entries: the legacy hand-rolled writers used
#: ``<name>.tmp<pid>`` and :func:`atomic_write` uses ``<name>.<rand>.tmp``.
_TMP_PATTERN = re.compile(r"\.tmp\d*$")

#: Temp files older than this are presumed abandoned by a crashed worker
#: and are swept on store open; younger ones may be a live sibling's
#: in-flight write and are left alone.
STALE_TMP_AGE_S = 60.0


def _is_tmp_entry(name: str) -> bool:
    """True for temporary-write leftovers of either naming scheme."""
    return _TMP_PATTERN.search(name) is not None


def content_key(*parts: Union[str, int, bytes]) -> str:
    """SHA-256 hex digest of the canonical join of ``parts``.

    Parts are length-prefixed before hashing so ``("ab", "c")`` and
    ``("a", "bc")`` cannot collide.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            blob = part
        else:
            blob = str(part).encode("utf-8")
        digest.update(f"{len(blob)}:".encode("ascii"))
        digest.update(blob)
    return digest.hexdigest()


class ArtifactStore:
    """Disk-backed, content-addressed cache of grid-point payloads.

    Opening a store sweeps stale temp files (:meth:`sweep_stale_tmp`), a
    walk of the whole store.  ``sweep=False`` skips it: a campaign's job
    bodies open the store their scheduler already swept.
    """

    def __init__(self, root: Union[str, Path], *, sweep: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if sweep:
            self.sweep_stale_tmp()

    # -- addressing ----------------------------------------------------------

    def path_for(self, key: str, suffix: str) -> Path:
        """Where an artifact with this key/kind lives (may not exist)."""
        return self.root / key[:2] / f"{key}{suffix}"

    def has_json(self, key: str) -> bool:
        """True when a JSON artifact exists for ``key``."""
        return self.path_for(key, JSON_SUFFIX).exists()

    # -- JSON results --------------------------------------------------------

    def put_json(self, key: str, payload: Dict[str, Any]) -> Path:
        """Store a JSON artifact (atomic replace, fsync'd)."""
        target = self.path_for(key, JSON_SUFFIX)
        with atomic_write(target) as handle:
            handle.write(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
            )
        return target

    def get_json(self, key: str) -> Optional[Dict[str, Any]]:
        """Load a JSON artifact, or ``None`` on a cache miss."""
        target = self.path_for(key, JSON_SUFFIX)
        if not target.exists():
            return None
        return json.loads(target.read_text(encoding="utf-8"))

    # -- maintenance ---------------------------------------------------------

    def keys(self) -> Iterable[str]:
        """All distinct artifact keys currently stored.

        Temporary-write leftovers (``.tmp*``) are not artifacts — a
        crashed worker's abandoned temp file must not masquerade as a
        completed stage output.
        """
        seen = set()
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if _is_tmp_entry(entry.name):
                    continue
                key = entry.name.split(".", 1)[0]
                if key not in seen:
                    seen.add(key)
                    yield key

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        """Delete abandoned ``.tmp*`` files older than ``max_age_s``.

        Runs on store open.  The age guard keeps a freshly-opened store
        from deleting a parallel sibling worker's in-flight write.
        Returns the number of files removed.
        """
        cutoff = time.time() - max_age_s
        removed = 0
        for entry in self.root.rglob("*"):
            try:
                if (
                    entry.is_file()
                    and _is_tmp_entry(entry.name)
                    and entry.stat().st_mtime < cutoff
                ):
                    entry.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - raced with another sweep
                continue
        return removed

    def size_bytes(self) -> int:
        """Total bytes of all stored artifacts (temp files excluded)."""
        return sum(
            f.stat().st_size
            for f in self.root.rglob("*")
            if f.is_file() and not _is_tmp_entry(f.name)
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArtifactStore {self.root} ({len(self)} artifacts)>"
