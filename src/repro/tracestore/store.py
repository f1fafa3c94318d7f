"""The on-disk trace commit store: blobs, commits, refs, snapshots.

Layout (two-level fan-out, same addressing as the campaign artifact
store)::

    <root>/blobs/ab/abcdef....chunk.tdst    # columnar v2 chunk blob
    <root>/commits/ab/abcdef....json        # commit object
    <root>/snaps/ab/abcdef....npz           # residency snapshot
    <root>/refs/<name>                      # text file: head commit id

Blobs and commits are immutable and content-addressed: writers skip
objects that already exist (identical chunks produced by different
commits dedupe to one file), and every write goes through the shared
fsync'd atomic-rename helper so a crashed writer can never leave a torn
object under a final name.  Refs are the only mutable state — one
``os.replace`` per update, exactly like git's loose refs.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.obsv.atomic import atomic_write
from repro.obsv.telemetry import get_telemetry
from repro.trace.columnar import ColumnarTrace, save_columnar
from repro.trace.columns import MISC_KIND, TraceColumns
from repro.trace.record import TraceRecord
from repro.trace.stream import (
    DEFAULT_CHUNK_RECORDS,
    Trace,
    columns_of,
    iter_record_chunks,
)
from repro.tracestore.chain import (
    KIND_SNAPSHOT,
    ChunkMeta,
    Commit,
    blob_id,
    build_commit,
    chunk_variables,
)

#: Blob files are full columnar v2 traces (round-trip exact).
BLOB_SUFFIX = ".chunk.tdst"
COMMIT_SUFFIX = ".json"
SNAPSHOT_SUFFIX = ".npz"

#: Ref names: path-like, no traversal, no hidden files.
_REF_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._@-]*(/[A-Za-z0-9][A-Za-z0-9._@-]*)*$")

#: A full SHA-256 hex id (to tell ids from ref names when resolving).
_HEX_ID = re.compile(r"^[0-9a-f]{64}$")


class TraceStore:
    """Git-like content-addressed store for trace commit chains."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        for sub in ("blobs", "commits", "snaps", "digests", "refs"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- addressing ----------------------------------------------------------

    def _fan(self, area: str, key: str, suffix: str) -> Path:
        return self.root / area / key[:2] / f"{key}{suffix}"

    def blob_path(self, bid: str) -> Path:
        return self._fan("blobs", bid, BLOB_SUFFIX)

    def commit_path(self, cid: str) -> Path:
        return self._fan("commits", cid, COMMIT_SUFFIX)

    def snapshot_path(self, sid: str) -> Path:
        return self._fan("snaps", sid, SNAPSHOT_SUFFIX)

    # -- blobs ---------------------------------------------------------------

    def has_blob(self, bid: str) -> bool:
        return self.blob_path(bid).exists()

    def put_chunk(self, records: Union[Trace, Sequence[TraceRecord]]) -> ChunkMeta:
        """Store one chunk's records; dedupes by content id.

        The chunk's columns are derived once (a :class:`Trace` window of a
        columns-backed trace already has them) and serve the blob id, the
        summary and the blob itself.
        """
        cols = columns_of(records)
        chunk = Trace.from_columns(cols)
        bid = blob_id(chunk)
        meta = ChunkMeta(
            blob=bid,
            records=len(cols),
            data_records=int(np.count_nonzero(cols.kind != MISC_KIND)),
            variables=chunk_variables(chunk),
        )
        tele = get_telemetry()
        if self.has_blob(bid):
            tele.add("tracestore.blobs_deduped", 1)
            return meta
        save_columnar(chunk, self.blob_path(bid))
        tele.add("tracestore.blobs_written", 1)
        return meta

    def open_blob(self, bid: str) -> ColumnarTrace:
        """Memory-map one chunk blob (caller closes)."""
        path = self.blob_path(bid)
        if not path.exists():
            raise TraceFormatError(f"{self.root}: no blob {bid}")
        return ColumnarTrace(path)

    def read_chunk(self, bid: str) -> Trace:
        """Decode one chunk blob into a columns-backed trace (records are
        built only if a consumer asks for them)."""
        with self.open_blob(bid) as columnar:
            return columnar.to_trace()

    # -- commits -------------------------------------------------------------

    def has_commit(self, cid: str) -> bool:
        return self.commit_path(cid).exists()

    def write_commit(self, commit: Commit) -> Commit:
        """Persist a commit object; idempotent for identical content.

        If the commit id already exists the stored object wins (same
        content by construction — only message/timestamp can differ).
        """
        path = self.commit_path(commit.id)
        if path.exists():
            return self.read_commit(commit.id)
        if commit.created is None:
            commit = dataclasses.replace(commit, created=time.time())
        with atomic_write(path) as handle:
            handle.write(json.dumps(commit.to_json(), sort_keys=True))
        return commit

    def read_commit(self, cid: str) -> Commit:
        path = self.commit_path(cid)
        if not path.exists():
            raise TraceFormatError(f"{self.root}: no commit {cid}")
        try:
            return Commit.from_json(json.loads(path.read_text(encoding="utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceFormatError(f"{path}: corrupt commit object: {exc}") from exc

    def commit_trace(
        self,
        source: Union[str, Path, Trace, Sequence[TraceRecord]],
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        message: str = "",
    ) -> Commit:
        """Commit a raw trace as a parentless snapshot.

        Chunk boundaries are a pure function of record position, so
        committing the same trace twice (from any container format)
        yields the identical commit id and writes nothing new.  A
        :class:`Trace` is cut into slices, so a columns-backed trace
        commits without building records.
        """
        tele = get_telemetry()
        with tele.span("tracestore.commit", cat="tracestore"):
            if isinstance(source, Trace):
                if chunk_records <= 0:
                    raise ValueError(
                        f"chunk_records must be positive, got {chunk_records}"
                    )
                batches: Iterator[Union[Trace, List[TraceRecord]]] = (
                    source[start : start + chunk_records]
                    for start in range(0, len(source), chunk_records)
                )
            else:
                batches = iter_record_chunks(source, chunk_records)
            chunks = [self.put_chunk(batch) for batch in batches]
            commit = build_commit(
                KIND_SNAPSHOT, None, chunks, message=message
            )
            return self.write_commit(commit)

    def checkout(self, commit: Union[str, Commit]) -> Trace:
        """A commit's whole trace, columns-backed: every chunk is read
        through :meth:`read_chunk` and their columns are concatenated
        (:meth:`TraceColumns.concat`), so no record is built."""
        if isinstance(commit, str):
            commit = self.resolve(commit)
        if not commit.chunks:
            return Trace()
        return Trace.from_columns(
            TraceColumns.concat(
                [self.read_chunk(chunk.blob).columns() for chunk in commit.chunks]
            )
        )

    def log(self, head: Union[str, Commit]) -> Iterator[Commit]:
        """Walk a commit's parent chain, newest first."""
        commit = head if isinstance(head, Commit) else self.resolve(head)
        while True:
            yield commit
            if commit.parent is None:
                return
            commit = self.read_commit(commit.parent)

    # -- refs ----------------------------------------------------------------

    def _ref_path(self, name: str) -> Path:
        if not _REF_NAME.match(name):
            raise ValueError(f"invalid ref name {name!r}")
        return self.root / "refs" / name

    def set_ref(self, name: str, cid: str) -> None:
        """Point ``name`` at a commit (atomic replace)."""
        if not self.has_commit(cid):
            raise TraceFormatError(f"{self.root}: no commit {cid}")
        with atomic_write(self._ref_path(name)) as handle:
            handle.write(cid + "\n")

    def get_ref(self, name: str) -> Optional[str]:
        path = self._ref_path(name)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8").strip() or None

    def refs(self) -> Dict[str, str]:
        """All refs as ``name -> commit id``."""
        base = self.root / "refs"
        out: Dict[str, str] = {}
        for path in sorted(base.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(base))] = path.read_text(
                    encoding="utf-8"
                ).strip()
        return out

    def resolve(self, name_or_id: str) -> Commit:
        """A commit by full id, unique id prefix, or ref name."""
        if _HEX_ID.match(name_or_id) and self.has_commit(name_or_id):
            return self.read_commit(name_or_id)
        ref = None
        try:
            ref = self.get_ref(name_or_id)
        except ValueError:
            pass
        if ref is not None:
            return self.read_commit(ref)
        if re.match(r"^[0-9a-f]{6,}$", name_or_id):
            shard = self.root / "commits" / name_or_id[:2]
            matches = (
                list(shard.glob(f"{name_or_id}*{COMMIT_SUFFIX}"))
                if shard.is_dir()
                else []
            )
            if len(matches) == 1:
                return self.read_commit(matches[0].name.split(".", 1)[0])
            if len(matches) > 1:
                raise TraceFormatError(
                    f"{self.root}: ambiguous commit prefix {name_or_id!r}"
                )
        raise TraceFormatError(
            f"{self.root}: {name_or_id!r} names no ref or commit"
        )

    # -- snapshots -----------------------------------------------------------

    def has_snapshot(self, sid: str) -> bool:
        return self.snapshot_path(sid).exists()

    def put_snapshot(self, sid: str, state: Dict[str, np.ndarray]) -> Path:
        """Persist one residency snapshot (npz via atomic write)."""
        path = self.snapshot_path(sid)
        if not path.exists():
            with atomic_write(path, "wb") as handle:
                np.savez(handle, **state)
            get_telemetry().add("tracestore.snapshot_saves", 1)
        return path

    def get_snapshot(self, sid: str) -> Optional[Dict[str, np.ndarray]]:
        """Load one residency snapshot, or ``None``."""
        path = self.snapshot_path(sid)
        if not path.exists():
            return None
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name].copy() for name in data.files}

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Object counts and byte totals per area (for ``tdst log``)."""
        out: Dict[str, int] = {}
        for area in ("blobs", "commits", "snaps", "digests"):
            files = [f for f in (self.root / area).rglob("*") if f.is_file()]
            out[area] = len(files)
            out[f"{area}_bytes"] = sum(f.stat().st_size for f in files)
        out["refs"] = len(self.refs())
        return out
