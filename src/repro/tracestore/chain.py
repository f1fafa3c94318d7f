"""Commit-chain model: content-addressed trace history.

A trace (or transformed trace) is stored as a **commit** — an immutable,
content-addressed object naming an ordered list of **chunk blobs** plus
the commit's provenance (parent commit, rule text that produced it).
Rule application is a commit whose parent is the base trace's commit,
exactly like a git commit records a tree plus the parent it was derived
from.  Identical chunk record-sequences hash to the same blob id
regardless of how they were produced, so re-applying an edited rule file
dedupes every chunk the edit did not touch, and the longest common blob
prefix between two transforms tells the simulator where their cache
behaviour provably diverges.

Chunk identity is a SHA-256 over a *canonical* record encoding (the v1
fixed 20-byte record pack plus per-chunk interned string tables,
uncompressed) — deliberately independent of the blob's on-disk container
(columnar v2), so the id is a pure function of the record sequence.  The
pack is :func:`repro.trace.binformat.pack_records`, the v1 writer's own.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.artifacts import content_key
from repro.trace.binformat import pack_records
from repro.trace.paths import label_of
from repro.trace.record import TraceRecord
from repro.trace.stream import columns_of

#: Schema tags folded into every id: bump to invalidate old objects.
BLOB_SCHEMA = "tdst-blob-v1"
COMMIT_SCHEMA = "tdst-commit-v1"
RULES_SCHEMA = "tdst-rules-v1"
SNAPSHOT_SCHEMA = "tdst-snap-v2"

#: Canonical chunk-encoding header (never stored, only hashed).
_CHUNK_MAGIC = b"TDSTCHNK\x01"

#: Commit kinds.
KIND_SNAPSHOT = "snapshot"
KIND_TRANSFORM = "transform"


def encode_chunk(records: Iterable[TraceRecord]) -> bytes:
    """Canonical byte encoding of one chunk's record sequence.

    Interning starts fresh per chunk and ids are assigned in
    first-appearance order, so the encoding — and therefore the blob
    id — depends only on the records themselves.  The string tables are
    appended uncompressed (compression level must never change an id).
    A :class:`~repro.trace.stream.Trace` chunk is encoded from its
    columns.
    """
    cols = columns_of(records)
    packed, funcs, variables = pack_records(cols)
    body = bytearray(_CHUNK_MAGIC)
    body += struct.pack("<I", len(cols))
    body += packed
    for table in (funcs, variables):
        blob = "\n".join(table).encode("utf-8")
        body += struct.pack("<I", len(blob))
        body += blob
    return bytes(body)


def blob_id(records: Iterable[TraceRecord]) -> str:
    """Content id of a chunk's record sequence."""
    return content_key(BLOB_SCHEMA, encode_chunk(records))


def rules_id(rule_text: str) -> str:
    """Content id of a rule file's source text."""
    return content_key(RULES_SCHEMA, rule_text)


def chunk_variables(records: Iterable[TraceRecord]) -> Tuple[str, ...]:
    """Sorted distinct base variable names touched by a chunk.

    This is the static summary the rule-delta proof intersects against:
    a chunk whose variables are disjoint from an edit's changed set is
    provably transformed identically by both rule files.
    """
    cols = columns_of(records)
    used = np.flatnonzero(np.bincount(cols.var_id[cols.var_id >= 0]))
    templates = np.flatnonzero(np.bincount(cols.paths.template_id[used])).tolist()
    return tuple(sorted({label_of(cols.paths.templates[t], "base") for t in templates}))


@dataclass(frozen=True)
class ChunkMeta:
    """One chunk of a committed trace: blob pointer plus static summary."""

    #: content id of the chunk blob
    blob: str
    #: total records in the chunk (including ``X`` lines)
    records: int
    #: demand (non-``X``) records — what the simulators consume
    data_records: int
    #: sorted distinct base variable names (the footprint-proof input)
    variables: Tuple[str, ...]

    def to_json(self) -> Dict[str, Any]:
        return {
            "blob": self.blob,
            "records": self.records,
            "data_records": self.data_records,
            "variables": list(self.variables),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "ChunkMeta":
        return cls(
            blob=doc["blob"],
            records=int(doc["records"]),
            data_records=int(doc["data_records"]),
            variables=tuple(doc.get("variables", ())),
        )


def commit_id(
    kind: str,
    parent: Optional[str],
    rule_sha: Optional[str],
    chunk_blobs: Sequence[str],
) -> str:
    """Content id of a commit.

    Deliberately excludes the free-form message: two applications of the
    same rules to the same parent are the *same* commit (idempotent
    re-commit), which is what makes repeated campaign sweeps no-ops.
    """
    return content_key(
        COMMIT_SCHEMA, kind, parent or "", rule_sha or "", *chunk_blobs
    )


@dataclass(frozen=True)
class Commit:
    """One immutable point in a trace's history."""

    id: str
    kind: str  #: ``snapshot`` (raw trace) or ``transform`` (rule applied)
    parent: Optional[str]
    chunks: Tuple[ChunkMeta, ...]
    #: content id of the rule text (transforms only)
    rule_sha: Optional[str] = None
    #: the rule file source that produced this commit (transforms only);
    #: kept inline so incremental re-application can diff against it
    rule_text: Optional[str] = None
    message: str = ""
    created: Optional[float] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def short_id(self) -> str:
        return self.id[:12]

    @property
    def records(self) -> int:
        return sum(c.records for c in self.chunks)

    @property
    def data_records(self) -> int:
        return sum(c.data_records for c in self.chunks)

    @property
    def blob_ids(self) -> Tuple[str, ...]:
        return tuple(c.blob for c in self.chunks)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": COMMIT_SCHEMA,
            "id": self.id,
            "kind": self.kind,
            "parent": self.parent,
            "chunks": [c.to_json() for c in self.chunks],
            "rule_sha": self.rule_sha,
            "rule_text": self.rule_text,
            "message": self.message,
            "created": self.created,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Commit":
        return cls(
            id=doc["id"],
            kind=doc["kind"],
            parent=doc.get("parent"),
            chunks=tuple(
                ChunkMeta.from_json(c) for c in doc.get("chunks", ())
            ),
            rule_sha=doc.get("rule_sha"),
            rule_text=doc.get("rule_text"),
            message=doc.get("message", ""),
            created=doc.get("created"),
            meta=doc.get("meta", {}),
        )


def build_commit(
    kind: str,
    parent: Optional[str],
    chunks: Sequence[ChunkMeta],
    *,
    rule_text: Optional[str] = None,
    message: str = "",
    created: Optional[float] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Commit:
    """Assemble a :class:`Commit` with its derived content id."""
    rule_sha = rules_id(rule_text) if rule_text is not None else None
    return Commit(
        id=commit_id(kind, parent, rule_sha, [c.blob for c in chunks]),
        kind=kind,
        parent=parent,
        chunks=tuple(chunks),
        rule_sha=rule_sha,
        rule_text=rule_text,
        message=message,
        created=created,
        meta=dict(meta or {}),
    )


def common_prefix_chunks(a: Sequence[ChunkMeta], b: Sequence[ChunkMeta]) -> int:
    """Length of the longest common chunk-blob prefix of two commits.

    Cache simulation is sequential state, so only an identical *prefix*
    lets a later simulation resume from a stored residency snapshot.
    """
    n = 0
    for ca, cb in zip(a, b):
        if ca.blob != cb.blob:
            break
        n += 1
    return n


__all__ = [
    "BLOB_SCHEMA",
    "COMMIT_SCHEMA",
    "RULES_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "KIND_SNAPSHOT",
    "KIND_TRANSFORM",
    "Commit",
    "ChunkMeta",
    "blob_id",
    "build_commit",
    "chunk_variables",
    "commit_id",
    "common_prefix_chunks",
    "encode_chunk",
    "rules_id",
]
