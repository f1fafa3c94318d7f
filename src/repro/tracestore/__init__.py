"""Content-addressed trace commit chains with incremental re-simulation.

Traces and transformed traces are stored as git-like chains of immutable
commits: chunk blobs dedupe by SHA-256, rule application is a commit,
and the fast simulator resumes from per-chunk residency snapshots — so
editing a rule file costs only the chunks the edit provably touched
(:mod:`repro.tracestore.delta` carries the static proof).

This is the campaign's one trace container: every campaign directory
keeps its traces and transforms as commits in ``<dir>/tracestore``
(refs ``trace/<trace key>`` and ``xform/<trace key>/<rule id>``; see
:mod:`repro.campaign.jobs`).  The v1 ``binformat`` container is an
exchange format only (``tdst trace --binary``, ``tdst convert``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.tracestore.chain": (
            "KIND_SNAPSHOT",
            "KIND_TRANSFORM",
            "ChunkMeta",
            "Commit",
            "blob_id",
            "build_commit",
            "chunk_variables",
            "commit_id",
            "common_prefix_chunks",
            "encode_chunk",
            "rules_id",
        ),
        "repro.tracestore.delta": ("RuleDelta", "rule_delta"),
        "repro.tracestore.digests": (
            "digest_for_commit",
            "get_digest",
            "has_digest",
            "put_digest",
        ),
        "repro.tracestore.resim": ("ChainSimResult", "simulate_chain", "snapshot_id"),
        "repro.tracestore.store": ("TraceStore",),
        "repro.tracestore.transform": ("ApplyResult", "apply_rules"),
    },
)
