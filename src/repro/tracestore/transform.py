"""Incremental rule application: transform only the chunks an edit touched.

``apply_rules`` turns a base commit plus a rule file into a transform
commit.  When a previous transform of the *same base* is supplied, the
static :func:`~repro.tracestore.delta.rule_delta` proof decides, chunk
by chunk, whether the previous transformed chunk can be reused verbatim:
a chunk whose variable footprint is disjoint from the edit's changed set
is provably transformed identically by both rule files, so its old blob
is linked into the new commit without running the engine at all.

Chunks that do need the engine go through one
:class:`~repro.transform.engine.TransformEngine` in commit order, as
columns: :meth:`TraceStore.read_chunk` decodes a blob into a
columns-backed trace, the engine rewrites its columns (one plan per
distinct variable path, carried from chunk to chunk, so pool slots,
learned bases and ``existing`` injects continue across chunk cuts) and
:meth:`TraceStore.put_chunk` stores the output columns.  No record
object is built, and after a full transform :meth:`ApplyResult.trace`
hands the output columns on without decoding the blobs just written.

Correctness argument, spelled out because it is the whole point:

- the engine's translation of a record is a pure function of (rule
  content, allocation bases, variable path, address) once pattern rules
  and ``existing`` injects are excluded — and :func:`rule_delta`
  degrades to conservative mode whenever either appears;
- allocation bases are compared via the lint arena replay, so an edit
  that shifts a *later, textually identical* rule's base still marks
  that rule's variables changed;
- chunk blobs are content-addressed over record sequences, so even the
  conservative full re-transform dedupes unchanged output chunks — the
  simulator's prefix-reuse then recovers most of the win anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obsv.telemetry import get_telemetry
from repro.tracestore.chain import (
    KIND_TRANSFORM,
    Commit,
    build_commit,
    rules_id,
)
from repro.tracestore.delta import RuleDelta, rule_delta
from repro.trace.columns import TraceColumns
from repro.trace.stream import Trace
from repro.tracestore.store import TraceStore
from repro.transform.engine import TransformEngine
from repro.transform.rule_parser import parse_rules


@dataclass(frozen=True)
class ApplyResult:
    """A transform commit plus how much work producing it actually cost."""

    commit: Commit
    #: the static edit analysis (``None`` when no previous transform)
    delta: Optional[RuleDelta]
    chunks_total: int
    #: previous transformed chunks linked without running the engine
    chunks_reused: int
    #: chunks pushed through the engine
    chunks_transformed: int
    #: the engine's out-object bases (``None`` when ``prev`` came back
    #: unchanged and no engine ran)
    allocations: Optional[Dict[str, int]]
    #: every chunk's output columns as the engine produced them, when it
    #: transformed the whole base; ``None`` for an edit against ``prev``
    #: (its callers re-simulate chunk by chunk from the store, and
    #: keeping the transformed chunks would only raise their peak memory)
    #: and when ``prev`` came back unchanged
    outputs: Optional[Tuple[TraceColumns, ...]]

    @property
    def reuse_ratio(self) -> float:
        if not self.chunks_total:
            return 0.0
        return self.chunks_reused / self.chunks_total

    def trace(self, store: TraceStore) -> Trace:
        """The commit's whole trace, columns-backed: the engine's output
        after a full transform, else the commit read back
        (:meth:`TraceStore.checkout`)."""
        if not self.outputs:
            return store.checkout(self.commit)
        return Trace.from_columns(TraceColumns.concat(self.outputs))


def apply_rules(
    store: TraceStore,
    base: Commit,
    rule_text: str,
    *,
    prev: Optional[Commit] = None,
    message: str = "",
) -> ApplyResult:
    """Apply a rule file to ``base``, reusing ``prev`` where provable.

    ``prev`` must be a transform of the same base commit (its chunks
    parallel the base's chunk list one-to-one); anything else is
    silently ignored and a full transform runs.
    """
    tele = get_telemetry()
    with tele.span("tracestore.apply", cat="tracestore"):
        rules = parse_rules(rule_text)

        delta: Optional[RuleDelta] = None
        reusable = (
            prev is not None
            and prev.kind == KIND_TRANSFORM
            and prev.parent == base.id
            and prev.rule_text is not None
            and len(prev.chunks) == len(base.chunks)
        )
        if reusable:
            if prev.rule_sha == rules_id(rule_text):
                # Identical rules: the previous commit IS the answer.
                tele.add("tracestore.chunks_reused", len(base.chunks))
                return ApplyResult(
                    commit=prev,
                    delta=RuleDelta(
                        changed=frozenset(), reason="rule text unchanged"
                    ),
                    chunks_total=len(base.chunks),
                    chunks_reused=len(base.chunks),
                    chunks_transformed=0,
                    allocations=None,
                    outputs=None,
                )
            delta = rule_delta(prev.rule_text, rule_text)

        engine = TransformEngine(rules)
        chunks = []
        outputs = None if reusable else []
        reused = 0
        transformed = 0
        for i, base_chunk in enumerate(base.chunks):
            if (
                reusable
                and delta is not None
                and not delta.affects(base_chunk.variables)
            ):
                chunks.append(prev.chunks[i])
                reused += 1
                continue
            out = engine.transform(store.read_chunk(base_chunk.blob)).trace
            chunks.append(store.put_chunk(out))
            if outputs is not None:
                outputs.append(out.columns())
            transformed += 1
        tele.add("tracestore.chunks_reused", reused)
        tele.add("tracestore.chunks_retransformed", transformed)

        commit = store.write_commit(
            build_commit(
                KIND_TRANSFORM,
                base.id,
                chunks,
                rule_text=rule_text,
                message=message,
                meta={
                    "delta": None if delta is None else delta.reason,
                    "chunks_reused": reused,
                },
            )
        )
        return ApplyResult(
            commit=commit,
            delta=delta,
            chunks_total=len(base.chunks),
            chunks_reused=reused,
            chunks_transformed=transformed,
            allocations=dict(engine.allocations),
            outputs=None if outputs is None else tuple(outputs),
        )
