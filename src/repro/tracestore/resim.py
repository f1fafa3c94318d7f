"""Resumable chain simulation: re-simulate only what a commit changed.

Cache simulation is sequential state, so a transformed-trace edit can
only skip re-simulation over an *unchanged prefix* of chunk blobs.  The
store therefore keeps **residency snapshots**: the kernel's complete
carried state (a one-config
:class:`~repro.simbatch.kernel.MultiConfigSimulator`'s per-set LRU
stacks, one way wide when direct-mapped, or its per-set FIFO rows in
fill order for a FIFO or round-robin cache, compulsory-miss block set,
accumulators and per-variable totals), content-addressed by
``(cache config, attribution, chunk-blob-id prefix)``.  Simulating a
commit walks its blob ids, restores the deepest stored snapshot whose
prefix matches, and feeds only the remaining chunks — saving a snapshot
at each boundary so the *next* edit resumes even deeper.

Bit-identical by construction: the kernel's chunked totals equal a
whole-trace pass (the carried-residency invariant the kernel tests pin
down), and a restored snapshot is that carried state, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.campaign.artifacts import content_key
from repro.errors import CacheConfigError
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.kernel import FastTraceCounts, MultiConfigSimulator
from repro.simbatch.runner import kernel_fields
from repro.tracestore.chain import SNAPSHOT_SCHEMA, Commit
from repro.tracestore.store import TraceStore


def snapshot_id(
    config: CacheConfig,
    attribution: str,
    blob_prefix: Union[List[str], Tuple[str, ...]],
) -> str:
    """Content id of the residency state after simulating ``blob_prefix``.

    The id covers the full config identity, the attribution granularity
    (it determines the per-variable tables inside the state) and every
    blob id of the simulated prefix — two chains sharing a prefix share
    its snapshots, whatever commits they belong to.
    """
    return content_key(
        SNAPSHOT_SCHEMA, config.describe(), attribution, *blob_prefix
    )


@dataclass(frozen=True)
class ChainSimResult:
    """One commit's simulation results plus what the run actually cost."""

    commit_id: str
    config: CacheConfig
    attribution: str
    counts: FastTraceCounts
    #: attribution label per per-variable id (global, first-appearance)
    names: Tuple[str, ...]
    chunks_total: int
    #: chunks skipped by restoring a residency snapshot
    chunks_skipped: int
    #: chunks actually fed through the kernel
    chunks_simulated: int
    snapshots_saved: int
    #: total records across the commit (including ``X`` lines)
    records: int

    @property
    def accesses(self) -> int:
        return self.counts.demand_accesses

    def fields(self) -> Dict[str, Any]:
        """The simulation-statistics payload fields: the kernel's
        :func:`~repro.simbatch.runner.kernel_fields`, as the campaign's
        other routes store them."""
        return kernel_fields(self.config, self.counts, self.names)


def _restore_point(
    store: TraceStore,
    config: CacheConfig,
    attribution: str,
    blob_ids: Tuple[str, ...],
) -> Tuple[int, Optional[Dict[str, np.ndarray]]]:
    """Deepest stored snapshot whose blob prefix matches, or ``(0, None)``."""
    for k in range(len(blob_ids), 0, -1):
        state = store.get_snapshot(
            snapshot_id(config, attribution, blob_ids[:k])
        )
        if state is not None:
            return k, state
    return 0, None


def simulate_chain(
    store: TraceStore,
    commit: Union[str, Commit],
    config: CacheConfig,
    *,
    attribution: str = "base",
    snapshots: bool = True,
    snapshot_every: int = 1,
) -> ChainSimResult:
    """Simulate a commit's trace, resuming from the deepest snapshot.

    ``snapshots=False`` disables both restore and save (the cold-run
    baseline the equality tests compare against).  ``snapshot_every``
    thins the boundaries that persist state — snapshot files are
    O(sets x ways + distinct blocks), so dense boundaries trade disk for
    resume depth.
    """
    if isinstance(commit, str):
        commit = store.resolve(commit)
    tele = get_telemetry()
    with tele.span(
        "tracestore.resim", cat="tracestore", commit=commit.short_id
    ):
        blob_ids = commit.blob_ids
        n = len(blob_ids)
        names: List[str] = []
        start = 0
        sim: Optional[MultiConfigSimulator] = None
        if snapshots:
            start, state = _restore_point(store, config, attribution, blob_ids)
            if state is not None:
                try:
                    sim = MultiConfigSimulator([config])
                    sim.restore(state)
                    names = [str(x) for x in state.get("names", ())]
                    tele.add("tracestore.snapshot_restores", 1)
                except (CacheConfigError, KeyError):  # corrupt/foreign state
                    sim, names, start = None, [], 0
        if sim is None:
            sim = MultiConfigSimulator([config])
            start = 0
        saved = 0
        for i in range(start, n):
            with store.open_blob(blob_ids[i]) as columnar:
                idx = columnar.data_indices()
                chunk_names, ids = columnar.attribution_ids(attribution)
                lut = np.full(len(chunk_names) + 1, -1, dtype=np.int64)
                for local, label in enumerate(chunk_names):
                    try:
                        lut[local] = names.index(label)
                    except ValueError:
                        lut[local] = len(names)
                        names.append(label)
                gids = lut[ids]
                sim.feed(
                    columnar.addrs[idx].astype(np.uint64),
                    columnar.sizes[idx].astype(np.uint32),
                    gids[idx],
                )
            if snapshots and (
                (i + 1 - start) % max(snapshot_every, 1) == 0 or i == n - 1
            ):
                sid = snapshot_id(config, attribution, blob_ids[: i + 1])
                if not store.has_snapshot(sid):
                    state = sim.state()
                    state["names"] = np.asarray(names, dtype=str)
                    store.put_snapshot(sid, state)
                    saved += 1
        tele.add("tracestore.chunks_resimulated", n - start)
        tele.add("tracestore.chunks_skipped", start)
        return ChainSimResult(
            commit_id=commit.id,
            config=config,
            attribution=attribution,
            counts=sim.results()[0],
            names=tuple(names),
            chunks_total=n,
            chunks_skipped=start,
            chunks_simulated=n - start,
            snapshots_saved=saved,
            records=commit.records,
        )
