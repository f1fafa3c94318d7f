"""Feed the batched kernel from any trace source.

- :func:`simulate_batch` — the front door.  Takes a path (a
  memory-mapped :class:`~repro.trace.columnar.ColumnarTrace` is the
  zero-copy fast path; v1 binary and text traces stream record by
  record), an open ``ColumnarTrace``, a
  :class:`~repro.trace.stream.Trace` (fed from its columns) or any
  record iterable.
- :class:`BatchResult` — counts per config plus the streaming telemetry
  (chunks, mapped bytes) the obsv layer reports.
- :func:`kernel_fields` — one config's campaign payload fields from its
  kernel counts, shared by the campaign's kernel route and
  :meth:`~repro.tracestore.resim.ChainSimResult.fields`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.obsv.telemetry import get_telemetry
from repro.simbatch.kernel import FastTraceCounts, MultiConfigSimulator
from repro.trace.columns import MISC_KIND, TraceColumns, attribution_ids
from repro.trace.record import AccessType, TraceRecord
from repro.trace.stream import DEFAULT_CHUNK_RECORDS, Trace

TraceSource = Union[str, Path, "ColumnarTrace", Trace, Iterable[TraceRecord]]


@dataclass(frozen=True)
class BatchResult:
    """Everything one batched pass produced."""

    configs: Tuple[CacheConfig, ...]
    #: per-config totals, parallel to ``configs``
    results: Tuple[FastTraceCounts, ...]
    #: demand accesses streamed (X records excluded)
    accesses: int
    chunks: int
    #: bytes memory-mapped (0 for non-columnar sources)
    bytes_mapped: int
    #: attribution-label table; per-config ``per_variable`` ids index it
    names: Tuple[str, ...] = ()

    def by_config(self) -> Dict[str, FastTraceCounts]:
        """``{config.describe(): counts}`` view."""
        return {
            c.describe(): r for c, r in zip(self.configs, self.results)
        }


def _feed_columnar(
    sim: MultiConfigSimulator,
    columnar,
    chunk_records: int,
    attribution: Optional[str],
) -> Tuple[int, List[str]]:
    """Stream a mapped columnar trace through the kernel in slices."""
    indices = columnar.data_indices()
    if attribution is not None:
        names, all_ids = columnar.attribution_ids(attribution)
    else:
        names, all_ids = [], None
    addrs = columnar.addrs
    sizes = columnar.sizes
    for start in range(0, len(indices), chunk_records):
        sel = indices[start : start + chunk_records]
        sim.feed(
            addrs[sel],
            sizes[sel],
            None if all_ids is None else all_ids[sel],
        )
    return len(indices), list(names)


def _feed_columns(
    sim: MultiConfigSimulator,
    cols: TraceColumns,
    chunk_records: int,
    attribution: Optional[str],
) -> Tuple[int, List[str]]:
    """Stream an in-memory trace's columns through the kernel in slices,
    labelling each path template once."""
    data = np.flatnonzero(cols.kind != MISC_KIND)
    names: List[str] = []
    ids: Optional[np.ndarray] = None
    if attribution is not None:
        names, ids = attribution_ids(cols.var_id[data], cols.paths, attribution)
    addrs = cols.addr[data]
    sizes = cols.size[data].astype(np.uint32)
    for start in range(0, len(data), chunk_records):
        part = slice(start, start + chunk_records)
        sim.feed(addrs[part], sizes[part], None if ids is None else ids[part])
    return len(data), names


def _feed_records(
    sim: MultiConfigSimulator,
    records: Iterable[TraceRecord],
    chunk_records: int,
    attribution: Optional[str],
) -> Tuple[int, List[str]]:
    """Stream decoded records through the kernel, interning labels."""
    from repro.cache.simulator import attribution_label

    name_ids: Dict[str, int] = {}
    names: List[str] = []
    addrs: List[int] = []
    sizes: List[int] = []
    var_ids: List[int] = []
    total = 0

    def flush() -> None:
        sim.feed(
            np.array(addrs, dtype=np.uint64),
            np.array(sizes, dtype=np.uint32),
            np.array(var_ids, dtype=np.int64) if attribution else None,
        )
        addrs.clear()
        sizes.clear()
        var_ids.clear()

    for record in records:
        if record.op is AccessType.MISC:
            continue
        addrs.append(record.addr)
        sizes.append(record.size)
        if attribution is not None:
            label = attribution_label(record, attribution)
            if label is None:
                var_ids.append(-1)
            else:
                vid = name_ids.get(label)
                if vid is None:
                    vid = name_ids[label] = len(names)
                    names.append(label)
                var_ids.append(vid)
        total += 1
        if len(addrs) >= chunk_records:
            flush()
    if addrs:
        flush()
    return total, names


def simulate_batch(
    source: TraceSource,
    configs: Sequence[CacheConfig],
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    attribution: Optional[str] = None,
) -> BatchResult:
    """Simulate every config against one trace in a single pass.

    ``source`` may be a trace file path (columnar v2 streams zero-copy
    from the map; v1 binary and text decode record by record), an open
    :class:`~repro.trace.columnar.ColumnarTrace`, a :class:`Trace`, or
    any record iterable.  ``attribution`` (``"base"``/``"member"``)
    turns on per-variable counts; the returned
    :attr:`BatchResult.names` table maps their integer ids back to
    labels.
    """
    if chunk_records <= 0:
        raise ValueError(
            f"chunk_records must be positive, got {chunk_records}"
        )
    from repro.trace.columnar import ColumnarTrace, is_columnar

    tele = get_telemetry()
    sim = MultiConfigSimulator(configs)
    with tele.span(
        "simbatch.batch",
        cat="simbatch",
        configs=len(configs),
        groups=len(sim.plan.groups),
    ):
        opened: Optional[ColumnarTrace] = None
        bytes_mapped = 0
        try:
            if isinstance(source, (str, Path)) and is_columnar(source):
                source = opened = ColumnarTrace(source)
            if isinstance(source, ColumnarTrace):
                bytes_mapped = source.nbytes_mapped
                accesses, names = _feed_columnar(
                    sim, source, chunk_records, attribution
                )
            elif isinstance(source, Trace):
                accesses, names = _feed_columns(
                    sim, source.columns(), chunk_records, attribution
                )
            else:
                if isinstance(source, (str, Path)):
                    from repro.trace.stream import iter_records

                    source = iter_records(source)
                accesses, names = _feed_records(
                    sim, source, chunk_records, attribution
                )
        finally:
            if opened is not None:
                opened.close()
        results = sim.results()
    tele.add("simbatch.configs_per_batch", len(configs))
    tele.add("simbatch.chunks_streamed", sim.chunks_fed)
    tele.add("simbatch.bytes_mapped", bytes_mapped)
    tele.add("simbatch.cache_lookups", accesses * len(configs))
    return BatchResult(
        configs=tuple(configs),
        results=tuple(results),
        accesses=accesses,
        chunks=sim.chunks_fed,
        bytes_mapped=bytes_mapped,
        names=tuple(names),
    )


def kernel_fields(
    config: CacheConfig, counts: FastTraceCounts, names: Sequence[str]
) -> Dict[str, Any]:
    """The simulation-statistics payload fields of one kernel result.

    ``names`` maps per-variable ids to attribution labels; a label with
    no access in ``counts`` stays out of ``by_variable_misses``.  The
    fields equal the reference simulator's for the same config
    (:func:`repro.campaign.jobs.simulation_fields`), so a stored
    artifact does not depend on the route that produced it.
    """
    per_var = counts.per_variable
    name_ids = {name: vid for vid, name in enumerate(names) if vid in per_var}
    return {
        "config": config.describe(),
        "accesses": counts.demand_accesses,
        "hits": counts.demand_hits,
        "misses": counts.demand_misses,
        "miss_ratio": round(counts.demand_miss_ratio, 6),
        "evictions": counts.evictions,
        "compulsory_misses": counts.counts.compulsory_misses,
        "by_variable_misses": {
            name: per_var[vid][1] for name, vid in sorted(name_ids.items())
        },
    }
