"""Batched multi-config simulation over columnar traces.

The paper's methodology is a grid sweep: one trace, re-simulated under
dozens of cache geometries.  Run naively that re-reads, re-decodes and
re-expands the identical trace once per grid point.  This package
factors the shared work out:

- :mod:`repro.simbatch.plan` decides fast-path coverage
  (:func:`~repro.simbatch.plan.supports_fast_path`) and groups
  configurations by *geometry* (``block_size``, ``n_sets``) — members of
  a group share block expansion, set indexing, and one LRU
  stack-distance pass;
- :mod:`repro.simbatch.kernel` holds the package's one fast-path
  kernel and its one carried-state type: a single chunked pass over the
  address stream computing hit/miss/eviction and per-variable counts
  for every configuration simultaneously, bit-identical to the
  reference simulator per config (a single config is a batch of one —
  :mod:`repro.cache.fastsim` is that batch's face);
- :mod:`repro.simbatch.runner` feeds the kernel from any trace source —
  a memory-mapped :class:`~repro.trace.columnar.ColumnarTrace` is the
  zero-copy fast path — and exposes the campaign-facing helpers.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.simbatch.kernel": ("MultiConfigSimulator", "batch_trace_counts"),
        "repro.simbatch.plan": (
            "BatchPlan",
            "GeometryGroup",
            "batch_eligible",
            "plan_batch",
        ),
        "repro.simbatch.runner": (
            "BatchResult",
            "batch_simulation_fields",
            "simulate_batch",
        ),
    },
)
