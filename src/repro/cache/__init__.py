"""DineroIV-style trace-driven cache simulation.

The paper uses a modified DineroIV that attributes cache statistics to
functions and variables using Gleipnir's trace metadata.  This package
provides that simulator:

- :mod:`repro.cache.config` — cache geometry and policy configuration,
  including the paper's two presets (32 KiB direct-mapped and the
  PowerPC 440 32 KiB/64-way/round-robin cache of Section V.3);
- :mod:`repro.cache.policies` — LRU, FIFO, round-robin (PPC440), random
  and tree-PLRU replacement;
- :mod:`repro.cache.cache` — the set-associative cache core with
  write-back/write-through and write-allocate/no-allocate policies;
- :mod:`repro.cache.stats` — global, per-set, per-variable, per-function
  and per-(variable, set) counters — the data behind Figures 3/4/6/7/10/11;
- :mod:`repro.cache.conflict` — eviction attribution between variables
  ("observe conflicts between program structures");
- :mod:`repro.cache.simulator` — drives a trace through a cache;
- :mod:`repro.cache.hierarchy` — multi-level (L1/L2) simulation;
- :mod:`repro.cache.fastsim` — the vectorized (numpy) fast path for
  direct-mapped and set-associative LRU caches: one config run through
  the stack-position kernel of :mod:`repro.simbatch.kernel` as a batch
  of one, cross-validated against the reference simulator.  It is not
  re-exported here: :mod:`repro.simbatch` imports this package, so
  import it from its module (or from :mod:`repro.api`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cache.config": ("CacheConfig", "WritePolicy", "AllocatePolicy"),
        "repro.cache.policies": (
            "FIFOPolicy",
            "LRUPolicy",
            "PLRUTreePolicy",
            "RandomPolicy",
            "ReplacementPolicy",
            "RoundRobinPolicy",
            "make_policy",
        ),
        "repro.cache.cache": ("AccessOutcome", "BlockEvent", "SetAssociativeCache"),
        "repro.cache.stats": ("CacheStats", "PerSetCounts"),
        "repro.cache.conflict": ("ConflictMatrix",),
        "repro.cache.simulator": (
            "CacheSimulator",
            "SimulationResult",
            "attribution_label",
            "simulate",
        ),
        "repro.cache.hierarchy": (
            "CacheHierarchy",
            "HierarchyResult",
            "simulate_hierarchy",
        ),
        "repro.cache.threec": ("ThreeCCounts", "ThreeCReport", "classify_misses"),
        "repro.cache.split": ("SplitCacheSimulator", "SplitResult", "simulate_split"),
        "repro.cache.victim": (
            "VictimCacheSimulator",
            "VictimResult",
            "simulate_with_victim",
        ),
        "repro.cache.prefetch": (
            "PrefetchPolicy",
            "PrefetchResult",
            "PrefetchingSimulator",
            "simulate_with_prefetch",
        ),
    },
)
