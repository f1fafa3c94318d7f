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

from repro.cache.config import CacheConfig, WritePolicy, AllocatePolicy
from repro.cache.policies import (
    FIFOPolicy,
    LRUPolicy,
    PLRUTreePolicy,
    RandomPolicy,
    ReplacementPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.cache.cache import AccessOutcome, BlockEvent, SetAssociativeCache
from repro.cache.stats import CacheStats, PerSetCounts
from repro.cache.conflict import ConflictMatrix
from repro.cache.simulator import (
    CacheSimulator,
    SimulationResult,
    attribution_label,
    simulate,
)
from repro.cache.hierarchy import CacheHierarchy, HierarchyResult, simulate_hierarchy
from repro.cache.threec import ThreeCCounts, ThreeCReport, classify_misses
from repro.cache.split import SplitCacheSimulator, SplitResult, simulate_split
from repro.cache.victim import (
    VictimCacheSimulator,
    VictimResult,
    simulate_with_victim,
)
from repro.cache.prefetch import (
    PrefetchPolicy,
    PrefetchResult,
    PrefetchingSimulator,
    simulate_with_prefetch,
)

__all__ = [
    "CacheConfig",
    "WritePolicy",
    "AllocatePolicy",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RoundRobinPolicy",
    "RandomPolicy",
    "PLRUTreePolicy",
    "make_policy",
    "SetAssociativeCache",
    "AccessOutcome",
    "BlockEvent",
    "CacheStats",
    "PerSetCounts",
    "ConflictMatrix",
    "CacheSimulator",
    "SimulationResult",
    "simulate",
    "attribution_label",
    "CacheHierarchy",
    "HierarchyResult",
    "simulate_hierarchy",
    "ThreeCCounts",
    "ThreeCReport",
    "classify_misses",
    "SplitCacheSimulator",
    "SplitResult",
    "simulate_split",
    "VictimCacheSimulator",
    "VictimResult",
    "simulate_with_victim",
    "PrefetchPolicy",
    "PrefetchResult",
    "PrefetchingSimulator",
    "simulate_with_prefetch",
]
