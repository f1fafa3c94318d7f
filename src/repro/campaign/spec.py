"""Declarative campaign specifications: the experiment grid.

A *campaign* declares every point of a layout study — which kernels to
trace, which transformation rules to apply, which cache geometries to
simulate, at which attribution granularity — so the whole grid (e.g.
every figure of the paper) runs from one document instead of a shell
history of hand-chained ``tdst`` invocations.

The spec is a plain dataclass tree, loadable from a TOML document::

    [campaign]
    name = "paper-figures"
    attribution = ["base"]

    [[caches]]                    # campaign-wide default geometries
    size = 32768
    block = 32
    assoc = 1

    [[grid]]
    kernel = "1a"
    length = 1024
    rules = ["baseline", "t1"]    # baseline = simulate untransformed

    [[grid]]
    kernel = "3a"
    length = 1024
    rules = ["baseline", "t3"]
    [[grid.caches]]               # per-entry override: PPC440 study
    ppc440 = true

Rules are referenced by paper name (``t1``/``t2``/``t3``, parameterised
by the entry's ``length``), by ``file:path/to/rules`` for on-disk rule
files, or ``baseline`` (alias ``none``) for the untransformed control
point every before/after table needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.cache.config import CacheConfig
from repro.errors import CampaignError
from repro.workloads.names import PAPER_KERNEL_NAMES

#: Rule names resolvable without a rule file.
PAPER_RULE_NAMES = ("t1", "t2", "t3")

#: Spellings of the untransformed control point.
BASELINE_NAMES = ("baseline", "none")

#: Attribution modes understood by the simulator.
ATTRIBUTION_MODES = ("base", "member")


@dataclass(frozen=True)
class CacheSpec:
    """A declarative cache geometry (picklable, hashable).

    ``ppc440=True`` selects the paper's PowerPC 440 preset and ignores
    the remaining geometry fields.
    """

    size: int = 32 * 1024
    block: int = 32
    assoc: int = 1
    policy: str = "lru"
    ppc440: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CacheSpec":
        """Build from a TOML table (unknown keys are rejected)."""
        known = {"size", "block", "assoc", "policy", "ppc440"}
        extra = set(data) - known
        if extra:
            raise CampaignError(
                f"unknown cache spec keys: {sorted(extra)} (known: {sorted(known)})"
            )
        return cls(**dict(data))

    def to_config(self) -> CacheConfig:
        """The concrete :class:`CacheConfig` this spec denotes."""
        if self.ppc440:
            return CacheConfig.ppc440()
        return CacheConfig(
            size=self.size,
            block_size=self.block,
            associativity=self.assoc,
            policy=self.policy,
        )

    def label(self) -> str:
        """Short stable label used in job ids and artifact keys."""
        if self.ppc440:
            return "ppc440"
        return f"{self.size}B-{self.block}b-{self.assoc}w-{self.policy}"


@dataclass(frozen=True)
class GridEntry:
    """One row of the grid: a kernel crossed with rules and caches."""

    kernel: str
    length: int = 16
    rules: Tuple[str, ...] = ("baseline",)
    #: empty tuple = inherit the campaign-wide cache list
    caches: Tuple[CacheSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.kernel.lower() not in PAPER_KERNEL_NAMES:
            raise CampaignError(
                f"unknown kernel {self.kernel!r}; "
                f"choose from {sorted(PAPER_KERNEL_NAMES)}"
            )
        if self.length <= 0:
            raise CampaignError(f"length must be positive, got {self.length}")
        if not self.rules:
            raise CampaignError(f"grid entry {self.kernel!r} declares no rules")
        for rule in self.rules:
            validate_rule_ref(rule)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GridEntry":
        """Build from a TOML ``[[grid]]`` table."""
        known = {"kernel", "length", "rules", "caches"}
        extra = set(data) - known
        if extra:
            raise CampaignError(
                f"unknown grid entry keys: {sorted(extra)} (known: {sorted(known)})"
            )
        if "kernel" not in data:
            raise CampaignError("grid entry missing required key 'kernel'")
        caches = tuple(
            CacheSpec.from_dict(c) for c in data.get("caches", ())
        )
        return cls(
            kernel=str(data["kernel"]),
            length=int(data.get("length", 16)),
            rules=tuple(str(r) for r in data.get("rules", ("baseline",))),
            caches=caches,
        )


def validate_rule_ref(rule: str) -> None:
    """Reject rule references that can never resolve.

    ``file:`` paths are *not* checked for existence or well-formedness
    here — a broken rule file is an execution-time failure handled by the
    scheduler's retry/degradation machinery, not a spec error.
    """
    lowered = rule.lower()
    if lowered in BASELINE_NAMES or lowered in PAPER_RULE_NAMES:
        return
    if rule.startswith("file:"):
        if not rule[len("file:"):].strip():
            raise CampaignError("empty path in 'file:' rule reference")
        return
    raise CampaignError(
        f"unknown rule reference {rule!r}; use "
        f"{'/'.join(BASELINE_NAMES)}, {'/'.join(PAPER_RULE_NAMES)}, or file:PATH"
    )


@dataclass(frozen=True)
class BatchOptions:
    """Batched-simulation knobs (the ``[batch]`` TOML table).

    When enabled, grid points that share one input trace (same kernel,
    length, rule, attribution) and whose cache geometry the batched
    kernel covers are routed to a single multi-config job; everything
    else falls back to per-config execution untouched.
    """

    #: master switch; ``tdst campaign --no-batch`` and the
    #: ``TDST_NO_BATCH`` environment variable override it downward
    enabled: bool = True
    #: records per streamed chunk fed to the batched kernel
    chunk: int = 65536
    #: configs per batched job; larger groups split into several jobs
    max_configs: int = 64

    def __post_init__(self) -> None:
        if self.chunk <= 0:
            raise CampaignError(
                f"batch chunk must be positive, got {self.chunk}"
            )
        if self.max_configs <= 0:
            raise CampaignError(
                f"batch max_configs must be positive, got {self.max_configs}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchOptions":
        """Build from a TOML ``[batch]`` table (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise CampaignError(
                f"[batch] must be a table, got {data!r}"
            )
        known = {"enabled", "chunk", "max_configs"}
        extra = set(data) - known
        if extra:
            raise CampaignError(
                f"unknown batch option keys: {sorted(extra)} "
                f"(known: {sorted(known)})"
            )
        for key in ("chunk", "max_configs"):
            if key in data and (
                isinstance(data[key], bool) or not isinstance(data[key], int)
            ):
                raise CampaignError(
                    f"batch {key} must be an integer, got {data[key]!r}"
                )
        if "enabled" in data and not isinstance(data["enabled"], bool):
            raise CampaignError(
                f"batch enabled must be a boolean, got {data['enabled']!r}"
            )
        return cls(**dict(data))


#: ``[service]`` keys of the retired chunk-parallel simulate stage.  A
#: spec that still sets one loads; the key is ignored and ``tdst lint``
#: warns (TDST026).
REMOVED_SERVICE_KEYS = ("chunk_parallel", "chunk_shards", "min_chunk_records")


@dataclass(frozen=True)
class ServiceOptions:
    """Campaign-service knobs (the ``[service]`` TOML table).

    When enabled, ``tdst campaign`` drives the run through the local
    asyncio job service (work-stealing shard workers) instead of the
    one-shot process pool.  Artifacts are byte-identical either way;
    ``tdst campaign --no-service`` and the ``TDST_NO_SERVICE``
    environment variable override it downward.
    """

    #: master switch for the service route
    enabled: bool = False
    #: shard workers; 0 means "follow the scheduler's worker count"
    shards: int = 0
    #: bounded job-queue capacity (the backpressure knob)
    queue_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise CampaignError(
                f"service shards must be >= 0, got {self.shards}"
            )
        if self.queue_capacity <= 0:
            raise CampaignError(
                f"service queue_capacity must be positive, "
                f"got {self.queue_capacity}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceOptions":
        """Build from a TOML ``[service]`` table.

        Unknown keys are rejected; :data:`REMOVED_SERVICE_KEYS` are
        dropped unread.
        """
        if not isinstance(data, Mapping):
            raise CampaignError(f"[service] must be a table, got {data!r}")
        known = {"enabled", "shards", "queue_capacity"}
        extra = set(data) - known - set(REMOVED_SERVICE_KEYS)
        if extra:
            raise CampaignError(
                f"unknown service option keys: {sorted(extra)} "
                f"(known: {sorted(known)})"
            )
        data = {k: v for k, v in data.items() if k in known}
        for key in ("shards", "queue_capacity"):
            if key in data and (
                isinstance(data[key], bool) or not isinstance(data[key], int)
            ):
                raise CampaignError(
                    f"service {key} must be an integer, got {data[key]!r}"
                )
        if "enabled" in data and not isinstance(data["enabled"], bool):
            raise CampaignError(
                f"service enabled must be a boolean, got {data['enabled']!r}"
            )
        return cls(**data)


@dataclass(frozen=True)
class CampaignSpec:
    """The full declarative campaign: grid entries plus shared defaults."""

    name: str
    grid: Tuple[GridEntry, ...]
    caches: Tuple[CacheSpec, ...] = (CacheSpec(),)
    attribution: Tuple[str, ...] = ("base",)
    #: opt-in post-job check: every transformed trace is replayed through
    #: the soundness oracle (``[campaign] verify = true``, or
    #: ``tdst campaign --verify``); an unsound transform fails the job.
    verify: bool = False
    #: opt-in profiling: JSONL telemetry profile written relative to the
    #: campaign directory (``[campaign] profile = "profile.jsonl"``).
    profile: Optional[str] = None
    #: companion Chrome ``trace_event`` file for chrome://tracing/Perfetto
    #: (``[campaign] profile_trace = "trace.json"``).
    profile_trace: Optional[str] = None
    #: batched multi-config simulation knobs (the ``[batch]`` table)
    batch: BatchOptions = BatchOptions()
    #: campaign-service knobs (the ``[service]`` table)
    service: ServiceOptions = ServiceOptions()

    def __post_init__(self) -> None:
        if not self.grid:
            raise CampaignError("campaign declares no grid entries")
        for mode in self.attribution:
            if mode not in ATTRIBUTION_MODES:
                raise CampaignError(
                    f"unknown attribution mode {mode!r}; "
                    f"choose from {ATTRIBUTION_MODES}"
                )
        for entry in self.grid:
            if not entry.caches and not self.caches:
                raise CampaignError(
                    f"grid entry {entry.kernel!r} has no caches and the "
                    "campaign declares no defaults"
                )

    # -- loaders -------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build from a parsed TOML document (nested plain dicts)."""
        campaign = data.get("campaign", {})
        name = str(campaign.get("name", "campaign"))
        attribution = campaign.get("attribution", ["base"])
        if isinstance(attribution, str):
            attribution = [attribution]
        caches = tuple(
            CacheSpec.from_dict(c) for c in data.get("caches", ())
        ) or (CacheSpec(),)
        grid = tuple(GridEntry.from_dict(g) for g in data.get("grid", ()))
        return cls(
            name=name,
            grid=grid,
            caches=caches,
            attribution=tuple(str(a) for a in attribution),
            verify=bool(campaign.get("verify", False)),
            profile=(
                str(campaign["profile"])
                if campaign.get("profile")
                else None
            ),
            profile_trace=(
                str(campaign["profile_trace"])
                if campaign.get("profile_trace")
                else None
            ),
            batch=BatchOptions.from_dict(data.get("batch", {})),
            service=ServiceOptions.from_dict(data.get("service", {})),
        )

    @classmethod
    def from_toml(cls, text: str) -> "CampaignSpec":
        """Parse a TOML document into a spec."""
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise CampaignError(f"invalid campaign TOML: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a TOML file."""
        return cls.from_toml(Path(path).read_text(encoding="utf-8"))

    # -- derived -------------------------------------------------------------

    def caches_for(self, entry: GridEntry) -> Tuple[CacheSpec, ...]:
        """The cache list one grid entry runs against."""
        return entry.caches or self.caches

    def n_points(self) -> int:
        """Total grid points (jobs) this spec expands to."""
        return sum(
            len(e.rules) * len(self.caches_for(e)) * len(self.attribution)
            for e in self.grid
        )


def paper_figures_spec(length: int = 1024) -> CampaignSpec:
    """The built-in spec reproducing the paper's T1/T2/T3 studies.

    Kernels 1a/2a/3a with their matching rules against the paper's two
    cache geometries (direct-mapped 32 KiB for T1/T2, PPC440 for T3) —
    the one-invocation reproduction of Figures 3-11's before/after data.
    """
    return CampaignSpec(
        name="paper-figures",
        grid=(
            GridEntry(kernel="1a", length=length, rules=("baseline", "t1")),
            GridEntry(kernel="2a", length=length, rules=("baseline", "t2")),
            GridEntry(
                kernel="3a",
                length=length,
                rules=("baseline", "t3"),
                caches=(CacheSpec(ppc440=True),),
            ),
        ),
        caches=(CacheSpec(),),
        attribution=("base",),
    )
