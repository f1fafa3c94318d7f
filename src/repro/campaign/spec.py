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
point every before/after table needs.  :meth:`CampaignSpec.load`
resolves a relative ``file:`` path against the spec file's directory,
as ``tdst lint`` does; a spec built in code or by
:meth:`CampaignSpec.from_toml` resolves it against the working
directory.

The loader ignores top-level names other than ``[campaign]``,
``[[caches]]`` and ``[[grid]]``, and ``[campaign]`` keys it does not
know; ``tdst lint`` warns about each one (TDST026), so a misspelled key
(or a table a past version read, such as ``[batch]``) does not pass
silently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

#: Top-level names the loader reads; it ignores any other.
SPEC_TABLES = ("caches", "campaign", "grid")

#: ``[campaign]`` keys the loader reads; it ignores any other.
CAMPAIGN_KEYS = ("attribution", "name", "profile", "profile_trace", "verify")


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
            CacheSpec.from_dict(c)
            for c in _tables(data.get("caches", []), "grid.caches")
        )
        length = data.get("length", 16)
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise CampaignError(
                f"'length' must be an integer, got {length!r}"
            ) from None
        rules = data.get("rules", ("baseline",))
        if not isinstance(rules, (list, tuple)):
            raise CampaignError(
                f"'rules' must be an array of rule names, got {rules!r}"
            )
        return cls(
            kernel=str(data["kernel"]),
            length=length,
            rules=tuple(str(r) for r in rules),
            caches=caches,
        )


def _tables(value: Any, key: str) -> Sequence[Mapping[str, Any]]:
    """``value`` if it is an array of tables, else a :class:`CampaignError`
    naming ``key``."""
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, Mapping) for item in value
    ):
        return value
    raise CampaignError(
        f"{key!r} must be an array of tables ([[{key}]]), got {value!r}"
    )


def _anchor_rule_ref(rule: str, base: Path) -> str:
    """A relative ``file:`` rule reference joined onto ``base``."""
    if not rule.startswith("file:"):
        return rule
    ref = Path(rule[len("file:"):].strip())
    return rule if ref.is_absolute() else f"file:{base / ref}"


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
        if not isinstance(campaign, Mapping):
            raise CampaignError(
                f"'campaign' must be a table ([campaign]), got {campaign!r}"
            )
        name = str(campaign.get("name", "campaign"))
        attribution = campaign.get("attribution", ["base"])
        if isinstance(attribution, str):
            attribution = [attribution]
        elif not isinstance(attribution, (list, tuple)):
            raise CampaignError(
                "'attribution' must be a mode name or an array of them, "
                f"got {attribution!r}"
            )
        caches = tuple(
            CacheSpec.from_dict(c) for c in _tables(data.get("caches", []), "caches")
        ) or (CacheSpec(),)
        grid = tuple(
            GridEntry.from_dict(g) for g in _tables(data.get("grid", []), "grid")
        )
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
        """Load a spec from a TOML file.

        Each relative ``file:`` rule reference is joined onto the spec
        file's directory, so the campaign reads the rule file the
        pre-flight lint read, whatever the working directory.
        """
        path = Path(path)
        spec = cls.from_toml(path.read_text(encoding="utf-8"))
        grid = tuple(
            replace(
                entry,
                rules=tuple(_anchor_rule_ref(r, path.parent) for r in entry.rules),
            )
            for entry in spec.grid
        )
        return replace(spec, grid=grid)

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
