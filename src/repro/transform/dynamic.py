"""Dynamic (heap) structure transformations — the paper's future work.

Section VI: "we can apply our transformations to static data structures
only ... therefore we must explore the ability to transform dynamic
structures as well."  This module implements the natural first step the
paper's own T2 motivates: *pooling* — relocating heap objects that were
allocated all over the arena into one contiguous pool, in first-touch
order, so that traversal order becomes allocation order ("collocate
elements of similar temporal locality into unique spatial memory pools").

Rule-file syntax (its own section)::

    pool:
    struct Node { int value; Node *next; };
    objects node* : nodePool[64];

- the struct declaration gives the element layout (slot size/alignment);
- ``objects <glob> : <pool>[capacity];`` pools every traced heap object
  whose name matches the glob into ``<pool>``, assigning slots in the
  order objects are first touched.

Unlike the static rules, a pool rule matches trace records by *pattern*
and carries per-run state (the slot map), so a fresh rule set should be
parsed for each engine run.
"""

from __future__ import annotations

import fnmatch
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RuleError
from repro.ctypes_model.parser import blank_comments, parse_declarations
from repro.ctypes_model.path import Index, PathElement
from repro.ctypes_model.types import CType, StructType
from repro.transform.rules import MappedAccess, OutAllocation, Rule, Translation

_OBJECTS_RE = re.compile(
    r"objects\s+([A-Za-z0-9_$*?\[\]]+)\s*:\s*"
    r"([A-Za-z_$][A-Za-z0-9_$]*)\s*\[\s*(\d+)\s*\]\s*;"
)


class PoolRule(Rule):
    """Relocate glob-matched heap objects into a contiguous pool.

    Parameters
    ----------
    pattern:
        Glob over traced object names (``node*``).
    elem_type:
        Layout of one pooled object (slot size = padded sizeof).
    pool_name:
        Name (and trace label) of the new pool variable.
    capacity:
        Number of slots; objects beyond capacity are left untouched and
        counted as *uncovered* by the engine.
    """

    is_pattern = True

    def __init__(
        self,
        pattern: str,
        elem_type: CType,
        pool_name: str,
        capacity: int,
    ) -> None:
        if capacity <= 0:
            raise RuleError(f"pool {pool_name!r} needs positive capacity")
        self.pattern = pattern
        self.elem_type = elem_type
        self.pool_name = pool_name
        self.capacity = capacity
        #: the glob is the "in name" for reporting purposes
        self.in_name = pattern
        self.name = f"pool:{pattern}->{pool_name}[{capacity}]"
        self._slots: Dict[str, int] = {}

    # -- pattern matching (engine hook) -----------------------------------

    def matches(self, base_name: str) -> bool:
        """Glob-match a trace variable against the pool pattern."""
        return fnmatch.fnmatchcase(base_name, self.pattern)

    def out_allocations(self) -> Tuple[OutAllocation, ...]:
        """One allocation: the pool holding every matched object."""
        return (
            OutAllocation(
                self.pool_name,
                self.elem_type.size * self.capacity,
                self.elem_type.alignment,
                scope="HS",
            ),
        )

    def translate(self, elements: Sequence[PathElement]) -> Optional[Translation]:
        raise RuleError(
            f"{self.name} matches by pattern; the engine must call "
            "translate_named"
        )

    def translate_named(
        self, base_name: str, elements: Sequence[PathElement]
    ) -> Optional[Translation]:
        """Translate one access to a pooled object.

        Slots are assigned in first-touch order; the path inside the
        object is preserved (``node7.next`` -> ``nodePool[k].next``).
        """
        slot = self._slots.get(base_name)
        if slot is None:
            if len(self._slots) >= self.capacity:
                return None  # pool full: leave the object alone
            slot = len(self._slots)
            self._slots[base_name] = slot
        try:
            offset, leaf = self.elem_type.resolve(elements)
        except Exception:
            return None
        if not leaf.is_scalar:
            return None
        return Translation(
            MappedAccess(
                self.pool_name,
                (Index(slot), *tuple(elements)),
                slot * self.elem_type.size + offset,
                leaf.size,
            )
        )

    @property
    def slot_map(self) -> Dict[str, int]:
        """Object name -> assigned slot (after a run)."""
        return dict(self._slots)


def parse_pool_rules(text: str) -> List[PoolRule]:
    """Parse the body of a ``pool:`` rule section (comments blanked
    first, so a commented-out ``objects`` line is not read)."""
    text = blank_comments(text)
    matches = list(_OBJECTS_RE.finditer(text))
    if not matches:
        raise RuleError("pool section needs an 'objects <glob> : <pool>[N];' line")
    decl_text = _OBJECTS_RE.sub("", text)
    decls = parse_declarations(decl_text)
    if not decls.structs:
        raise RuleError("pool section needs a struct declaration for the element")
    rules: List[PoolRule] = []
    # Convention: one struct per objects line, matched in order; with a
    # single struct it applies to every objects line.
    struct_list = list(decls.structs.values())
    for i, m in enumerate(matches):
        pattern, pool_name, capacity = m.group(1), m.group(2), int(m.group(3))
        elem = struct_list[min(i, len(struct_list) - 1)]
        if not isinstance(elem, StructType):
            raise RuleError("pool element must be a struct")
        rules.append(PoolRule(pattern, elem, pool_name, capacity))
    return rules
