"""Lazy package exports (PEP 562).

A package ``__init__`` names its public API by submodule and imports a
submodule only when one of its names is first read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.campaign.spec": ("CampaignSpec", "paper_figures_spec"),
    })

``from repro.campaign import CampaignSpec`` then loads
``repro.campaign.spec`` alone, so a command that needs one light module
never pays for the numpy-backed siblings the package also exports.  A
resolved name is stored in the package namespace, so later reads are
plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule to the names the package re-exports
    from it; ``__all__`` lists them in that order.
    """
    owner: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return list(owner), __getattr__, __dir__
