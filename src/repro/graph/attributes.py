"""Attribute-key interning.

Property names are interned to small integer ids once per graph, so the
property store keys one typed column per attribute id and comparisons/
projections work on integers (RedisGraph's GraphContext attribute
registry)."""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["AttributeRegistry"]


class AttributeRegistry:
    def __init__(self) -> None:
        self._by_name: Dict[str, int] = {}
        self._names: List[str] = []

    def intern(self, name: str) -> int:
        """Return the id for ``name``, allocating one on first sight."""
        attr_id = self._by_name.get(name)
        if attr_id is None:
            attr_id = len(self._names)
            self._by_name[name] = attr_id
            self._names.append(name)
        return attr_id

    def lookup(self, name: str) -> Optional[int]:
        """The id for ``name`` or None if never interned (a query touching
        an unknown property never matches anything — no allocation)."""
        return self._by_name.get(name)

    def name_of(self, attr_id: int) -> str:
        return self._names[attr_id]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
