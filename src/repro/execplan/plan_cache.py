"""A thread-safe, schema-versioned LRU cache of compiled query plans.

RedisGraph caches execution plans per query string for the same reason:
on small working sets the fixed per-request cost (lex/parse/validate/
plan) dominates the algebra, so hot parameterized queries must skip
straight to execution.

Keying and invalidation:

* the key is the canonical query text (whitespace-trimmed, with any
  ``CYPHER k=v`` parameter prefix already stripped by the caller) —
  parameterized queries that differ only in ``$param`` *values* share one
  entry, and so do literal variants once the engine has lifted their
  literals into parameters,
* each entry remembers the ``Graph.schema_version`` it was compiled at;
  a lookup that finds a stale entry drops it and reports a miss, so
  label/reltype/index/config changes invalidate lazily without a sweep.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.execplan.compiled import CompiledQuery

__all__ = ["PlanCache"]


class PlanCache:
    """LRU cache of :class:`CompiledQuery` artifacts.

    ``capacity <= 0`` disables caching entirely (every lookup misses and
    ``put`` is a no-op) — the ``plan_cache_size`` config knob's off switch.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[str, CompiledQuery]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @staticmethod
    def canonical(text: str) -> str:
        return text.strip()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def get(
        self,
        text: str,
        schema_version: int,
        stats_epoch: Optional[int] = None,
        proc_version: Optional[int] = None,
    ) -> Optional[CompiledQuery]:
        """The cached plan for ``text`` if present *and* compiled at
        ``schema_version``; stale entries are evicted on sight.  A hit is
        counted here; a miss is not, because one request may try two
        keys — the caller counts it once with :meth:`count_miss`.

        ``stats_epoch`` (cost-based planning only) adds a second freshness
        axis: an entry priced at an older statistics epoch is stale even
        though the schema hasn't moved — the graph's size drifted enough
        that its estimates may pick a different plan.  Rule-compiled
        entries (``stats_epoch is None`` on the entry) never expire this
        way, and callers with the knob off pass None and skip the check.

        ``proc_version`` is a third axis for ``CALL`` plans: the procedure
        registry's version at compile time.  A (re-)registration bumps the
        registry version, so entries that resolved procedures against the
        old catalog are dropped the same lazy way."""
        key = self.canonical(text)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if (
                entry.schema_version != schema_version
                or (
                    stats_epoch is not None
                    and entry.stats_epoch is not None
                    and entry.stats_epoch != stats_epoch
                )
                or (proc_version is not None and entry.proc_version != proc_version)
            ):
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def count_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def put(self, compiled: CompiledQuery) -> None:
        if self._capacity <= 0:
            return
        key = self.canonical(compiled.text)
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def resize(self, capacity: int) -> None:
        with self._lock:
            self._capacity = capacity
            if capacity <= 0:
                self._entries.clear()
            else:
                while len(self._entries) > capacity:
                    self._entries.popitem(last=False)

    def info(self) -> dict:
        with self._lock:
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
