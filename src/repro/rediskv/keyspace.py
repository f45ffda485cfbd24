"""The key → typed-value store behind the server (a minimal Redis keyspace).

Thread safety: plain key-value commands execute on the I/O loop while
graph workers resolve, create and delete keys from the module pool, so
every mutating entry point serializes on one internal lock.  Reads of a
single dict slot are atomic under CPython, but the read-check-write
commands (SET's type check, DEL's pop-and-count) are not — the lock
covers those compound steps.
"""

from __future__ import annotations

import fnmatch
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import WrongTypeError

__all__ = ["Keyspace"]


class Keyspace:
    """Keys hold (type_tag, value); graph keys hold GraphDB instances."""

    def __init__(self) -> None:
        self._data: Dict[str, Tuple[str, Any]] = {}
        self._lock = threading.Lock()

    def set_string(self, key: str, value: str) -> None:
        with self._lock:
            existing = self._data.get(key)
            if existing is not None and existing[0] != "string":
                raise WrongTypeError()
            self._data[key] = ("string", value)

    def get_string(self, key: str) -> Optional[str]:
        entry = self._data.get(key)
        if entry is None:
            return None
        if entry[0] != "string":
            raise WrongTypeError()
        return entry[1]

    def set_graph(self, key: str, graph) -> None:
        with self._lock:
            existing = self._data.get(key)
            if existing is not None and existing[0] != "graph":
                raise WrongTypeError()
            self._data[key] = ("graph", graph)

    def get_graph(self, key: str):
        entry = self._data.get(key)
        if entry is None:
            return None
        if entry[0] != "graph":
            raise WrongTypeError()
        return entry[1]

    def get_or_create_graph(self, key: str, factory):
        """The GraphDB at ``key``, creating one via ``factory()`` atomically
        when absent — two racing commands on a fresh key get the SAME
        instance instead of each building (and one losing) its own."""
        with self._lock:
            entry = self._data.get(key)
            if entry is not None:
                if entry[0] != "graph":
                    raise WrongTypeError()
                return entry[1]
            graph = factory()
            self._data[key] = ("graph", graph)
            return graph

    def peek_graph(self, key: str):
        """The GraphDB at ``key``, or None for a missing/non-graph key
        (never raises — the durability layer's identity probe)."""
        entry = self._data.get(key)
        return entry[1] if entry is not None and entry[0] == "graph" else None

    def delete(self, *keys: str) -> int:
        with self._lock:
            removed = 0
            for key in keys:
                if self._data.pop(key, None) is not None:
                    removed += 1
            return removed

    def exists(self, *keys: str) -> int:
        return sum(1 for k in keys if k in self._data)

    def type_of(self, key: str) -> str:
        entry = self._data.get(key)
        return "none" if entry is None else entry[0]

    def keys(self, pattern: str = "*") -> List[str]:
        with self._lock:
            return sorted(k for k in self._data if fnmatch.fnmatchcase(k, pattern))

    def graph_keys(self) -> List[str]:
        with self._lock:
            return sorted(k for k, (t, _) in self._data.items() if t == "graph")

    def flush(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)
