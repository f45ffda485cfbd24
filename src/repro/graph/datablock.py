"""DataBlock: slot-addressed entity storage with id reuse.

Mirrors RedisGraph's DataBlock: entities get dense integer ids (which double
as matrix row/column indices), deletions push slots onto a free list, and
creations pop from it before growing.  Iteration yields live slots only.

Each block also owns the :class:`~repro.graph.properties.PropertyStore`
of its entities' properties and a liveness mask; both are numpy buffers
that grow geometrically and always keep one spare cell past the last
slot (so an id of ``-1`` reads a dead, property-less cell).
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import EntityNotFound
from repro.graph.properties import PropertyStore

__all__ = ["DataBlock"]

T = TypeVar("T")

_TOMBSTONE = object()
_MIN_BUFFER = 64


class DataBlock(Generic[T]):
    def __init__(self) -> None:
        self._slots: List[object] = []
        self._free: List[int] = []
        self._count = 0
        self._alive = np.zeros(_MIN_BUFFER, dtype=np.bool_)
        self.store = PropertyStore(_MIN_BUFFER)

    def _reserve(self) -> None:
        """Double the buffers until a spare cell follows the last slot."""
        cap = len(self._alive)
        while cap <= len(self._slots):
            cap *= 2
        if cap > len(self._alive):
            self._alive = np.concatenate([self._alive, np.zeros(cap - len(self._alive), dtype=np.bool_)])
            self.store.grow(cap)

    def alloc(self, item: T) -> int:
        """Store ``item``; returns its (possibly recycled) id."""
        self._count += 1
        if self._free:
            slot = self._free.pop()
            self._slots[slot] = item
        else:
            slot = len(self._slots)
            self._slots.append(item)
            if slot + 1 >= len(self._alive):
                self._reserve()
        self._alive[slot] = True
        return slot

    def alloc_many(self, items: Sequence[T]) -> np.ndarray:
        """Store a batch in one pass; returns the assigned ids in order.

        Free slots are recycled first (matching :meth:`alloc`), then the
        remainder lands in one list ``extend`` — the bulk-ingestion path,
        which must not pay a Python-level append per entity."""
        n = len(items)
        ids = np.empty(n, dtype=np.int64)
        reused = 0
        while self._free and reused < n:
            slot = self._free.pop()
            self._slots[slot] = items[reused]
            ids[reused] = slot
            reused += 1
        start = len(self._slots)
        if reused < n:
            self._slots.extend(items[reused:])
            ids[reused:] = np.arange(start, start + (n - reused), dtype=np.int64)
            self._reserve()
        self._alive[ids] = True
        self._count += n
        return ids

    def free_list(self) -> List[int]:
        """A copy of the free list in pop order — persisted so a restored
        block recycles deleted ids exactly like the original."""
        return list(self._free)

    @classmethod
    def restore(cls, slots: Sequence[Optional[T]], free: Sequence[int]) -> "DataBlock[T]":
        """Rebuild a block from persisted state: ``slots`` aligned by id
        (``None`` marks a tombstone) and ``free`` the saved free list.
        The property store starts empty."""
        block: "DataBlock[T]" = cls()
        block._slots = [_TOMBSTONE if item is None else item for item in slots]
        block._free = list(free)
        block._count = len(block._slots) - len(block._free)
        block._reserve()
        block._alive[: len(block._slots)] = [item is not _TOMBSTONE for item in block._slots]
        return block

    def alive_mask(self) -> np.ndarray:
        """Boolean mask over slots: True where a live item sits (the
        vectorized form of per-id :meth:`exists` probes)."""
        return self._alive[: len(self._slots)].copy()

    def check_live(self, ids: np.ndarray) -> None:
        """Raise EntityNotFound unless every id is live or -1 (a null
        hole): one mask take, the vectorized form of per-id :meth:`get`
        (past-the-end ids clip onto the dead spare cell)."""
        bad = (ids < -1) | ((ids != -1) & ~self._alive.take(ids, mode="clip"))
        if bad.any():
            raise EntityNotFound(f"entity id {int(ids[np.argmax(bad)])} does not exist")

    def free(self, item_id: int) -> T:
        """Delete the item and its properties; its id becomes reusable.
        Returns the item."""
        item = self.get(item_id)
        self._slots[item_id] = _TOMBSTONE
        self._alive[item_id] = False
        self.store.clear(item_id)
        self._free.append(item_id)
        self._count -= 1
        return item

    def get(self, item_id: int) -> T:
        if not self.exists(item_id):
            raise EntityNotFound(f"entity id {item_id} does not exist")
        return self._slots[item_id]  # type: ignore[return-value]

    def gather(self, ids: Sequence[int]) -> List[Optional[T]]:
        """Fetch many records in one pass (the label gathers' primitive;
        properties gather from :attr:`store`).  ``-1`` marks a null slot (an OPTIONAL MATCH hole) and
        yields ``None``; any other dead/out-of-range id raises, matching
        per-id :meth:`get` semantics."""
        slots = self._slots
        n = len(slots)
        out: List[Optional[T]] = []
        append = out.append
        for i in ids:
            if 0 <= i < n:
                item = slots[i]
                if item is not _TOMBSTONE:
                    append(item)
                    continue
            elif i == -1:
                append(None)
                continue
            raise EntityNotFound(f"entity id {i} does not exist")
        return out

    def exists(self, item_id: int) -> bool:
        return 0 <= item_id < len(self._slots) and self._slots[item_id] is not _TOMBSTONE

    def __len__(self) -> int:
        """Number of *live* items."""
        return self._count

    @property
    def capacity(self) -> int:
        """Highest slot ever allocated + 1 (the matrix dimension floor)."""
        return len(self._slots)

    def items(self) -> Iterator[Tuple[int, T]]:
        for i, item in enumerate(self._slots):
            if item is not _TOMBSTONE:
                yield i, item  # type: ignore[misc]

    def ids(self) -> Iterator[int]:
        for i, item in enumerate(self._slots):
            if item is not _TOMBSTONE:
                yield i
