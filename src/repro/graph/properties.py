"""Typed property columns — where node and edge properties live.

One :class:`PropertyStore` per DataBlock keeps, per attribute id, a
slot-indexed values buffer and a null mask, both as long as the block's
buffers.  A column takes its dtype from the first value it stores —
``int64`` (ints in range, never bools), ``float64``, ``bool``, ``int32``
codes into a per-column string pool (equal strings share one code, so a
string group-by is an integer one), else ``object`` — and promotes to
``object`` for good on a second Cypher type or an int past int64.  A
read returns exactly the Python value written, type included.  Absent
cells hold a blank (0, False, code -1, None); the last cell of every
buffer is never a slot, so an id of -1 (an OPTIONAL MATCH hole) reads as
null.

Replies encode under the query's lock, but an embedded API handle read
outside any query may race a write.  A write stores the value before it
clears the null bit, a clear sets the bit before it blanks the value, a
read checks the bit before and after it takes the value, and a promotion
or pool rebuild swaps in a new column object instead of editing the old
one: a racing read sees the old value or the new one, never a mix.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["PropertyStore", "kind_of"]

BOOL, INT, FLOAT, STR, OBJ = "bool", "int", "float", "str", "object"
_DTYPE = {BOOL: np.bool_, INT: np.int64, FLOAT: np.float64, STR: np.int32, OBJ: object}
_BLANK = {BOOL: False, INT: 0, FLOAT: 0.0, STR: -1, OBJ: None}
_KIND_OF_TYPE = {bool: BOOL, int: INT, float: FLOAT, str: STR}
_TYPE_OF_KIND = {BOOL: bool, INT: int, FLOAT: float, STR: str, OBJ: None}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: a string pool is rebuilt once it holds more than this many entries per
#: live cell (plus a floor, so a near-empty column does not rebuild often)
POOL_SLACK = 2
_POOL_FLOOR = 32


def kind_of(value: Any) -> str:
    """The column kind a (non-null) value needs on its own."""
    kind = _KIND_OF_TYPE.get(type(value), OBJ)
    return OBJ if kind == INT and not _INT64_MIN <= value <= _INT64_MAX else kind


class _Column:
    __slots__ = ("kind", "pytype", "values", "nulls", "cells", "flags", "live", "pool", "codes_of", "pool_arr")

    def __init__(self, kind: str, cap: int, values: Optional[np.ndarray] = None, nulls: Optional[np.ndarray] = None):
        self.kind, self.pytype = kind, _TYPE_OF_KIND[kind]  # pytype: what a write stores as is
        self._bind(
            np.full(cap, _BLANK[kind], dtype=_DTYPE[kind]) if values is None else values,
            np.ones(cap, dtype=np.bool_) if nulls is None else nulls,
        )
        # strings only: live cells, the pool, its reverse map, and the pool
        # as an object buffer padded with None (code -1 reads a None)
        self.live = 0
        self.pool: List[str] = []
        self.codes_of: Dict[str, int] = {}
        self.pool_arr = np.full(16, None, dtype=object)

    def _bind(self, values: np.ndarray, nulls: np.ndarray) -> None:
        """Adopt new buffers.  ``cells``/``flags`` are their one-cell
        handles: memoryviews, whose item access costs half a numpy one."""
        self.values, self.nulls = values, nulls
        self.cells = values if values.dtype == object else memoryview(values)
        self.flags = memoryview(nulls)

    def grow(self, cap: int) -> None:
        values = np.full(cap, self.values[-1], dtype=self.values.dtype)  # the spare last cell is blank
        values[: len(self.values)] = self.values
        nulls = np.ones(cap, dtype=np.bool_)
        nulls[: len(self.nulls)] = self.nulls
        self._bind(values, nulls)

    def read(self, slot: int) -> Any:
        """The value of a cell seen set, or None if a clear raced the read."""
        value = self.cells[slot]
        if self.pytype is str:
            value = self.pool_arr.item(value)
        return None if self.flags[slot] else value

    def clear(self, slot: int) -> None:
        if self.pytype is str and not self.flags[slot]:
            self.live -= 1
        self.flags[slot] = True
        self.cells[slot] = _BLANK[self.kind]

    def code(self, s: str) -> int:
        code = self.codes_of.get(s)
        if code is None:
            code = self.codes_of[s] = len(self.pool)
            self.pool.append(s)
            if code + 1 >= len(self.pool_arr):
                self.pool_arr = np.concatenate([self.pool_arr, np.full(len(self.pool_arr), None, dtype=object)])
            self.pool_arr[code] = s
        return code

    def tidied(self) -> "_Column":
        """This column, or — once a string pool is mostly dead — a copy
        whose pool holds only the live strings (codes renumbered)."""
        if len(self.pool) <= POOL_SLACK * self.live + _POOL_FLOOR:
            return self
        used = np.unique(self.values[~self.nulls])
        remap = np.full(len(self.pool) + 1, -1, dtype=np.int32)  # code -1 stays -1
        remap[used] = np.arange(len(used), dtype=np.int32)
        col = _Column(STR, 0, remap[self.values], self.nulls.copy())
        col.live = self.live
        for s in (self.pool[c] for c in used.tolist()):
            col.code(s)
        return col

    def promoted(self) -> "_Column":
        """A copy as an ``object`` column holding the same Python values."""
        values = self.pool_arr.take(self.values) if self.pytype is str else self.values.astype(object)
        values[self.nulls] = None
        return _Column(OBJ, 0, values, self.nulls.copy())

    def fill(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Write many cells: a typed array, or Python values it holds."""
        if self.pytype is str:
            values = np.fromiter(map(self.code, values.tolist()), dtype=np.int32, count=len(values))
            self.live += int(np.count_nonzero(self.nulls[slots]))
        self.values[slots] = values  # an object column takes them as Python scalars
        self.nulls[slots] = False


class PropertyStore:
    """Slot-indexed typed columns, one per attribute id, for one block."""

    __slots__ = ("_cols", "_cap")

    def __init__(self, cap: int) -> None:
        self._cols: Dict[int, _Column] = {}
        self._cap = cap

    def grow(self, cap: int) -> None:
        for col in self._cols.values():
            col.grow(cap)
        self._cap = cap

    def get(self, slot: int, aid: Optional[int]) -> Any:
        col = self._cols.get(aid)
        return None if col is None or col.flags[slot] else col.read(slot)

    def set(self, slot: int, aid: int, value: Any) -> None:
        """Write one cell; ``None`` removes the property."""
        col = self._cols.get(aid)
        if value is None:
            if col is not None:
                col.clear(slot)
            return
        if col is None:
            col = self._cols[aid] = _Column(kind_of(value), self._cap)
        pytype = col.pytype
        if (pytype is not None and type(value) is not pytype) or (
            pytype is int and not _INT64_MIN <= value <= _INT64_MAX
        ):
            col = self._cols[aid] = col.promoted()
        elif pytype is str:
            if col.flags[slot]:
                col.live += 1
            code = col.codes_of.get(value)
            if code is None:
                col = self._cols[aid] = col.tidied()
                code = col.code(value)
            value = code
        col.cells[slot] = value
        col.flags[slot] = False

    def items(self, slot: int) -> List[Tuple[int, Any]]:
        """``(aid, value)`` of every property the slot holds."""
        cells = [(aid, col.read(slot)) for aid, col in list(self._cols.items()) if not col.flags[slot]]
        return [(aid, value) for aid, value in cells if value is not None]

    def clear(self, slot: int) -> None:
        """Forget every cell of a deleted entity (its slot may be reused)."""
        for col in self._cols.values():
            col.clear(slot)

    def gather(self, ids: np.ndarray, aid: Optional[int]) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(values, nulls, codes)`` at ``ids``: typed values for a typed
        column, Python objects otherwise, and a string column's codes."""
        col = self._cols.get(aid)
        if col is None:
            return np.full(len(ids), None, dtype=object), np.ones(len(ids), dtype=np.bool_), None
        if col.pytype is str:
            codes = col.values[ids]
            return col.pool_arr.take(codes), col.nulls[ids], codes
        return col.values[ids], col.nulls[ids], None

    def pool(self, aid: Optional[int]) -> Optional[List[str]]:
        """The pool a string column's codes index (None for any other
        column): appended to in place, so a code keeps its string, until a
        rebuild swaps in a new list with new codes."""
        col = self._cols.get(aid)
        return col.pool if col is not None and col.pytype is str else None

    def objects(self, ids: np.ndarray, aid: Optional[int]) -> list:
        """The column at ``ids`` as Python values, None where absent."""
        values, nulls, _ = self.gather(ids, aid)
        values = values.astype(object)
        values[nulls] = None
        return values.tolist()

    def install(self, aid: int, slots: np.ndarray, values: np.ndarray) -> None:
        """Write one column into ``slots`` at once: a typed array, or an
        object array whose None cells mean absent."""
        if values.dtype == object:
            keep = np.fromiter((v is not None for v in values.tolist()), dtype=np.bool_, count=len(values))
            slots, values = slots[keep], values[keep]
            types = set(map(type, values.tolist()))
            kind = _KIND_OF_TYPE.get(types.pop(), OBJ) if len(types) == 1 else OBJ
            if kind in (INT, FLOAT, BOOL):
                try:
                    values = values.astype(_DTYPE[kind])
                except OverflowError:  # an int past int64
                    kind = OBJ
        else:
            kind = {"b": BOOL, "i": INT, "f": FLOAT}[values.dtype.kind]
        if len(slots):
            col = self._cols.get(aid) or _Column(kind, self._cap)
            if kind != col.kind and col.pytype is not None:
                col = col.promoted()
            col.fill(slots, values)
            self._cols[aid] = col.tidied() if col.pytype is str else col

    def columns(self) -> Iterator[Tuple[int, str, np.ndarray, np.ndarray, List[str]]]:
        """``(aid, kind, slots holding a value, their values, string pool)``
        per column, copied out — the snapshot's view of the store."""
        for aid, col in self._cols.items():
            slots = np.flatnonzero(~col.nulls)
            yield aid, col.kind, slots, col.values[slots], list(col.pool)
