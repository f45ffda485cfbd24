"""Columnar record batches — the unit of flow of the vectorized engine.

A :class:`RecordBatch` is the column-major counterpart of a run of
:data:`~repro.execplan.record.Record` rows: one column per layout slot,
all columns the same length.  Two column kinds exist:

* :class:`EntityColumn` — node/edge variables held as a bare ``int64`` id
  array (``-1`` marks a null hole from OPTIONAL MATCH).  Entity *handles*
  (:class:`~repro.graph.entities.Node` / ``Edge`` objects) are
  materialized lazily, only when the column escapes to the user or into
  an opaque (non-vectorized) expression — filters, traversals, group-bys
  and distincts all operate on the raw ids, which is where the paper's
  "stay in linear algebra" design pays off at the runtime layer.
* :class:`ValueColumn` — everything else.  ``values`` is either an
  ``object`` array of pure-Python values (``None`` = null) or a typed
  array (``bool_``/``int64``/``float64``) with a separate ``nulls`` mask;
  typed form is produced by property gathers (the store's typed columns,
  taken as they are) and vectorized kernels, and converted back to
  Python values only on escape.  A gathered string column also carries
  its ``int32`` pool codes, which a group-by factorizes instead of the
  strings.

Invariant: object arrays hold *Python* scalars (never numpy scalars), so
values escaping a batch are indistinguishable from row-engine values.

Column ops used by the operators: :meth:`RecordBatch.take` (row gather),
:meth:`RecordBatch.compress` (boolean-mask filter), :meth:`RecordBatch.
slice`, :meth:`RecordBatch.concat`, and :meth:`RecordBatch.from_rows` /
:meth:`RecordBatch.iter_rows` — what an operator with per-record
semantics (updates, MERGE) uses *inside* itself; batches are the only
thing that crosses an operator boundary.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.execplan.record import Layout, Record
from repro.graph.entities import Edge, Node

__all__ = [
    "EntityColumn",
    "ValueColumn",
    "Column",
    "RecordBatch",
    "object_column",
    "null_column",
    "as_entity_ids",
    "gathered_column",
]

_I64 = np.int64
_FLOAT_EXACT_MAX = 2**53  # largest int float64 represents contiguously


def float64_exact(values) -> bool:
    """Whether converting these (numeric) values to float64 keeps their
    identity and ordering: no int outside ±2**53.  Mixed int/float
    columns must pass this before any float-keyed fast path — the scalar
    engine compares/group-keys such values exactly."""
    return not any(
        type(v) is int and (v > _FLOAT_EXACT_MAX or v < -_FLOAT_EXACT_MAX)
        for v in values
    )


def object_column(values: Sequence) -> np.ndarray:
    """Build a 1-D object array without numpy's sequence-flattening
    heuristics (a list element must stay one cell, not become a row)."""
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


class EntityColumn:
    """A node/edge variable as an id vector; handles materialize lazily."""

    __slots__ = ("kind", "ids", "graph", "_objects", "_props")

    def __init__(self, kind: str, ids: np.ndarray, graph) -> None:
        assert kind in ("node", "edge")
        self.kind = kind
        self.ids = np.asarray(ids, dtype=_I64)
        self.graph = graph
        self._objects: Optional[np.ndarray] = None
        self._props: Optional[dict] = None

    def property_column(self, key: str) -> "ValueColumn":
        """Bulk property gather, memoized per key: ``b.age > 30 AND
        b.age < 70`` takes from the property column once, not twice.
        The column keeps the store's dtype (an int attribute arrives as
        ``int64`` plus a null mask, a string one with its codes)."""
        if self._props is None:
            self._props = {}
        col = self._props.get(key)
        if col is None:
            col = self._props[key] = gathered_column(self.graph, self.kind, self.ids, key)
        return col

    def property_values(self, key: str) -> np.ndarray:
        return self.property_column(key).values

    def __len__(self) -> int:
        return len(self.ids)

    def to_objects(self) -> np.ndarray:
        """Materialize entity handles (cached: a column escaping twice
        pays the handle construction once)."""
        if self._objects is None:
            graph = self.graph
            ctor = Node if self.kind == "node" else Edge
            out = np.empty(len(self.ids), dtype=object)
            for i, eid in enumerate(self.ids.tolist()):
                if eid >= 0:
                    out[i] = ctor(graph, eid)
            self._objects = out
        return self._objects

    def tolist(self) -> list:
        return self.to_objects().tolist()

    def take(self, indices: np.ndarray) -> "EntityColumn":
        col = EntityColumn(self.kind, self.ids[indices], self.graph)
        if self._objects is not None:
            col._objects = self._objects[indices]
        if self._props:
            # gathered properties follow the rows: a filter's gather is
            # reused by the projection on the compressed batch
            col._props = {k: v.take(indices) for k, v in self._props.items()}
        return col

    def slice(self, start: int, stop: int) -> "EntityColumn":
        col = EntityColumn(self.kind, self.ids[start:stop], self.graph)
        if self._objects is not None:
            col._objects = self._objects[start:stop]
        if self._props:
            col._props = {k: v.slice(start, stop) for k, v in self._props.items()}
        return col

    def forget_properties(self) -> "EntityColumn":
        """The same ids and handles minus the memoised property gathers —
        what a write operator hands downstream, since it may just have
        changed the properties the memo captured."""
        col = EntityColumn(self.kind, self.ids, self.graph)
        col._objects = self._objects
        return col

    def null_mask(self) -> np.ndarray:
        return self.ids < 0

    def hash_keys(self) -> list:
        """Per-row hashable grouping/dedup keys, handle-free: the same
        ``("node", id)`` tuples :func:`~repro.execplan.ops_stream.
        _hashable` derives from a materialized handle."""
        kind = self.kind
        return [None if i < 0 else (kind, i) for i in self.ids.tolist()]


class ValueColumn:
    """A scalar column: object values, or a typed array + null mask.

    ``codes`` is a gathered string property's pool codes (-1 = null;
    within one column equal codes mean equal strings): a memo that rides
    through take/slice so a group-by factorizes integers, not strings.
    """

    __slots__ = ("values", "nulls", "codes")

    def __init__(
        self, values: np.ndarray, nulls: Optional[np.ndarray] = None, codes: Optional[np.ndarray] = None
    ) -> None:
        self.values = values
        self.nulls = nulls
        self.codes = codes

    def __len__(self) -> int:
        return len(self.values)

    def to_objects(self) -> np.ndarray:
        if self.values.dtype == object:
            return self.values
        # typed → Python scalars (astype(object) runs at C speed and
        # yields int/float/bool), nulls punched back in
        out = self.values.astype(object)
        if self.nulls is not None and np.count_nonzero(self.nulls):
            out[self.nulls] = None
        return out

    def tolist(self) -> list:
        """The column as a list of Python values (a typed column without
        nulls converts in one ``tolist``)."""
        if self.nulls is None or self.values.dtype == object:
            return self.values.tolist()
        return self.to_objects().tolist()

    def take(self, indices) -> "ValueColumn":
        return ValueColumn(
            self.values[indices],
            self.nulls[indices] if self.nulls is not None else None,
            self.codes[indices] if self.codes is not None else None,
        )

    def slice(self, start: int, stop: int) -> "ValueColumn":
        return self.take(slice(start, stop))

    def null_mask(self) -> np.ndarray:
        if self.nulls is not None:
            return self.nulls
        if self.values.dtype == object:
            return np.fromiter(
                (v is None for v in self.values), dtype=np.bool_, count=len(self.values)
            )
        return np.zeros(len(self.values), dtype=np.bool_)

    def hash_keys(self) -> list:
        from repro.execplan.ops_stream import _hashable

        if self.values.dtype != object:
            vals = self.to_objects()
        else:
            vals = self.values
        return [_hashable(v) for v in vals]


Column = Union[EntityColumn, ValueColumn]


def null_column(n: int) -> ValueColumn:
    return ValueColumn(np.empty(n, dtype=object))


def gathered_column(graph, kind: str, ids: np.ndarray, key: str) -> ValueColumn:
    """One property of node/edge ``ids`` as a column, typed as stored."""
    gather = graph.node_property_column if kind == "node" else graph.edge_property_column
    return ValueColumn(*gather(ids, key))


def as_entity_ids(col: Column) -> Optional[Tuple[str, np.ndarray]]:
    """``(kind, ids)`` when ``col`` is entity-shaped: a real EntityColumn,
    or an object column of homogeneous Node/Edge handles (with None holes)
    as produced by :meth:`RecordBatch.from_rows`.  None when the column
    holds anything else — callers then fall back to per-row evaluation."""
    if isinstance(col, EntityColumn):
        return col.kind, col.ids
    if isinstance(col, ValueColumn) and col.values.dtype == object:
        kinds = set(map(type, col.values.tolist()))
        kinds.discard(type(None))
        if kinds == {Node}:
            return "node", np.fromiter(
                (-1 if v is None else v.id for v in col.values), dtype=_I64, count=len(col)
            )
        if kinds == {Edge}:
            return "edge", np.fromiter(
                (-1 if v is None else v.id for v in col.values), dtype=_I64, count=len(col)
            )
    return None


class RecordBatch:
    """``len(layout)`` same-length columns — a run of records, columnar."""

    __slots__ = ("layout", "columns", "length", "_rows")

    def __init__(self, layout: Layout, columns: List[Column], length: Optional[int] = None) -> None:
        # invariant (not asserted on this hot path): len(columns) == len(layout)
        self.layout = layout
        self.columns = columns
        # zero-column batches (a Unit stream) still carry a row count
        self.length = len(columns[0]) if columns else (length or 0)
        self._rows: Optional[list] = None

    def __len__(self) -> int:
        return self.length

    # ------------------------------------------------------------------
    # Row bridges
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, layout: Layout, rows: Sequence[Record], width: Optional[int] = None) -> "RecordBatch":
        """Wrap row records (possibly narrower than the layout — operators
        extend records lazily) into a columnar batch."""
        width = len(layout) if width is None else width
        columns: List[Column] = []
        for slot in range(width):
            columns.append(
                ValueColumn(
                    object_column([row[slot] if slot < len(row) else None for row in rows])
                )
            )
        return cls(layout, columns, length=len(rows))

    def materialize_rows(self) -> list:
        """The batch as row records (entity handles materialized); cached
        so multiple per-row fallbacks over one batch share the cost."""
        if self._rows is None:
            if not self.columns:
                self._rows = [[] for _ in range(self.length)]
            else:
                cols = [c.to_objects() for c in self.columns]
                self._rows = [list(row) for row in zip(*cols)]
        return self._rows

    def iter_rows(self) -> Iterator[Record]:
        return iter(self.materialize_rows())

    # ------------------------------------------------------------------
    # Column ops
    # ------------------------------------------------------------------
    def column(self, slot: int) -> Column:
        return self.columns[slot]

    def take(self, indices: np.ndarray) -> "RecordBatch":
        return RecordBatch(
            self.layout, [c.take(indices) for c in self.columns], length=len(indices)
        )

    def compress(self, mask: np.ndarray) -> "RecordBatch":
        if mask.all():
            return self
        return self.take(np.flatnonzero(mask))

    def slice(self, start: int, stop: int) -> "RecordBatch":
        stop = min(stop, self.length)
        return RecordBatch(
            self.layout,
            [c.slice(start, stop) for c in self.columns],
            length=max(0, stop - start),
        )

    def forget_properties(self) -> "RecordBatch":
        """See :meth:`EntityColumn.forget_properties`."""
        columns = [
            c.forget_properties() if isinstance(c, EntityColumn) else c for c in self.columns
        ]
        return RecordBatch(self.layout, columns, length=self.length)

    def chunks(self, size: int) -> Iterator["RecordBatch"]:
        """The batch re-sliced to at most ``size`` rows per piece (the
        whole batch, zero-copy, when it already fits)."""
        if self.length <= size:
            if self.length:
                yield self
            return
        for start in range(0, self.length, size):
            yield self.slice(start, start + size)

    def extend(self, layout: Layout, new_columns: List[Column]) -> "RecordBatch":
        """A wider batch: existing columns keep their slots (layouts only
        ever extend to the right), new trailing slots from ``new_columns``
        padded with null columns if short."""
        n = len(self)
        cols = list(self.columns) + list(new_columns)
        while len(cols) < len(layout):
            cols.append(null_column(n))
        return RecordBatch(layout, cols)

    @classmethod
    def concat(cls, layout: Layout, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls(layout, [null_column(0) for _ in range(len(layout))])
        if not len(layout):
            return cls(layout, [], length=sum(len(b) for b in batches))
        columns: List[Column] = []
        for slot in range(len(layout)):
            cols = [b.columns[slot] for b in batches]
            entity = [c for c in cols if isinstance(c, EntityColumn)]
            # an entity slot stays an id vector; all-null pieces (OPTIONAL
            # MATCH null-extension) join it as -1 holes
            if (
                entity
                and len({c.kind for c in entity}) == 1
                and all(isinstance(c, EntityColumn) or c.null_mask().all() for c in cols)
            ):
                ids = [
                    c.ids if isinstance(c, EntityColumn) else np.full(len(c), -1, dtype=_I64)
                    for c in cols
                ]
                columns.append(EntityColumn(entity[0].kind, np.concatenate(ids), entity[0].graph))
            else:
                columns.append(
                    ValueColumn(np.concatenate([c.to_objects() for c in cols]))
                )
        return cls(layout, columns)

    def __repr__(self) -> str:
        return f"<RecordBatch {self.layout!r} rows={len(self)}>"
