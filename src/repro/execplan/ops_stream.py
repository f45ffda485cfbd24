"""Record-stream operations: filter, project, aggregate, sort, distinct,
skip/limit, unwind, cartesian product, optional (apply) and results.

Batch-native since the vectorized-engine refactor: operators consume and
emit :class:`~repro.execplan.batch.RecordBatch` columns —

* Filter   = predicate kernel → boolean-mask compress,
* Project  = column-at-a-time expression evaluation,
* Aggregate= one group table per run: keys map to dense group ids
  vectorized (pool codes through a code → id array, other keys through a
  sorted key table), count/sum/avg fold in by ``bincount`` into per-group
  arrays; min/max and ``count(DISTINCT x)`` over ids, ints or strings
  stay array-at-a-time, the rest folds row by row into the same table,
* Distinct = unique over handle-free key columns,
* Sort     = ``np.lexsort`` on typed key columns (+ top-k slice),
* Skip/Limit = batch slicing with cross-batch carry,
* Unwind/CartesianProduct = ``np.repeat``/``np.tile`` row gathers.

Semantics guard rail: every vectorized evaluation that raises a Cypher
error is retried per row (the scalar closures), so batching can only
change *when* an error surfaces, never *whether* one does or what a
result contains; ``exec_batch_size=1`` runs the scalar closures only.  One
documented exception: ``sum``/``avg`` over *floats* may differ in the
last ULP across batch sizes — per-batch subtotals re-associate float
addition (integer sums stay exact below 2**53).
``ApplyOptional`` re-runs its right subtree once per outer record (its
contract is inherently one-outer-record-at-a-time) but seeds it with, and
collects from it, columnar batches.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CypherError, CypherSemanticError, CypherTypeError
from repro.execplan.batch import (
    Column,
    EntityColumn,
    RecordBatch,
    ValueColumn,
    float64_exact as _float64_exact,
    object_column,
)
from repro.execplan.batch_expr import as_column, true_mask, vectorize
from repro.execplan.expressions import CompiledExpr, ExecContext, sort_key
from repro.execplan.ops_base import Argument, PlanOp
from repro.execplan.record import Layout, Record
from repro.graph.entities import Edge, Node
from repro.grblas import _kernels as K

__all__ = [
    "Filter",
    "Project",
    "Aggregate",
    "AggSpec",
    "Sort",
    "Distinct",
    "Skip",
    "Limit",
    "Unwind",
    "CartesianProduct",
    "ApplyOptional",
    "Results",
]

_I64 = np.int64
_NoneType = type(None)
_NUMERIC_TYPES = frozenset((int, float))


_NAN_KEY = ("nan",)


def _hashable(value) -> Any:
    """Turn any runtime value into a hashable grouping/dedup key.  Bools
    are tagged (at any depth): ``true = 1`` is false, so they must not
    share a key, while ``1`` and ``1.0`` do.  Every NaN (at any depth)
    is one key: grouping and DISTINCT put NaN with NaN, where a NaN as a
    dict key would only match the very same float object."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float) and value != value:
        return _NAN_KEY
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Edge):
        return ("edge", value.id)
    if isinstance(value, list):
        return ("list", tuple(_hashable(v) for v in value))
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, _hashable(v)) for k, v in value.items())))
    return value


def _exact_keys(values: list) -> Optional[np.ndarray]:
    """Python scalars as an array whose equality and order are the
    values' own — what lets a group-by, sort or dedupe run on NumPy and
    still agree with the row engine — or None when no dtype keeps them
    exact: int64 for pure ints (None past int64), float64 for int/float
    mixes with no int past 2**53 and no NaN, a str array for strings
    without NUL (NumPy's NUL padding would merge ``'a'`` and ``'a\\x00'``).
    Bools, nulls, mixed kinds and containers give None."""
    types = set(map(type, values))
    if types == {int}:
        try:
            return np.array(values, dtype=_I64)
        except OverflowError:
            return None
    if types and types <= _NUMERIC_TYPES:
        if not _float64_exact(values):
            return None
        try:
            arr = np.array(values, dtype=np.float64)
        except OverflowError:
            return None
        return None if np.isnan(arr).any() else arr
    if types == {str}:
        return None if any("\x00" in s for s in values) else np.array(values)
    return None


def _typed_keys(col: Column) -> Optional[np.ndarray]:
    """A typed column's own exact key array, or None: the values of a
    typed column without nulls — and, for floats, without NaN."""
    if not isinstance(col, ValueColumn):
        return None
    values = col.values
    if values.dtype == object or (col.nulls is not None and col.nulls.any()):
        return None
    if values.dtype == np.float64 and np.isnan(values).any():
        return None
    return values


def _eval_column(batch_fn, scalar_fn, batch: RecordBatch, ctx: ExecContext) -> Column:
    """One expression as a column over the batch, vectorized with the
    exact-semantics fallback: a Cypher error re-runs the rows through the
    scalar closure, reproducing row-engine error order.  At
    ``exec_batch_size=1`` the scalar closure runs directly — the
    differential hook must exercise the row engine, not 1-row kernels."""
    if ctx.batch_size == 1:
        rows = batch.materialize_rows()
        return ValueColumn(object_column([scalar_fn(r, ctx) for r in rows]))
    try:
        return as_column(batch_fn(batch, ctx), batch.length)
    except CypherError:
        rows = batch.materialize_rows()
        return ValueColumn(object_column([scalar_fn(r, ctx) for r in rows]))


def _chunk_rows(layout: Layout, rows: List[Record], size: int) -> Iterator[RecordBatch]:
    for start in range(0, len(rows), size):
        yield RecordBatch.from_rows(layout, rows[start : start + size])


class Filter(PlanOp):
    """Keep records whose predicate evaluates to exactly true.

    Holds a *list* of predicates (the optimizer's filter fusion appends
    instead of composing closures): each predicate compresses the batch
    before the next evaluates, preserving the fused row engine's
    short-circuit at batch granularity.
    """

    name = "Filter"

    def __init__(self, child: PlanOp, predicate, label: str = "") -> None:
        super().__init__([child], child.out_layout)
        self._predicates: List[CompiledExpr] = (
            list(predicate) if isinstance(predicate, (list, tuple)) else [predicate]
        )
        self._batch_predicates = [vectorize(p) for p in self._predicates]
        self._pairs = list(zip(self._predicates, self._batch_predicates))
        self._label = label

    def describe(self) -> str:
        return f"Filter | {self._label}" if self._label else "Filter"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        scalar_only = ctx.batch_size == 1  # the row engine, exactly
        for batch in self.children[0].produce_batches(ctx):
            for scalar, batched in self._pairs:
                if not batch.length:
                    break
                if scalar_only:
                    rows = batch.materialize_rows()
                    mask = np.fromiter(
                        (scalar(r, ctx) is True for r in rows),
                        dtype=np.bool_,
                        count=len(rows),
                    )
                    batch = batch.compress(mask)
                    continue
                try:
                    mask = true_mask(batched(batch, ctx), batch.length)
                except CypherError:
                    rows = batch.materialize_rows()
                    mask = np.fromiter(
                        (scalar(r, ctx) is True for r in rows),
                        dtype=np.bool_,
                        count=len(rows),
                    )
                batch = batch.compress(mask)
            if batch.length:
                yield batch


class Project(PlanOp):
    """Evaluate projections into a fresh, narrower record."""

    name = "Project"

    def __init__(self, child: PlanOp, items: Sequence[Tuple[str, CompiledExpr]]) -> None:
        super().__init__([child], Layout([name for name, _ in items]))
        self._items = list(items)
        self._batch_items = [vectorize(fn) for _, fn in self._items]

    def describe(self) -> str:
        return f"Project | {', '.join(n for n, _ in self._items)}"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        fns = [fn for _, fn in self._items]
        scalar_only = ctx.batch_size == 1  # the row engine, exactly
        for batch in self.children[0].produce_batches(ctx):
            n = batch.length
            if not n:
                continue
            if not scalar_only:
                try:
                    cols = [as_column(bfn(batch, ctx), n) for bfn in self._batch_items]
                except CypherError:
                    pass
                else:
                    yield RecordBatch(self.out_layout, cols, length=n)
                    continue
            rows = batch.materialize_rows()
            out_rows = [[fn(r, ctx) for fn in fns] for r in rows]
            yield RecordBatch.from_rows(self.out_layout, out_rows)


class AggSpec:
    """One aggregation: kind, argument expression, DISTINCT flag."""

    __slots__ = ("kind", "expr", "distinct")

    def __init__(self, kind: str, expr: Optional[CompiledExpr], distinct: bool) -> None:
        self.kind = kind  # count/sum/avg/min/max/collect; expr None = count(*)
        self.expr = expr
        self.distinct = distinct


class _AggState:
    """What one aggregate in one group needs beyond its count and total
    (which live in :class:`_Groups`' arrays): collect's values, min/max's
    best value, and a DISTINCT aggregate's seen set.

    The seen set lives in two forms that together are one set: ``seen``
    holds the row loop's :func:`_hashable` keys, and ``seen_keys`` maps a
    key domain (``"node"``, ``"edge"``, ``"int"``, ``"str"``) to the sorted
    unique array the vectorized ``count(DISTINCT)`` recorded.  The row loop
    folds the arrays into ``seen`` before it reads it; the vector path
    checks both — so a run whose batches take different paths still
    dedupes across them."""

    __slots__ = ("values", "best", "seen", "seen_keys")

    def __init__(self) -> None:
        self.values: List[Any] = []
        self.best: Any = None
        self.seen: set = set()
        self.seen_keys: dict = {}

    def fold_seen_keys(self) -> None:
        """Move the vector path's key arrays into the row loop's set."""
        for domain, keys in self.seen_keys.items():
            self.seen.update(_domain_hashables(domain, keys))
        self.seen_keys.clear()


def _domain_hashables(domain: str, keys: np.ndarray) -> list:
    """A key array of one ``seen_keys`` domain as :func:`_hashable` keys."""
    if domain in ("node", "edge"):
        return [(domain, i) for i in keys.tolist()]
    return keys.tolist()


class _Groups:
    """One run's group table: each group key seen so far has a dense id,
    given in first-appearance order, and every aggregate its count and
    total in a numpy array indexed by that id (``_AggState`` per id only
    for the aggregates that need one).

    ``index`` maps the row loop's key — one :func:`_hashable` per key
    column — to the id, and is the one authority.  In front of it sit
    caches the vector path reads: a code → id array for the string pool
    whose codes it saw last, and per key domain (entity kind or dtype
    kind) a sorted key array with the ids beside it.  Only keys that miss
    a cache go through ``index``, so a batch on either path, and ``1`` in
    an int column or ``1.0`` in a float one, land in one group."""

    def __init__(self, stateful: Sequence[bool]) -> None:
        self.index: dict = {}
        self.keys: List[list] = []  # id -> the group's key values
        self.counts = np.zeros((len(stateful), 16), dtype=_I64)
        self.totals = np.zeros((len(stateful), 16))
        self.states = [[] if s else None for s in stateful]  # per aggregate, None: arrays only
        self.pool: Optional[list] = None
        self.code_ids: Optional[np.ndarray] = None  # code + 1 -> id, -1 = not cached; set with pool
        self.sorted: dict = {}  # domain -> (sorted keys, their ids)

    def add(self, key: tuple, values: list) -> int:
        """The id of the group ``key``, made (with ``values``) if new."""
        gid = self.index.get(key)
        if gid is None:
            gid = self.index[key] = len(self.keys)
            self.keys.append(values)
            if gid == self.counts.shape[1]:
                self.counts = np.concatenate([self.counts, np.zeros_like(self.counts)], axis=1)
                self.totals = np.concatenate([self.totals, np.zeros_like(self.totals)], axis=1)
            for states in self.states:
                if states is not None:
                    states.append(_AggState())
        return gid

    def row_ids(self, key_cols: List[Column]) -> np.ndarray:
        """The row loop: each row's key tuple through ``index``."""
        objects: Optional[list] = None
        gids = []
        for i, key in enumerate(zip(*[c.hash_keys() for c in key_cols])):
            gid = self.index.get(key)
            if gid is None:
                if objects is None:
                    objects = [c.to_objects() for c in key_cols]
                gid = self.add(key, [o[i] for o in objects])
            gids.append(gid)
        return np.array(gids, dtype=_I64)

    def vector_ids(self, col: Column) -> Optional[np.ndarray]:
        """One key column's group ids through the caches, or None when the
        column has no exact key array (nulls outside a string or entity
        column, NaN, mixed kinds, ints past what float64 holds exactly)."""
        if isinstance(col, EntityColumn):
            return self._sorted_ids(col.kind, col.ids, col)
        if col.codes is not None:
            return self._code_ids(col)
        arr = _typed_keys(col)
        if arr is None:
            arr = _exact_keys(col.tolist())
        return None if arr is None else self._sorted_ids(arr.dtype.kind, arr, col)

    def _code_ids(self, col: ValueColumn) -> np.ndarray:
        if col.pool is not self.pool:  # another pool numbers its strings apart
            self.pool, self.code_ids = col.pool, np.empty(0, dtype=_I64)
        if len(self.code_ids) <= len(col.pool):  # the pool grew
            self.code_ids = np.concatenate(
                [self.code_ids, np.full(len(col.pool) + 1 - len(self.code_ids), -1, dtype=_I64)]
            )
        slots = col.codes + 1  # code -1 (null) is slot 0
        gids = self.code_ids[slots]
        miss = np.flatnonzero(gids < 0)
        if len(miss):
            new, new_ids = self._resolve(col, slots, miss)
            self.code_ids[new] = new_ids
            gids[miss] = self.code_ids[slots[miss]]
        return gids

    def _sorted_ids(self, domain, arr: np.ndarray, col: Column) -> np.ndarray:
        keys, ids = self.sorted.get(domain, (arr[:0], np.empty(0, dtype=_I64)))
        hit, pos = K.membership(keys, arr)
        gids = np.where(hit, ids[pos] if len(ids) else -1, -1)
        miss = np.flatnonzero(~hit)
        if len(miss):
            new, new_ids = self._resolve(col, arr, miss)
            gids[miss] = new_ids[np.searchsorted(new, arr[miss])]
            # merge the new keys in (np.insert would cut them to the
            # cache's string width)
            at = np.searchsorted(keys, new) + np.arange(len(new))
            merged = np.empty(len(keys) + len(new), dtype=np.result_type(keys, new))
            merged_ids = np.empty(len(merged), dtype=_I64)
            old = np.ones(len(merged), dtype=np.bool_)
            old[at] = False
            merged[at], merged[old] = new, keys
            merged_ids[at], merged_ids[old] = new_ids, ids
            self.sorted[domain] = (merged, merged_ids)
        return gids

    def _resolve(self, col: Column, arr: np.ndarray, miss: np.ndarray):
        """The distinct keys of the ``miss`` rows (sorted) and their ids,
        found in — or added to — ``index`` in first-appearance order."""
        new, first = np.unique(arr[miss], return_index=True)
        order = np.argsort(first)
        values = col.take(miss[first[order]]).to_objects().tolist()
        new_ids = np.empty(len(new), dtype=_I64)
        new_ids[order] = [self.add((_hashable(v),), [v]) for v in values]
        return new, new_ids


class Aggregate(PlanOp):
    """Hash aggregation: group keys + aggregate columns.

    With no group keys, exactly one output row is emitted even on empty
    input (``count(*)`` over nothing is 0, ``sum`` is 0, others null).

    One run keeps one group table (:class:`_Groups`): a dense id per group
    key, and count/total arrays per aggregate indexed by it.  A batch maps
    its key column to ids vectorized — string pool codes through a
    code → id array tied to their pool, ids and int/float/bool/str keys
    through a sorted key table and ``searchsorted`` — and Python touches a
    group only when it first appears and once at finalize.  Composite,
    mixed or null-bearing keys, and ``exec_batch_size=1``, take the row
    loop into the same table.  count/sum/avg then fold each batch in with
    one ``bincount`` per aggregate; min/max take a stable first-hit per
    group, and ``count(DISTINCT x)`` over ids or int/str keys a per-group
    ``np.unique`` minus the seen keys.  Other DISTINCT aggregates, collect,
    and min/max over inexact keys fold row by row.  Groups are emitted in
    first-appearance order, like the row engine's insertion-ordered dict.
    """

    name = "Aggregate"

    def __init__(
        self,
        child: PlanOp,
        group_items: Sequence[Tuple[str, CompiledExpr]],
        agg_items: Sequence[Tuple[str, AggSpec]],
    ) -> None:
        names = [n for n, _ in group_items] + [n for n, _ in agg_items]
        super().__init__([child], Layout(names))
        self._group = list(group_items)
        self._aggs = list(agg_items)
        self._specs = [spec for _, spec in self._aggs]
        self._stateful = [spec.distinct or spec.kind in ("collect", "min", "max") for spec in self._specs]
        self._batch_group = [vectorize(fn) for _, fn in self._group]
        self._batch_aggs = [
            vectorize(spec.expr) if spec.expr is not None else None
            for _, spec in self._aggs
        ]

    def describe(self) -> str:
        return (
            f"Aggregate | keys=[{', '.join(n for n, _ in self._group)}] "
            f"aggs=[{', '.join(n for n, _ in self._aggs)}]"
        )

    # ------------------------------------------------------------------
    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        specs = self._specs
        groups = _Groups(self._stateful)
        if not self._group:
            groups.add((), [])  # the one group, even over no input
        for batch in self.children[0].produce_batches(ctx):
            if batch.length:
                self._absorb_batch(ctx, groups, batch)
        k = len(groups.keys)
        counts, totals = groups.counts[:, :k].tolist(), groups.totals[:, :k].tolist()
        columns = list(map(self._finalize, specs, counts, totals, groups.states))
        out_rows: List[Record] = [key + [col[g] for col in columns] for g, key in enumerate(groups.keys)]
        yield from _chunk_rows(self.out_layout, out_rows, ctx.batch_size)

    def _absorb_batch(self, ctx, groups: _Groups, batch: RecordBatch) -> None:
        key_cols = [
            _eval_column(bfn, fn, batch, ctx) for (_, fn), bfn in zip(self._group, self._batch_group)
        ]
        val_cols = [
            None if bfn is None else _eval_column(bfn, spec.expr, batch, ctx)  # None: count(*)
            for spec, bfn in zip(self._specs, self._batch_aggs)
        ]
        # exec_batch_size=1 must BE the row engine: the vector key mapping,
        # min/max and count(DISTINCT) are gated off so the differential leg
        # exercises the row loop (count/sum/avg of one row add as scalars)
        vector = ctx.batch_size > 1
        if not key_cols:
            gids = np.zeros(batch.length, dtype=_I64)
        else:
            gids = groups.vector_ids(key_cols[0]) if vector and len(key_cols) == 1 else None
            if gids is None:
                gids = groups.row_ids(key_cols)
        for i, (spec, col) in enumerate(zip(self._specs, val_cols)):
            self._accumulate(groups, i, spec, col, gids, vector)

    def _accumulate(self, groups: _Groups, i: int, spec: AggSpec, col, gids, vector: bool) -> None:
        k = len(groups.keys)
        if col is None:  # count(*)
            groups.counts[i, :k] += np.bincount(gids, minlength=k)
            return
        nulls = col.null_mask()
        if spec.distinct and vector and spec.kind == "count" and self._count_distinct(groups, i, col, nulls, gids):
            return
        rows = np.flatnonzero(~nulls)
        if spec.distinct:
            rows = self._first_seen(groups.states[i], gids, col.to_objects(), rows)
        if not len(rows):
            return
        row_ids = gids[rows]
        if spec.kind == "count":
            groups.counts[i, :k] += np.bincount(row_ids, minlength=k)
            return
        if spec.kind in ("sum", "avg"):
            # float64 accumulation like the row engine (its total is a
            # Python float too), but per-batch subtotals re-associate the
            # additions: float sums may differ in the last ULP across batch
            # sizes (integer sums below 2**53 stay exact).  An int past
            # float64 raises OverflowError, as the row engine's add does
            if isinstance(col, ValueColumn) and col.values.dtype in (_I64, np.float64):  # typed: read as is
                floats = col.values[rows].astype(np.float64)
            else:
                present = col.to_objects()[rows].tolist()
                if not set(map(type, present)) <= _NUMERIC_TYPES:
                    raise CypherTypeError(f"{spec.kind}() expects numeric values")
                floats = np.array(present, dtype=np.float64)
            groups.counts[i, :k] += np.bincount(row_ids, minlength=k)
            groups.totals[i, :k] += np.bincount(row_ids, weights=floats, minlength=k)
            return
        states = groups.states[i]
        if spec.kind in ("min", "max") and vector and self._min_max(spec, states, col, rows, row_ids):
            return
        values = col.to_objects()[rows].tolist()
        if spec.kind == "collect":
            for gid, value in zip(row_ids.tolist(), values):
                states[gid].values.append(value)
            return
        for gid, value in zip(row_ids.tolist(), values):
            self._offer_best(spec, states[gid], value)

    @staticmethod
    def _offer_best(spec: AggSpec, state: _AggState, value) -> None:
        """min/max: keep ``value`` if it beats the group's best so far
        (ties keep the earlier value, like the row engine)."""
        if state.best is None:
            state.best = value
        elif spec.kind == "min":
            if sort_key(value) < sort_key(state.best):
                state.best = value
        elif sort_key(value) > sort_key(state.best):
            state.best = value

    def _min_max(self, spec: AggSpec, states, col: Column, rows, row_ids) -> bool:
        """min/max by a stable first-hit per group, so ties keep the
        earliest value object, like the row engine.  Pure-int columns
        order as int64 so values past 2**53 keep their exact order;
        False when the dtype cannot represent the values exactly (or NaN,
        whose ordering sort_key defines) — the row loop compares those."""
        if isinstance(col, ValueColumn) and col.values.dtype in (_I64, np.float64):  # typed: read as is
            arr = col.values[rows]
            present = None
            ordkeys = None if arr.dtype == np.float64 and np.isnan(arr).any() else arr
        else:
            present = col.to_objects()[rows].tolist()
            if not set(map(type, present)) <= _NUMERIC_TYPES:
                return False
            ordkeys = _exact_keys(present)
        if ordkeys is None:
            return False
        if spec.kind == "min":
            primary = ordkeys
        else:
            if ordkeys.dtype == _I64 and bool((ordkeys == np.iinfo(np.int64).min).any()):
                return False  # negating INT64_MIN wraps onto itself
            primary = -ordkeys
        order = np.lexsort((np.arange(len(rows)), primary))
        uniq_ids, first_pos = np.unique(row_ids[order], return_index=True)
        for gid, at in zip(uniq_ids.tolist(), order[first_pos].tolist()):
            self._offer_best(spec, states[gid], arr.item(at) if present is None else present[at])
        return True

    @staticmethod
    def _first_seen(states, gids, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The DISTINCT row loop: of ``rows``, those whose value is new to
        its group's seen set (recorded as they pass)."""
        keep = []
        for row, gid in zip(rows.tolist(), gids[rows].tolist()):
            state = states[gid]
            if state.seen_keys:
                state.fold_seen_keys()
            key = _hashable(values[row])
            if key not in state.seen:
                state.seen.add(key)
                keep.append(row)
        return np.array(keep, dtype=_I64)

    @staticmethod
    def _count_distinct(groups: _Groups, i: int, col: Column, nulls, gids) -> bool:
        """Handle-free ``count(DISTINCT x)``: per group, the batch's unique
        keys minus the state's seen set (both of its forms, see
        :class:`_AggState`) add to the count and to ``seen_keys``.  False
        when the values have no int64/str key array (floats included:
        ``1.0`` must meet an int ``1``) — the row loop counts those."""
        nz = np.flatnonzero(~nulls)
        if not len(nz):
            return True
        if isinstance(col, EntityColumn):
            domain, keys = col.kind, col.ids[nz]
        else:
            keys = col.values[nz] if col.values.dtype == _I64 else _exact_keys(col.to_objects()[nz].tolist())
            if keys is None or keys.dtype == np.float64:
                return False
            domain = "int" if keys.dtype == _I64 else "str"
        if len(groups.keys) == 1:
            runs = [(0, K.sorted_unique(keys))]
        else:
            # unique (group, key) pairs, ordered by group then key
            uniq, inverse = np.unique(keys, return_inverse=True)
            pairs = K.sorted_unique(gids[nz] * len(uniq) + inverse)
            pair_ids = pairs // len(uniq)
            pair_keys = uniq[pairs % len(uniq)]
            bounds = np.append(K.run_starts(pair_ids), len(pairs)).tolist()
            runs = [(int(pair_ids[lo]), pair_keys[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        states = groups.states[i]
        for gid, fresh in runs:
            state = states[gid]
            seen = state.seen_keys.get(domain)
            if seen is not None:
                fresh = fresh[~K.membership(seen, fresh)[0]]
            if state.seen:  # keys an earlier row-loop batch recorded
                hashed = _domain_hashables(domain, fresh)
                fresh = fresh[np.fromiter((h not in state.seen for h in hashed), np.bool_, len(hashed))]
            if len(fresh):
                groups.counts[i, gid] += len(fresh)
                # disjoint sorted runs, which a stable sort merges
                state.seen_keys[domain] = (
                    fresh if seen is None else np.sort(np.concatenate([seen, fresh]), kind="stable")
                )
        return True

    @staticmethod
    def _finalize(spec: AggSpec, counts: list, totals: list, states: Optional[list]) -> list:
        """One aggregate's result per group, from its count and total
        arrays (as lists) and its states."""
        if spec.kind == "count":
            return counts
        if spec.kind == "sum":
            return [int(t) if t.is_integer() else t for t in totals]
        if spec.kind == "avg":
            return [None if c == 0 else t / c for c, t in zip(counts, totals)]
        if spec.kind == "collect":
            return [state.values for state in states]
        if spec.kind in ("min", "max"):
            return [state.best for state in states]
        raise CypherTypeError(f"unknown aggregate {spec.kind}")  # pragma: no cover


class Sort(PlanOp):
    """Materializing sort with the Cypher type-aware ordering.

    The whole input is gathered into one batch; homogeneous numeric (any
    direction) or string (ascending) key columns sort via a stable
    ``np.lexsort``, anything else through the type-ranked ``sort_key``
    row sort — both stable, so tie order always matches the row engine.
    When the optimizer sets ``top`` (a following LIMIT with a literal
    count) only the head of the order is emitted.
    """

    name = "Sort"

    def __init__(self, child: PlanOp, keys: Sequence[Tuple[CompiledExpr, bool]]) -> None:
        super().__init__([child], child.out_layout)
        self._keys = list(keys)
        self._batch_keys = [vectorize(fn) for fn, _ in self._keys]
        self.top = -1  # set by the optimizer

    def describe(self) -> str:
        return f"Sort | top={self.top}" if self.top >= 0 else "Sort"

    @staticmethod
    def _descending(arr: np.ndarray) -> Optional[np.ndarray]:
        """The key negated for a descending lexsort, or None when the
        negation would wrap (INT64_MIN)."""
        if arr.dtype == _I64 and bool((arr == np.iinfo(np.int64).min).any()):
            return None
        return -arr

    def _sort_array(self, res, n: int, ascending: bool) -> Optional[np.ndarray]:
        """A lexsort-able key array, or None when this key needs sort_key."""
        col = as_column(res, n)
        if isinstance(col, EntityColumn):
            # entities order by id within one type class (sort_key does the
            # same); nulls would need type-rank handling — bail on those
            if col.null_mask().any():
                return None
            return col.ids if ascending else self._descending(col.ids)
        # exact keys only: int64 never ties ints past 2**53 the way
        # float64 would; strings sort ascending only (no negation).  A
        # typed numeric column is its own key (string codes are not
        # ordered like the strings)
        arr = _typed_keys(col)
        if arr is None or arr.dtype == np.bool_:
            arr = _exact_keys(col.tolist())
        if arr is None:
            return None
        if ascending:
            return arr
        return None if arr.dtype.kind == "U" else self._descending(arr)

    def _sorted_batch(self, big: RecordBatch, ctx: ExecContext, limit: int) -> RecordBatch:
        """``big`` stably sorted on the keys (head only when ``limit`` is
        set).  exec_batch_size=1 must BE the row engine: the lexsort fast
        path stays off so the differential leg exercises the sort_key
        sort."""
        n = big.length
        arrays: Optional[List[np.ndarray]] = [] if ctx.batch_size > 1 else None
        for bfn, (fn, ascending) in zip(self._batch_keys, self._keys):
            if arrays is None:
                break
            try:
                res = bfn(big, ctx)
            except CypherError:
                arrays = None
                break
            arr = self._sort_array(res, n, ascending)
            if arr is None:
                arrays = None
                break
            arrays.append(arr)
        if arrays is not None:
            # np.lexsort: last key is primary; append row index for
            # explicit stability
            order = np.lexsort(tuple([np.arange(n)] + list(reversed(arrays))))
            if limit >= 0:
                order = order[:limit]
            return big.take(order)
        rows = list(big.materialize_rows())
        # stable multi-key sort: apply keys right-to-left
        for expr, ascending in reversed(self._keys):
            rows.sort(key=lambda rec: sort_key(expr(rec, ctx)), reverse=not ascending)
        if limit >= 0:
            rows = rows[:limit]
        return RecordBatch.from_rows(self.out_layout, rows)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        size = ctx.batch_size
        stream = self.children[0].produce_batches(ctx)
        if 0 <= self.top <= 16 * size:
            # streaming top-k: fold each batch into the kept head, holding
            # O(top + batch) rows instead of materializing the input (ties
            # stay stable — kept rows precede the new batch in the merge).
            # Huge literal LIMITs fall through to the single full sort.
            kept: Optional[RecordBatch] = None
            for batch in stream:
                if not batch.length:
                    continue
                merged = (
                    batch
                    if kept is None
                    else RecordBatch.concat(self.out_layout, [kept, batch])
                )
                kept = self._sorted_batch(merged, ctx, self.top)
            if kept is not None:
                yield from kept.chunks(size)
            return
        batches = [b for b in stream if b.length]
        if not batches:
            return
        big = RecordBatch.concat(self.out_layout, batches)
        yield from self._sorted_batch(big, ctx, self.top).chunks(size)


class Distinct(PlanOp):
    name = "Distinct"

    def __init__(self, child: PlanOp) -> None:
        super().__init__([child], child.out_layout)

    @staticmethod
    def _dedup(batch: RecordBatch, seen: set) -> RecordBatch:
        """The batch filtered against (and added to) ``seen``."""
        n = batch.length
        hash_cols = [c.hash_keys() for c in batch.columns]
        mask = np.empty(n, dtype=np.bool_)
        if len(hash_cols) == 1:
            keys = hash_cols[0]
            for i in range(n):
                key = keys[i]
                if key in seen:
                    mask[i] = False
                else:
                    seen.add(key)
                    mask[i] = True
        else:
            for i in range(n):
                key = tuple(h[i] for h in hash_cols)
                if key in seen:
                    mask[i] = False
                else:
                    seen.add(key)
                    mask[i] = True
        return batch.compress(mask)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        seen: set = set()
        for batch in self.children[0].produce_batches(ctx):
            if not batch.length:
                continue
            out = self._dedup(batch, seen)
            if out.length:
                yield out


def _checked_count(count_fn: CompiledExpr, ctx: ExecContext, keyword: str) -> int:
    """SKIP/LIMIT operand: evaluated once per run, must be a non-negative
    integer (matching RedisGraph's semantic check)."""
    value = count_fn([], ctx)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CypherSemanticError(
            f"{keyword} must be a non-negative integer (got {value!r})"
        )
    return value


class Skip(PlanOp):
    name = "Skip"

    def __init__(self, child: PlanOp, count: CompiledExpr) -> None:
        super().__init__([child], child.out_layout)
        self._count = count

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        n = _checked_count(self._count, ctx, "SKIP")
        skipped = 0
        for batch in self.children[0].produce_batches(ctx):
            if skipped < n:
                take = min(batch.length, n - skipped)
                skipped += take
                if take >= batch.length:
                    continue
                batch = batch.slice(take, batch.length)
            if batch.length:
                yield batch


class Limit(PlanOp):
    name = "Limit"

    def __init__(self, child: PlanOp, count: CompiledExpr) -> None:
        super().__init__([child], child.out_layout)
        self._count = count

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        remaining = _checked_count(self._count, ctx, "LIMIT")
        if remaining <= 0:
            return
        for batch in self.children[0].produce_batches(ctx):
            if batch.length >= remaining:
                yield batch.slice(0, remaining)
                return
            if batch.length:
                yield batch
                remaining -= batch.length


class Unwind(PlanOp):
    """Fan a list value out into one record per element.  Null produces
    zero rows; any other non-list value is a type error (openCypher)."""

    name = "Unwind"

    def __init__(self, child: PlanOp, expr: CompiledExpr, alias: str) -> None:
        super().__init__([child], child.out_layout.extend(alias))
        self._expr = expr
        self._batch_expr = vectorize(expr)
        self._slot = self.out_layout.slot(alias)
        self._alias = alias

    def describe(self) -> str:
        return f"Unwind | {self._alias}"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        for batch in self.children[0].produce_batches(ctx):
            n = batch.length
            if not n:
                continue
            values = _eval_column(self._batch_expr, self._expr, batch, ctx).to_objects()
            idx: List[int] = []
            items: List[Any] = []
            for i in range(n):
                value = values[i]
                if value is None:
                    continue
                if not isinstance(value, list):
                    raise CypherTypeError(
                        f"UNWIND expects a list or null, got {type(value).__name__}"
                    )
                idx.extend([i] * len(value))
                items.extend(value)
            if not idx:
                continue
            out = batch.take(np.asarray(idx, dtype=_I64)).extend(
                self.out_layout, [ValueColumn(object_column(items))]
            )
            yield out


class CartesianProduct(PlanOp):
    """Cross product of disconnected pattern streams (right side
    materialized once, then tiled columnarly against each left batch)."""

    name = "CartesianProduct"

    def __init__(self, left: PlanOp, right: PlanOp) -> None:
        merged = left.out_layout.extend(*right.out_layout.names)
        super().__init__([left, right], merged)
        self._right_slots = [merged.slot(n) for n in right.out_layout.names]
        # columnar tiling requires the right columns to land in fresh
        # trailing slots; overlapping names fall back to the row loop
        left_width = len(left.out_layout)
        self._disjoint = all(slot >= left_width for slot in self._right_slots)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        right_layout = self.children[1].out_layout
        right_batches = [b for b in self.children[1].produce_batches(ctx) if b.length]
        if not right_batches:
            return
        right = RecordBatch.concat(right_layout, right_batches)
        m = len(right)
        size = ctx.batch_size
        width = len(self.out_layout)
        if not self._disjoint:
            right_rows = right.materialize_rows()
            for batch in self.children[0].produce_batches(ctx):
                out_rows = []
                for left_rec in batch.iter_rows():
                    for right_rec in right_rows:
                        out = left_rec + [None] * (width - len(left_rec))
                        for slot, value in zip(self._right_slots, right_rec):
                            out[slot] = value
                        out_rows.append(out)
                yield from _chunk_rows(self.out_layout, out_rows, size)
            return
        for batch in self.children[0].produce_batches(ctx):
            n = batch.length
            if not n:
                continue
            # gather indices generated one output chunk at a time — never
            # the full n×m arrays (O(size) memory)
            total = n * m
            for start in range(0, total, size):
                flat = np.arange(start, min(start + size, total), dtype=_I64)
                out = batch.take(flat // m).extend(
                    self.out_layout, [c.take(flat % m) for c in right.columns]
                )
                yield out


class ApplyOptional(PlanOp):
    """OPTIONAL MATCH: run the right subtree once per left record (seeded
    through its Argument leaf as a one-row batch); emit the left record
    null-extended when the subtree finds nothing.  The per-record pieces
    are concatenated back to ``exec_batch_size`` granularity — the null
    holes of an entity column become ``-1`` ids."""

    name = "Optional"

    def __init__(self, left: PlanOp, right: PlanOp, argument: Argument) -> None:
        super().__init__([left, right], right.out_layout)
        self._argument = argument

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        layout = self.out_layout
        size = ctx.batch_size
        pieces: List[RecordBatch] = []
        pending = 0
        for batch in self.children[0].produce_batches(ctx):
            for i in range(batch.length):
                row = batch.slice(i, i + 1)
                self._argument.seed(ctx, row)
                found = [b for b in self.children[1].produce_batches(ctx) if b.length]
                if not found:
                    found = [row.extend(layout, [])]  # null-extended left record
                pieces.extend(found)
                pending += sum(b.length for b in found)
                if pending >= size:
                    yield from RecordBatch.concat(layout, pieces).chunks(size)
                    pieces, pending = [], 0
        if pieces:
            yield from RecordBatch.concat(layout, pieces).chunks(size)


class Results(PlanOp):
    """Plan root: passes batches through (column naming happens in the
    executor, which owns the final projection and serializes straight
    from the batch columns)."""

    name = "Results"

    def __init__(self, child: PlanOp) -> None:
        super().__init__([child], child.out_layout)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        return self.children[0].produce_batches(ctx)
