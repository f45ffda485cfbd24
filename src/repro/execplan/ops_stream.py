"""Record-stream operations: filter, project, aggregate, sort, distinct,
skip/limit, unwind, cartesian product, optional (apply) and results.

Batch-native since the vectorized-engine refactor: operators consume and
emit :class:`~repro.execplan.batch.RecordBatch` columns —

* Filter   = predicate kernel → boolean-mask compress,
* Project  = column-at-a-time expression evaluation,
* Aggregate= ``np.unique``-keyed group-by fast path for
  count/sum/avg/min/max and for ``count(DISTINCT x)`` over ids, ints or
  strings (object-dict fallback for everything else),
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


def _hashable(value) -> Any:
    """Turn any runtime value into a hashable grouping/dedup key."""
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
    """One aggregate's running state in one group.

    A DISTINCT aggregate's seen set lives in two forms that together are
    one set: ``seen`` holds the row loop's :func:`_hashable` keys, and
    ``seen_keys`` maps a key domain (``"node"``, ``"edge"``, ``"int"``,
    ``"str"``) to the sorted unique array the vectorized ``count(DISTINCT)``
    recorded.  The row loop folds the arrays into ``seen`` before it reads
    it; the vector path checks both — so a run whose batches take
    different paths still dedupes across them."""

    __slots__ = ("count", "total", "values", "best", "seen", "seen_keys")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
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


class Aggregate(PlanOp):
    """Hash aggregation: group keys + aggregate columns.

    With no group keys, exactly one output row is emitted even on empty
    input (``count(*)`` over nothing is 0, ``sum`` is 0, others null).

    Per batch the group keys factorize through ``np.unique`` when the key
    column is an id vector or a homogeneous numeric/string column, and
    count/sum/avg/min/max accumulate per group via ``bincount``/sorted
    first-hit gathers.  ``count(DISTINCT x)`` stays handle-free too when
    ``x`` is an id vector or an int/str column (:func:`_exact_keys`): per
    group, ``np.unique`` of the batch's keys minus the state's seen keys.
    Anything else (other DISTINCT aggregates, collect, mixed or composite
    keys) drops to the object-dict row loop for that batch.  Group
    *emission order* is first-appearance order in both paths, like the row
    engine's insertion-ordered dict.
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
        self._batch_group = [vectorize(fn) for _, fn in self._group]
        self._batch_aggs = [
            vectorize(spec.expr) if spec.expr is not None else None
            for _, spec in self._aggs
        ]
        # loop-invariant: whether every aggregate can take the vectorized
        # path (otherwise skip the per-batch key factorization entirely)
        self._fast_specs = all(
            spec.kind in ("count", "sum", "avg", "min", "max")
            and (not spec.distinct or spec.kind == "count")
            for _, spec in self._aggs
        )

    def describe(self) -> str:
        return (
            f"Aggregate | keys=[{', '.join(n for n, _ in self._group)}] "
            f"aggs=[{', '.join(n for n, _ in self._aggs)}]"
        )

    # ------------------------------------------------------------------
    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        specs = [spec for _, spec in self._aggs]
        groups: dict = {}
        for batch in self.children[0].produce_batches(ctx):
            if batch.length:
                self._absorb_batch(ctx, groups, batch, specs)
        if not groups and not self._group:
            groups[()] = ([], [_AggState() for _ in specs])
        out_rows: List[Record] = []
        for key_values, states in groups.values():
            row = list(key_values)
            for spec, state in zip(specs, states):
                row.append(self._finalize(spec, state))
            out_rows.append(row)
        yield from _chunk_rows(self.out_layout, out_rows, ctx.batch_size)

    def _absorb_batch(self, ctx, groups, batch: RecordBatch, specs) -> None:
        n = batch.length
        key_cols: List[Column] = []
        for (name, fn), bfn in zip(self._group, self._batch_group):
            key_cols.append(_eval_column(bfn, fn, batch, ctx))
        val_cols: List[Optional[Column]] = []
        for (name, spec), bfn in zip(self._aggs, self._batch_aggs):
            if bfn is None:
                val_cols.append(None)  # count(*)
            else:
                val_cols.append(_eval_column(bfn, spec.expr, batch, ctx))
        self._absorb(ctx, groups, key_cols, val_cols, specs, n)

    # ------------------------------------------------------------------
    def _absorb(self, ctx, groups, key_cols, val_cols, specs, n) -> None:
        # exec_batch_size=1 must BE the row engine: the vectorized
        # group-by is gated off so the differential leg really exercises
        # the scalar accumulation path
        codes_info = (
            self._group_codes(key_cols, n)
            if ctx.batch_size > 1 and self._fast_specs
            else None
        )
        if codes_info is None:
            self._absorb_rows(groups, key_cols, val_cols, specs, n)
            return
        codes, appearance, keys, values_fn = codes_info
        states_by_code: List[Optional[list]] = [None] * len(keys)
        for pos in appearance:
            key = keys[pos]
            entry = groups.get(key)
            if entry is None:
                entry = (values_fn(pos), [_AggState() for _ in specs])
                groups[key] = entry
            states_by_code[pos] = entry[1]
        for spec_idx, (spec, col) in enumerate(zip(specs, val_cols)):
            if not self._accumulate_fast(spec, col, codes, states_by_code, spec_idx, n):
                self._accumulate_rows_one(
                    spec, col.to_objects(), codes, states_by_code, spec_idx, n
                )

    def _group_codes(self, key_cols: List[Column], n: int):
        """Factorize the group key: ``(codes, appearance_order, dict_keys,
        values_fn)`` or None when the key shape needs the row loop.  Codes
        index ``dict_keys``; ``appearance_order`` lists codes by first
        occurrence so dict insertion order matches the row engine.

        ``dict_keys`` entries MUST be shaped exactly like the row loop's
        ``tuple(hash per key column)`` — one run may route different
        batches through different paths, and both must land in the same
        ``groups`` entry."""
        if not self._group:
            return (
                np.zeros(n, dtype=_I64),
                [0],
                [()],
                lambda pos: [],
            )
        if len(self._group) != 1:
            return None
        col = key_cols[0]
        if isinstance(col, EntityColumn):
            uniq, first_idx, codes = np.unique(
                col.ids, return_index=True, return_inverse=True
            )
            kind = col.kind
            graph = col.graph
            ctor = Node if kind == "node" else Edge
            keys = [((kind, i),) if i >= 0 else (None,) for i in uniq.tolist()]
            ids = uniq.tolist()

            def values_fn(pos):
                i = ids[pos]
                return [None if i < 0 else ctor(graph, i)]

            appearance = np.argsort(first_idx, kind="stable").tolist()
            return codes, appearance, keys, values_fn
        lst = col.to_objects().tolist()
        arr = _exact_keys(lst)
        if arr is None:
            return None
        uniq, first_idx, codes = np.unique(arr, return_index=True, return_inverse=True)
        firsts = first_idx.tolist()
        reps = [lst[i] for i in firsts]  # first-seen Python value, type kept
        keys = [(v,) for v in reps]

        def values_fn(pos):
            return [reps[pos]]

        appearance = np.argsort(first_idx, kind="stable").tolist()
        return codes, appearance, keys, values_fn

    def _accumulate_fast(self, spec, col: Optional[Column], codes, states_by_code, spec_idx, n) -> bool:
        k = len(states_by_code)
        if spec.expr is None:  # count(*)
            if k == 1:
                states_by_code[0][spec_idx].count += n
                return True
            counts = np.bincount(codes, minlength=k)
            for code in range(k):
                c = int(counts[code])
                if c:
                    states_by_code[code][spec_idx].count += c
            return True
        nulls = col.null_mask()
        if spec.distinct:  # count(DISTINCT x): the one DISTINCT kind here
            return self._count_distinct(col, nulls, codes, states_by_code, spec_idx)
        if spec.kind == "count":
            # handle-free: counting an entity column never materializes it
            if k == 1:
                states_by_code[0][spec_idx].count += n - int(nulls.sum())
                return True
            counts = np.bincount(codes[np.flatnonzero(~nulls)], minlength=k)
            for code in range(k):
                c = int(counts[code])
                if c:
                    states_by_code[code][spec_idx].count += c
            return True
        nz = np.flatnonzero(~nulls)
        if not len(nz):
            return True
        values = col.to_objects()
        present = [values[i] for i in nz.tolist()]
        ptypes = set(map(type, present))
        if not ptypes <= _NUMERIC_TYPES:
            return False  # row loop raises/compares exactly like the scalar path
        nz_codes = codes[nz]
        counts = np.bincount(nz_codes, minlength=k)
        if spec.kind in ("sum", "avg"):
            # float64 accumulation like the row engine (state.total is a
            # Python float there too), but per-batch subtotals re-associate
            # the additions: float sums may differ in the last ULP across
            # batch sizes (integer sums below 2**53 stay exact).  Ints
            # beyond float64 overflow in the row loop instead, at the
            # exact offending record
            try:
                floats = np.array(present, dtype=np.float64)
            except OverflowError:
                return False
            sums = np.bincount(nz_codes, weights=floats, minlength=k)
            for code in range(k):
                c = int(counts[code])
                if c:
                    state = states_by_code[code][spec_idx]
                    state.count += c
                    state.total += float(sums[code])
            return True
        # min/max: stable first-hit per group so ties keep the earliest
        # value object, like the row engine.  Pure-int columns order as
        # int64 so values past 2**53 keep their exact order; anything the
        # dtype cannot represent exactly (or NaN, whose ordering sort_key
        # defines) drops to the row loop.
        ordkeys = _exact_keys(present)
        if ordkeys is None:
            return False
        if spec.kind == "min":
            primary = ordkeys
        else:
            if ordkeys.dtype == _I64 and bool(
                (ordkeys == np.iinfo(np.int64).min).any()
            ):
                return False  # negating INT64_MIN wraps onto itself
            primary = -ordkeys
        order = np.lexsort((np.arange(len(nz)), primary))
        sorted_codes = nz_codes[order]
        uniq_codes, first_pos = np.unique(sorted_codes, return_index=True)
        for code, pos in zip(uniq_codes.tolist(), first_pos.tolist()):
            value = present[int(order[pos])]
            state = states_by_code[code][spec_idx]
            state.count += int(counts[code])
            if state.best is None:
                state.best = value
            elif spec.kind == "min":
                if sort_key(value) < sort_key(state.best):
                    state.best = value
            elif sort_key(value) > sort_key(state.best):
                state.best = value
        return True

    @staticmethod
    def _count_distinct(col: Column, nulls, codes, states_by_code, spec_idx) -> bool:
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
            keys = _exact_keys(col.to_objects()[nz].tolist())
            if keys is None or keys.dtype == np.float64:
                return False
            domain = "int" if keys.dtype == _I64 else "str"
        if len(states_by_code) == 1:
            runs = [(0, K.sorted_unique(keys))]
        else:
            # unique (group, key) pairs, ordered by group then key
            uniq, inverse = np.unique(keys, return_inverse=True)
            pairs = K.sorted_unique(codes[nz] * len(uniq) + inverse)
            pair_codes = pairs // len(uniq)
            pair_keys = uniq[pairs % len(uniq)]
            bounds = np.append(K.run_starts(pair_codes), len(pairs)).tolist()
            runs = [
                (int(pair_codes[lo]), pair_keys[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            ]
        for code, fresh in runs:
            state = states_by_code[code][spec_idx]
            seen = state.seen_keys.get(domain)
            if seen is not None:
                fresh = fresh[~K.membership(seen, fresh)[0]]
            if state.seen:  # keys an earlier row-loop batch recorded
                hashed = _domain_hashables(domain, fresh)
                fresh = fresh[np.fromiter((h not in state.seen for h in hashed), np.bool_, len(hashed))]
            if len(fresh):
                state.count += len(fresh)
                # disjoint sorted runs, which a stable sort merges
                state.seen_keys[domain] = (
                    fresh if seen is None else np.sort(np.concatenate([seen, fresh]), kind="stable")
                )
        return True

    def _accumulate_rows_one(self, spec, col, codes, states_by_code, spec_idx, n) -> None:
        codes_list = codes.tolist()
        for i in range(n):
            state = states_by_code[codes_list[i]][spec_idx]
            self._accumulate_value(spec, state, None if col is None else col[i])

    def _absorb_rows(self, groups, key_cols, val_cols, specs, n) -> None:
        hash_cols = [c.hash_keys() for c in key_cols]
        obj_cols: List[Optional[np.ndarray]] = [None] * len(key_cols)
        vals = [None if c is None else c.to_objects() for c in val_cols]
        for i in range(n):
            key = tuple(h[i] for h in hash_cols)
            entry = groups.get(key)
            if entry is None:
                key_values = []
                for c_idx, col in enumerate(key_cols):
                    if obj_cols[c_idx] is None:
                        obj_cols[c_idx] = col.to_objects()
                    key_values.append(obj_cols[c_idx][i])
                entry = (key_values, [_AggState() for _ in specs])
                groups[key] = entry
            states = entry[1]
            for spec, state, col in zip(specs, states, vals):
                self._accumulate_value(spec, state, None if col is None else col[i])

    @staticmethod
    def _accumulate_value(spec: AggSpec, state: _AggState, value) -> None:
        if spec.expr is None:  # count(*)
            state.count += 1
            return
        if value is None:
            return
        if spec.distinct:
            if state.seen_keys:
                state.fold_seen_keys()
            key = _hashable(value)
            if key in state.seen:
                return
            state.seen.add(key)
        state.count += 1
        if spec.kind == "sum" or spec.kind == "avg":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise CypherTypeError(f"{spec.kind}() expects numeric values")
            state.total += value
        elif spec.kind == "collect":
            state.values.append(value)
        elif spec.kind in ("min", "max"):
            if state.best is None:
                state.best = value
            else:
                if spec.kind == "min":
                    if sort_key(value) < sort_key(state.best):
                        state.best = value
                elif sort_key(value) > sort_key(state.best):
                    state.best = value

    @staticmethod
    def _finalize(spec: AggSpec, state: _AggState):
        if spec.kind == "count":
            return state.count
        if spec.kind == "sum":
            total = state.total
            return int(total) if float(total).is_integer() else total
        if spec.kind == "avg":
            return None if state.count == 0 else state.total / state.count
        if spec.kind == "collect":
            return state.values
        if spec.kind in ("min", "max"):
            return state.best
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
        # float64 would; strings sort ascending only (no negation)
        arr = _exact_keys(col.to_objects().tolist())
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
