"""Traversal operations — where Cypher meets GraphBLAS.

``ConditionalTraverse`` consumes incoming record *batches*, builds a
frontier extraction matrix, and fires one sparse matrix-product chain per
batch (paper §II: "graph traversals … translated into linear algebraic
operations on sparse matrices").  The product's COO output stays columnar
— ``(src_row, dst_id, edge_id)`` arrays become the next batch via one
``take`` gather instead of exploding into per-row Python lists.
``ExpandInto`` closes cycles whose both endpoints are already bound;
``CondVarLenTraverse`` answers ``[*min..max]`` patterns from the engine's
single masked-BFS level loop (:func:`~repro.algorithms.khop.
khop_frontiers`; unbounded patterns run until the frontier empties) and
emits its reached set as an id column the same way.  Both bound-endpoint
probes test every row of a batch with one sorted-key membership search.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.algorithms.khop import khop_frontiers
from repro.execplan.algebraic import AlgebraicExpression, frontier_matrix
from repro.execplan.batch import EntityColumn, RecordBatch, as_entity_ids
from repro.execplan.expressions import ExecContext
from repro.execplan.ops_base import PlanOp, rechunk
from repro.grblas import _kernels as K

__all__ = ["ConditionalTraverse", "ExpandInto", "CondVarLenTraverse"]

_I64 = np.int64
_NONE = np.empty(0, dtype=_I64)


def _bound_rows(batch: RecordBatch, *slots: int) -> Tuple[RecordBatch, List[np.ndarray]]:
    """The rows of ``batch`` whose node in every one of ``slots`` is
    bound, plus the id vector of each slot.  An enclosing OPTIONAL MATCH
    leaves null holes (``-1`` ids, or ``None`` in an object column); there
    is nothing to traverse from a null, so those rows yield no match."""
    ids = []
    for slot in slots:
        col = batch.columns[slot]
        entity = as_entity_ids(col)
        if entity is None:  # an object column that is all holes
            holes = (-1 if v is None else v.id for v in col.to_objects())
            ids.append(np.fromiter(holes, dtype=_I64, count=batch.length))
        else:
            ids.append(entity[1])
    bound = ids[0] >= 0
    for v in ids[1:]:
        bound &= v >= 0
    if bound.all():
        return batch, ids
    return batch.compress(bound), [v[bound] for v in ids]


class ConditionalTraverse(PlanOp):
    """One relationship hop: ``(src)-[:T]->(dst)`` with ``src`` bound.

    Each incoming record batch (``config.exec_batch_size`` granularity)
    becomes one frontier matrix multiplied through the algebraic
    expression; the product's COO stays columnar all the way into the
    output batch.  Destination labels ride inside the expression as
    diagonal matrices.
    """

    name = "ConditionalTraverse"

    def __init__(
        self,
        child: PlanOp,
        src_var: str,
        dst_var: str,
        expression: AlgebraicExpression,
        *,
        edge_var: Optional[str] = None,
        types: Tuple[str, ...] = (),
        direction: str = "out",
    ) -> None:
        out_layout = child.out_layout.extend(dst_var, *( [edge_var] if edge_var else [] ))
        super().__init__([child], out_layout)
        self._src_slot = child.out_layout.slot(src_var)
        self._dst_slot = out_layout.slot(dst_var)
        self._edge_slot = out_layout.slot(edge_var) if edge_var else None
        self._edge_var = edge_var
        self._expr = expression
        self._types = types
        self._direction = direction
        self._src_var = src_var
        self._dst_var = dst_var

    def describe(self) -> str:
        return (
            f"ConditionalTraverse | ({self._src_var})->({self._dst_var}) "
            f"expr=[{self._expr.describe()}]"
        )

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        for batch in rechunk(self.children[0].produce_batches(ctx), ctx.batch_size):
            out = self._expand(ctx, batch)
            if out is not None and out.length:
                yield out

    def _expand(self, ctx: ExecContext, batch: RecordBatch) -> Optional[RecordBatch]:
        graph = ctx.graph
        batch, (src_ids,) = _bound_rows(batch, self._src_slot)
        if not batch.length:
            return None
        if batch.length == 1:
            # point-read fast path: one source row, no frontier matrix
            dst_ids = np.asarray(
                self._expr.evaluate_single(ctx, int(src_ids[0])), dtype=_I64
            )
            rec_idx = np.zeros(len(dst_ids), dtype=_I64)
        else:
            F = frontier_matrix(src_ids, graph.capacity)
            D = self._expr.evaluate(ctx, F)
            rec_idx, dst_ids, _ = D.to_coo()
        if not len(dst_ids):
            return None
        if self._edge_slot is None:
            return batch.take(rec_idx).extend(
                self.out_layout, [EntityColumn("node", dst_ids, graph)]
            )
        # edge variable: fan each (src, dst) hop out into its edge records
        # with one batched edge-id seek, keeping the (record, dst) order
        hop, eids = graph.hop_edges(src_ids[rec_idx], dst_ids, self._types, self._direction)
        return batch.take(rec_idx[hop]).extend(
            self.out_layout,
            [EntityColumn("node", dst_ids[hop], graph), EntityColumn("edge", eids, graph)],
        )


class ExpandInto(PlanOp):
    """Close a pattern whose endpoints are both bound: emit the record only
    when the (src, dst) hop exists.  A batched structural matrix probe."""

    name = "ExpandInto"

    def __init__(
        self,
        child: PlanOp,
        src_var: str,
        dst_var: str,
        expression: AlgebraicExpression,
        *,
        edge_var: Optional[str] = None,
        types: Tuple[str, ...] = (),
        direction: str = "out",
    ) -> None:
        out_layout = child.out_layout.extend(*([edge_var] if edge_var else []))
        super().__init__([child], out_layout)
        self._src_slot = child.out_layout.slot(src_var)
        self._dst_slot = child.out_layout.slot(dst_var)
        self._edge_slot = out_layout.slot(edge_var) if edge_var else None
        self._expr = expression
        self._types = types
        self._direction = direction
        self._src_var = src_var
        self._dst_var = dst_var

    def describe(self) -> str:
        return f"ExpandInto | ({self._src_var})->({self._dst_var}) expr=[{self._expr.describe()}]"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        for batch in rechunk(self.children[0].produce_batches(ctx), ctx.batch_size):
            out = self._probe(ctx, batch)
            if out is not None and out.length:
                yield out

    def _probe(self, ctx: ExecContext, batch: RecordBatch) -> Optional[RecordBatch]:
        graph = ctx.graph
        batch, (src_ids, dst_ids) = _bound_rows(batch, self._src_slot, self._dst_slot)
        if not batch.length:
            return None
        if batch.length == 1:
            reach = self._expr.evaluate_single(ctx, int(src_ids[0]))
            hit = np.asarray([bool(np.any(reach == dst_ids[0]))])
        else:
            F = frontier_matrix(src_ids, graph.capacity)
            D = self._expr.evaluate(ctx, F)
            # one membership probe of every (row, dst) against D's sorted
            # linear keys
            rows = np.arange(batch.length, dtype=_I64)
            hit, _ = K.membership(D.to_linear()[0], K.linear_keys(rows, dst_ids, D.ncols))
        if not hit.any():
            return None
        if self._edge_slot is None:
            return batch.compress(hit)
        rows = np.flatnonzero(hit)
        hop, eids = graph.hop_edges(src_ids[rows], dst_ids[rows], self._types, self._direction)
        return batch.take(rows[hop]).extend(self.out_layout, [EntityColumn("edge", eids, graph)])


class CondVarLenTraverse(PlanOp):
    """Variable-length traversal ``(src)-[:T*min..max]->(dst)``.

    Per source node, takes the per-level frontiers of
    :func:`~repro.algorithms.khop.khop_frontiers` — the engine's one BFS
    level loop (frontier ``vxm`` under a complemented visited mask) — over
    the expression's combined relation matrix, and emits each node first
    reached at hop distance in ``[min, max]``.  An unbounded pattern
    (``max`` = -1, ``[*]`` / ``[*2..]``) expands until the frontier
    empties, which the visited mask bounds by the node count.  When
    ``dst`` is already bound it degrades to a reachability test: one
    membership probe per batch on linear ``(row, node)`` keys.
    """

    name = "CondVarLenTraverse"

    def __init__(
        self,
        child: PlanOp,
        src_var: str,
        dst_var: str,
        expression: AlgebraicExpression,
        min_hops: int,
        max_hops: int,  # -1 = unbounded
        *,
        dst_bound: bool = False,
    ) -> None:
        out_layout = child.out_layout if dst_bound else child.out_layout.extend(dst_var)
        super().__init__([child], out_layout)
        self._src_slot = child.out_layout.slot(src_var)
        self._dst_bound = dst_bound
        self._dst_slot = out_layout.slot(dst_var)
        self._expr = expression
        self._min = min_hops
        self._max = max_hops
        self._src_var = src_var
        self._dst_var = dst_var

    def describe(self) -> str:
        upper = self._max if self._max >= 0 else ""
        return (
            f"CondVarLenTraverse | ({self._src_var})-[*{self._min}..{upper}]->"
            f"({self._dst_var}) expr=[{self._expr.describe()}]"
        )

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        graph = ctx.graph
        A = self._expr.single_matrix(ctx)
        slots = (self._src_slot, self._dst_slot) if self._dst_bound else (self._src_slot,)
        max_hops = self._max if self._max >= 0 else None
        skip = max(self._min, 1) - 1  # frontiers below the min hop count
        for batch in rechunk(self.children[0].produce_batches(ctx), ctx.batch_size):
            batch, ids = _bound_rows(batch, *slots)
            if not batch.length:
                continue
            reached = []
            for src in ids[0].tolist():
                parts = [f.indices for f in khop_frontiers(A, src, max_hops)[skip:]]
                if self._min == 0:
                    parts.append(np.asarray([src], dtype=_I64))
                # the levels are disjoint sorted runs, which a stable sort merges
                reached.append(np.sort(np.concatenate(parts), kind="stable") if parts else _NONE)
            rows = np.arange(batch.length, dtype=_I64)
            src_rows = np.repeat(rows, [len(r) for r in reached])
            dst_ids = np.concatenate(reached)
            if self._dst_bound:
                # rows ascend and each row's ids ascend: the keys are sorted
                hit, _ = K.membership(
                    K.linear_keys(src_rows, dst_ids, A.ncols), K.linear_keys(rows, ids[1], A.ncols)
                )
                out = batch.compress(hit)
            else:
                out = batch.take(src_rows).extend(
                    self.out_layout, [EntityColumn("node", dst_ids, graph)]
                )
            if out.length:
                yield out
