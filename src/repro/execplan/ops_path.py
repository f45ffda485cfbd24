"""The ``ProjectPath`` operation — materialize named path variables.

``MATCH p = (a)-[r:T]->(b)-[:U*1..2]->(c)`` plans its pattern chain
exactly as before (the planner is free to reorder/reverse traversals);
this op sits on top and assembles, per record, the
:class:`~repro.graph.path.PathValue` in *pattern* order from the bound
endpoints.  Fixed-length segments read their (possibly anonymous, then
planner-named) edge variable straight from the record.  Variable-length
segments carry no per-hop bindings — ``CondVarLenTraverse`` emits each
destination at its first-reach hop count — so the op reconstructs one
shortest realization between the bound endpoints with a parent-tracking
BFS over the same collapsed expression matrix the traversal used, which
by construction has the same length the traversal admitted the row for.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import GraphError
from repro.algorithms import bfs_parents
from repro.execplan.algebraic import AlgebraicExpression
from repro.execplan.batch import RecordBatch, ValueColumn, object_column
from repro.execplan.expressions import ExecContext
from repro.execplan.ops_base import PlanOp
from repro.execplan.record import Record
from repro.graph.entities import Edge, Node
from repro.graph.path import PathValue

__all__ = ["PathSegment", "ProjectPath"]


class PathSegment:
    """Compile-time spec of one relationship hop of a named path."""

    __slots__ = ("edge_slot", "types", "direction", "expression", "variable_length")

    def __init__(
        self,
        edge_slot: Optional[int],
        types: Tuple[str, ...],
        direction: str,
        expression: Optional[AlgebraicExpression],
        variable_length: bool,
    ) -> None:
        self.edge_slot = edge_slot
        self.types = types
        self.direction = direction
        self.expression = expression
        self.variable_length = variable_length


class ProjectPath(PlanOp):
    """Extend each record with the assembled path value."""

    name = "ProjectPath"

    def __init__(
        self,
        child: PlanOp,
        path_var: str,
        node_slots: List[int],
        segments: List[PathSegment],
    ) -> None:
        out_layout = child.out_layout.extend(path_var)
        super().__init__([child], out_layout)
        self._path_var = path_var
        self._node_slots = node_slots
        self._segments = segments

    def describe(self) -> str:
        return f"ProjectPath | {self._path_var} ({len(self._segments)} hops)"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        for batch in self.children[0].produce_batches(ctx):
            paths = [self._assemble(ctx, record) for record in batch.iter_rows()]
            yield batch.extend(self.out_layout, [ValueColumn(object_column(paths))])

    # ------------------------------------------------------------------
    def _assemble(self, ctx: ExecContext, record: Record) -> Optional[PathValue]:
        graph = ctx.graph
        endpoints = [record[slot] for slot in self._node_slots]
        if any(e is None for e in endpoints):
            return None  # OPTIONAL MATCH hole: the path is null too
        nodes: List[Node] = [endpoints[0]]
        edges: List[Edge] = []
        for i, seg in enumerate(self._segments):
            src, dst = endpoints[i], endpoints[i + 1]
            if not seg.variable_length:
                edge = record[seg.edge_slot]
                if edge is None:
                    return None
                edges.append(edge)
                nodes.append(dst)
                continue
            if src.id == dst.id:
                # zero-hop realization of a *0..n segment
                nodes[-1] = dst
                continue
            chain = self._chain(ctx, seg, src.id, dst.id)
            eids = graph.lowest_hop_edges(chain[:-1], chain[1:], seg.types, seg.direction)
            edges.extend(Edge(graph, e) for e in eids.tolist())
            nodes.extend(Node(graph, v) for v in chain[1:])
        return PathValue(nodes, edges)

    def _chain(self, ctx: ExecContext, seg: PathSegment, src: int, dst: int) -> List[int]:
        """The nodes of one shortest src→dst walk over the segment's
        collapsed expression matrix, src first."""
        A = seg.expression.single_matrix(ctx)
        parents = bfs_parents(A, src)
        idx, vals = parents.to_coo()
        parent = dict(zip(idx.tolist(), vals.tolist()))
        if dst not in parent:  # pragma: no cover - traversal admitted the row
            raise GraphError(f"path endpoint {dst} unreachable during reconstruction")
        chain = [dst]
        while chain[-1] != src:
            chain.append(parent[int(chain[-1])])
        chain.reverse()
        return chain
