"""Algebraic expressions: MATCH patterns as matrix-product chains.

This module is the heart of the reproduction.  A traversal step like

    (a:Person)-[:KNOWS|LIKES]->(b:Person)

compiles to the operand chain ``[KNOWS ∪ LIKES] · diag(Person)`` — the
relationship matrix (transposed for incoming edges, symmetrized for
undirected, union-ed over type alternation) followed by the destination
label's diagonal matrix.  At runtime the ConditionalTraverse operation
left-multiplies a batch *frontier matrix* ``F`` (one row per in-flight
record, a single 1 marking the record's source node) through the chain
with the structural ANY.PAIR semiring:

    D = F · A₁ · A₂ · ⋯

``D[r, j] ≠ ∅`` ⇔ record ``r`` reaches node ``j`` — every (record,
destination) pair materializes in one sparse product instead of one
pointer-chase per edge.  This is exactly the mechanism the paper credits
for RedisGraph's speedups.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.grblas import Matrix, binary, semiring
from repro.grblas import _kernels as K
from repro.graph.graph import Graph

__all__ = ["AlgebraicExpression", "build_traverse_expression", "frontier_matrix"]


class AlgebraicExpression:
    """A lazy chain of matrix operands, resolved *by name* against the
    live graph at bind time.

    The expression itself is part of a compiled (and possibly cached) plan
    and holds no matrix references — operands materialize through
    ``ctx.operand``, which re-resolves each execution (and, for read-only
    runs, memoizes the resolved overlay views for the duration of the run,
    since matrices cannot change under the read lock).
    """

    def __init__(self, operands: Sequence[Tuple[str, Callable[[Graph], Matrix]]]) -> None:
        # each operand: (display label, graph -> Matrix)
        self._operands = list(operands)

    @property
    def labels(self) -> List[str]:
        return [label for label, _ in self._operands]

    def describe(self) -> str:
        return " * ".join(self.labels) if self._operands else "I"

    def evaluate(self, ctx, frontier: Matrix) -> Matrix:
        """``frontier · A₁ · ⋯ · Aₖ`` over the structural ANY.PAIR semiring."""
        result = frontier
        for entry in self._operands:
            result = result.mxm(ctx.operand(id(entry), entry[1]), semiring.any_pair)
        return result

    def evaluate_single(self, ctx, src: int) -> np.ndarray:
        """Destination ids reachable from ONE source — the OLTP point-read
        fast path (the paper's sub-millisecond 1-hop).  A single-record
        frontier makes the general spgemm pipeline pure overhead: walking
        the operands' overlay rows directly computes the same set in a few
        microseconds.  Returns sorted unique column ids."""
        frontier: Optional[np.ndarray] = None  # None = the singleton {src}
        for entry in self._operands:
            M = ctx.operand(id(entry), entry[1])
            if frontier is None:
                frontier = M.row(src)[0]
            elif len(frontier) == 0:
                break
            elif len(frontier) == 1:
                frontier = M.row(int(frontier[0]))[0]
            else:
                parts = [M.row(int(r))[0] for r in frontier]
                frontier = K.sorted_unique(np.concatenate(parts))
        if frontier is None:
            frontier = np.asarray([src], dtype=np.int64)
        return frontier

    def single_matrix(self, ctx) -> Matrix:
        """Collapse the chain into one matrix (used by variable-length
        traversals, which iterate a single combined relation matrix)."""
        mats = [ctx.operand(id(entry), entry[1]) for entry in self._operands]
        if not mats:
            return Matrix.identity(ctx.graph.capacity)
        out = mats[0]
        for m in mats[1:]:
            out = out.mxm(m, semiring.any_pair)
        return out


def _relation_resolver(types: Tuple[str, ...], direction: str) -> Callable[[Graph], Matrix]:
    """Resolve the (possibly union-ed, possibly transposed) relation matrix."""

    def resolve(graph: Graph) -> Matrix:
        def one(t: Optional[str], transposed: bool) -> Matrix:
            return graph.relation_matrix(t, transposed=transposed)

        def union(transposed: bool) -> Matrix:
            if not types:
                return one(None, transposed)
            out = one(types[0], transposed)
            for t in types[1:]:
                out = out.ewise_add(one(t, transposed), binary.lor)
            return out

        if direction == "out":
            return union(False)
        if direction == "in":
            return union(True)
        # undirected: R ∪ Rᵀ
        return union(False).ewise_add(union(True), binary.lor)

    return resolve


def _label_resolver(label: str) -> Callable[[Graph], Matrix]:
    def resolve(graph: Graph) -> Matrix:
        return graph.label_matrix(label)

    return resolve


def build_traverse_expression(
    types: Tuple[str, ...],
    direction: str,
    dst_labels: Tuple[str, ...] = (),
) -> AlgebraicExpression:
    """The operand chain of one traversal step: relation matrix followed by
    one diagonal matrix per destination label (label filtering *inside* the
    algebra, not as a post-filter)."""
    rel_label = "|".join(types) if types else "ADJ"
    if direction == "in":
        rel_label = f"T({rel_label})"
    elif direction == "any":
        rel_label = f"({rel_label}+T)"
    operands: List[Tuple[str, Callable[[Graph], Matrix]]] = [
        (rel_label, _relation_resolver(types, direction))
    ]
    for label in dst_labels:
        operands.append((f"diag({label})", _label_resolver(label)))
    return AlgebraicExpression(operands)


def frontier_matrix(src_ids: Sequence[int], dim: int) -> Matrix:
    """Extraction matrix F: row r holds a single 1 at column src_ids[r]."""
    src = np.asarray(src_ids, dtype=np.int64)
    rows = np.arange(len(src), dtype=np.int64)
    return Matrix.from_coo(rows, src, None, nrows=len(src), ncols=dim)
