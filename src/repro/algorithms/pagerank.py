"""PageRank by power iteration over PLUS.SECOND products.

Each iteration computes ``r' = (1-d)/n + d·(Aᵀ (r/outdeg)) + d·(dangling
mass)/n``.  The contribution gather is ``vxm`` over the PLUS.FIRST
semiring: the rank/outdegree value of the *source* end of each edge is
summed into the target — edge values never matter, matching RedisGraph's
unweighted adjacency matrices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grblas import Matrix, Vector, semiring
from repro.grblas.types import FP64

from repro.algorithms._view import as_read_matrix

__all__ = ["pagerank"]


def pagerank(
    A: Matrix,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 100,
    nodes: Optional[np.ndarray] = None,
) -> Vector:
    """Rank of every node of the directed graph ``A`` (pattern only).

    ``nodes`` lists the ids that take part (default: every row); the other
    rows are empty slots of a graph's capacity, with no edges, and get no
    teleport share.  Returns an FP64 vector over ``nodes`` summing to 1.
    Converges when the L1 change drops below ``tol``.
    """
    A = as_read_matrix(A)
    dim = A.nrows
    nodes = np.arange(dim, dtype=np.int64) if nodes is None else np.sort(nodes)
    n = len(nodes)
    if n == 0:
        return Vector(dim, FP64)
    outdeg = A.row_degree().astype(np.float64)
    dangling = nodes[outdeg[nodes] == 0]
    rank = np.zeros(dim)
    rank[nodes] = 1.0 / n
    teleport = np.zeros(dim)
    teleport[nodes] = (1.0 - damping) / n
    for _ in range(max_iter):
        scaled = rank / np.where(outdeg > 0, outdeg, 1.0)
        v = Vector(dim, FP64, indices=np.arange(dim, dtype=np.int64), values=scaled)
        contrib = v.vxm(A, semiring.plus_first)
        new_rank = teleport.copy()
        new_rank[contrib.indices] += damping * contrib.values
        if len(dangling):
            new_rank[nodes] += damping * rank[dangling].sum() / n
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return Vector(dim, FP64, indices=nodes, values=rank[nodes])
