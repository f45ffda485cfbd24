"""The k-hop neighborhood-count kernel — the paper's benchmark query.

The TigerGraph benchmark (paper §III) asks, for a seed vertex ``s`` and a
hop count ``k``: *how many distinct vertices are reachable from ``s`` in at
most k hops (excluding s itself)?*  In linear algebra this is k rounds of

    frontier⟨¬visited, replace⟩ = frontier ANY.PAIR A
    visited                     = visited ∪ frontier

and the answer is ``nvals(visited) - 1``.  :func:`khop_frontiers` is the
engine's one BFS level loop: the Cypher form ``MATCH (s)-[:E*1..k]->(n)``
(``CondVarLenTraverse``), the ``algo.khop`` procedure and the ``matrix``
benchmark engine all run it, so a faster level kernel speeds all three.
"""

from __future__ import annotations

from typing import List, Optional

from repro.grblas import Mask, Matrix, Vector, binary, semiring
from repro.grblas.descriptor import Descriptor

from repro.algorithms._view import as_read_matrix

__all__ = ["khop_counts", "khop_frontiers"]

_REPLACE = Descriptor(replace=True)


def khop_frontiers(A: Matrix, seed: int, k: Optional[int]) -> List[Vector]:
    """The per-level frontiers ``[F1 .. Fk]`` of a k-hop expansion from
    ``seed`` (level 0 — the seed itself — is not included).  Frontier
    ``Fd`` holds exactly the nodes at hop distance ``d``, so the frontiers
    are pairwise disjoint.  Expansion stops early when a frontier empties;
    ``k=None`` (an unbounded pattern) expands until it does, which the
    visited mask bounds by the node count."""
    A = as_read_matrix(A)
    visited = Vector.from_coo([seed], None, size=A.nrows)
    frontier = visited
    out: List[Vector] = []
    while k is None or len(out) < k:
        frontier = frontier.vxm(
            A,
            semiring.any_pair,
            mask=Mask(visited, complement=True, structure=True),
            desc=_REPLACE,
        )
        if frontier.nvals == 0:
            break
        out.append(frontier)
        if len(out) != k:  # the last level needs no visited update
            visited = visited.ewise_add(frontier, binary.lor)
    return out


def khop_counts(A: Matrix, seed: int, k: int, *, mode: str = "within") -> int:
    """Number of distinct vertices in the k-hop neighborhood of ``seed``.

    ``mode="within"`` counts vertices at hop distance 1..k (the TigerGraph
    benchmark's metric); ``mode="exact"`` counts only those at distance
    exactly k.
    """
    frontiers = khop_frontiers(A, seed, k)
    if mode == "exact":
        return frontiers[-1].nvals if len(frontiers) == k else 0
    return int(sum(f.nvals for f in frontiers))
