"""The algorithms suite as procedures — the paper's §II story as traffic.

Every proc runs on a snapshot-isolated overlay view: the adjacency
operand is ``graph.relation_matrix(reltype)``, a flush-free
``DeltaMatrixView`` that merges pending deltas per touched row at
evaluation time.  Nothing here mutates graph state, flushes CSR storage,
or takes more than the query's read lock — concurrent writers keep
appending deltas while an algorithm streams its YIELD columns.

Dense algorithm outputs (PageRank, WCC, core numbers) are computed over
the graph's capacity-sized matrix dimension, so they are filtered to the
live node-id set before leaving the proc; sparse outputs (BFS levels,
SSSP distances) only ever contain reachable — hence live — nodes.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.algorithms import (
    bfs_levels,
    bfs_parents,
    connected_components,
    core_numbers,
    khop_frontiers,
    ktruss,
    pagerank,
    sssp_bellman_ford,
    triangle_count,
)
from repro.errors import CypherTypeError
from repro.graph.path import PathValue
from repro.procedures.registry import ProcArg, ProcCol, Procedure, registry

__all__ = ["register_algorithm_procedures"]


def _adjacency(graph, reltype: Optional[str]):
    """The overlay adjacency for one reltype (or all combined)."""
    return graph.relation_matrix(reltype)


def _require_node(graph, proc: str, name: str, node_id: int) -> int:
    if not graph.has_node(node_id):
        raise CypherTypeError(f"procedure {proc}: argument '{name}' is not a node id: {node_id}")
    return node_id


def _live_filter(graph, indices: np.ndarray, values: np.ndarray):
    """Restrict a capacity-dimension vector to live node ids."""
    live = np.zeros(graph.capacity, dtype=bool)
    ids = graph.all_node_ids()
    if len(ids):
        live[ids] = True
    keep = live[indices]
    return indices[keep], values[keep]


# ---------------------------------------------------------------------------
# Implementations
# ---------------------------------------------------------------------------


def _bfs(graph, source, max_level, reltype) -> Sequence[Sequence[Any]]:
    _require_node(graph, "algo.bfs", "source", source)
    if max_level is not None and max_level < 0:
        raise CypherTypeError("procedure algo.bfs: maxLevel must be >= 0")
    levels = bfs_levels(_adjacency(graph, reltype), source, max_level=max_level)
    ids, vals = levels.to_coo()
    return [ids, vals]


def _pagerank(graph, reltype, damping, tol, max_iter) -> Sequence[Sequence[Any]]:
    if not (0.0 <= damping < 1.0):
        raise CypherTypeError("procedure algo.pagerank: damping must be in [0, 1)")
    if max_iter <= 0:
        raise CypherTypeError("procedure algo.pagerank: maxIter must be positive")
    ranks = pagerank(
        _adjacency(graph, reltype),
        damping=damping,
        tol=tol,
        max_iter=max_iter,
        nodes=graph.all_node_ids(),
    )
    return list(ranks.to_coo())


def _wcc(graph, reltype) -> Sequence[Sequence[Any]]:
    comps = connected_components(_adjacency(graph, reltype))
    ids, vals = _live_filter(graph, *comps.to_coo())
    return [ids, vals]


def _sssp(graph, source, reltype) -> Sequence[Sequence[Any]]:
    _require_node(graph, "algo.sssp", "source", source)
    dist = sssp_bellman_ford(_adjacency(graph, reltype), source)
    ids, vals = dist.to_coo()
    return [ids, np.asarray(vals, dtype=np.float64)]


def _kcore(graph, k, reltype) -> Sequence[Sequence[Any]]:
    if k < 0:
        raise CypherTypeError("procedure algo.kcore: k must be >= 0")
    cores = core_numbers(_adjacency(graph, reltype))
    ids, vals = _live_filter(graph, *cores.to_coo())
    keep = vals >= k
    return [ids[keep], vals[keep]]


def _ktruss(graph, k, reltype) -> Sequence[Sequence[Any]]:
    if k < 2:
        raise CypherTypeError("procedure algo.ktruss: k must be >= 2")
    truss = ktruss(_adjacency(graph, reltype), k)
    rows, cols, _ = truss.to_coo()
    return [rows, cols]


def _triangles(graph, reltype) -> Sequence[Sequence[Any]]:
    return [[int(triangle_count(_adjacency(graph, reltype)))]]


def _khop(graph, source, k, reltype) -> Sequence[Sequence[Any]]:
    _require_node(graph, "algo.khop", "source", source)
    if k < 1:
        raise CypherTypeError("procedure algo.khop: k must be >= 1")
    frontiers = khop_frontiers(_adjacency(graph, reltype), source, k)
    ids: List[np.ndarray] = []
    hops: List[np.ndarray] = []
    for level, frontier in enumerate(frontiers, start=1):
        idx, _ = frontier.to_coo()
        ids.append(idx)
        hops.append(np.full(len(idx), level, dtype=np.int64))
    if not ids:
        return [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)]
    return [np.concatenate(ids), np.concatenate(hops)]


def _shortest_path(graph, source, target, reltype) -> Sequence[Sequence[Any]]:
    _require_node(graph, "algo.shortestPath", "source", source)
    _require_node(graph, "algo.shortestPath", "target", target)
    if source == target:
        path = PathValue([graph.get_node(source)], [])
        return [[path], [0]]
    parents = bfs_parents(_adjacency(graph, reltype), source)
    idx, vals = parents.to_coo()
    parent = dict(zip(idx.tolist(), vals.tolist()))
    if target not in parent:
        return [[], []]  # unreachable: zero rows
    chain = [target]
    while chain[-1] != source:
        chain.append(parent[int(chain[-1])])
    chain.reverse()
    nodes = [graph.get_node(int(v)) for v in chain]
    lowest = graph.lowest_hop_edges(chain[:-1], chain[1:], () if reltype is None else (reltype,))
    edges = [graph.get_edge(e) for e in lowest.tolist()]
    path = PathValue(nodes, edges)
    return [[path], [len(edges)]]


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

_RELTYPE = ProcArg("reltype", "string", None)


def register_algorithm_procedures() -> None:
    registry.register(
        Procedure(
            name="algo.bfs",
            args=(
                ProcArg("source", "node"),
                ProcArg("maxLevel", "integer", None),
                _RELTYPE,
            ),
            yields=(ProcCol("node", "node"), ProcCol("level", "integer")),
            fn=_bfs,
            cardinality="nodes",
            description="Hop distance from source to every reachable node.",
        )
    )
    registry.register(
        Procedure(
            name="algo.pagerank",
            args=(
                _RELTYPE,
                ProcArg("damping", "float", 0.85),
                ProcArg("tol", "float", 1e-8),
                ProcArg("maxIter", "integer", 100),
            ),
            yields=(ProcCol("node", "node"), ProcCol("score", "float")),
            fn=_pagerank,
            cardinality="nodes",
            description="PageRank over the (optionally typed) adjacency.",
        )
    )
    registry.register(
        Procedure(
            name="algo.wcc",
            args=(_RELTYPE,),
            yields=(ProcCol("node", "node"), ProcCol("componentId", "integer")),
            fn=_wcc,
            cardinality="nodes",
            description="Weakly connected components (componentId = min node id).",
        )
    )
    registry.register(
        Procedure(
            name="algo.sssp",
            args=(ProcArg("source", "node"), _RELTYPE),
            yields=(ProcCol("node", "node"), ProcCol("distance", "float")),
            fn=_sssp,
            cardinality="nodes",
            description="Bellman-Ford distances from source (unit weights).",
        )
    )
    registry.register(
        Procedure(
            name="algo.kcore",
            args=(ProcArg("k", "integer"), _RELTYPE),
            yields=(ProcCol("node", "node"), ProcCol("coreNumber", "integer")),
            fn=_kcore,
            cardinality="nodes",
            description="Nodes of the k-core with their core numbers.",
        )
    )
    registry.register(
        Procedure(
            name="algo.ktruss",
            args=(ProcArg("k", "integer"), _RELTYPE),
            yields=(ProcCol("src", "node"), ProcCol("dst", "node")),
            fn=_ktruss,
            cardinality="nodes",
            description="Edges surviving in the k-truss subgraph.",
        )
    )
    registry.register(
        Procedure(
            name="algo.triangleCount",
            args=(_RELTYPE,),
            yields=(ProcCol("triangles", "integer"),),
            fn=_triangles,
            cardinality=1.0,
            description="Global triangle count (L·U masked SpGEMM).",
        )
    )
    registry.register(
        Procedure(
            name="algo.khop",
            args=(ProcArg("source", "node"), ProcArg("k", "integer"), _RELTYPE),
            yields=(ProcCol("node", "node"), ProcCol("hop", "integer")),
            fn=_khop,
            cardinality="nodes",
            description="The k-hop neighborhood of source with hop distances.",
        )
    )
    registry.register(
        Procedure(
            name="algo.shortestPath",
            args=(ProcArg("source", "node"), ProcArg("target", "node"), _RELTYPE),
            yields=(ProcCol("path", "path"), ProcCol("length", "integer")),
            fn=_shortest_path,
            cardinality=1.0,
            description="One shortest path source→target via matmul BFS.",
        )
    )
