"""Graph statistics — the cost-based planner's raw material, read off storage.

Production graph engines keep cardinality statistics next to the data so
the optimizer can price access paths (Samyama's in-database optimization
case, and the query-optimization layer Besta et al. use to separate
production engines from toys).  Here the adjacency matrices *are* the
data, and every number the cost model reads is a property of them, so
:class:`StatisticsStore` keeps no copy: :meth:`StatisticsStore.snapshot`
derives each number when a plan is compiled.

* **per-label node counts** — each label matrix's ``nvals`` (scan
  cardinality for NodeByLabelScan),
* **per-relationship-type entry and edge counts** — the relation matrix's
  ``nvals`` (distinct pairs) and the type's edge-id store's live count
  (records; parallel edges count one each); ``entries / node_count`` is
  the uniform-model mean fan-out,
* **distinct sources and sinks per type** — the non-empty rows and
  columns of the relation overlay (``row_degree`` / ``col_degree``: no
  transpose is built), the in/out asymmetry signal,
* **per-index size and NDV** (read off the live index) — equality
  selectivity for index seeks.

Writes, bulk commits and snapshot loads therefore pay nothing for
statistics; a compilation pays one O(nnz) count per relationship type.

Staleness is tracked by an **epoch** that moves only when the graph's
size (``node_count`` plus every relation's ``nvals``) has drifted far
enough from its size at the last move to change plan choices: a
doubling, or a halving, with a 64-entity floor.  Cached plans survive
steady writes and recompile O(log growth) times over a graph's life.
The planner consumes an immutable :class:`GraphStatistics` snapshot
keyed by ``(schema_version, epoch)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.graph import Graph

__all__ = ["StatisticsStore", "GraphStatistics", "RelTypeStats"]


class RelTypeStats:
    """Per-relationship-type statistics inside a snapshot."""

    __slots__ = ("edges", "entries", "out_nodes", "in_nodes")

    def __init__(self, edges: int, entries: int, out_nodes: int, in_nodes: int) -> None:
        self.edges = edges  # edge records (parallel edges count individually)
        self.entries = entries  # distinct (src, dst) matrix entries
        self.out_nodes = out_nodes  # distinct sources (nodes with out-degree > 0)
        self.in_nodes = in_nodes  # distinct sinks

    def __repr__(self) -> str:
        return (
            f"<RelTypeStats edges={self.edges} entries={self.entries} "
            f"out_nodes={self.out_nodes} in_nodes={self.in_nodes}>"
        )


class GraphStatistics:
    """An immutable, snapshot-consistent view of one graph's statistics.

    Keyed by ``(schema_version, epoch)`` so cached plans can tell when
    the estimates they were built from have gone stale."""

    __slots__ = (
        "epoch",
        "schema_version",
        "node_count",
        "edge_count",
        "label_counts",
        "rels",
        "index_details",
    )

    def __init__(
        self,
        epoch: int,
        schema_version: int,
        node_count: int,
        edge_count: int,
        label_counts: Mapping[str, int],
        rels: Mapping[str, RelTypeStats],
        index_details: Optional[Mapping[Tuple[str, Tuple[str, ...], str], dict]] = None,
    ) -> None:
        self.epoch = epoch
        self.schema_version = schema_version
        self.node_count = node_count
        self.edge_count = edge_count
        self.label_counts = dict(label_counts)
        self.rels = dict(rels)
        # (label, attr-name tuple, kind) -> {"size", "ndv", "sample"}
        # where sample is a sorted float64 array of numeric range-index
        # keys (the cost model's rank-query material), or None
        self.index_details = dict(index_details or {})

    def __repr__(self) -> str:
        return (
            f"<GraphStatistics epoch={self.epoch} nodes={self.node_count} "
            f"edges={self.edge_count} labels={len(self.label_counts)} "
            f"rels={len(self.rels)}>"
        )


class StatisticsStore:
    """Derives one :class:`Graph`'s statistics from its storage on demand.

    Its only state is the epoch and the graph size the epoch last moved
    at; no write path calls into it."""

    def __init__(self, graph: "Graph") -> None:
        self._graph = graph
        self._epoch = 0
        self._epoch_anchor = 0

    @property
    def epoch(self) -> int:
        """Staleness counter for cached plans.  Each read moves it when
        ``node_count + Σ relation nvals`` has drifted roughly a doubling
        (or a halving) from the size at the last move, with a 64-entity
        floor so small graphs never thrash the plan cache.  Reads need
        no lock: a racing writer at worst delays a move to the next read."""
        graph = self._graph
        n = graph.node_count
        for matrix in graph._rel_matrices:  # a loop: read on every plan lookup
            n += matrix.nvals()
        a = self._epoch_anchor
        if n > a + max(64, a) or n < a - max(64, a // 2):
            self._epoch += 1
            self._epoch_anchor = n
        return self._epoch

    def _rel_stats(self, rid: int) -> RelTypeStats:
        graph = self._graph
        if rid >= len(graph._rel_matrices):
            return RelTypeStats(0, 0, 0, 0)
        view = graph._rel_matrices[rid].overlay()
        edges = len(graph._edge_ids[rid][0]) if rid < len(graph._edge_ids) else 0
        return RelTypeStats(
            edges,
            view.nvals,
            int(np.count_nonzero(view.row_degree())),
            int(np.count_nonzero(view.col_degree())),
        )

    def snapshot(self) -> GraphStatistics:
        """What the planner sees, derived from the matrices, the edge-id
        stores and the indexes.  Compilation runs outside the graph lock,
        so this takes the read lock: no writer moves the overlays mid-count."""
        graph = self._graph
        schema = graph.schema
        with graph.lock.read():
            epoch = self.epoch
            label_counts = {}
            for lid, matrix in enumerate(graph._label_matrices):
                count = matrix.nvals()
                if count > 0:
                    label_counts[schema.label_name(lid)] = count
            rels = {
                schema.reltype_name(rid): self._rel_stats(rid)
                for rid in range(schema.reltype_count)
            }
            index_details = {}
            for index in graph._all_indexes():
                key = (
                    schema.label_name(index.label_id),
                    tuple(graph.attrs.name_of(a) for a in index.attr_ids),
                    index.kind,
                )
                sample = index.numeric_sample() if index.kind == "range" else None
                detail = {
                    "size": len(index),
                    "ndv": index.ndv(),
                    "sample": sample,
                }
                if index.kind == "vector":
                    # IVF shape for top-k seek pricing: candidates scanned per
                    # query ≈ nprobe · size / nlist (size when untrained)
                    detail["nlist"] = index.nlist
                    detail["nprobe"] = index.nprobe
                    detail["trained"] = index.trained
                index_details[key] = detail
            return GraphStatistics(
                epoch=epoch,
                schema_version=graph.schema_version,
                node_count=graph.node_count,
                edge_count=graph.edge_count,
                label_counts=label_counts,
                rels=rels,
                index_details=index_details,
            )

    def __repr__(self) -> str:
        return f"<StatisticsStore epoch={self._epoch}>"
