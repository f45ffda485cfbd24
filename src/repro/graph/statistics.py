"""Write-side graph statistics — the cost-based planner's raw material.

Production graph engines keep cardinality statistics next to the data so
the optimizer can price access paths without touching it (Samyama's
in-database optimization case, and the query-optimization layer Besta et
al. use to separate production engines from toys).  The
:class:`StatisticsStore` is that layer here:

* **per-label node counts** — scan cardinality for NodeByLabelScan,
* **per-relationship-type matrix entry counts + edge record counts** —
  expansion fan-out (``entries / node_count`` is the uniform-model mean
  out-degree),
* **per-type in/out degree tables + 64-bucket log₂ degree histograms** —
  direction asymmetry and worst-case fan-out caps for variable-length
  expansion,
* **per-index size and NDV** (read off the live index at snapshot time) —
  equality selectivity for index seeks.

Everything is maintained *incrementally* by the normal write path
(:meth:`Graph.create_node` and friends), by bulk ingestion (which
re-derives the touched relationship types vectorized from the matrices —
no per-edge Python loop), and by deletes.  Each update is O(1)-ish: a
couple of dict/counter adjustments plus one histogram bucket move.  Read
queries never pay anything.

Staleness is tracked by an **epoch** counter that bumps only when the
totals drift far enough from the last-planned sizes to change plan
choices (a doubling, or a halving, with a 64-entity floor) — so cached
plans survive steady writes, recompile O(log growth) times over a
graph's life, and the plan cache's hit-rate tests keep passing.  The
planner consumes an immutable :class:`GraphStatistics` snapshot keyed by
``(schema_version, epoch)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.graph import Graph

__all__ = ["StatisticsStore", "GraphStatistics", "RelTypeStats"]

_I64 = np.int64

#: Histogram buckets: bucket b counts nodes whose degree d satisfies
#: ``2**b <= d < 2**(b+1)`` (b = d.bit_length() - 1).  64 buckets cover
#: any int64 degree.
HIST_BUCKETS = 64


def _bucket(degree: int) -> int:
    return min(HIST_BUCKETS - 1, degree.bit_length() - 1)


def _move(deg: Dict[int, int], hist: List[int], node: int, delta: int) -> None:
    """Apply one degree change: update the node's entry in ``deg`` and
    move its count between histogram buckets.  O(1)."""
    old = deg.get(node, 0)
    new = old + delta
    if old > 0:
        hist[_bucket(old)] -= 1
    if new > 0:
        hist[_bucket(new)] += 1
        deg[node] = new
    else:
        deg.pop(node, None)


def _degrees_from_vector(vec: np.ndarray) -> Tuple[Dict[int, int], List[int]]:
    """(degree dict, log₂ histogram) from a dense per-row degree vector —
    the vectorized rebuild path (load-time and bulk ingestion)."""
    nz = np.flatnonzero(vec)
    hist = [0] * HIST_BUCKETS
    if not len(nz):
        return {}, hist
    deg = np.asarray(vec[nz], dtype=_I64)
    # frexp's exponent is bit_length for positive integers: d = m * 2**e
    # with m in [0.5, 1), so e - 1 == d.bit_length() - 1 == the bucket
    buckets = np.frexp(deg)[1].astype(np.int64) - 1
    np.clip(buckets, 0, HIST_BUCKETS - 1, out=buckets)
    counts = np.bincount(buckets, minlength=HIST_BUCKETS)
    hist = counts[:HIST_BUCKETS].tolist()
    return dict(zip(nz.tolist(), deg.tolist())), hist


class _RelStats:
    """Mutable per-relationship-type counters."""

    __slots__ = ("edges", "entries", "out_deg", "in_deg", "out_hist", "in_hist")

    def __init__(self) -> None:
        self.edges = 0  # edge records (multi-edges count individually)
        self.entries = 0  # distinct (src, dst) matrix entries
        self.out_deg: Dict[int, int] = {}  # node -> distinct out-entries
        self.in_deg: Dict[int, int] = {}  # node -> distinct in-entries
        self.out_hist: List[int] = [0] * HIST_BUCKETS
        self.in_hist: List[int] = [0] * HIST_BUCKETS


class RelTypeStats:
    """Frozen per-relationship-type statistics inside a snapshot."""

    __slots__ = ("edges", "entries", "out_nodes", "in_nodes", "out_hist", "in_hist")

    def __init__(
        self,
        edges: int,
        entries: int,
        out_nodes: int,
        in_nodes: int,
        out_hist: Tuple[int, ...],
        in_hist: Tuple[int, ...],
    ) -> None:
        self.edges = edges
        self.entries = entries
        self.out_nodes = out_nodes  # distinct sources (nodes with out-degree > 0)
        self.in_nodes = in_nodes  # distinct sinks
        self.out_hist = out_hist
        self.in_hist = in_hist

    def max_degree(self, *, incoming: bool = False) -> int:
        """Upper bound on any single node's degree, from the histogram:
        the top of the highest occupied bucket."""
        hist = self.in_hist if incoming else self.out_hist
        for b in range(HIST_BUCKETS - 1, -1, -1):
            if hist[b]:
                return 2 ** (b + 1) - 1
        return 0

    def __repr__(self) -> str:
        return (
            f"<RelTypeStats edges={self.edges} entries={self.entries} "
            f"out_nodes={self.out_nodes} in_nodes={self.in_nodes}>"
        )


class GraphStatistics:
    """An immutable, snapshot-consistent view of one graph's statistics.

    Captured under whatever lock the caller holds (compilation reads it
    the same way it reads ``schema_version``: racing writers at worst
    stamp the artifact with an older epoch, which only means an earlier
    recompile).  Keyed by ``(schema_version, epoch)`` so cached plans can
    tell when the estimates they were built from have gone stale."""

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
    """Live, write-side-maintained counters for one :class:`Graph`.

    Mutators are called from inside the graph's write paths (which hold
    the write lock), so no extra synchronization is needed; readers only
    ever see :meth:`snapshot` copies."""

    def __init__(self, graph: "Graph") -> None:
        self._graph = graph
        self._label_counts: Dict[int, int] = {}
        self._rels: Dict[int, _RelStats] = {}
        self.node_total = 0
        self.entry_total = 0
        #: staleness epoch for cached plans; bumps on drift, not per write
        self.epoch = 0
        self._epoch_anchor = 0

    # ------------------------------------------------------------------
    # Epoch (plan staleness)
    # ------------------------------------------------------------------
    def _maybe_bump(self) -> None:
        """Bump the epoch when totals drift enough to change estimates:
        roughly a doubling (or halving) since the last bump, with a
        64-entity floor so small test graphs never thrash the plan
        cache.  Total bumps over a graph's life are O(log growth)."""
        n = self.node_total + self.entry_total
        a = self._epoch_anchor
        if n > a + max(64, a) or n < a - max(64, a // 2):
            self.epoch += 1
            self._epoch_anchor = n

    # ------------------------------------------------------------------
    # Incremental maintenance (single-entity write path)
    # ------------------------------------------------------------------
    def _rel(self, rid: int) -> _RelStats:
        rel = self._rels.get(rid)
        if rel is None:
            rel = self._rels[rid] = _RelStats()
        return rel

    def node_created(self, label_ids: Tuple[int, ...]) -> None:
        self.node_total += 1
        for lid in label_ids:
            self._label_counts[lid] = self._label_counts.get(lid, 0) + 1
        self._maybe_bump()

    def node_deleted(self, label_ids: Tuple[int, ...]) -> None:
        self.node_total -= 1
        for lid in label_ids:
            self._label_counts[lid] = self._label_counts.get(lid, 0) - 1
        self._maybe_bump()

    def label_added(self, lid: int) -> None:
        self._label_counts[lid] = self._label_counts.get(lid, 0) + 1

    def label_removed(self, lid: int) -> None:
        self._label_counts[lid] = self._label_counts.get(lid, 0) - 1

    def edge_created(self, rid: int, src: int, dst: int, new_entry: bool) -> None:
        rel = self._rel(rid)
        rel.edges += 1
        if new_entry:
            rel.entries += 1
            self.entry_total += 1
            _move(rel.out_deg, rel.out_hist, src, +1)
            _move(rel.in_deg, rel.in_hist, dst, +1)
        self._maybe_bump()

    def edge_deleted(self, rid: int, src: int, dst: int, entry_removed: bool) -> None:
        rel = self._rel(rid)
        rel.edges -= 1
        if entry_removed:
            rel.entries -= 1
            self.entry_total -= 1
            _move(rel.out_deg, rel.out_hist, src, -1)
            _move(rel.in_deg, rel.in_hist, dst, -1)
        self._maybe_bump()

    # ------------------------------------------------------------------
    # Bulk maintenance (vectorized — no per-entity Python loop)
    # ------------------------------------------------------------------
    def nodes_created_bulk(self, label_ids: Tuple[int, ...], count: int) -> None:
        self.node_total += count
        for lid in label_ids:
            self._label_counts[lid] = self._label_counts.get(lid, 0) + count
        self._maybe_bump()

    def edge_records_created_bulk(self, rid: int, count: int) -> None:
        self._rel(rid).edges += count

    def rebuild_rel(self, rid: int) -> None:
        """Re-derive one relationship type's entry/degree statistics
        straight from its delta matrix (vectorized ``row_degree`` over
        the forward and transposed overlays) — the bulk-ingestion path:
        one O(nnz) pass per *touched* type instead of a Python op per
        staged edge."""
        dm = self._graph._rel_matrix_for(rid)
        rel = self._rel(rid)
        self.entry_total -= rel.entries
        out_vec = dm.overlay().row_degree()
        in_vec = dm.transposed().row_degree()
        rel.entries = int(out_vec.sum())
        rel.out_deg, rel.out_hist = _degrees_from_vector(out_vec)
        rel.in_deg, rel.in_hist = _degrees_from_vector(in_vec)
        self.entry_total += rel.entries
        self._maybe_bump()

    def rebuild(self, edge_rels: Optional[np.ndarray] = None) -> None:
        """Recompute everything from the graph — the load-time path
        (snapshot restore / v1 migration), after which WAL replay through
        the normal write paths keeps the counters maintained.

        ``edge_rels`` is the per-live-edge relationship-id column when
        the caller has it (the v2 loader does); otherwise edge record
        counts fall back to one pass over the edge block."""
        graph = self._graph
        self._label_counts = {
            lid: graph._label_matrix_for(lid).nvals()
            for lid in range(graph.schema.label_count)
        }
        self.node_total = graph.node_count
        self._rels = {}
        self.entry_total = 0
        if edge_rels is not None:
            edge_counts = np.bincount(
                np.asarray(edge_rels, dtype=_I64), minlength=graph.schema.reltype_count
            )
        else:
            edge_counts = np.zeros(max(1, graph.schema.reltype_count), dtype=_I64)
            for _, record in graph._edges.items():
                edge_counts[record.rel_id] += 1
        for rid in range(graph.schema.reltype_count):
            self.rebuild_rel(rid)
            self._rels[rid].edges = int(edge_counts[rid]) if rid < len(edge_counts) else 0
        self.epoch += 1
        self._epoch_anchor = self.node_total + self.entry_total

    # ------------------------------------------------------------------
    # Snapshot (what the planner sees)
    # ------------------------------------------------------------------
    def snapshot(self) -> GraphStatistics:
        graph = self._graph
        schema = graph.schema
        label_counts = {
            schema.label_name(lid): count
            for lid, count in self._label_counts.items()
            if count > 0
        }
        rels = {}
        for rid, rel in self._rels.items():
            if rid >= schema.reltype_count:
                continue
            rels[schema.reltype_name(rid)] = RelTypeStats(
                rel.edges,
                rel.entries,
                len(rel.out_deg),
                len(rel.in_deg),
                tuple(rel.out_hist),
                tuple(rel.in_hist),
            )
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
            epoch=self.epoch,
            schema_version=graph.schema_version,
            node_count=self.node_total,
            edge_count=graph.edge_count,
            label_counts=label_counts,
            rels=rels,
            index_details=index_details,
        )

    # ------------------------------------------------------------------
    def measure(self) -> dict:
        """The maintained counters as a plain comparable dict — what the
        recovery tests assert on (deliberately excludes the epoch, which
        is a cache-invalidation counter, not a statistic)."""
        return {
            "node_total": self.node_total,
            "entry_total": self.entry_total,
            "label_counts": {
                lid: c for lid, c in self._label_counts.items() if c != 0
            },
            "rels": {
                rid: {
                    "edges": rel.edges,
                    "entries": rel.entries,
                    "out_deg": dict(rel.out_deg),
                    "in_deg": dict(rel.in_deg),
                    "out_hist": list(rel.out_hist),
                    "in_hist": list(rel.in_hist),
                }
                for rid, rel in self._rels.items()
                if rel.edges or rel.entries
            },
        }

    def __repr__(self) -> str:
        return (
            f"<StatisticsStore epoch={self.epoch} nodes={self.node_total} "
            f"entries={self.entry_total}>"
        )
