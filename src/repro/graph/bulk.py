"""Columnar bulk ingestion — the write path behind ``GRAPH.BULK``.

RedisGraph ships a dedicated bulk loader because the paper's headline
numbers depend on loading million-edge graphs fast, and per-entity
``CREATE`` pays query overhead plus one matrix delta per edge.  The
:class:`BulkWriter` is that loader's engine half: callers stage columnar
batches (counts, label sets, relationship types, and whole attribute
*columns*), then :meth:`BulkWriter.commit` applies everything in one
atomic pass under the graph's write lock:

* node/edge records land through vectorized ``DataBlock.alloc_many``
  and every staged attribute column lands as one array write into the
  block's typed property store,
* label/relationship/adjacency matrices grow through one
  ``DeltaMatrix.union_splice`` sorted-key merge per matrix instead of a
  pending op per entry,
* bookkeeping matches the per-entity path exactly — new labels and
  relationship types bump the schema version (invalidating cached
  plans), existing exact-match indexes are backfilled from the staged
  attribute columns, and ``_edge_map``/adjacency-set maintenance keeps
  bulk-created edges deletable and traversable like any other.

Edge endpoints come in two flavors: ``endpoints="batch"`` (the default
for ingestion) interprets src/dst as 0-based indices into the nodes
staged by *this* writer, in staging order; ``endpoints="graph"`` means
pre-existing node ids.  Every staged edge gets a record, so every
relation-matrix entry owns at least one edge id.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EntityNotFound, GraphError
from repro.graph.graph import Graph, _EdgeRecord, _NodeRecord

__all__ = ["BulkWriter", "BulkReport"]

_I64 = np.int64


class BulkReport:
    """What one :meth:`BulkWriter.commit` did (the GRAPH.BULK statistics)."""

    __slots__ = (
        "nodes_created",
        "relationships_created",
        "properties_set",
        "labels_added",
        "reltypes_added",
        "indexed_nodes",
        "matrix_entries_added",
        "node_ids",
        "execution_time_ms",
    )

    def __init__(self) -> None:
        self.nodes_created = 0
        self.relationships_created = 0
        self.properties_set = 0
        self.labels_added = 0
        self.reltypes_added = 0
        self.indexed_nodes = 0
        self.matrix_entries_added = 0
        self.node_ids: np.ndarray = np.empty(0, dtype=_I64)
        self.execution_time_ms = 0.0

    def summary(self) -> List[str]:
        """Statistics lines, GRAPH.QUERY-reply style."""
        return [
            f"Nodes created: {self.nodes_created}",
            f"Relationships created: {self.relationships_created}",
            f"Properties set: {self.properties_set}",
            f"Labels added: {self.labels_added}",
            f"Relationship types added: {self.reltypes_added}",
            f"Internal execution time: {self.execution_time_ms:.6f} milliseconds",
        ]

    def __repr__(self) -> str:
        return (
            f"<BulkReport nodes={self.nodes_created} edges={self.relationships_created} "
            f"props={self.properties_set}>"
        )


class _NodeBatch:
    __slots__ = ("labels", "count", "props", "start")

    def __init__(self, labels: Tuple[str, ...], count: int, props: Dict[str, list], start: int) -> None:
        self.labels = labels
        self.count = count
        self.props = props
        self.start = start


class _EdgeBatch:
    __slots__ = ("reltype", "src", "dst", "props", "endpoints")

    def __init__(
        self, reltype: str, src: np.ndarray, dst: np.ndarray, props: Dict[str, list], endpoints: str
    ) -> None:
        self.reltype = reltype
        self.src = src
        self.dst = dst
        self.props = props
        self.endpoints = endpoints


def _as_id_array(seq: Sequence[int], what: str) -> np.ndarray:
    """Endpoint sequence → int64 array, rejecting anything non-integral
    (a JSON chunk can carry 1.9 — int64 casting would silently truncate
    it onto the wrong node)."""
    arr = np.asarray(seq)
    if arr.dtype.kind in "iu":
        return arr.astype(_I64, copy=False)
    if arr.dtype.kind == "f":
        cast = arr.astype(_I64)
        if np.array_equal(cast, arr):  # integral floats only (NaN fails this)
            return cast
    raise GraphError(f"bulk edges: {what} endpoints must be integers")


def _install(block, graph: Graph, ids: np.ndarray, props: Dict[str, list]) -> int:
    """Write each staged column into the block's property store at
    ``ids`` (one array per column); returns the properties set."""
    count = 0
    for name, column in props.items():
        values = np.fromiter(column, dtype=object, count=len(column))
        block.store.install(graph.attrs.intern(name), ids, values)
        count += len(column) - column.count(None)
    return count


def _as_columns(properties: Optional[Mapping[str, Sequence[Any]]], count: Optional[int], what: str):
    """Normalize a {name: column} mapping; every column must share one length."""
    if count is not None:
        # reject non-integral counts at staging (a JSON chunk can carry
        # 2.0), not at COMMIT where the whole session would be lost
        try:
            count = operator.index(count)
        except TypeError:
            if isinstance(count, float) and count.is_integer():
                count = int(count)
            else:
                raise GraphError(f"bulk {what}: count must be an integer, got {count!r}") from None
    props: Dict[str, list] = {}
    for name, column in (properties or {}).items():
        col = list(column)
        if count is None:
            count = len(col)
        elif len(col) != count:
            raise GraphError(
                f"bulk {what}: property column {name!r} has {len(col)} values, expected {count}"
            )
        props[str(name)] = col
    if count is None:
        raise GraphError(f"bulk {what}: need an explicit count or at least one property column")
    if count < 0:
        raise GraphError(f"bulk {what}: negative count")
    return props, count


class BulkWriter:
    """Stages columnar node/edge batches and commits them atomically.

    Single-use: after :meth:`commit` or :meth:`abort` the writer refuses
    further staging.  Staging performs shape validation only; graph
    state is untouched until commit, which takes the graph's write lock
    (pass ``lock=False`` when the caller already coordinates locking).
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._node_batches: List[_NodeBatch] = []
        self._edge_batches: List[_EdgeBatch] = []
        self._node_total = 0
        self._edge_total = 0
        self._state = "open"

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    @property
    def staged_nodes(self) -> int:
        return self._node_total

    @property
    def staged_edges(self) -> int:
        return self._edge_total

    def _check_open(self) -> None:
        if self._state != "open":
            raise GraphError(f"bulk writer already {self._state}")

    def add_nodes(
        self,
        count: Optional[int] = None,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> np.ndarray:
        """Stage a batch of nodes sharing one label set.

        ``properties`` maps attribute name → column of per-node values
        (``None`` entries mean "absent on this node"); ``count`` may be
        omitted when at least one column fixes the batch size.  Returns
        the batch-local indices (the handles ``endpoints="batch"`` edges
        use), valid across every batch staged by this writer."""
        self._check_open()
        if isinstance(labels, str):  # a lone label, not an iterable of chars
            labels = (labels,)
        label_tuple = tuple(dict.fromkeys(str(l) for l in labels))
        props, count = _as_columns(properties, count, "nodes")
        start = self._node_total
        self._node_batches.append(_NodeBatch(label_tuple, count, props, start))
        self._node_total += count
        return np.arange(start, start + count, dtype=_I64)

    def add_edges(
        self,
        reltype: str,
        src: Sequence[int],
        dst: Sequence[int],
        *,
        properties: Optional[Mapping[str, Sequence[Any]]] = None,
        endpoints: str = "batch",
    ) -> int:
        """Stage a batch of same-type edges.

        ``endpoints="batch"`` reads src/dst as indices into this writer's
        staged nodes; ``"graph"`` as existing node ids.  Returns the staged
        edge count so far."""
        self._check_open()
        if endpoints not in ("batch", "graph"):
            raise GraphError(f"bulk edges: endpoints must be 'batch' or 'graph', got {endpoints!r}")
        src_arr = _as_id_array(src, "src")
        dst_arr = _as_id_array(dst, "dst")
        if src_arr.ndim != 1 or dst_arr.ndim != 1 or len(src_arr) != len(dst_arr):
            raise GraphError("bulk edges: src/dst must be equal-length 1-D sequences")
        props, _ = _as_columns(properties, len(src_arr), "edges")
        self._edge_batches.append(_EdgeBatch(str(reltype), src_arr, dst_arr, props, endpoints))
        self._edge_total += len(src_arr)
        return self._edge_total

    def abort(self) -> None:
        """Discard everything staged; the writer becomes unusable."""
        self._check_open()
        self._node_batches.clear()
        self._edge_batches.clear()
        self._state = "aborted"

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def staged_payload(self) -> Dict[str, list]:
        """The staged batches as a JSON-able columnar document — what the
        durability layer logs for a bulk commit, and what
        :meth:`~repro.api.GraphDB.bulk_insert` accepts back on replay."""
        nodes = [
            {"labels": list(nb.labels), "count": nb.count, "properties": nb.props}
            for nb in self._node_batches
        ]
        edges = [
            {
                "type": eb.reltype,
                "src": eb.src.tolist(),
                "dst": eb.dst.tolist(),
                "properties": eb.props,
                "endpoints": eb.endpoints,
            }
            for eb in self._edge_batches
        ]
        return {"nodes": nodes, "edges": edges}

    def commit(self, *, lock: bool = True, on_commit: Optional[Callable[[], None]] = None) -> BulkReport:
        """Apply every staged batch in one atomic pass.

        Validation runs before any mutation, so the expected failure
        modes (bad endpoints, unknown batch indices) leave the graph
        untouched.  With ``lock=True`` (default) the whole application
        happens under the graph's write lock — readers observe either
        none or all of the bulk load.  ``on_commit`` runs after a
        successful apply while the write lock is still held (the
        durability layer's log hook, mirroring
        :meth:`repro.execplan.executor.QueryEngine.execute`)."""
        self._check_open()
        started = time.perf_counter()
        graph = self.graph
        if lock:
            with graph.lock.write():
                report = self._apply(graph)
                if on_commit is not None:
                    on_commit()
        else:
            report = self._apply(graph)
            if on_commit is not None:
                on_commit()
        self._state = "committed"
        report.execution_time_ms = (time.perf_counter() - started) * 1e3
        return report

    def _validate(self, graph: Graph) -> None:
        """Endpoint checks, pre-mutation.  Batch indices must name staged
        nodes; graph ids must name live nodes."""
        alive: Optional[np.ndarray] = None
        for eb in self._edge_batches:
            if not len(eb.src):
                continue
            lo = min(int(eb.src.min()), int(eb.dst.min()))
            hi = max(int(eb.src.max()), int(eb.dst.max()))
            if eb.endpoints == "batch":
                if lo < 0 or hi >= self._node_total:
                    raise EntityNotFound(
                        f"bulk edges[{eb.reltype}]: endpoint index {lo if lo < 0 else hi} "
                        f"outside the {self._node_total} staged nodes"
                    )
            else:
                if lo < 0 or hi >= graph._nodes.capacity:
                    raise EntityNotFound(
                        f"bulk edges[{eb.reltype}]: endpoint node id {lo if lo < 0 else hi} out of range"
                    )
                if alive is None:
                    alive = graph._nodes.alive_mask()
                for arr in (eb.src, eb.dst):
                    dead = arr[~alive[arr]]
                    if len(dead):
                        raise EntityNotFound(
                            f"bulk edges[{eb.reltype}]: node {int(dead[0])} does not exist"
                        )

    def _apply(self, graph: Graph) -> BulkReport:
        self._validate(graph)
        report = BulkReport()
        labels_before = graph.schema.label_count
        reltypes_before = graph.schema.reltype_count

        # -- nodes: records, capacity, label-matrix splices -------------
        node_ids = np.empty(self._node_total, dtype=_I64)
        by_label: Dict[int, List[np.ndarray]] = {}
        for nb in self._node_batches:
            label_ids = tuple(graph.schema.intern_label(l) for l in nb.labels)
            ids = graph._nodes.alloc_many([_NodeRecord(label_ids) for _ in range(nb.count)])
            report.properties_set += _install(graph._nodes, graph, ids, nb.props)
            node_ids[nb.start : nb.start + nb.count] = ids
            graph.stats.nodes_created_bulk(label_ids, nb.count)
            for lid in label_ids:
                by_label.setdefault(lid, []).append(ids)
        report.nodes_created = self._node_total
        report.node_ids = node_ids
        graph._ensure_capacity(graph._nodes.capacity)
        for lid, chunks in by_label.items():
            ids = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            graph._label_matrix_for(lid).union_splice(ids, ids)

        # -- edges: records, maps, relation/adjacency splices -----------
        by_rel: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for eb in self._edge_batches:
            rid = graph.schema.intern_reltype(eb.reltype)
            if eb.endpoints == "batch":
                src, dst = node_ids[eb.src], node_ids[eb.dst]
            else:
                src, dst = eb.src, eb.dst
            by_rel.setdefault(rid, []).append((src, dst))
            src_list, dst_list = src.tolist(), dst.tolist()
            records = [_EdgeRecord(s, d, rid) for s, d in zip(src_list, dst_list)]
            edge_id_arr = graph._edges.alloc_many(records)
            report.properties_set += _install(graph._edges, graph, edge_id_arr, eb.props)
            edge_ids = edge_id_arr.tolist()
            report.relationships_created += len(records)
            graph.stats.edge_records_created_bulk(rid, len(records))
            edge_map, node_out, node_in = graph._edge_map, graph._node_out, graph._node_in
            for eid, s, d in zip(edge_ids, src_list, dst_list):
                edge_map.setdefault((s, d, rid), []).append(eid)
                node_out.setdefault(s, set()).add(eid)
                node_in.setdefault(d, set()).add(eid)
        all_src: List[np.ndarray] = []
        all_dst: List[np.ndarray] = []
        for rid, pairs in by_rel.items():
            src = np.concatenate([p[0] for p in pairs]) if len(pairs) > 1 else pairs[0][0]
            dst = np.concatenate([p[1] for p in pairs]) if len(pairs) > 1 else pairs[0][1]
            report.matrix_entries_added += graph._rel_matrix_for(rid).union_splice(src, dst)
            all_src.append(src)
            all_dst.append(dst)
        if all_src:
            graph._adj.union_splice(np.concatenate(all_src), np.concatenate(all_dst))
        for rid in by_rel:
            # one vectorized pass per touched type beats a stats op per edge
            graph.stats.rebuild_rel(rid)

        # -- index backfill: one bulk insert per index from the property
        # columns (a vector index trains once over the whole ingest) -----
        for index in graph._all_indexes():
            label_name = graph.schema.label_name(index.label_id)
            chunks = [
                node_ids[nb.start : nb.start + nb.count]
                for nb in self._node_batches
                if label_name in nb.labels
            ]
            if chunks:
                report.indexed_nodes += graph.backfill(index, np.concatenate(chunks))

        report.labels_added = graph.schema.label_count - labels_before
        report.reltypes_added = graph.schema.reltype_count - reltypes_before
        return report
