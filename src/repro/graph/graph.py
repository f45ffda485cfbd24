"""The property graph: entities + labels + typed adjacency matrices.

Storage layout (paper §II):

* node/edge records live in DataBlocks; the node id doubles as the
  row/column index of every matrix,
* properties live beside them in typed columns, one per attribute
  (:class:`~repro.graph.properties.PropertyStore`): a filter or group-by
  gathers an array with one ``take``, a write sets one cell,
* one Boolean :class:`DeltaMatrix` per relationship type (``R[i,j]`` ⇔ an
  edge of that type from i to j), one per label (diagonal), and one
  combined adjacency ``ADJ`` for untyped traversals,
* matrices share a capacity that grows geometrically as nodes are created
  (``GrB_Matrix_resize``), so node creation never rebuilds CSR per node,
* a reader-writer lock arbitrates the query thread pool.

Multi-edges: several edges of one type may connect the same (src, dst)
pair; the matrix entry is shared.  Each type keeps its edge ids in two
:class:`~repro.graph.overlay.EdgeIdStore` overlays — the secondary
indexes' write discipline — keyed ``src << 32 | dst`` and ``dst << 32 | src``:
an equality seek finds the edges of a pair, a key-range seek a node's
out- or in-edges.  The keys do not depend on the matrix capacity.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConstraintViolation, EntityNotFound
from repro.graph.attributes import AttributeRegistry
from repro.graph.config import GraphConfig
from repro.graph.datablock import DataBlock
from repro.graph.delta_matrix import DeltaMatrix
from repro.graph.entities import Edge, Node
from repro.graph.index import CompositeIndex, RangeIndex, VectorIndex
from repro.graph.overlay import EdgeIdStore
from repro.graph.rwlock import RWLock
from repro.graph.schema import Schema
from repro.graph.statistics import StatisticsStore
from repro.grblas import Matrix

__all__ = ["Graph"]

_I64 = np.int64
_EMPTY = np.empty(0, dtype=_I64)
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1  # a key's low half: the second node


def pair_keys(first, second):
    """Edge-id store keys of node pairs: ``first << 32 | second``."""
    return first << _SHIFT | second


class _NodeRecord:
    __slots__ = ("labels",)

    def __init__(self, labels: Tuple[int, ...]) -> None:
        self.labels = labels


class _EdgeRecord:
    __slots__ = ("src", "dst", "rel_id")

    def __init__(self, src: int, dst: int, rel_id: int) -> None:
        self.src = src
        self.dst = dst
        self.rel_id = rel_id


class _Cells:
    """One entity's properties read cell by cell — the ``.get(aid)`` view
    the index write paths take, without building a dict of every column."""

    __slots__ = ("_store", "_slot")

    def __init__(self, block: DataBlock, slot: int) -> None:
        self._store = block.store
        self._slot = slot

    def get(self, aid: int) -> Any:
        return self._store.get(self._slot, aid)


class Graph:
    """A named property graph backed by GraphBLAS matrices."""

    def __init__(self, name: str = "g", config: Optional[GraphConfig] = None) -> None:
        self.name = name
        self.config = (config or GraphConfig()).validate()
        self.schema = Schema()
        self.attrs = AttributeRegistry()
        self.lock = RWLock()
        self._nodes: DataBlock[_NodeRecord] = DataBlock()
        self._edges: DataBlock[_EdgeRecord] = DataBlock()
        self._capacity = self.config.node_capacity
        self._adj = self._new_matrix()
        self._rel_matrices: List[DeltaMatrix] = []
        self._label_matrices: List[DeltaMatrix] = []
        self._edge_ids: List[Tuple[EdgeIdStore, EdgeIdStore]] = []  # per type: by src, by dst
        self._indices: Dict[Tuple[int, int], RangeIndex] = {}
        self._composite_indices: Dict[Tuple[int, Tuple[int, ...]], CompositeIndex] = {}
        self._vector_indices: Dict[Tuple[int, int], VectorIndex] = {}
        self._schema_epoch = 0  # index/config changes (labels/reltypes count via Schema.version)
        self.stats = StatisticsStore(self)  # cost-model input, derived from storage when read

    # ------------------------------------------------------------------
    # Schema versioning (plan-cache invalidation)
    # ------------------------------------------------------------------
    @property
    def schema_version(self) -> int:
        """Monotonic version of everything a compiled plan may depend on:
        the set of labels and relationship types, which indexes exist, and
        planner-relevant configuration.  The plan cache reuses a compiled
        query only while this value is unchanged; data writes (nodes,
        edges, properties) do NOT bump it."""
        return self.schema.version + self._schema_epoch

    def bump_schema_version(self) -> None:
        """Record an index/config change (invalidates cached plans)."""
        self._schema_epoch += 1

    # ------------------------------------------------------------------
    # Capacity / matrices
    # ------------------------------------------------------------------
    def _new_matrix(self) -> DeltaMatrix:
        return DeltaMatrix(self._capacity, max_pending=self.config.delta_max_pending)

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        new_cap = self._capacity
        while new_cap < needed:
            new_cap *= 2
        self._capacity = new_cap
        self._adj.resize(new_cap)
        for m in self._rel_matrices:
            m.resize(new_cap)
        for m in self._label_matrices:
            m.resize(new_cap)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def create_node(
        self,
        labels: Iterable[str] = (),
        properties: Optional[Dict[str, Any]] = None,
    ) -> Node:
        label_ids = tuple(self.schema.intern_label(l) for l in labels)
        props = {self.attrs.intern(k): v for k, v in (properties or {}).items()}
        node_id = self._nodes.alloc(_NodeRecord(label_ids))
        store = self._nodes.store
        for aid, value in props.items():
            store.set(node_id, aid, value)
        self._ensure_capacity(node_id + 1)
        for lid in label_ids:
            self._label_matrix_for(lid).add(node_id, node_id)
        for index in self._all_indexes():
            if index.label_id in label_ids:
                index.index_node(node_id, props)
        return Node(self, node_id)

    def delete_node(self, node_id: int, *, detach: bool = False) -> int:
        """Delete a node.  With ``detach`` incident edges go first
        (DETACH DELETE); otherwise a connected node raises.  Returns the
        number of edges deleted alongside the node."""
        record = self._nodes.get(node_id)
        outs = self._incident(node_id, 0)
        # a self-loop shows on both sides: it counts with the out-edges
        ins = [(keys[other], ids[other]) for keys, ids in self._incident(node_id, 1)
               for other in [keys & _LOW != node_id]]
        count = sum(len(ids) for _, ids in outs + ins)
        if count and not detach:
            raise ConstraintViolation(
                f"cannot delete node {node_id}: {count} incident edges (use DETACH DELETE)"
            )
        # every edge of every pair touching the node goes, so each pair's
        # relation-matrix and ADJ entries go without a sibling check
        adj_pairs = set()
        for rid, ((out_keys, out_ids), (in_keys, in_ids)) in enumerate(zip(outs, ins)):
            self._drop_edges(rid, out_ids.tolist() + in_ids.tolist())
            pairs = {(node_id, dst) for dst in (out_keys & _LOW).tolist()}
            pairs.update((src, node_id) for src in (in_keys & _LOW).tolist())
            matrix = self._rel_matrices[rid]
            for src, dst in pairs:
                matrix.delete(src, dst)
            adj_pairs |= pairs
        for src, dst in adj_pairs:
            self._adj.delete(src, dst)
        for lid in record.labels:
            self._label_matrices[lid].delete(node_id, node_id)
        for index in self._all_indexes():
            if index.label_id in record.labels:
                index.unindex_node(node_id, _Cells(self._nodes, node_id))
        self._nodes.free(node_id)
        return count

    def has_node(self, node_id: int) -> bool:
        return self._nodes.exists(node_id)

    def get_node(self, node_id: int) -> Node:
        self._nodes.get(node_id)  # raises EntityNotFound if absent
        return Node(self, node_id)

    def all_node_ids(self) -> np.ndarray:
        return np.fromiter(self._nodes.ids(), dtype=np.int64)

    def labels_of(self, node_id: int) -> Tuple[str, ...]:
        record = self._nodes.get(node_id)
        return tuple(self.schema.label_name(l) for l in record.labels)

    def has_label(self, node_id: int, label: str) -> bool:
        lid = self.schema.label_id(label)
        if lid is None:
            return False
        return lid in self._nodes.get(node_id).labels

    def node_properties(self, node_id: int) -> Dict[str, Any]:
        return self._properties(self._nodes, node_id)

    def node_property(self, node_id: int, key: str):
        return self._property(self._nodes, node_id, key)

    def _properties(self, block: DataBlock, eid: int) -> Dict[str, Any]:
        block.get(eid)  # raises EntityNotFound if absent
        return {self.attrs.name_of(a): v for a, v in block.store.items(eid)}

    def _property(self, block: DataBlock, eid: int, key: str):
        block.get(eid)
        return block.store.get(eid, self.attrs.lookup(key))

    # -- columnar gathers (the vectorized execution engine's view) ------
    @staticmethod
    def _ids_list(ids) -> list:
        return ids.tolist() if isinstance(ids, np.ndarray) else list(ids)

    def node_property_column(self, ids, key: str):
        """One property per node id as ``(values, nulls, codes)``: the
        attribute's typed column (``int64``/``float64``/``bool``, or
        Python objects) taken at ``ids``, its null mask (None when no cell
        is null), and for a string column the ``int32`` pool codes (else
        None).  ``-1`` ids (OPTIONAL MATCH holes) read as null; dead ids
        raise like per-id access."""
        return self._property_column(self._nodes, ids, key)

    def edge_property_column(self, ids, key: str):
        """Edge-side twin of :meth:`node_property_column`."""
        return self._property_column(self._edges, ids, key)

    def string_pool(self, kind: str, key: str) -> Optional[List[str]]:
        """The pool the codes of a ``"node"`` or ``"edge"`` string property
        index (None for any other column); see ``PropertyStore.pool``."""
        block = self._nodes if kind == "node" else self._edges
        return block.store.pool(self.attrs.lookup(key))

    def _property_column(self, block: DataBlock, ids, key: str):
        if not isinstance(ids, np.ndarray):
            ids = np.asarray(ids, dtype=np.int64)
        try:
            values, nulls, codes = block.store.gather(ids, self.attrs.lookup(key))
        except IndexError:  # an id past every buffer
            block.check_live(ids)
            raise
        if not np.count_nonzero(nulls):
            return values, None, codes  # a dead slot holds no cells: every id is live
        block.check_live(ids)  # only a null can hide a dead id
        return values, nulls, codes

    def entity_columns(self, ids: np.ndarray, *, edges: bool = False):
        """The records at node (or edge) ``ids`` and, sorted by name, each
        property they hold as ``(name, values, nulls, codes)``.  Dead ids raise."""
        block = self._edges if edges else self._nodes
        columns = [(self.attrs.name_of(aid), *block.store.gather(ids, aid)) for aid in range(len(self.attrs))]
        return block.gather(ids.tolist()), sorted((c for c in columns if not c[2].all()), key=lambda c: c[0])

    def nodes_have_labels(self, ids, labels: Sequence[str]) -> np.ndarray:
        """Boolean column: which of ``ids`` carry *all* of ``labels``
        (null/-1 ids are False) — the batched form of :meth:`has_label`."""
        records = self._nodes.gather(self._ids_list(ids))
        out = np.zeros(len(records), dtype=np.bool_)
        lids = [self.schema.label_id(l) for l in labels]
        if any(lid is None for lid in lids):
            return out
        if len(lids) == 1:
            lid = lids[0]
            for i, rec in enumerate(records):
                if rec is not None and lid in rec.labels:
                    out[i] = True
            return out
        wanted = set(lids)
        for i, rec in enumerate(records):
            if rec is not None and wanted.issubset(rec.labels):
                out[i] = True
        return out

    def node_labels_column(self, ids) -> np.ndarray:
        """Label-name tuples per node id (None for -1 holes), bulk form of
        :meth:`labels_of` with the name lookups interned once."""
        records = self._nodes.gather(self._ids_list(ids))
        out = np.empty(len(records), dtype=object)
        names: Dict[Tuple[int, ...], Tuple[str, ...]] = {}
        for i, rec in enumerate(records):
            if rec is None:
                continue
            cached = names.get(rec.labels)
            if cached is None:
                cached = tuple(self.schema.label_name(l) for l in rec.labels)
                names[rec.labels] = cached
            out[i] = cached
        return out

    def set_node_property(self, node_id: int, key: str, value) -> None:
        record = self._nodes.get(node_id)
        aid = self.attrs.intern(key)
        affected = [
            index
            for index in self._all_indexes()
            if aid in index.attr_ids and index.label_id in record.labels
        ]
        cells = _Cells(self._nodes, node_id) if affected else None
        for index in affected:
            index.unindex_node(node_id, cells)
        self._nodes.store.set(node_id, aid, value)
        for index in affected:
            index.index_node(node_id, cells)

    def add_label(self, node_id: int, label: str) -> None:
        record = self._nodes.get(node_id)
        lid = self.schema.intern_label(label)
        if lid in record.labels:
            return
        record.labels = record.labels + (lid,)
        self._label_matrix_for(lid).add(node_id, node_id)
        for index in self._all_indexes():
            if index.label_id == lid:
                index.index_node(node_id, _Cells(self._nodes, node_id))

    def remove_label(self, node_id: int, label: str) -> bool:
        record = self._nodes.get(node_id)
        lid = self.schema.label_id(label)
        if lid is None or lid not in record.labels:
            return False
        record.labels = tuple(l for l in record.labels if l != lid)
        self._label_matrices[lid].delete(node_id, node_id)
        for index in self._all_indexes():
            if index.label_id == lid:
                index.unindex_node(node_id, _Cells(self._nodes, node_id))
        return True

    def nodes_with_label(self, label: str) -> np.ndarray:
        lid = self.schema.label_id(label)
        if lid is None or lid >= len(self._label_matrices):
            return np.empty(0, dtype=np.int64)
        view = self._label_matrices[lid].overlay()
        return np.flatnonzero(view.row_degree()).astype(np.int64)

    # ------------------------------------------------------------------
    # Edge lifecycle
    # ------------------------------------------------------------------
    def create_edge(
        self,
        src: int,
        reltype: str,
        dst: int,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Edge:
        if not self._nodes.exists(src):
            raise EntityNotFound(f"source node {src} does not exist")
        if not self._nodes.exists(dst):
            raise EntityNotFound(f"destination node {dst} does not exist")
        rid = self.schema.intern_reltype(reltype)
        edge_id = self._edges.alloc(_EdgeRecord(src, dst, rid))
        store = self._edges.store
        for key, value in (properties or {}).items():
            store.set(edge_id, self.attrs.intern(key), value)
        self._rel_matrix_for(rid).add(src, dst)
        self._adj.add(src, dst)
        by_src, by_dst = self._edge_ids_for(rid)
        by_src.add(edge_id, pair_keys(src, dst))
        by_dst.add(edge_id, pair_keys(dst, src))
        return Edge(self, edge_id)

    def delete_edge(self, edge_id: int) -> None:
        record = self._edges.get(edge_id)
        rid, src, dst = record.rel_id, record.src, record.dst
        hits, _ = self._edge_ids[rid][0].seek_keys(np.array([pair_keys(src, dst)]))
        self._drop_edges(rid, [edge_id])
        last = len(hits) == 1  # no sibling of the same type and pair is left
        if last:
            self._rel_matrices[rid].delete(src, dst)
            # the combined adjacency entry drops only when *no* relation
            # type still connects the pair
            if not any(m.has(src, dst) for m in self._rel_matrices):
                self._adj.delete(src, dst)

    def _drop_edges(self, rid: int, eids: List[int]) -> None:
        """Free the records of live edges of one type and drop their ids."""
        for eid in eids:
            self._edges.free(eid)
        by_src, by_dst = self._edge_ids[rid]
        by_src.drop_many(eids)
        by_dst.drop_many(eids)

    def has_edge(self, edge_id: int) -> bool:
        return self._edges.exists(edge_id)

    def get_edge(self, edge_id: int) -> Edge:
        self._edges.get(edge_id)
        return Edge(self, edge_id)

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        record = self._edges.get(edge_id)
        return record.src, record.dst

    def edge_type(self, edge_id: int) -> str:
        return self.schema.reltype_name(self._edges.get(edge_id).rel_id)

    def edge_properties(self, edge_id: int) -> Dict[str, Any]:
        return self._properties(self._edges, edge_id)

    def edge_property(self, edge_id: int, key: str):
        return self._property(self._edges, edge_id, key)

    def set_edge_property(self, edge_id: int, key: str, value) -> None:
        self._edges.get(edge_id)
        self._edges.store.set(edge_id, self.attrs.intern(key), value)

    def hop_edges(
        self, src: Sequence[int], dst: Sequence[int], types: Sequence[str] = (), direction: str = "out"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every edge realizing each hop ``src[i] → dst[i]``, as ``(hop
        index, edge id)`` arrays.  ``types`` restricts the edges (empty:
        every type); ``direction`` "in" reads each hop as ``dst[i] →
        src[i]`` and "any" both ways, a self-loop once.  Rows come by hop,
        then ``types`` order, then out before in, then ascending id."""
        src, dst = np.asarray(src, dtype=_I64), np.asarray(dst, dtype=_I64)
        rids = [self.schema.reltype_id(t) for t in types] if types else range(self.schema.reltype_count)
        every = np.arange(len(src))
        probes = []  # (keys, the hops they probe)
        if direction != "in":
            probes.append((pair_keys(src, dst), every))
        if direction != "out":
            hops = every[src != dst] if direction == "any" else every
            probes.append((pair_keys(dst[hops], src[hops]), hops))
        parts = []
        for pos, rid in enumerate(rids):
            if rid is None or rid >= len(self._edge_ids):
                continue
            by_src = self._edge_ids[rid][0]
            for way, (keys, hops) in enumerate(probes):
                q, eids = by_src.seek_keys(keys)
                parts.append((hops[q], eids, np.full(len(q), 2 * pos + way)))
        if not parts:
            return _EMPTY, _EMPTY
        hop, eids, rank = (np.concatenate(p) for p in zip(*parts))
        order = np.lexsort((eids, rank, hop))
        return hop[order], eids[order]

    def lowest_hop_edges(
        self, src: Sequence[int], dst: Sequence[int], types: Sequence[str] = (), direction: str = "out"
    ) -> np.ndarray:
        """The lowest edge id realizing each hop ``src[i] → dst[i]`` (see
        :meth:`hop_edges`) — the edge a reconstructed path reports.  Every
        hop must have one, as a path found over the matrices guarantees."""
        hops, eids = self.hop_edges(src, dst, types, direction)
        # the rows of one hop are adjacent
        return np.minimum.reduceat(eids, np.flatnonzero(np.diff(hops, prepend=-1)))

    def edges_between(self, src: int, dst: int, reltype: Optional[str] = None) -> List[int]:
        """Edge ids connecting src → dst (optionally restricted by type)."""
        types = () if reltype is None else (reltype,)
        return self.hop_edges([src], [dst], types)[1].tolist()

    def _incident(self, node_id: int, side: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per type, ``(key, edge id)`` of the node's out- (side 0) or
        in-edges (side 1); a key's low half is the other endpoint."""
        lo = pair_keys(node_id, 0)
        return [store[side].seek_span(lo, lo + _LOW + 1) for store in self._edge_ids]

    def out_edges(self, node_id: int) -> List[int]:
        return sorted(e for _, ids in self._incident(node_id, 0) for e in ids.tolist())

    def in_edges(self, node_id: int) -> List[int]:
        return sorted(e for _, ids in self._incident(node_id, 1) for e in ids.tolist())

    def _edge_ids_for(self, rid: int) -> Tuple[EdgeIdStore, EdgeIdStore]:
        while rid >= len(self._edge_ids):
            self._edge_ids.append((EdgeIdStore(_EMPTY), EdgeIdStore(_EMPTY)))
        return self._edge_ids[rid]

    def bulk_edge_ids(self, rid: int, eids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """Fold many new edges of one type into its edge-id stores, one
        sort each — the bulk-ingest and snapshot-load path."""
        by_src, by_dst = self._edge_ids_for(rid)
        by_src.fold(eids, (pair_keys(src, dst),))
        by_dst.fold(eids, (pair_keys(dst, src),))

    # ------------------------------------------------------------------
    # Matrix access (the traversal engine's view)
    # ------------------------------------------------------------------
    def _rel_matrix_for(self, rid: int) -> DeltaMatrix:
        while rid >= len(self._rel_matrices):
            self._rel_matrices.append(self._new_matrix())
        return self._rel_matrices[rid]

    def _label_matrix_for(self, lid: int) -> DeltaMatrix:
        while lid >= len(self._label_matrices):
            self._label_matrices.append(self._new_matrix())
        return self._label_matrices[lid]

    def relation_matrix(self, reltype: Optional[str] = None, *, transposed: bool = False):
        """The Boolean adjacency of one relationship type (or of every type
        combined when ``reltype`` is None).

        Returns a flush-free :class:`~repro.graph.delta_matrix.DeltaMatrixView`
        overlay (Matrix-like), so read queries never rewrite CSR state —
        pending deltas are merged per touched row at evaluation time."""
        if reltype is None:
            dm = self._adj
        else:
            rid = self.schema.reltype_id(reltype)
            if rid is None:
                return Matrix(self._capacity, self._capacity, "BOOL")
            dm = self._rel_matrix_for(rid)
        return dm.transposed() if transposed else dm.overlay()

    def label_matrix(self, label: str):
        """The diagonal label matrix as a flush-free overlay view."""
        lid = self.schema.label_id(label)
        if lid is None:
            return Matrix(self._capacity, self._capacity, "BOOL")
        return self._label_matrix_for(lid).overlay()

    def flush_all(self) -> None:
        """Force-sync every delta matrix (bulk load epilogue)."""
        self._adj.flush()
        for m in self._rel_matrices:
            m.flush()
        for m in self._label_matrices:
            m.flush()

    # ------------------------------------------------------------------
    # Indices
    # ------------------------------------------------------------------
    def _all_indexes(self):
        """Every secondary index of every kind (write-side maintenance)."""
        yield from self._indices.values()
        yield from self._composite_indices.values()
        yield from self._vector_indices.values()

    def backfill(self, index, ids: np.ndarray) -> int:
        """Insert the live nodes ``ids`` into ``index`` from the property
        columns — the bulk path shared by CREATE INDEX, GRAPH.BULK and
        snapshot load.  Returns how many were indexable."""
        store = self._nodes.store
        columns = [store.objects(ids, aid) for aid in index.attr_ids]
        return index.bulk_insert(columns if index.kind == "composite" else columns[0], ids.tolist())

    def create_index(self, label: str, attribute: str) -> RangeIndex:
        lid = self.schema.intern_label(label)
        aid = self.attrs.intern(attribute)
        key = (lid, aid)
        if key in self._indices:
            raise ConstraintViolation(f"index on :{label}({attribute}) already exists")
        index = RangeIndex(lid, aid)
        self.backfill(index, self.nodes_with_label(label))
        self._indices[key] = index
        self.bump_schema_version()
        return index

    def create_composite_index(self, label: str, attributes: Sequence[str]) -> CompositeIndex:
        lid = self.schema.intern_label(label)
        aids = tuple(self.attrs.intern(a) for a in attributes)
        key = (lid, aids)
        if len(set(aids)) != len(aids):
            raise ConstraintViolation(
                f"composite index on :{label} repeats an attribute: {tuple(attributes)}"
            )
        if key in self._composite_indices:
            raise ConstraintViolation(
                f"index on :{label}({', '.join(attributes)}) already exists"
            )
        index = CompositeIndex(lid, aids)
        self.backfill(index, self.nodes_with_label(label))
        self._composite_indices[key] = index
        self.bump_schema_version()
        return index

    def create_vector_index(
        self, label: str, attribute: str, options: Optional[Dict[str, Any]] = None
    ) -> VectorIndex:
        lid = self.schema.intern_label(label)
        aid = self.attrs.intern(attribute)
        key = (lid, aid)
        if key in self._vector_indices:
            raise ConstraintViolation(f"vector index on :{label}({attribute}) already exists")
        opts = dict(options or {})
        dim = opts.pop("dimension", opts.pop("dim", None))
        similarity = opts.pop("similarity", "cosine")
        nlist = opts.pop("nlist", None)
        nprobe = opts.pop("nprobe", None)
        exact = opts.pop("exact", False)
        if opts:
            raise ConstraintViolation(f"unknown vector index options: {sorted(opts)}")
        if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int) or dim < 1):
            raise ConstraintViolation("vector index dimension must be a positive integer")
        for name, value in (("nlist", nlist), ("nprobe", nprobe)):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise ConstraintViolation(f"vector index {name} must be a positive integer")
        if not isinstance(exact, bool):
            raise ConstraintViolation("vector index exact must be a boolean")
        try:
            index = VectorIndex(
                lid,
                aid,
                dim=dim,
                similarity=similarity,
                nlist=nlist,
                nprobe=nprobe,
                exact=exact,
            )
        except ValueError as exc:
            raise ConstraintViolation(str(exc)) from None
        self.backfill(index, self.nodes_with_label(label))
        self._vector_indices[key] = index
        self.bump_schema_version()
        return index

    def drop_index(self, label: str, attribute: str) -> bool:
        lid = self.schema.label_id(label)
        aid = self.attrs.lookup(attribute)
        if lid is None or aid is None:
            return False
        removed = self._indices.pop((lid, aid), None) is not None
        if removed:
            self.bump_schema_version()
        return removed

    def drop_composite_index(self, label: str, attributes: Sequence[str]) -> bool:
        lid = self.schema.label_id(label)
        aids = tuple(self.attrs.lookup(a) for a in attributes)
        if lid is None or any(a is None for a in aids):
            return False
        removed = self._composite_indices.pop((lid, aids), None) is not None
        if removed:
            self.bump_schema_version()
        return removed

    def drop_vector_index(self, label: str, attribute: str) -> bool:
        lid = self.schema.label_id(label)
        aid = self.attrs.lookup(attribute)
        if lid is None or aid is None:
            return False
        removed = self._vector_indices.pop((lid, aid), None) is not None
        if removed:
            self.bump_schema_version()
        return removed

    def index_specs(self) -> List[Tuple[str, str]]:
        """Every range index as (label name, attribute name) — the
        planner's :class:`~repro.execplan.compiled.PlanSchema` raw input.
        Called without the graph lock; the list() copy keeps a concurrent
        CREATE INDEX from failing this iteration mid-flight."""
        return [
            (self.schema.label_name(lid), self.attrs.name_of(aid))
            for lid, aid in list(self._indices)
        ]

    def composite_index_specs(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """Every composite index as (label name, attribute-name tuple)."""
        return [
            (self.schema.label_name(lid), tuple(self.attrs.name_of(a) for a in aids))
            for lid, aids in list(self._composite_indices)
        ]

    def get_index(self, label: str, attribute: str) -> Optional[RangeIndex]:
        lid = self.schema.label_id(label)
        aid = self.attrs.lookup(attribute)
        if lid is None or aid is None:
            return None
        return self._indices.get((lid, aid))

    def get_composite_index(
        self, label: str, attributes: Sequence[str]
    ) -> Optional[CompositeIndex]:
        lid = self.schema.label_id(label)
        aids = tuple(self.attrs.lookup(a) for a in attributes)
        if lid is None or any(a is None for a in aids):
            return None
        return self._composite_indices.get((lid, aids))

    def get_vector_index(self, label: str, attribute: str) -> Optional[VectorIndex]:
        lid = self.schema.label_id(label)
        aid = self.attrs.lookup(attribute)
        if lid is None or aid is None:
            return None
        return self._vector_indices.get((lid, aid))

    def index_catalog(self) -> List[Dict[str, Any]]:
        """Every index of every kind, described for ``db.indexes``."""
        out: List[Dict[str, Any]] = []
        for index in self._all_indexes():
            out.append(
                {
                    "label": self.schema.label_name(index.label_id),
                    "properties": tuple(self.attrs.name_of(a) for a in index.attr_ids),
                    "kind": index.kind,
                    "size": len(index),
                    "ndv": index.ndv(),
                    # vector indexes expose creation options plus live
                    # training state (nlist/nprobe/trained/retrains)
                    "options": index.describe_options()
                    if index.kind == "vector"
                    else None,
                }
            )
        return out

    def __repr__(self) -> str:
        return (
            f"<Graph {self.name!r} nodes={self.node_count} edges={self.edge_count} "
            f"labels={self.schema.label_count} reltypes={self.schema.reltype_count}>"
        )
