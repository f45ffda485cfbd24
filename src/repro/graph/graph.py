"""The property graph: entities + labels + typed adjacency matrices.

Storage layout (paper §II):

* node/edge records live in DataBlocks; the node id doubles as the
  row/column index of every matrix,
* one Boolean :class:`DeltaMatrix` per relationship type (``R[i,j]`` ⇔ an
  edge of that type from i to j), one per label (diagonal), and one
  combined adjacency ``ADJ`` for untyped traversals,
* matrices share a capacity that grows geometrically as nodes are created
  (``GrB_Matrix_resize``), so node creation never rebuilds CSR per node,
* a reader-writer lock arbitrates the query thread pool.

Multi-edges: several edges of one type may connect the same (src, dst)
pair; the matrix entry is shared and ``_edge_map`` tracks the edge ids.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConstraintViolation, EntityNotFound
from repro.graph.attributes import AttributeRegistry
from repro.graph.config import GraphConfig
from repro.graph.datablock import DataBlock
from repro.graph.delta_matrix import DeltaMatrix
from repro.graph.entities import Edge, Node
from repro.graph.index import CompositeIndex, RangeIndex, VectorIndex
from repro.graph.rwlock import RWLock
from repro.graph.schema import Schema
from repro.graph.statistics import StatisticsStore
from repro.grblas import Matrix

__all__ = ["Graph"]


class _NodeRecord:
    __slots__ = ("labels", "props")

    def __init__(self, labels: Tuple[int, ...], props: Dict[int, Any]) -> None:
        self.labels = labels
        self.props = props


class _EdgeRecord:
    __slots__ = ("src", "dst", "rel_id", "props")

    def __init__(self, src: int, dst: int, rel_id: int, props: Dict[int, Any]) -> None:
        self.src = src
        self.dst = dst
        self.rel_id = rel_id
        self.props = props


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
        self._edge_map: Dict[Tuple[int, int, int], List[int]] = {}
        self._node_out: Dict[int, Set[int]] = {}
        self._node_in: Dict[int, Set[int]] = {}
        self._indices: Dict[Tuple[int, int], RangeIndex] = {}
        self._composite_indices: Dict[Tuple[int, Tuple[int, ...]], CompositeIndex] = {}
        self._vector_indices: Dict[Tuple[int, int], VectorIndex] = {}
        self._schema_epoch = 0  # index/config changes (labels/reltypes count via Schema.version)
        self.stats = StatisticsStore(self)  # cost-model input, write-side maintained

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
        record = _NodeRecord(label_ids, props)
        node_id = self._nodes.alloc(record)
        self._ensure_capacity(node_id + 1)
        for lid in label_ids:
            self._label_matrix_for(lid).add(node_id, node_id)
        for index in self._all_indexes():
            if index.label_id in label_ids:
                index.index_node(node_id, props)
        self.stats.node_created(label_ids)
        return Node(self, node_id)

    def delete_node(self, node_id: int, *, detach: bool = False) -> int:
        """Delete a node.  With ``detach`` incident edges go first
        (DETACH DELETE); otherwise a connected node raises.  Returns the
        number of edges deleted alongside the node."""
        record = self._nodes.get(node_id)
        incident = self._node_out.get(node_id, set()) | self._node_in.get(node_id, set())
        if incident and not detach:
            raise ConstraintViolation(
                f"cannot delete node {node_id}: {len(incident)} incident edges (use DETACH DELETE)"
            )
        for eid in list(incident):
            self.delete_edge(eid)
        for lid in record.labels:
            self._label_matrices[lid].delete(node_id, node_id)
        for index in self._all_indexes():
            if index.label_id in record.labels:
                index.unindex_node(node_id, record.props)
        self._nodes.free(node_id)
        self._node_out.pop(node_id, None)
        self._node_in.pop(node_id, None)
        self.stats.node_deleted(record.labels)
        return len(incident)

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
        record = self._nodes.get(node_id)
        return {self.attrs.name_of(a): v for a, v in record.props.items()}

    def node_property(self, node_id: int, key: str):
        aid = self.attrs.lookup(key)
        if aid is None:
            return None
        return self._nodes.get(node_id).props.get(aid)

    # -- columnar gathers (the vectorized execution engine's view) ------
    @staticmethod
    def _ids_list(ids) -> list:
        return ids.tolist() if isinstance(ids, np.ndarray) else list(ids)

    def node_property_column(self, ids, key: str) -> np.ndarray:
        """One property value per node id, as an object column — the bulk
        replacement for per-row ``node.properties.get(key)`` probes: a
        10k-row filter does one gather instead of 10k dict builds.  ``-1`` ids (OPTIONAL
        MATCH holes) yield None; dead ids raise like per-id access."""
        return self._property_column(self._nodes, ids, key)

    def edge_property_column(self, ids, key: str) -> np.ndarray:
        """Edge-side twin of :meth:`node_property_column`."""
        return self._property_column(self._edges, ids, key)

    def _property_column(self, block: DataBlock, ids, key: str) -> np.ndarray:
        idlist = self._ids_list(ids)
        out = np.empty(len(idlist), dtype=object)
        aid = self.attrs.lookup(key)
        if aid is None:
            # unknown attribute: all None, but liveness still raises
            block.gather(idlist)
            return out
        slots = block._slots
        try:
            # fast path: ids from scans/traversals are live by construction
            # (tombstones lack .props, oversized ids IndexError — both drop
            # to the validating gather, which raises EntityNotFound)
            for i, eid in enumerate(idlist):
                if eid >= 0:
                    out[i] = slots[eid].props.get(aid)
        except (AttributeError, IndexError):
            out = np.empty(len(idlist), dtype=object)
            records = block.gather(idlist)  # raises with the per-id message
            for i, rec in enumerate(records):
                if rec is not None:
                    out[i] = rec.props.get(aid)
        return out

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
        for index in affected:
            index.unindex_node(node_id, record.props)
        if value is None:
            record.props.pop(aid, None)
        else:
            record.props[aid] = value
        for index in affected:
            index.index_node(node_id, record.props)

    def add_label(self, node_id: int, label: str) -> None:
        record = self._nodes.get(node_id)
        lid = self.schema.intern_label(label)
        if lid in record.labels:
            return
        record.labels = record.labels + (lid,)
        self._label_matrix_for(lid).add(node_id, node_id)
        self.stats.label_added(lid)
        for index in self._all_indexes():
            if index.label_id == lid:
                index.index_node(node_id, record.props)

    def remove_label(self, node_id: int, label: str) -> bool:
        record = self._nodes.get(node_id)
        lid = self.schema.label_id(label)
        if lid is None or lid not in record.labels:
            return False
        record.labels = tuple(l for l in record.labels if l != lid)
        self._label_matrices[lid].delete(node_id, node_id)
        self.stats.label_removed(lid)
        for index in self._all_indexes():
            if index.label_id == lid:
                index.unindex_node(node_id, record.props)
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
        props = {self.attrs.intern(k): v for k, v in (properties or {}).items()}
        edge_id = self._edges.alloc(_EdgeRecord(src, dst, rid, props))
        matrix = self._rel_matrix_for(rid)
        new_entry = not matrix.has(src, dst)
        matrix.add(src, dst)
        self._adj.add(src, dst)
        self._edge_map.setdefault((src, dst, rid), []).append(edge_id)
        self._node_out.setdefault(src, set()).add(edge_id)
        self._node_in.setdefault(dst, set()).add(edge_id)
        self.stats.edge_created(rid, src, dst, new_entry)
        return Edge(self, edge_id)

    def delete_edge(self, edge_id: int) -> None:
        record = self._edges.free(edge_id)
        key = (record.src, record.dst, record.rel_id)
        siblings = self._edge_map.get(key, [])
        if edge_id in siblings:
            siblings.remove(edge_id)
        if not siblings:
            self._edge_map.pop(key, None)
            self._rel_matrices[record.rel_id].delete(record.src, record.dst)
            # the combined adjacency entry drops only when *no* relation
            # type still connects the pair
            if not any(
                (record.src, record.dst, rid) in self._edge_map
                for rid in range(self.schema.reltype_count)
            ):
                self._adj.delete(record.src, record.dst)
        self._node_out.get(record.src, set()).discard(edge_id)
        self._node_in.get(record.dst, set()).discard(edge_id)
        self.stats.edge_deleted(record.rel_id, record.src, record.dst, not siblings)

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
        record = self._edges.get(edge_id)
        return {self.attrs.name_of(a): v for a, v in record.props.items()}

    def edge_property(self, edge_id: int, key: str):
        aid = self.attrs.lookup(key)
        if aid is None:
            return None
        return self._edges.get(edge_id).props.get(aid)

    def set_edge_property(self, edge_id: int, key: str, value) -> None:
        record = self._edges.get(edge_id)
        aid = self.attrs.intern(key)
        if value is None:
            record.props.pop(aid, None)
        else:
            record.props[aid] = value

    def edges_between(self, src: int, dst: int, reltype: Optional[str] = None) -> List[int]:
        """Edge ids connecting src → dst (optionally restricted by type)."""
        if reltype is not None:
            rid = self.schema.reltype_id(reltype)
            if rid is None:
                return []
            return list(self._edge_map.get((src, dst, rid), ()))
        out: List[int] = []
        for rid in range(self.schema.reltype_count):
            out.extend(self._edge_map.get((src, dst, rid), ()))
        return out

    def out_edges(self, node_id: int) -> List[int]:
        return sorted(self._node_out.get(node_id, ()))

    def in_edges(self, node_id: int) -> List[int]:
        return sorted(self._node_in.get(node_id, ()))

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

    def _label_member_props(self, label: str) -> Tuple[List[int], List[Dict[int, Any]]]:
        """(node ids, props dicts) of every node with ``label`` — the
        backfill gather shared by all three index kinds."""
        ids: List[int] = []
        rows: List[Dict[int, Any]] = []
        slots = self._nodes._slots
        for nid in self.nodes_with_label(label):
            ids.append(int(nid))
            rows.append(slots[int(nid)].props)
        return ids, rows

    def create_index(self, label: str, attribute: str) -> RangeIndex:
        lid = self.schema.intern_label(label)
        aid = self.attrs.intern(attribute)
        key = (lid, aid)
        if key in self._indices:
            raise ConstraintViolation(f"index on :{label}({attribute}) already exists")
        index = RangeIndex(lid, aid)
        ids, rows = self._label_member_props(label)
        index.bulk_insert([row.get(aid) for row in rows], ids)
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
        ids, rows = self._label_member_props(label)
        index.bulk_insert(rows, ids)
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
                nprobe_default=self.config.vector_nprobe_default,
                train_min=self.config.vector_train_min,
            )
        except ValueError as exc:
            raise ConstraintViolation(str(exc)) from None
        ids, rows = self._label_member_props(label)
        index.bulk_insert([row.get(aid) for row in rows], ids)
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

    def vector_index_specs(self) -> List[Tuple[str, str, Dict[str, Any]]]:
        """Every vector index as (label name, attribute name, options)."""
        out = []
        for (lid, aid), index in list(self._vector_indices.items()):
            out.append(
                (self.schema.label_name(lid), self.attrs.name_of(aid), index.options)
            )
        return out

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
