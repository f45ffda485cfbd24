"""Graph serialization — the module's RDB hook equivalent.

Redis persists module datatypes through RDB callbacks; this module plays
that role for the reproduction.  :func:`save_graph` writes a complete
graph (schemas, attribute registry, node/edge records, indices, adjacency
structure) into a single file and :func:`load_graph` reconstructs an
identical graph.

Format v2 (current) — a zip container (``numpy.savez``) of columnar
arrays.  Invariants:

* ``meta`` — a ``uint8`` byte array holding a small JSON document:
  format version, graph name, matrix capacity, the full
  :class:`~repro.graph.config.GraphConfig`, the label / relationship-type
  / attribute interning tables (id = position), index definitions as
  ``[label_id, attr_id]`` pairs, and the DataBlock slot counts.  Entity
  payloads are **never** embedded here (a Python loop per entity on both
  sides is what the columnar layout exists to avoid).
* DataBlock identity — ``node_free`` / ``edge_free`` store each block's
  free list *in order*, so restored graphs recycle deleted ids exactly
  like the original.  Slot numbers are preserved; they double as matrix
  row/column indices, so everything below is slot-aligned.
* Node labels — one CSR pair over all node slots
  (``node_label_indptr`` / ``node_label_ids``), preserving per-node
  label order.
* Properties — a typed columnar store per entity class (``nprop_*`` /
  ``eprop_*``): parallel ``owner`` (slot), ``aid`` (attribute id),
  ``kind`` (type tag) and ``idx`` columns, where ``idx`` points into the
  per-kind value pool — ``*_ints`` (ints and bools), ``*_floats``,
  ``*_str_blob``/``*_str_offsets`` (UTF-8), ``*_json_blob``/
  ``*_json_offsets`` (lists/maps and ints past int64, JSON-encoded).
  Triples are written in ascending slot order; several may share one
  pool entry (a string column writes its pool once).  Values must be
  JSON-serializable (str/int/float/bool/None/list/map) — the same
  restriction RedisGraph values have.  In memory the same data is one
  typed column per attribute (:mod:`repro.graph.properties`), so capture
  and load move whole arrays.
* Edge records — parallel columns over live edge slots only:
  ``edge_slot`` (ascending), ``edge_src``, ``edge_dst``, ``edge_rel``.
  The per-type edge-id stores are *derived* state: loading folds each
  type's columns into them in one sort.  Every relation matrix entry
  owns at least one record; a matrix entry whose key no record of its
  type carries (one ``np.isin`` per type) gets a new record.
* Matrices — the merged CSR of every delta overlay, straight from the
  snapshot view: ``adj_indptr``/``adj_indices``, one
  ``rel{rid}_indptr``/``rel{rid}_indices`` pair per relationship type
  and ``lab{lid}_*`` pair per label.  All matrices share ``capacity`` as
  their dimension; values are implicitly all-True Booleans and are not
  stored.  Loading installs these arrays directly as each
  :class:`~repro.graph.delta_matrix.DeltaMatrix` base — no per-entry
  replay, no flush.

Saving is split in two so a background save never blocks writers for the
duration of the disk write: :func:`capture_snapshot` assembles a
point-in-time :class:`GraphSnapshot` under the graph's **read lock only**
(record columns are copied; matrices are captured as snapshot-isolated
delta-overlay views, which PR 1 guarantees never tear), and
:meth:`GraphSnapshot.write` does the heavy encoding and I/O with no lock
held at all.  Capturing never mutates the graph — in particular it never
flushes pending matrix deltas.

:func:`load_graph` rejects any other format version with a typed
:class:`~repro.errors.GraphError`.
"""

from __future__ import annotations

import gc
import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.config import GraphConfig
from repro.graph.datablock import DataBlock
from repro.graph.delta_matrix import DeltaMatrix
from repro.graph import properties as P
from repro.graph.graph import Graph, _EdgeRecord, _NodeRecord, pair_keys
from repro.grblas import Matrix
from repro.grblas.types import BOOL

__all__ = ["save_graph", "load_graph", "capture_snapshot", "GraphSnapshot"]

FORMAT_VERSION = 2

_I64 = np.int64

# typed-column kind tags (see module docstring)
_K_NULL, _K_BOOL, _K_INT, _K_FLOAT, _K_STR, _K_JSON = range(6)


# ---------------------------------------------------------------------------
# Capture (read lock only) + write (no lock)
# ---------------------------------------------------------------------------


class GraphSnapshot:
    """A frozen point-in-time image of one graph, ready to serialize.

    Record columns are plain Python lists and property columns are array
    copies, taken under the read lock; matrices are
    :class:`DeltaMatrixView` snapshots, safe to merge after the lock is
    released because views never observe later writes."""

    __slots__ = (
        "meta",
        "node_free",
        "edge_free",
        "node_label_counts",
        "node_label_ids",
        "nprop",
        "edge_slot",
        "edge_src",
        "edge_dst",
        "edge_rel",
        "eprop",
        "adj_view",
        "rel_views",
        "label_views",
        "vec_centroids",
    )

    def write(self, target: Union[str, Path, BinaryIO]) -> None:
        """Serialize to ``target`` (heavy work; call without any lock)."""
        arrays: Dict[str, np.ndarray] = {
            "meta": np.frombuffer(json.dumps(self.meta).encode(), dtype=np.uint8),
            "node_free": np.asarray(self.node_free, dtype=_I64),
            "edge_free": np.asarray(self.edge_free, dtype=_I64),
            "node_label_indptr": np.concatenate(
                ([0], np.cumsum(np.asarray(self.node_label_counts, dtype=_I64)))
            ),
            "node_label_ids": np.asarray(self.node_label_ids, dtype=_I64),
            "edge_slot": np.asarray(self.edge_slot, dtype=_I64),
            "edge_src": np.asarray(self.edge_src, dtype=_I64),
            "edge_dst": np.asarray(self.edge_dst, dtype=_I64),
            "edge_rel": np.asarray(self.edge_rel, dtype=_I64),
        }
        arrays.update(_encode_props("nprop", self.nprop))
        arrays.update(_encode_props("eprop", self.eprop))
        _put_csr(arrays, "adj", self.adj_view)
        for rid, view in enumerate(self.rel_views):
            _put_csr(arrays, f"rel{rid}", view)
        for lid, view in enumerate(self.label_views):
            _put_csr(arrays, f"lab{lid}", view)
        for i, centroids in enumerate(self.vec_centroids):
            if centroids is not None:
                arrays[f"vecidx{i}_centroids"] = centroids
        np.savez(target, **arrays)


def capture_snapshot(graph: Graph, *, lock: bool = True) -> GraphSnapshot:
    """Assemble a consistent :class:`GraphSnapshot` of ``graph``.

    With ``lock=True`` (default) the capture runs under the graph's read
    lock; pass ``lock=False`` when the caller already holds it.  Only the
    column copy-out happens while locked — serialization is deferred to
    :meth:`GraphSnapshot.write`.  The graph is not mutated: matrices are
    read through flush-free overlay views."""
    if lock:
        with graph.lock.read():
            return capture_snapshot(graph, lock=False)

    snap = GraphSnapshot()
    # vector indexes: options carry the creation-time knobs (including the
    # always-present "exact" marker that distinguishes this format from
    # pre-IVF records); a trained index also ships its centroid matrix so
    # the restored IVF layout matches without retraining
    vec_specs: List[List[Any]] = []
    vec_centroids: List[Optional[np.ndarray]] = []
    for (lid, aid), index in graph._vector_indices.items():
        vec_specs.append([lid, aid, index.options])
        vec_centroids.append(index._centroids.copy() if index.trained else None)
    snap.vec_centroids = vec_centroids
    snap.meta = {
        "version": FORMAT_VERSION,
        "name": graph.name,
        "capacity": graph.capacity,
        "config": asdict(graph.config),
        "labels": graph.schema.labels(),
        "reltypes": graph.schema.reltypes(),
        "attributes": [graph.attrs.name_of(i) for i in range(len(graph.attrs))],
        "indices": [[lid, aid] for (lid, aid) in graph._indices],
        "composite_indices": [
            [lid, list(aids)] for (lid, aids) in graph._composite_indices
        ],
        "vector_indices": vec_specs,
        "node_slots": graph._nodes.capacity,
        "edge_slots": graph._edges.capacity,
    }
    snap.node_free = graph._nodes.free_list()
    snap.edge_free = graph._edges.free_list()

    # node columns: one pass, slot order
    label_counts: List[int] = [0] * graph._nodes.capacity
    label_ids: List[int] = []
    for slot, record in graph._nodes.items():
        label_counts[slot] = len(record.labels)
        label_ids.extend(record.labels)
    snap.node_label_counts = label_counts
    snap.node_label_ids = label_ids
    snap.nprop = list(graph._nodes.store.columns())

    # edge columns: live slots only, ascending
    e_slot: List[int] = []
    e_src: List[int] = []
    e_dst: List[int] = []
    e_rel: List[int] = []
    for slot, record in graph._edges.items():
        e_slot.append(slot)
        e_src.append(record.src)
        e_dst.append(record.dst)
        e_rel.append(record.rel_id)
    snap.edge_slot, snap.edge_src, snap.edge_dst, snap.edge_rel = e_slot, e_src, e_dst, e_rel
    snap.eprop = list(graph._edges.store.columns())

    # matrices: snapshot-isolated overlay views (never flush, never tear)
    snap.adj_view = graph._adj.overlay()
    snap.rel_views = [
        graph._rel_matrix_for(rid).overlay() for rid in range(graph.schema.reltype_count)
    ]
    snap.label_views = [
        graph._label_matrix_for(lid).overlay() for lid in range(graph.schema.label_count)
    ]
    return snap


def save_graph(graph: Graph, target: Union[str, Path, BinaryIO], *, lock: bool = True) -> None:
    """Serialize ``graph`` to a file path or binary stream (format v2)."""
    capture_snapshot(graph, lock=lock).write(target)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_graph(source: Union[str, Path, BinaryIO]) -> Graph:
    """Reconstruct a graph saved by :func:`save_graph`."""
    with np.load(source, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        version = meta.get("version")
        if version == FORMAT_VERSION:
            # pause the cyclic GC while we allocate entity records in bulk:
            # none of them are cycles, but hundreds of thousands of fresh
            # objects otherwise trigger repeated full collections mid-load
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                return _load_v2(data, meta)
            finally:
                if gc_was_enabled:
                    gc.enable()
    raise GraphError(f"unsupported graph file version: {version!r}")


def _config_from_meta(raw: Dict[str, Any]) -> GraphConfig:
    """Tolerate config fields this build doesn't know (forward compat)."""
    known = {f.name for f in fields(GraphConfig)}
    return GraphConfig(**{k: v for k, v in raw.items() if k in known}).validate()


def _load_v2(data, meta: Dict[str, Any]) -> Graph:
    config = _config_from_meta(meta["config"])
    graph = Graph(meta["name"], config)
    for label in meta["labels"]:
        graph.schema.intern_label(label)
    for reltype in meta["reltypes"]:
        graph.schema.intern_reltype(reltype)
    for attr in meta["attributes"]:
        graph.attrs.intern(attr)

    # matrices: install saved CSR arrays directly as each delta base
    capacity = int(meta["capacity"])
    graph._capacity = capacity
    pending = config.delta_max_pending
    graph._adj = _delta_from_csr(data, "adj", capacity, pending)
    graph._rel_matrices = [
        _delta_from_csr(data, f"rel{rid}", capacity, pending)
        for rid in range(graph.schema.reltype_count)
    ]
    graph._label_matrices = [
        _delta_from_csr(data, f"lab{lid}", capacity, pending)
        for lid in range(graph.schema.label_count)
    ]

    # node records: slot-aligned columns -> DataBlock state
    node_slots = int(meta["node_slots"])
    node_free = data["node_free"].tolist()
    free_set = set(node_free)
    lab_indptr = data["node_label_indptr"].tolist()
    lab_ids = data["node_label_ids"].tolist()
    # label tuples are immutable and shared heavily (most nodes carry the
    # same label set) — intern them instead of allocating one per node
    empty_labels: Tuple[int, ...] = ()
    label_tuples: Dict[Any, Tuple[int, ...]] = {}
    node_records: List[Optional[_NodeRecord]] = [None] * node_slots
    for slot in range(node_slots):
        if slot in free_set:
            continue
        start, end = lab_indptr[slot], lab_indptr[slot + 1]
        if start == end:
            labels = empty_labels
        elif end == start + 1:
            lid = lab_ids[start]
            labels = label_tuples.get(lid)
            if labels is None:
                labels = label_tuples.setdefault(lid, (lid,))
        else:
            probe = tuple(lab_ids[start:end])
            labels = label_tuples.setdefault(probe, probe)
        node_records[slot] = _NodeRecord(labels)
    graph._nodes = DataBlock.restore(node_records, node_free)
    _install_props(graph._nodes, data, "nprop")

    # edge records; the edge-id stores are derived state, one bulk fold
    # per type from the record columns
    edge_slots = int(meta["edge_slots"])
    edge_free = data["edge_free"].tolist()
    e_slot = data["edge_slot"]
    e_src = data["edge_src"]
    e_dst = data["edge_dst"]
    e_rel = data["edge_rel"]
    # a matrix entry no edge record covers gets a record of its own
    o_src, o_dst, o_rel = _orphan_entries(graph, e_src, e_dst, e_rel)
    if len(o_src):
        o_slot = np.arange(edge_slots, edge_slots + len(o_src), dtype=_I64)
        edge_slots += len(o_src)
        e_slot, e_src, e_dst, e_rel = (
            np.concatenate(pair)
            for pair in ((e_slot, o_slot), (e_src, o_src), (e_dst, o_dst), (e_rel, o_rel))
        )
    edge_records: List[Optional[_EdgeRecord]] = [None] * edge_slots
    for slot, src, dst, rid in zip(e_slot.tolist(), e_src.tolist(), e_dst.tolist(), e_rel.tolist()):
        edge_records[slot] = _EdgeRecord(src, dst, rid)
    graph._edges = DataBlock.restore(edge_records, edge_free)
    _install_props(graph._edges, data, "eprop")
    for rid in range(graph.schema.reltype_count):
        mine = e_rel == rid
        graph.bulk_edge_ids(rid, e_slot[mine], e_src[mine], e_dst[mine])

    # indices: rebuilt through the normal create paths, whose bulk
    # backfill reads the just-restored records — one sort per index, and
    # the same indexability rules as live maintenance by construction
    for lid, aid in meta["indices"]:
        graph.create_index(
            graph.schema.label_name(int(lid)), graph.attrs.name_of(int(aid))
        )
    for lid, aids in meta.get("composite_indices", ()):
        graph.create_composite_index(
            graph.schema.label_name(int(lid)),
            [graph.attrs.name_of(int(a)) for a in aids],
        )
    for i, (lid, aid, options) in enumerate(meta.get("vector_indices", ())):
        opts = dict(options or {})
        if "exact" not in opts:
            # pre-IVF snapshot: those indexes were brute-force scans, so
            # restoring them as exact preserves their query results exactly
            opts["exact"] = True
        index = graph.create_vector_index(
            graph.schema.label_name(int(lid)), graph.attrs.name_of(int(aid)), opts
        )
        key = f"vecidx{i}_centroids"
        if not opts["exact"] and key in data.files:
            # reinstall the saved coarse quantizer instead of retraining:
            # bucket assignment is a pure function of (flat matrix,
            # centroids), so the restored IVF layout matches the saved one
            index.install_centroids(np.asarray(data[key], dtype=np.float64))
    return graph


def _delta_from_csr(data, prefix: str, dim: int, max_pending: int) -> DeltaMatrix:
    dm = DeltaMatrix(dim, max_pending=max_pending)
    indices = data[f"{prefix}_indices"]
    dm.replace_base(
        Matrix(
            dim,
            dim,
            BOOL,
            indptr=data[f"{prefix}_indptr"],
            indices=indices,
            values=np.ones(len(indices), dtype=np.bool_),
        )
    )
    return dm


def _put_csr(arrays: Dict[str, np.ndarray], prefix: str, view) -> None:
    merged = view.materialize()
    arrays[f"{prefix}_indptr"] = merged.indptr
    arrays[f"{prefix}_indices"] = merged.indices


def _orphan_entries(
    graph: Graph, e_src: np.ndarray, e_dst: np.ndarray, e_rel: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, rel) of every relation-matrix entry no edge record
    covers.  Older builds could bulk-load such entries without records.
    An entry touching a deleted node is that node's leftover: it leaves
    the matrices instead of being returned."""
    alive = graph._nodes.alive_mask()
    empty = np.empty(0, dtype=_I64)
    src, dst, rel = [empty], [empty], [empty]
    for rid, dm in enumerate(graph._rel_matrices):
        rows, cols, _ = dm.synced().to_coo()
        mine = e_rel == rid
        orphan = ~np.isin(pair_keys(rows, cols), pair_keys(e_src[mine], e_dst[mine]))
        if not orphan.any():
            continue
        rows, cols = rows[orphan], cols[orphan]
        live = alive[rows] & alive[cols]
        for s, d in zip(rows[~live].tolist(), cols[~live].tolist()):
            dm.delete(s, d)
            graph._adj.delete(s, d)  # no record can join a deleted node
        src.append(rows[live])
        dst.append(cols[live])
        rel.append(np.full(int(live.sum()), rid, dtype=_I64))
    return np.concatenate(src), np.concatenate(dst), np.concatenate(rel)


# ---------------------------------------------------------------------------
# Typed columnar property encoding
# ---------------------------------------------------------------------------


def _typed_pieces(columns):
    """The store's columns (see :meth:`~repro.graph.properties.
    PropertyStore.columns`) with each ``object`` column split into one
    piece per value kind: typed arrays, strings with their own pool, and
    JSON values (lists, maps, ints past int64)."""
    for aid, kind, slots, values, pool in columns:
        if kind != P.OBJ:
            yield aid, kind, slots, values, pool
            continue
        kinds = np.array([P.kind_of(v) for v in values.tolist()], dtype=object)
        for k in set(kinds.tolist()):
            sel = kinds == k
            if k == P.STR:
                yield aid, k, slots[sel], np.arange(int(sel.sum())), values[sel].tolist()
            else:
                yield aid, k, slots[sel], values[sel] if k == P.OBJ else values[sel].astype(_POOL_DTYPE[k]), []


_POOL_DTYPE = {P.INT: _I64, P.BOOL: _I64, P.FLOAT: np.float64}
_TAG = {P.INT: _K_INT, P.BOOL: _K_BOOL, P.FLOAT: _K_FLOAT, P.STR: _K_STR, P.OBJ: _K_JSON}


def _encode_props(prefix: str, columns) -> Dict[str, np.ndarray]:
    """v2 property triples from a store's columns: typed pieces move as
    whole arrays into the int/float pools, and a string piece writes its
    pool once (its codes become the ``idx`` column)."""
    owners, aids, kinds, idxs = [np.empty(0, dtype=_I64)], [np.empty(0, dtype=_I64)], [], [np.empty(0, dtype=_I64)]
    pools: Dict[str, list] = {P.INT: [], P.FLOAT: [], P.STR: [], P.OBJ: []}
    sizes = dict.fromkeys(pools, 0)
    for aid, kind, slots, values, pool in _typed_pieces(columns):
        n = len(slots)
        home = P.INT if kind == P.BOOL else kind
        if kind == P.STR:
            idxs.append(values.astype(_I64) + sizes[home])
            values = [s.encode("utf-8") for s in pool]
        else:
            idxs.append(np.arange(sizes[home], sizes[home] + n, dtype=_I64))
            if kind == P.OBJ:
                for value in values.tolist():
                    _check_jsonable(value)  # GraphError with a precise message
                values = [json.dumps(v).encode("utf-8") for v in values.tolist()]
            else:
                values = [values.astype(_POOL_DTYPE[kind])]
        pools[home].extend(values)
        sizes[home] += len(pool) if kind == P.STR else n
        owners.append(slots.astype(_I64))
        aids.append(np.full(n, aid, dtype=_I64))
        kinds.append(np.full(n, _TAG[kind], dtype=np.uint8))
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")  # ascending slot order
    out = {
        f"{prefix}_owner": owner[order],
        f"{prefix}_aid": np.concatenate(aids)[order],
        f"{prefix}_kind": np.concatenate([np.empty(0, dtype=np.uint8)] + kinds)[order],
        f"{prefix}_idx": np.concatenate(idxs)[order],
        f"{prefix}_ints": np.concatenate([np.empty(0, dtype=_I64)] + pools[P.INT]),
        f"{prefix}_floats": np.concatenate([np.empty(0, dtype=np.float64)] + pools[P.FLOAT]),
    }
    out.update(_blob(f"{prefix}_str", pools[P.STR]))
    out.update(_blob(f"{prefix}_json", pools[P.OBJ]))
    return out


def _blob(prefix: str, parts: List[bytes]) -> Dict[str, np.ndarray]:
    offsets = np.zeros(len(parts) + 1, dtype=_I64)
    if parts:
        np.cumsum([len(p) for p in parts], out=offsets[1:])
    return {
        f"{prefix}_blob": np.frombuffer(b"".join(parts), dtype=np.uint8),
        f"{prefix}_offsets": offsets,
    }


def _object_array(items: List[Any]) -> np.ndarray:
    """1-D object array (np.asarray would try to broadcast nested lists)."""
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr


def _split_blob(data, prefix: str) -> List[bytes]:
    blob = data[f"{prefix}_blob"].tobytes()
    offsets = data[f"{prefix}_offsets"].tolist()
    return [blob[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


def _install_props(block: DataBlock, data, prefix: str) -> None:
    """Load one entity class's property triples straight into the block's
    store: one column install per attribute, typed arrays taken directly
    from the int/float pools when an attribute has a single kind."""
    owner, aids = data[f"{prefix}_owner"], data[f"{prefix}_aid"]
    kinds, idxs = data[f"{prefix}_kind"], data[f"{prefix}_idx"]
    if int(kinds.max(initial=0)) > _K_JSON:
        raise GraphError(f"corrupt snapshot: unknown property kind {int(kinds.max())}")
    ints, floats = data[f"{prefix}_ints"], data[f"{prefix}_floats"]
    typed = {_K_INT: ints, _K_FLOAT: floats, _K_BOOL: ints.astype(bool)}
    pools: Dict[int, np.ndarray] = {}
    for aid in np.unique(aids).tolist():
        sel = np.flatnonzero(aids == aid)
        kind, idx = kinds[sel], idxs[sel]
        first = int(kind[0])
        if first in typed and not (kind != first).any():
            block.store.install(aid, owner[sel], typed[first][idx])
            continue
        if not pools:  # decoded once, on the first mixed or string column
            pools.update({k: v.astype(object) for k, v in typed.items()})
            pools[_K_STR] = _object_array([b.decode("utf-8") for b in _split_blob(data, f"{prefix}_str")])
            pools[_K_JSON] = _object_array([json.loads(b) for b in _split_blob(data, f"{prefix}_json")])
        values = np.full(len(sel), None, dtype=object)
        for k, pool in pools.items():
            hit = kind == k
            if hit.any():
                values[hit] = pool[idx[hit]]
        block.store.install(aid, owner[sel], values)


def _check_jsonable(value) -> None:
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, list):
        for v in value:
            _check_jsonable(v)
        return
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                raise GraphError("map property keys must be strings to persist")
            _check_jsonable(v)
        return
    raise GraphError(f"property of type {type(value).__name__} cannot be persisted")
