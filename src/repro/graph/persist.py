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
  ``*_json_offsets`` (lists/maps, JSON-encoded).  Triples are written in
  ascending slot order.  Values must be JSON-serializable
  (str/int/float/bool/None/list/map) — the same restriction RedisGraph
  values have.
* Edge records — parallel columns over live edge slots only:
  ``edge_slot`` (ascending), ``edge_src``, ``edge_dst``, ``edge_rel``.
  The multi-edge map and per-node incidence sets are *derived* state and
  rebuild from these columns by vectorized grouping.  Every relation
  matrix entry owns at least one record; a file whose entries outnumber
  its distinct record keys gets one new record per uncovered entry.
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
from typing import Any, BinaryIO, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.config import GraphConfig
from repro.graph.datablock import DataBlock
from repro.graph.delta_matrix import DeltaMatrix
from repro.graph.graph import Graph, _EdgeRecord, _NodeRecord
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

    Record columns are plain Python lists copied out under the read lock;
    matrices are :class:`DeltaMatrixView` snapshots, safe to merge after
    the lock is released because views never observe later writes."""

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
        arrays.update(_encode_props("nprop", *self.nprop))
        arrays.update(_encode_props("eprop", *self.eprop))
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
    n_owner: List[int] = []
    n_aid: List[int] = []
    n_val: List[Any] = []
    for slot, record in graph._nodes.items():
        label_counts[slot] = len(record.labels)
        label_ids.extend(record.labels)
        for aid, value in record.props.items():
            n_owner.append(slot)
            n_aid.append(aid)
            n_val.append(value)
    snap.node_label_counts = label_counts
    snap.node_label_ids = label_ids
    snap.nprop = (n_owner, n_aid, n_val)

    # edge columns: live slots only, ascending
    e_slot: List[int] = []
    e_src: List[int] = []
    e_dst: List[int] = []
    e_rel: List[int] = []
    e_owner: List[int] = []
    e_aid: List[int] = []
    e_val: List[Any] = []
    for slot, record in graph._edges.items():
        e_slot.append(slot)
        e_src.append(record.src)
        e_dst.append(record.dst)
        e_rel.append(record.rel_id)
        for aid, value in record.props.items():
            e_owner.append(slot)
            e_aid.append(aid)
            e_val.append(value)
    snap.edge_slot, snap.edge_src, snap.edge_dst, snap.edge_rel = e_slot, e_src, e_dst, e_rel
    snap.eprop = (e_owner, e_aid, e_val)

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
    n_owner, n_aid, n_val = _decode_props(data, "nprop")
    node_props = _props_by_owner(n_owner, n_aid, n_val, node_slots)
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
        props = node_props[slot]
        node_records[slot] = _NodeRecord(labels, props if props is not None else {})
    graph._nodes = DataBlock.restore(node_records, node_free)

    # edge records; the multi-edge map is derived state, rebuilt by
    # vectorized grouping instead of a dict op per edge
    edge_slots = int(meta["edge_slots"])
    edge_free = data["edge_free"].tolist()
    e_slot = data["edge_slot"]
    e_src = data["edge_src"]
    e_dst = data["edge_dst"]
    e_rel = data["edge_rel"]
    edge_map = _group_edge_map(e_src, e_dst, e_rel, e_slot)
    if len(edge_map) < sum(m.nvals() for m in graph._rel_matrices):
        # some matrix entry has no edge record: give each one a record
        o_src, o_dst, o_rel = _orphan_entries(graph, edge_map)
        o_slot = np.arange(edge_slots, edge_slots + len(o_src), dtype=_I64)
        edge_slots += len(o_src)
        e_slot, e_src, e_dst, e_rel = (
            np.concatenate(pair)
            for pair in ((e_slot, o_slot), (e_src, o_src), (e_dst, o_dst), (e_rel, o_rel))
        )
        edge_map.update(
            ((s, d, r), [e]) for s, d, r, e in zip(o_src.tolist(), o_dst.tolist(), o_rel.tolist(), o_slot.tolist())
        )
    e_owner, e_aid, e_val = _decode_props(data, "eprop")
    edge_props = _props_by_owner(e_owner, e_aid, e_val, edge_slots)
    edge_records: List[Optional[_EdgeRecord]] = [None] * edge_slots
    for slot, src, dst, rid in zip(e_slot.tolist(), e_src.tolist(), e_dst.tolist(), e_rel.tolist()):
        props = edge_props[slot]
        edge_records[slot] = _EdgeRecord(src, dst, rid, props if props is not None else {})
    graph._edges = DataBlock.restore(edge_records, edge_free)

    graph._node_out = _group_sets(e_src, e_slot)
    graph._node_in = _group_sets(e_dst, e_slot)
    graph._edge_map = edge_map

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

    # statistics: one vectorized rebuild; WAL replay (which runs through
    # the normal write paths) keeps them maintained from here on
    graph.stats.rebuild(edge_rels=e_rel)
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


def _props_by_owner(
    owners: List[int], aids: List[int], values: List[Any], slots: int
) -> List[Optional[Dict[int, Any]]]:
    """Slot-aligned ``{aid: value}`` dicts (None where a slot has none)."""
    out: List[Optional[Dict[int, Any]]] = [None] * slots
    for owner, aid, value in zip(owners, aids, values):
        d = out[owner]
        if d is None:
            out[owner] = d = {}
        d[aid] = value
    return out


def _group_sets(keys: np.ndarray, vals: np.ndarray) -> Dict[int, Set[int]]:
    """{key: set(vals)} via one sort + boundary scan.  Group boundaries
    come from numpy; the assembly loop slices plain lists (a numpy slice
    per group costs ~10x a list slice at 100k singleton groups)."""
    out: Dict[int, Set[int]] = {}
    if not len(keys):
        return out
    order = np.argsort(keys, kind="stable")
    sk = keys[order].tolist()
    sv = vals[order].tolist()
    bounds = np.flatnonzero(np.concatenate(([True], np.diff(keys[order]) != 0))).tolist()
    bounds.append(len(sk))
    for i in range(len(bounds) - 1):
        start, end = bounds[i], bounds[i + 1]
        out[sk[start]] = set(sv[start:end])
    return out


def _group_edge_map(
    src: np.ndarray, dst: np.ndarray, rel: np.ndarray, eids: np.ndarray
) -> Dict[Tuple[int, int, int], List[int]]:
    """Multi-edge map rebuilt by lexsorted grouping; sibling lists come
    out in ascending edge-id order (stable sort over ascending slots)."""
    out: Dict[Tuple[int, int, int], List[int]] = {}
    if not len(src):
        return out
    order = np.lexsort((rel, dst, src))
    ss, sd, sr = src[order], dst[order], rel[order]
    changed = (ss[1:] != ss[:-1]) | (sd[1:] != sd[:-1]) | (sr[1:] != sr[:-1])
    bounds = np.flatnonzero(np.concatenate(([True], changed))).tolist()
    bounds.append(len(ss))
    ss_l, sd_l, sr_l, se_l = ss.tolist(), sd.tolist(), sr.tolist(), eids[order].tolist()
    for i in range(len(bounds) - 1):
        start, end = bounds[i], bounds[i + 1]
        out[(ss_l[start], sd_l[start], sr_l[start])] = se_l[start:end]
    return out


def _orphan_entries(
    graph: Graph, edge_map: Dict[Tuple[int, int, int], List[int]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, rel) of every relation-matrix entry no edge record
    covers.  Older builds could bulk-load such entries without records.
    An entry touching a deleted node is that node's leftover: it leaves
    the matrices instead of being returned."""
    per_rel = np.bincount(
        np.fromiter((rid for _, _, rid in edge_map), dtype=_I64, count=len(edge_map)),
        minlength=len(graph._rel_matrices),
    )
    alive = graph._nodes.alive_mask()
    src: List[np.ndarray] = []
    dst: List[np.ndarray] = []
    rel: List[np.ndarray] = []
    for rid, dm in enumerate(graph._rel_matrices):
        if dm.nvals() == per_rel[rid]:
            continue
        rows, cols, _ = dm.synced().to_coo()
        orphan = np.fromiter(
            ((s, d, rid) not in edge_map for s, d in zip(rows.tolist(), cols.tolist())),
            dtype=np.bool_,
            count=len(rows),
        )
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


def _encode_props(
    prefix: str, owners: List[int], aids: List[int], values: List[Any]
) -> Dict[str, np.ndarray]:
    kinds = np.empty(len(values), dtype=np.uint8)
    idxs = np.empty(len(values), dtype=_I64)
    ints: List[int] = []
    floats: List[float] = []
    str_parts: List[bytes] = []
    json_parts: List[bytes] = []
    for pos, value in enumerate(values):
        if value is None:
            kind, idx = _K_NULL, 0
        elif isinstance(value, bool):
            kind, idx = _K_BOOL, len(ints)
            ints.append(1 if value else 0)
        elif isinstance(value, int):
            kind, idx = _K_INT, len(ints)
            ints.append(value)
        elif isinstance(value, float):
            kind, idx = _K_FLOAT, len(floats)
            floats.append(value)
        elif isinstance(value, str):
            kind, idx = _K_STR, len(str_parts)
            str_parts.append(value.encode("utf-8"))
        else:
            _check_jsonable(value)  # GraphError with a precise message
            kind, idx = _K_JSON, len(json_parts)
            json_parts.append(json.dumps(value).encode("utf-8"))
        kinds[pos] = kind
        idxs[pos] = idx
    out = {
        f"{prefix}_owner": np.asarray(owners, dtype=_I64),
        f"{prefix}_aid": np.asarray(aids, dtype=_I64),
        f"{prefix}_kind": kinds,
        f"{prefix}_idx": idxs,
        f"{prefix}_ints": np.asarray(ints, dtype=_I64),
        f"{prefix}_floats": np.asarray(floats, dtype=np.float64),
    }
    out.update(_blob(f"{prefix}_str", str_parts))
    out.update(_blob(f"{prefix}_json", json_parts))
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


def _decode_props(data, prefix: str) -> Tuple[List[int], List[int], List[Any]]:
    kinds = data[f"{prefix}_kind"]
    idxs = data[f"{prefix}_idx"]
    if int(kinds.max(initial=0)) > _K_JSON:
        raise GraphError(f"corrupt snapshot: unknown property kind {int(kinds.max())}")
    pools = {
        _K_INT: data[f"{prefix}_ints"].astype(object),
        _K_FLOAT: data[f"{prefix}_floats"].astype(object),
        _K_STR: np.asarray(
            [b.decode("utf-8") for b in _split_blob(data, f"{prefix}_str")], dtype=object
        ),
        _K_JSON: _object_array([json.loads(b) for b in _split_blob(data, f"{prefix}_json")]),
        _K_BOOL: data[f"{prefix}_ints"].astype(bool).astype(object),
    }
    # one fancy object-array assignment per kind instead of a Python
    # branch per value — the decode stays O(kinds present), not O(values)
    values = np.empty(len(kinds), dtype=object)
    for kind, pool in pools.items():
        sel = kinds == kind
        if sel.any():
            values[sel] = pool[idxs[sel]]
    return data[f"{prefix}_owner"].tolist(), data[f"{prefix}_aid"].tolist(), values.tolist()


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
