"""The server's durability subsystem: snapshots + write log + recovery.

Mirrors Redis's RDB + AOF split for the graph module:

* **Snapshots** — each graph key has a columnar v2 snapshot file
  (``<key>.<anchor>.v2.npz``, key percent-escaped per UTF-8 byte)
  produced by :func:`repro.graph.persist.capture_snapshot`: captured
  under the graph's read lock only, serialized to a temp file and
  atomically renamed into place, so writers are never blocked by disk
  I/O and a crash mid-save leaves the previous snapshot intact
  (non-blocking BGSAVE semantics).  The anchor stamp in the filename
  makes the *manifest rewrite* the commit point — a crash between the
  snapshot rename and the manifest write leaves the manifest on the
  previous, still-consistent generation.
* **Write log** — every acknowledged mutation appends one record to the
  shared :class:`~repro.graph.wal.WriteAheadLog` *while the mutating
  thread still holds the graph's write lock*, so log order equals commit
  order per graph.  Record kinds: ``query`` (write queries), ``bulk``
  (GRAPH.BULK commits as their columnar payload — replayed as one bulk
  commit, not per row), ``index.create`` / ``index.drop``, ``config``,
  ``delete``.
* **Manifest** — ``manifest.json`` binds each snapshot to its *anchor*:
  the last log sequence number the snapshot covers.  Records at or below
  a key's anchor are skipped on replay; segments every live key's anchor
  covers are deleted (snapshot-anchored truncation).  Module config is
  mirrored into the manifest so truncation never loses a config set.
* **Recovery** — on startup with a data dir: load every manifest
  snapshot, then replay the log tail in sequence order.  A torn tail
  record (crash mid-append) is detected by the log's checksums and
  dropped, not fatal.

Auto-snapshots are dirty-counter driven: once ``auto_snapshot_ops``
mutations have been logged against a key since its last snapshot, the
worker thread that crossed the threshold snapshots the graph after its
command completes (it holds no lock by then — writers keep committing
while the file is written).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.errors import ConstraintViolation, ReproError
from repro.graph.config import GraphConfig
from repro.graph.persist import capture_snapshot
from repro.graph.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (module -> manager)
    from repro.api import GraphDB
    from repro.rediskv.graph_module import GraphModule
    from repro.rediskv.keyspace import Keyspace

__all__ = ["DurabilityManager"]


def _escape_key(key: str) -> str:
    """Filesystem-safe, injective escaping of a graph key (per UTF-8
    byte, fixed two hex digits — variable-width ``%{ord(c):x}`` would let
    distinct keys collide on one file)."""
    return "".join(
        c if c.isalnum() or c in "-_" else "".join(f"%{b:02x}" for b in c.encode("utf-8"))
        for c in key
    )


def _snapshot_name(key: str, anchor: int) -> str:
    """Snapshot filename for one (key, anchor) pair.  The anchor stamp
    makes each save a fresh file, so the manifest rewrite — not the
    snapshot rename — is the atomic commit point: a crash between the
    two leaves the manifest pointing at the previous snapshot, whose
    anchor still matches it."""
    return f"{_escape_key(key)}.{max(anchor, 0):016d}.v2.npz"


class DurabilityManager:
    """Owns one data directory: the write log, snapshots, the manifest."""

    def __init__(
        self, data_dir: Union[str, Path], config: GraphConfig, keyspace: "Keyspace"
    ) -> None:
        self.dir = Path(data_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.keyspace = keyspace
        self.wal = WriteAheadLog(
            self.dir / "wal", fsync=config.wal_fsync, rotate_bytes=config.wal_rotate_bytes
        )
        self._manifest: Dict[str, Any] = {"graphs": {}, "config": {}}
        self._lock = threading.Lock()  # manifest + dirty counters + save flags
        self._dirty: Dict[str, int] = {}
        self._saving: set = set()
        path = self.dir / "manifest.json"
        if path.exists():
            self._manifest = json.loads(path.read_text())

    # ------------------------------------------------------------------
    # Logging (called by worker threads, inside the graph's write lock)
    # ------------------------------------------------------------------
    def log_query(self, key: str, text: str, params: Optional[Dict[str, Any]]) -> None:
        self._append(key, {"kind": "query", "key": key, "text": text, "params": params or {}})

    def log_index(
        self,
        key: str,
        op: str,
        label: str,
        attribute: str,
        itype: str = "range",
        attributes: Optional[list] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> None:
        record = {"kind": f"index.{op}", "key": key, "label": label, "attribute": attribute}
        if itype != "range":
            record["itype"] = itype
            record["attrs"] = list(attributes or [attribute])
            if options:
                record["options"] = dict(options)
        self._append(key, record)

    def log_bulk(self, key: str, payload: Dict[str, list]) -> None:
        self._append(key, {"kind": "bulk", "key": key, "payload": payload})

    def log_config(self, name: str, value: Any) -> None:
        self.wal.append({"kind": "config", "name": name, "value": value})
        with self._lock:
            self._manifest["config"][name] = value
            self._write_manifest()

    def log_delete(self, key: str) -> None:
        self.wal.append({"kind": "delete", "key": key})
        with self._lock:
            self._manifest["graphs"].pop(key, None)
            self._dirty.pop(key, None)
            self._write_manifest()
        self._remove_snapshots(key)

    def _append(self, key: str, record: Dict[str, Any]) -> None:
        self.wal.append(record)
        with self._lock:
            self._dirty[key] = self._dirty.get(key, 0) + 1

    def dirty_count(self, key: str) -> int:
        with self._lock:
            return self._dirty.get(key, 0)

    def should_snapshot(self, key: str) -> bool:
        """Has the dirty counter crossed the auto-snapshot threshold?"""
        threshold = self.config.auto_snapshot_ops
        if threshold <= 0:
            return False
        with self._lock:
            return self._dirty.get(key, 0) >= threshold and key not in self._saving

    def set_fsync(self, policy: str) -> None:
        self.wal.set_fsync(policy)

    # ------------------------------------------------------------------
    # Snapshots (BGSAVE)
    # ------------------------------------------------------------------
    def save_graph(self, key: str, db: "GraphDB") -> bool:
        """Snapshot one graph: capture under the read lock, write + rename
        with no lock held, then anchor the manifest and truncate redundant
        log segments.  Returns False if a save for ``key`` is already in
        flight (the competing save's snapshot covers this one's writes)."""
        with self._lock:
            if key in self._saving:
                return False
            self._saving.add(key)
        try:
            with db.graph.lock.read():
                # writers are excluded here, so no record for this key can
                # land between reading the anchor and finishing the capture
                anchor = self.wal.last_seq
                snapshot = capture_snapshot(db.graph, lock=False)
            name = _snapshot_name(key, anchor)
            tmp = self.dir / (name + ".tmp")
            with open(tmp, "wb") as f:
                snapshot.write(f)
            os.replace(tmp, self.dir / name)
            if self.keyspace.peek_graph(key) is not db:
                return False  # key deleted/replaced mid-save: don't resurrect it
            with self._lock:
                self._manifest["graphs"][key] = {"file": name, "anchor": anchor}
                self._dirty[key] = 0
                self._write_manifest()
            self._remove_snapshots(key, keep=name)  # superseded generations
            self._truncate_covered()
            return True
        finally:
            with self._lock:
                self._saving.discard(key)

    def _remove_snapshots(self, key: str, keep: Optional[str] = None) -> None:
        """Best-effort cleanup of ``key``'s snapshot files except ``keep``
        (escaped key names contain no glob metacharacters)."""
        for path in self.dir.glob(f"{_escape_key(key)}.*.v2.npz"):
            if path.name != keep:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _truncate_covered(self) -> None:
        """Drop log segments that every live graph's snapshot covers."""
        with self._lock:
            graphs = dict(self._manifest["graphs"])
        anchors = [
            graphs.get(key, {}).get("anchor", -1) for key in self.keyspace.graph_keys()
        ]
        if not anchors:
            return
        self.wal.truncate_upto(min(anchors))

    def _write_manifest(self) -> None:
        """Atomic manifest rewrite (caller holds ``_lock``)."""
        tmp = self.dir / "manifest.json.tmp"
        tmp.write_text(json.dumps(self._manifest, indent=1, sort_keys=True))
        os.replace(tmp, self.dir / "manifest.json")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, module: "GraphModule") -> Dict[str, int]:
        """Rebuild the keyspace: manifest config, snapshots, log tail.

        Runs before the module is wired to this manager, so nothing in
        here re-logs.  Returns counters for the startup banner/tests."""
        from repro.api import GraphDB

        stats = {"snapshots": 0, "replayed": 0, "skipped": 0}
        for name, value in dict(self._manifest.get("config", {})).items():
            try:
                module.config_set(name, str(value))
            except ReproError:  # a knob this build no longer has
                pass
        anchors: Dict[str, int] = {}
        for key, info in dict(self._manifest.get("graphs", {})).items():
            path = self.dir / info["file"]
            if not path.exists():  # pragma: no cover - manifest/file skew
                continue
            db = GraphDB.load(str(path))
            self.keyspace.set_graph(key, db)
            anchors[key] = int(info.get("anchor", -1))
            stats["snapshots"] += 1
        for seq, record in self.wal.replay():
            kind = record.get("kind")
            if kind == "config":
                try:
                    module.config_set(record["name"], str(record["value"]))
                except ReproError:  # a knob this build no longer has
                    pass
                continue
            key = record["key"]
            if seq <= anchors.get(key, -1):
                stats["skipped"] += 1
                continue
            if kind == "delete":
                self.keyspace.delete(key)
                anchors.pop(key, None)
                stats["replayed"] += 1
                continue
            db = module._graph(key)
            if kind == "query":
                db.engine.query(record["text"], record.get("params") or None)
            elif kind == "bulk":
                payload = record.get("payload", {})
                db.bulk_insert(payload.get("nodes", ()), payload.get("edges", ()))
            elif kind == "index.create":
                # records written before composite/vector indexes existed
                # carry no "itype" and replay as plain range indexes
                itype = record.get("itype", "range")
                try:
                    if itype == "vector":
                        opts = dict(record.get("options") or {})
                        if "exact" not in opts:
                            # pre-IVF record: those indexes were brute-force
                            # scans, so replay keeps brute-force semantics
                            opts["exact"] = True
                        db.graph.create_vector_index(
                            record["label"], record["attribute"], opts
                        )
                    elif itype == "composite":
                        db.graph.create_composite_index(record["label"], record["attrs"])
                    else:
                        db.graph.create_index(record["label"], record["attribute"])
                except ConstraintViolation:
                    pass  # replay after a snapshot that already has it
            elif kind == "index.drop":
                itype = record.get("itype", "range")
                if itype == "vector":
                    db.graph.drop_vector_index(record["label"], record["attribute"])
                elif itype == "composite":
                    db.graph.drop_composite_index(record["label"], record["attrs"])
                else:
                    db.graph.drop_index(record["label"], record["attribute"])
            else:  # pragma: no cover - future record kind
                continue
            stats["replayed"] += 1
        # config replay lands on the shared GraphConfig while the module is
        # not yet wired to this manager — push the recovered fsync policy
        # into the live log explicitly
        self.wal.set_fsync(self.config.wal_fsync)
        return stats

    def close(self) -> None:
        self.wal.close()
