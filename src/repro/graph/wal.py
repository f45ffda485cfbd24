"""Append-only write log (the module's AOF equivalent).

Durability in Redis is RDB snapshots plus an append-only file of the
commands that ran since; this module is the append-only half for the
reproduction.  The server logs every acknowledged mutation — write
queries, GRAPH.BULK commits (as their columnar payload, so replay is one
bulk commit rather than a row loop), index create/drop, config sets,
graph deletes — and recovery replays the tail that postdates the latest
snapshot.

On-disk layout: a directory of segment files named
``wal.<start_seq:016d>.log``.  Records are framed as::

    [payload length: u32 LE][crc32(payload): u32 LE][payload bytes]

with the payload a compact JSON document.  Sequence numbers are implicit:
record *k* of a segment has ``seq = start_seq + k``, so the framing needs
no embedded counters and a segment's covered range is recoverable from
its filename plus its record count.

Failure semantics:

* a torn tail (the process died mid-append) is detected by the framing —
  a short header, a short payload, or a crc mismatch at end-of-file — and
  **dropped, not fatal**: opening the log truncates the file back to the
  last whole record, so subsequent appends continue from a clean tail;
* fsync policy is configurable: ``"always"`` (fsync every append —
  durable against power loss), ``"everysec"`` (a background timer
  fsyncs once a second whenever unsynced appends exist — like Redis's
  ``appendfsync everysec``, at most ~1s of acknowledged writes at
  risk), ``"no"`` (leave it to the OS).  Every append is flushed to the
  OS regardless, so a killed *process* loses nothing under any policy;
* rotation starts a fresh segment once the active one exceeds
  ``rotate_bytes``; :meth:`WriteAheadLog.truncate_upto` deletes whole
  segments that a snapshot has made redundant (never the active one).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError

__all__ = ["WriteAheadLog", "WalError", "FSYNC_POLICIES"]

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

FSYNC_POLICIES = ("always", "everysec", "no")


class WalError(ReproError):
    """The write log is unusable (bad policy, unreadable directory...)."""


def _segment_name(start_seq: int) -> str:
    return f"wal.{start_seq:016d}.log"


def _segment_start(path: Path) -> Optional[int]:
    parts = path.name.split(".")
    if len(parts) == 3 and parts[0] == "wal" and parts[2] == "log" and parts[1].isdigit():
        return int(parts[1])
    return None


def _scan_records(raw: bytes) -> Tuple[List[bytes], int]:
    """(whole payloads, clean byte length).  Anything after the clean
    length is a torn/corrupt tail to be dropped."""
    payloads: List[bytes] = []
    offset = 0
    n = len(raw)
    while offset + _HEADER.size <= n:
        length, crc = _HEADER.unpack_from(raw, offset)
        end = offset + _HEADER.size + length
        if end > n:
            break  # short payload: torn tail
        payload = raw[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            break  # corrupt record: treat the rest as a torn tail
        payloads.append(payload)
        offset = end
    return payloads, offset


def _json_default(value: Any):
    tolist = getattr(value, "tolist", None)  # numpy array -> list
    if tolist is not None and getattr(value, "ndim", 0) > 0:
        return tolist()
    item = getattr(value, "item", None)  # numpy scalar -> native
    if item is not None:
        return item()
    raise TypeError(f"cannot log value of type {type(value).__name__}")


class WriteAheadLog:
    """A directory of checksummed, length-prefixed log segments.

    Thread-safe: appends from concurrent worker threads serialize on an
    internal lock (callers that need cross-record ordering — e.g. "log
    while still holding the graph's write lock" — impose it themselves).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        fsync: str = "everysec",
        rotate_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(f"unknown fsync policy {fsync!r} (expected one of {FSYNC_POLICIES})")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.rotate_bytes = int(rotate_bytes)
        self._lock = threading.Lock()
        self._last_fsync = time.monotonic()

        starts = sorted(
            s for p in self.dir.iterdir() if (s := _segment_start(p)) is not None
        )
        self._segment_starts: List[int] = starts
        if starts:
            # repair the active segment's tail so appends continue cleanly
            active = self.dir / _segment_name(starts[-1])
            raw = active.read_bytes()
            payloads, clean = _scan_records(raw)
            if clean < len(raw):
                with open(active, "r+b") as f:
                    f.truncate(clean)
            self._next_seq = starts[-1] + len(payloads)
            self._active_start = starts[-1]
        else:
            self._next_seq = 0
            self._active_start = 0
            self._segment_starts = [0]
            (self.dir / _segment_name(0)).touch()
        self._file = open(self.dir / _segment_name(self._active_start), "ab")
        self._dirty = False  # unsynced appends since the last fsync
        # the everysec contract needs a clock, not just append piggybacks:
        # an acknowledged write on an otherwise idle log must still hit
        # disk within ~1s (cf. Redis's appendfsync everysec cron)
        self._closed = threading.Event()
        self._syncer = threading.Thread(target=self._sync_loop, name="wal-fsync", daemon=True)
        self._syncer.start()

    def _sync_loop(self) -> None:
        while not self._closed.wait(1.0):
            if self.fsync != "everysec":
                continue
            with self._lock:
                if self._dirty and not self._file.closed:
                    os.fsync(self._file.fileno())
                    self._last_fsync = time.monotonic()
                    self._dirty = False

    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (-1 when empty)."""
        return self._next_seq - 1

    def append(self, record: Dict[str, Any]) -> int:
        """Frame, write, flush (and fsync per policy) one record; returns
        its sequence number."""
        payload = json.dumps(record, separators=(",", ":"), default=_json_default).encode()
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            if self._file.tell() + len(frame) > self.rotate_bytes and self._file.tell() > 0:
                self._rotate_locked()
            self._file.write(frame)
            self._file.flush()
            now = time.monotonic()
            if self.fsync == "always" or (self.fsync == "everysec" and now - self._last_fsync >= 1.0):
                os.fsync(self._file.fileno())
                self._last_fsync = now
                self._dirty = False
            else:
                self._dirty = True  # the everysec timer picks it up
            seq = self._next_seq
            self._next_seq += 1
        return seq

    def set_fsync(self, policy: str) -> None:
        if policy not in FSYNC_POLICIES:
            raise WalError(f"unknown fsync policy {policy!r} (expected one of {FSYNC_POLICIES})")
        self.fsync = policy

    def sync(self) -> None:
        """Force an fsync of the active segment now."""
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._last_fsync = time.monotonic()
            self._dirty = False

    def _rotate_locked(self) -> None:
        if self._dirty and self.fsync != "no":
            os.fsync(self._file.fileno())  # the timer can't reach a closed segment
            self._dirty = False
        self._file.close()
        self._active_start = self._next_seq
        self._segment_starts.append(self._active_start)
        self._file = open(self.dir / _segment_name(self._active_start), "ab")

    # ------------------------------------------------------------------
    def replay(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Yield ``(seq, record)`` for every whole record, oldest first.

        A torn or corrupt record ends the replay at that point (everything
        before it is intact thanks to the per-record checksums)."""
        for i, start in enumerate(self._segment_starts):
            path = self.dir / _segment_name(start)
            if not path.exists():
                continue
            payloads, clean = _scan_records(path.read_bytes())
            for k, payload in enumerate(payloads):
                yield start + k, json.loads(payload)
            if clean < path.stat().st_size:
                return  # torn tail: nothing after it is trustworthy

    def truncate_upto(self, anchor_seq: int) -> int:
        """Delete whole segments every record of which has ``seq <=
        anchor_seq`` (snapshot-anchored truncation).  The active segment
        is never deleted.  Returns the number of segments removed."""
        removed = 0
        with self._lock:
            keep: List[int] = []
            for i, start in enumerate(self._segment_starts):
                is_active = start == self._active_start
                next_start = (
                    self._segment_starts[i + 1] if i + 1 < len(self._segment_starts) else None
                )
                if not is_active and next_start is not None and next_start - 1 <= anchor_seq:
                    try:
                        (self.dir / _segment_name(start)).unlink()
                    except OSError:  # pragma: no cover - best-effort cleanup
                        keep.append(start)
                        continue
                    removed += 1
                else:
                    keep.append(start)
            self._segment_starts = keep
        return removed

    def segment_files(self) -> List[Path]:
        """The current segment paths, oldest first (for tests/tools)."""
        return [self.dir / _segment_name(s) for s in self._segment_starts]

    def close(self) -> None:
        self._closed.set()
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                if self.fsync != "no":
                    os.fsync(self._file.fileno())
                self._file.close()
        if self._syncer.is_alive() and self._syncer is not threading.current_thread():
            self._syncer.join(timeout=2)

    def __repr__(self) -> str:
        return (
            f"<WriteAheadLog dir={str(self.dir)!r} segments={len(self._segment_starts)} "
            f"next_seq={self._next_seq} fsync={self.fsync}>"
        )
