"""The sorted-base-plus-pending-overlay store — one write discipline for
the secondary indexes (:mod:`repro.graph.index`) and the per-type edge
ids of :class:`~repro.graph.graph.Graph`.

Every write lands in a small pending overlay (adds keyed by id, a table
of ids deleted from the base); once :data:`FOLD_THRESHOLD` entries are
pending the overlay folds into the base in one sort — the paper's
``DeltaMatrix`` discipline, so reads never rebuild anything and are safe
under the query read lock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grblas import _kernels as K

__all__ = ["Overlay", "EdgeIdStore", "FOLD_THRESHOLD"]

_I64 = np.int64
_EMPTY_IDS = np.empty(0, dtype=_I64)
_NO_DEAD = np.zeros(0, dtype=np.bool_)
_MISSING = object()

#: pending overlay entries (adds + deletes) at which an overlay folds into
#: its base; read at every write, so tests may patch it
FOLD_THRESHOLD = 512


def _search(keys: np.ndarray, key: Any, side: str) -> int:
    """searchsorted for one key; the probe is boxed so a tuple key stays
    one value instead of being unpacked into several."""
    probe = np.empty(1, dtype=keys.dtype)
    probe[0] = key
    return int(keys.searchsorted(probe, side=side)[0])


def _append(ids: np.ndarray, cols: Tuple[np.ndarray, ...], more_ids: np.ndarray, more_cols):
    return (
        np.concatenate([ids, more_ids]),
        tuple(np.concatenate([c, m]) for c, m in zip(cols, more_cols)),
    )


class Overlay:
    """Ids with parallel columns in a base, plus the pending overlay every
    write lands in: the adds (id → stored value, in write order) and the
    ids deleted from the base, marked in ``dead``, a boolean table indexed
    by base id.  Once :data:`FOLD_THRESHOLD` entries are pending the
    overlay folds into the base.  Reads see the base minus the deletes
    plus the adds and never fold, so they are safe under the query read
    lock.

    :meth:`_columns` turns stored values into base columns.  A ``sorted``
    base is kept in stable order of its first column (the sort key); an
    unsorted one (the vector index) appends instead."""

    __slots__ = ("ids", "cols", "adds", "dead", "dels", "live")

    sorted = True

    def __init__(self, *cols: np.ndarray) -> None:
        self.ids = _EMPTY_IDS
        self.cols: Tuple[np.ndarray, ...] = cols
        self.adds: Dict[int, Any] = {}
        self.dead = _NO_DEAD
        self.dels = 0  # ids marked in ``dead``
        self.live = 0

    def _columns(self, values: List[Any]) -> Tuple[np.ndarray, ...]:
        """Base columns for a list of stored values: by default the values
        themselves, shaped like the one base column."""
        like = self.cols[0]
        if like.ndim == 2:
            return (np.vstack(values),)
        return (np.fromiter(values, dtype=like.dtype, count=len(values)),)

    # -- write side --------------------------------------------------

    def add(self, nid: int, value: Any) -> None:
        self.adds[nid] = value
        self.live += 1
        self._maybe_fold()

    def drop(self, nid: int, key: Any = None) -> None:
        """Remove ``nid``'s entry; ``key`` (its sort key) locates it in a
        sorted base.  A no-op for an id the overlay does not hold."""
        if nid not in self.adds:
            if nid < len(self.dead) and self.dead[nid]:
                return
            ids = self.ids
            if self.sorted:
                keys = self.cols[0]
                ids = ids[_search(keys, key, "left") : _search(keys, key, "right")]
            if not (ids == nid).any():
                return
        self.drop_many([nid])

    def drop_many(self, ids: List[int]) -> None:
        """Remove entries the overlay holds: a pending add leaves the
        overlay, any other id is marked in ``dead``."""
        self.live -= len(ids)
        if self.adds:
            ids = [nid for nid in ids if self.adds.pop(nid, _MISSING) is _MISSING]
        if ids:
            if not self.dels:  # first delete since the fold: cover every base id
                self.dead = np.zeros(int(self.ids.max()) + 1, dtype=np.bool_)
            self.dead[ids] = True
            self.dels += len(ids)
        self._maybe_fold()

    def bulk(self, ids: Sequence[int], values: List[Any]) -> None:
        """Backfill: fold the overlay together with many stored values
        (``values[i]`` belongs to ``ids[i]``) in one sort."""
        if not ids:
            self.fold()
            return
        self.fold(np.asarray(ids, dtype=_I64), self._columns(values))

    def _maybe_fold(self) -> None:
        if len(self.adds) + self.dels >= FOLD_THRESHOLD:
            self.fold()

    def fold(self, ids: Optional[np.ndarray] = None, cols: Sequence[np.ndarray] = ()) -> None:
        """Fold the overlay into the base; bulk rows ``ids`` with parallel
        ``cols`` are appended after the pending adds."""
        if ids is None and not self.adds and not self.dels:
            return
        dead = np.flatnonzero(self.dead)
        new_ids, new_cols = self.pending()
        if ids is not None:
            new_ids, new_cols = _append(new_ids, new_cols, ids, cols)
            self.live += len(ids)
        all_ids, all_cols = self._base_live()
        if len(new_ids):
            all_ids, all_cols = _append(all_ids, all_cols, new_ids, new_cols)
            if self.sorted:
                order = np.argsort(all_cols[0], kind="stable")
                all_ids, all_cols = all_ids[order], tuple(c[order] for c in all_cols)
        self.ids, self.cols = all_ids, all_cols
        self.adds, self.dead, self.dels = {}, _NO_DEAD, 0
        self._folded(dead, new_ids, new_cols)

    def _folded(self, dead: np.ndarray, ids: np.ndarray, cols: Tuple[np.ndarray, ...]) -> None:
        """Runs after every fold with the ids dropped from the base and
        the rows appended to it."""

    # -- read side ---------------------------------------------------

    def _live_mask(self, ids: np.ndarray) -> Optional[np.ndarray]:
        """Which of ``ids`` (base ids) are not deleted; None when none can be."""
        if not self.dels or not len(ids):
            return None
        return ~self.dead[ids]

    def _base_live(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        keep = self._live_mask(self.ids)
        if keep is None:
            return self.ids, self.cols
        return self.ids[keep], tuple(c[keep] for c in self.cols)

    def pending(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """The pending adds as an id array with parallel columns."""
        adds = self.adds
        if not adds:
            return _EMPTY_IDS, tuple(c[:0] for c in self.cols)
        ids = np.fromiter(adds, dtype=_I64, count=len(adds))
        return ids, self._columns(list(adds.values()))

    def view(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Every live entry: the base minus deletes, then the pending adds."""
        ids, cols = self._base_live()
        if self.adds:
            ids, cols = _append(ids, cols, *self.pending())
        return ids, cols

    def visible(self, base_ids: np.ndarray, match: Callable[[Any], bool]) -> np.ndarray:
        """Sorted unique live ids of one seek: ``base_ids`` (the base's
        hits) minus deletes, plus the pending adds whose stored value
        ``match`` accepts."""
        keep = self._live_mask(base_ids)
        if keep is not None:
            base_ids = base_ids[keep]
        extra = [nid for nid, value in self.adds.items() if match(value)]
        if extra:
            base_ids = np.concatenate([base_ids, np.asarray(extra, dtype=_I64)])
        return np.unique(base_ids)

    def distinct_keys(self) -> int:
        """Distinct base keys, counting every pending add as new."""
        keys = self.cols[0]
        return (len(np.unique(keys)) if len(keys) else 0) + len(self.adds)

    def __len__(self) -> int:
        return self.live


class EdgeIdStore(Overlay):
    """One relationship type's edge ids keyed by an int64 node-pair key
    (:func:`repro.graph.graph.pair_keys`), with the batched reads the edge
    path needs on top of the overlay core."""

    __slots__ = ()

    def seek_keys(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched equality seek: ``(query index, edge id)`` of every live
        entry whose key equals ``keys[q]`` — the base's hits in key order,
        then the pending adds."""
        base = self.cols[0]
        lo = base.searchsorted(keys, "left")
        lens = base.searchsorted(keys, "right") - lo
        q = np.repeat(np.arange(len(keys), dtype=_I64), lens)
        ids = self.ids[K.concat_ranges(lo, lens)]
        keep = self._live_mask(ids)
        if keep is not None:
            q, ids = q[keep], ids[keep]
        if self.adds:
            add_ids, (add_keys,) = self.pending()
            order = np.argsort(keys, kind="stable")
            ordered = keys[order]
            start = ordered.searchsorted(add_keys, "left")
            runs = ordered.searchsorted(add_keys, "right") - start
            q = np.concatenate([q, order[K.concat_ranges(start, runs)]])
            ids = np.concatenate([ids, np.repeat(add_ids, runs)])
        return q, ids

    def seek_span(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(key, edge id)`` of every live entry with ``lo <= key < hi``:
        the base's hits in key order, then the pending adds."""
        base = self.cols[0]
        start, stop = base.searchsorted([lo, hi]).tolist()
        keys, ids = base[start:stop], self.ids[start:stop]
        keep = self._live_mask(ids)
        if keep is not None:
            keys, ids = keys[keep], ids[keep]
        if self.adds:
            add_ids, (add_keys,) = self.pending()
            hit = (add_keys >= lo) & (add_keys < hi)
            keys = np.concatenate([keys, add_keys[hit]])
            ids = np.concatenate([ids, add_ids[hit]])
        return keys, ids
