"""Columnar secondary indexes: sorted-array range, composite, and vector.

Three index kinds share one maintenance surface (``index_node`` /
``unindex_node`` / ``bulk_insert`` keyed by interned attribute ids) and
one write discipline, :class:`~repro.graph.overlay.Overlay`: a base of
node ids with parallel columns, plus a pending overlay (adds keyed by node
id and a deleted-id set) that every write lands in and that folds into the
base once :data:`~repro.graph.overlay.FOLD_THRESHOLD` entries are pending
— the paper's ``DeltaMatrix`` discipline, so reads never rebuild anything.
Each kind keeps only its key encoding, its sort order and its read kernel:

* :class:`RangeIndex` — the workhorse.  Keys live in sorted numpy arrays
  parallel to an ``int64`` node-id array, one overlay per *type family*
  (numbers, strings, booleans — kept separate so ``True``, ``1`` and
  ``1.0`` can never alias, mirroring Cypher's comparison rules where
  booleans and numbers are incomparable).  Seeks (``=``,
  ``<``/``<=``/``>``/``>=``, closed ranges, ``IN``, ``STARTS WITH``
  prefixes) binary-search the sorted arrays and linearly scan the
  bounded overlay, returning sorted unique id batches.

* :class:`CompositeIndex` — ordered attribute tuples encoded as
  ``(family_rank, value)`` pairs in one sorted object array; equality
  on any leading prefix of the attribute tuple is a binary-search slice
  (the upper bound appends a top sentinel to the prefix).

* :class:`VectorIndex` — cosine top-k over L2-normalized ``float64``
  vectors.  Small or ``exact: true`` indexes answer with one matmul +
  sort over a flat matrix (exact by construction, ties break toward the
  lower node id).  Past :data:`DEFAULT_TRAIN_MIN` rows the index trains an
  IVF (inverted-file) layout: a spherical k-means coarse quantizer
  (k-means++ seeding, a few Lloyd's rounds over a subsample) assigns
  every vector to one of ``nlist`` centroid buckets stored as
  contiguous per-bucket matrices, and a query scores only the
  ``nprobe`` nearest buckets — O(nprobe·N/nlist) instead of O(N).
  The pending adds are a flat tail that every query scans exactly
  (recall never degrades on unfolded data); folds assign the tail into
  buckets, and drift (size doubling or bucket imbalance) triggers a
  deterministic incremental re-clustering that warm-starts from the
  current centroids and swaps the new layout in atomically.

Indexing rules shared by all kinds: ``None`` is never indexed (Cypher
null matches no predicate), and neither is ``NaN`` (it compares neither
equal nor ordered against anything, so no seekable predicate can ever
select it).

Numeric keys are stored as ``float64`` sort keys *plus* the raw Python
values: integers beyond 2**53 don't round-trip through ``float64``, so
boundary runs whose float key could be imprecise are re-verified against
the raw values.  Interior entries are safe because ``float`` is
monotone: ``float(a) < float(b)`` implies ``a < b``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.overlay import _EMPTY_IDS, _I64, Overlay, _search

__all__ = ["RangeIndex", "CompositeIndex", "VectorIndex"]

# Type families.  The ranks only matter inside composite keys, where
# they impose one total order across otherwise-incomparable families.
_F_BOOL, _F_NUM, _F_STR = 0, 1, 2

# float64 represents every int in [-2**53, 2**53] exactly
_EXACT_INT_BOUND = 2 ** 53


def _family_of(value: Any) -> Optional[int]:
    """Type family of ``value``, or None when the value is unindexable
    (null, NaN, containers, entities)."""
    if isinstance(value, bool):
        return _F_BOOL
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isnan(value):
            return None
        return _F_NUM
    if isinstance(value, str):
        return _F_STR
    return None


def _float_key(value: Any) -> float:
    """float64 sort key for a numeric value; huge ints clamp to ±inf
    (their boundary runs are raw-verified)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _fuzzy_key(fkey: float) -> bool:
    """True when entries sharing this float key may differ as raw values
    (big ints collapse onto one float), so the run needs raw checks."""
    return not math.isfinite(fkey) or abs(fkey) >= _EXACT_INT_BOUND


def _prefix_upper(prefix: str) -> Optional[str]:
    """Smallest string greater than every string with ``prefix``; None
    when no such string exists (all chars are U+10FFFF)."""
    for i in range(len(prefix) - 1, -1, -1):
        code = ord(prefix[i])
        if code < 0x10FFFF:
            return prefix[:i] + chr(code + 1)
    return None


class _FamilyStore(Overlay):
    """One type family of a :class:`RangeIndex`, storing the raw values.
    Columns: the sort key (a float64 for numbers, the value itself
    otherwise) and, for numbers only, the raw value — big ints share
    float keys."""

    __slots__ = ("numeric",)

    def __init__(self, numeric: bool) -> None:
        if numeric:
            super().__init__(np.empty(0, dtype=np.float64), np.empty(0, dtype=object))
        else:
            super().__init__(np.empty(0, dtype=object))
        self.numeric = numeric

    def _columns(self, values: List[Any]) -> Tuple[np.ndarray, ...]:
        if not self.numeric:
            return super()._columns(values)
        n = len(values)
        keys = np.fromiter((_float_key(v) for v in values), dtype=np.float64, count=n)
        return keys, np.fromiter(values, dtype=object, count=n)

    def sort_key(self, value: Any) -> Any:
        return _float_key(value) if self.numeric else value

    # -- read side ---------------------------------------------------

    def seek(self, lo: Any, lo_strict: bool, hi: Any, hi_strict: bool) -> np.ndarray:
        """Node ids whose value satisfies both bounds (None = unbounded).
        Bounds must already be in this family; boundary runs with
        imprecise float keys are re-checked with exact Python
        comparisons on the raw values."""

        def in_range(v: Any) -> bool:
            if lo is not None and not (v > lo if lo_strict else v >= lo):
                return False
            if hi is not None and not (v < hi if hi_strict else v <= hi):
                return False
            return True

        keys, raw = self.cols[0], self.cols[-1]
        n = len(keys)
        start, stop = 0, n
        fuzzy_runs: List[Tuple[int, int]] = []
        if self.numeric:
            if lo is not None:
                flo = _float_key(lo)
                if _fuzzy_key(flo):
                    left = int(np.searchsorted(keys, flo, side="left"))
                    right = int(np.searchsorted(keys, flo, side="right"))
                    fuzzy_runs.append((left, right))
                    start = right
                else:
                    start = int(
                        np.searchsorted(keys, flo, side="right" if lo_strict else "left")
                    )
            if hi is not None:
                fhi = _float_key(hi)
                if _fuzzy_key(fhi):
                    left = int(np.searchsorted(keys, fhi, side="left"))
                    right = int(np.searchsorted(keys, fhi, side="right"))
                    fuzzy_runs.append((left, right))
                    stop = min(stop, left)
                else:
                    stop = min(
                        stop,
                        int(np.searchsorted(keys, fhi, side="left" if hi_strict else "right")),
                    )
        else:
            if lo is not None:
                start = int(np.searchsorted(keys, lo, side="right" if lo_strict else "left"))
            if hi is not None:
                stop = int(np.searchsorted(keys, hi, side="left" if hi_strict else "right"))
        stop = max(stop, start)
        hits = [self.ids[start:stop]]
        seen: Set[int] = set()
        for left, right in fuzzy_runs:
            for i in range(left, right):
                if (start <= i < stop) or i in seen:
                    continue
                seen.add(i)
                if in_range(raw[i]):
                    hits.append(self.ids[i : i + 1])
        return self.visible(np.concatenate(hits) if len(hits) > 1 else hits[0], in_range)

    def seek_prefix(self, prefix: str) -> np.ndarray:
        upper = _prefix_upper(prefix)
        keys = self.cols[0]
        start = int(np.searchsorted(keys, prefix, side="left"))
        stop = len(keys) if upper is None else int(np.searchsorted(keys, upper, side="left"))
        return self.visible(self.ids[start : max(stop, start)], lambda v: v.startswith(prefix))

    def ordered_ids(self, ascending: bool) -> np.ndarray:
        """Every live id in key order, equal keys broken toward the lower
        node id (Cypher ORDER BY stability over an ascending-id scan)."""
        ids, cols = self.view()
        if not len(ids):
            return _EMPTY_IDS
        keys = cols[0]
        if not self.numeric:
            # object keys (strings / booleans): np.lexsort can't take
            # them, but their unique-inverse codes order identically
            _, codes = np.unique(keys, return_inverse=True)
            order = np.lexsort((ids, codes if ascending else -codes))
            return ids[order].astype(_I64)
        order = np.lexsort((ids, keys if ascending else -keys))
        keys, ids, raw = keys[order], ids[order], cols[1][order]
        out = ids.astype(_I64)
        # fuzzy float keys (big ints, ±inf) collapse distinct raw values
        # onto one sort key — re-rank those runs by exact raw comparison
        i, n = 0, len(keys)
        while i < n:
            j = i + 1
            while j < n and keys[j] == keys[i]:
                j += 1
            if j - i > 1 and _fuzzy_key(float(keys[i])):
                run = list(range(i, j))
                run.sort(key=lambda t: int(ids[t]))
                run.sort(key=lambda t: raw[t], reverse=not ascending)
                out[i:j] = ids[run]
            i = j
        return out


class RangeIndex:
    """Sorted-array range index over one ``:Label(attribute)`` pair.

    Serves equality, one- and two-sided ranges, ``IN`` lists and string
    prefixes as sorted unique node-id batches.
    """

    kind = "range"

    __slots__ = ("label_id", "attr_id", "_fams")

    def __init__(self, label_id: int = -1, attr_id: int = -1) -> None:
        self.label_id = label_id
        self.attr_id = attr_id
        self._fams: Dict[int, _FamilyStore] = {}

    @property
    def attr_ids(self) -> Tuple[int, ...]:
        return (self.attr_id,)

    def _fam(self, family: int) -> _FamilyStore:
        store = self._fams.get(family)
        if store is None:
            store = self._fams[family] = _FamilyStore(numeric=(family == _F_NUM))
        return store

    # -- write side --------------------------------------------------

    def insert(self, value: Any, node_id: int) -> bool:
        family = _family_of(value)
        if family is None:
            return False
        self._fam(family).add(int(node_id), value)
        return True

    def remove(self, value: Any, node_id: int) -> None:
        family = _family_of(value)
        store = self._fams.get(family) if family is not None else None
        if store is not None:
            store.drop(int(node_id), store.sort_key(value))

    def index_node(self, node_id: int, props: Dict[int, Any]) -> bool:
        value = props.get(self.attr_id)
        return value is not None and self.insert(value, node_id)

    def unindex_node(self, node_id: int, props: Dict[int, Any]) -> None:
        value = props.get(self.attr_id)
        if value is not None:
            self.remove(value, node_id)

    def bulk_insert(self, values: Sequence[Any], ids: Sequence[int]) -> int:
        """Vectorized backfill: classify into families, one sort each."""
        buckets: Dict[int, Tuple[List[Any], List[int]]] = {}
        for value, nid in zip(values, ids):
            family = _family_of(value)
            if family is None:
                continue
            vals, nids = buckets.setdefault(family, ([], []))
            vals.append(value)
            nids.append(int(nid))
        for family, (vals, nids) in buckets.items():
            self._fam(family).bulk(nids, vals)
        return sum(len(vals) for vals, _ in buckets.values())

    def fold(self) -> None:
        for store in self._fams.values():
            store.fold()

    # -- read side ---------------------------------------------------

    def seek_eq(self, value: Any) -> np.ndarray:
        family = _family_of(value)
        if family is None:
            return _EMPTY_IDS
        store = self._fams.get(family)
        if store is None:
            return _EMPTY_IDS
        return store.seek(value, False, value, False)

    def seek_range(self, lo: Any, lo_strict: bool, hi: Any, hi_strict: bool) -> np.ndarray:
        """Both bounds optional; bounds of different families (or an
        unindexable bound) select nothing — Cypher orders values only
        within a type family."""
        fams = set()
        for bound in (lo, hi):
            if bound is None:
                continue
            family = _family_of(bound)
            if family is None:
                return _EMPTY_IDS
            fams.add(family)
        if len(fams) != 1:
            return _EMPTY_IDS
        store = self._fams.get(fams.pop())
        if store is None:
            return _EMPTY_IDS
        return store.seek(lo, lo_strict, hi, hi_strict)

    def seek_cmp(self, op: str, value: Any) -> np.ndarray:
        if op == "=":
            return self.seek_eq(value)
        if op == "<":
            return self.seek_range(None, False, value, True)
        if op == "<=":
            return self.seek_range(None, False, value, False)
        if op == ">":
            return self.seek_range(value, True, None, False)
        if op == ">=":
            return self.seek_range(value, False, None, False)
        raise ValueError(f"unsupported seek operator {op!r}")

    def seek_prefix(self, prefix: Any) -> np.ndarray:
        if not isinstance(prefix, str):
            return _EMPTY_IDS
        store = self._fams.get(_F_STR)
        if store is None:
            return _EMPTY_IDS
        return store.seek_prefix(prefix)

    def seek_in(self, values: Iterable[Any]) -> np.ndarray:
        hits = [self.seek_eq(v) for v in values]
        hits = [h for h in hits if len(h)]
        if not hits:
            return _EMPTY_IDS
        return np.unique(np.concatenate(hits))

    def ordered_ids(self, ascending: bool = True) -> np.ndarray:
        """Every indexed id in ORDER BY value order: type families ranked
        as Cypher's mixed-type total order (strings < booleans < numbers),
        values ordered within each family, equal values broken toward the
        lower node id.  Never folds — safe under the query read lock."""
        families = (_F_STR, _F_BOOL, _F_NUM)
        if not ascending:
            families = tuple(reversed(families))
        parts: List[np.ndarray] = []
        for family in families:
            store = self._fams.get(family)
            if store is None:
                continue
            ids = store.ordered_ids(ascending)
            if len(ids):
                parts.append(ids)
        if not parts:
            return _EMPTY_IDS
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    # -- introspection -----------------------------------------------

    def __len__(self) -> int:
        return sum(store.live for store in self._fams.values())

    def ndv(self) -> int:
        """Approximate number of distinct keys (pending adds counted as
        distinct; never folds, so it is read-safe)."""
        if not len(self):
            return 0
        return max(1, sum(s.distinct_keys() for s in self._fams.values()))

    def numeric_sample(self, k: int = 64) -> Optional[np.ndarray]:
        """Up to ``k`` evenly spaced sorted float keys from the numeric
        family — the cost model's rank-query material."""
        store = self._fams.get(_F_NUM)
        if store is None or not len(store.ids):
            return None
        keys = store.cols[0]
        take = np.linspace(0, len(keys) - 1, num=min(k, len(keys))).astype(np.int64)
        return keys[take]

    def __repr__(self) -> str:
        return f"<RangeIndex label={self.label_id} attr={self.attr_id} entries={len(self)}>"


class _Top:
    """Sorts above every composite key element — the exclusive upper
    bound of a prefix-equality slice."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return other is self

    def __gt__(self, other: Any) -> bool:
        return True

    def __ge__(self, other: Any) -> bool:
        return True

    def __eq__(self, other: Any) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0x70F0


_TOP = _Top()


def _enc_value(value: Any) -> Optional[Tuple[int, Any]]:
    """Encode one composite key element as ``(family_rank, value)`` —
    totally ordered across families, exact within them (numbers stay
    raw ints/floats, so no float64 precision loss)."""
    family = _family_of(value)
    if family is None:
        return None
    if family == _F_BOOL:
        return (_F_BOOL, 1 if value else 0)
    return (family, value)


class CompositeIndex(Overlay):
    """Sorted index over an ordered attribute tuple; equality on any
    leading prefix of the tuple is one binary-search slice.  A node is
    indexed under its longest indexable *prefix* of the attribute tuple
    (nothing if the first attribute is missing), so a width-``w`` prefix
    seek finds exactly the nodes whose first ``w`` attributes match —
    including nodes that lack the trailing attributes."""

    kind = "composite"

    __slots__ = ("label_id", "attr_ids")

    def __init__(self, label_id: int, attr_ids: Tuple[int, ...]) -> None:
        super().__init__(np.empty(0, dtype=object))  # sorted encoded tuples
        self.label_id = label_id
        self.attr_ids = tuple(attr_ids)

    def _encode(self, values: Sequence[Any]) -> Optional[Tuple]:
        key: List[Tuple[int, Any]] = []
        for value in values:
            enc = _enc_value(value)
            if enc is None:
                break
            key.append(enc)
        return tuple(key) if key else None

    # -- write side --------------------------------------------------

    def index_node(self, node_id: int, props: Dict[int, Any]) -> bool:
        key = self._encode([props.get(aid) for aid in self.attr_ids])
        if key is None:
            return False
        self.add(int(node_id), key)
        return True

    def unindex_node(self, node_id: int, props: Dict[int, Any]) -> None:
        key = self._encode([props.get(aid) for aid in self.attr_ids])
        if key is not None:
            self.drop(int(node_id), key)

    def bulk_insert(self, columns: Sequence[Sequence[Any]], ids: Sequence[int]) -> int:
        """Backfill from one value column per attribute (None = absent)."""
        keys: List[Tuple] = []
        nids: List[int] = []
        for values, nid in zip(zip(*columns), ids):
            key = self._encode(values)
            if key is not None:
                keys.append(key)
                nids.append(int(nid))
        self.bulk(nids, keys)
        return len(keys)

    # -- read side ---------------------------------------------------

    def seek_prefix_eq(self, values: Sequence[Any]) -> np.ndarray:
        """Ids of nodes equal on the leading ``len(values)`` attributes.
        Any unindexable probe value selects nothing."""
        if not values or len(values) > len(self.attr_ids):
            return _EMPTY_IDS
        prefix: List[Tuple[int, Any]] = []
        for value in values:
            enc = _enc_value(value)
            if enc is None:
                return _EMPTY_IDS
            prefix.append(enc)
        lo_key = tuple(prefix)
        width = len(lo_key)
        keys = self.cols[0]
        start = _search(keys, lo_key, "left")
        stop = _search(keys, lo_key + (_TOP,), "left")
        return self.visible(self.ids[start : max(stop, start)], lambda key: key[:width] == lo_key)

    # -- introspection -----------------------------------------------

    def ndv(self) -> int:
        return max(1, self.distinct_keys()) if self.live else 0

    def __repr__(self) -> str:
        return f"<CompositeIndex label={self.label_id} attrs={self.attr_ids} entries={self.live}>"


#: training subsample: this many points per centroid (bounds Lloyd's cost)
_TRAIN_SAMPLE_PER_LIST = 40
#: Lloyd's refinement rounds over the subsample
_LLOYD_ITERATIONS = 5
#: rows per chunk in full-matrix assignment matmuls (bounds peak memory)
_ASSIGN_CHUNK = 8192
#: a bucket this many times the mean size marks the layout as drifted
_IMBALANCE_FACTOR = 6.0
#: IVF buckets a query probes when neither the query nor the index sets
#: ``nprobe`` (clamped to the trained bucket count); read at query time
DEFAULT_NPROBE = 16
#: vectors an index must hold before it trains its IVF coarse quantizer;
#: read at every fold, so tests may patch it
DEFAULT_TRAIN_MIN = 1024


def _kmeanspp_seed(pts: np.ndarray, nlist: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding under cosine distance (rows are unit-norm, so
    1 - dot is the squared chordal distance up to a constant)."""
    n = len(pts)
    centroids = np.empty((nlist, pts.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = pts[first]
    # running min distance to the chosen set; D^2-weighted draws
    dist = np.maximum(0.0, 1.0 - pts @ centroids[0])
    for c in range(1, nlist):
        total = float(dist.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=dist / total))
        centroids[c] = pts[pick]
        np.minimum(dist, np.maximum(0.0, 1.0 - pts @ centroids[c]), out=dist)
    return centroids


def _nearest_centroid(mat: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """argmax-cosine bucket of every row, chunked so the score matrix
    never materializes at full N×nlist size."""
    out = np.empty(len(mat), dtype=_I64)
    for start in range(0, len(mat), _ASSIGN_CHUNK):
        stop = min(start + _ASSIGN_CHUNK, len(mat))
        out[start:stop] = np.argmax(mat[start:stop] @ centroids.T, axis=1)
    return out


class VectorIndex(Overlay):
    """Cosine top-k with an IVF (inverted-file) fast path.

    Values are lists of finite numbers with the configured dimension;
    anything else is simply not indexed.  A flat L2-normalized matrix is
    always maintained as the overlay's base (appended, never sorted) — it
    is the exact brute-force path (one matmul plus
    a sort, ties broken toward the lower node id), serving every query
    while the index is untrained (fewer than :data:`DEFAULT_TRAIN_MIN` rows, or
    ``exact=True``) and remaining the differential-testing oracle after
    training.  Once trained, queries probe the ``nprobe`` buckets whose
    centroids score highest, scan those buckets plus the pending tail
    exactly, and keep the same global score/tie ordering over the
    candidate set.  Training and re-clustering are deterministic (seeded
    RNG, pure function of the flat matrix), so WAL replay reproduces the
    bucket layout exactly."""

    kind = "vector"
    sorted = False

    __slots__ = (
        "label_id",
        "attr_id",
        "dim",
        "similarity",
        "exact",
        "nlist_opt",
        "nprobe_opt",
        "_centroids",
        "_bucket_ids",
        "_bucket_mats",
        "_trained_size",
        "_retrains",
    )

    def __init__(
        self,
        label_id: int,
        attr_id: int,
        dim: Optional[int] = None,
        similarity: str = "cosine",
        *,
        nlist: Optional[int] = None,
        nprobe: Optional[int] = None,
        exact: bool = False,
    ) -> None:
        if similarity != "cosine":
            raise ValueError(f"unsupported vector similarity {similarity!r}")
        self.label_id = label_id
        self.attr_id = attr_id
        self.dim = int(dim) if dim is not None else None
        self.similarity = similarity
        super().__init__(np.empty((0, self.dim or 0), dtype=np.float64))
        self.exact = bool(exact)
        self.nlist_opt = int(nlist) if nlist is not None else None
        self.nprobe_opt = int(nprobe) if nprobe is not None else None
        self._centroids: Optional[np.ndarray] = None
        self._bucket_ids: List[np.ndarray] = []
        self._bucket_mats: List[np.ndarray] = []
        self._trained_size = 0
        self._retrains = 0

    @property
    def attr_ids(self) -> Tuple[int, ...]:
        return (self.attr_id,)

    @property
    def trained(self) -> bool:
        return self._centroids is not None

    @property
    def nlist(self) -> Optional[int]:
        """Bucket count of the live layout (None while untrained)."""
        return len(self._centroids) if self._centroids is not None else None

    @property
    def nprobe(self) -> int:
        """The default probe width queries resolve without an override."""
        return self.nprobe_opt if self.nprobe_opt is not None else DEFAULT_NPROBE

    @property
    def options(self) -> Dict[str, Any]:
        """The durable creation options — what snapshots and the WAL
        round-trip through :meth:`Graph.create_vector_index`.  ``exact``
        is always present: its absence marks a pre-IVF record, which
        replays as brute-force."""
        opts: Dict[str, Any] = {
            "dimension": self.dim,
            "similarity": self.similarity,
            "exact": self.exact,
        }
        if self.nlist_opt is not None:
            opts["nlist"] = self.nlist_opt
        if self.nprobe_opt is not None:
            opts["nprobe"] = self.nprobe_opt
        return opts

    def describe_options(self) -> Dict[str, Any]:
        """Creation options plus live training state, for ``db.indexes``."""
        opts = self.options
        opts["nlist"] = self.nlist if self.trained else self.nlist_opt
        opts["nprobe"] = self.nprobe
        opts["trained"] = self.trained
        opts["retrains"] = self._retrains
        return opts

    def _coerce(self, value: Any) -> Optional[np.ndarray]:
        if not isinstance(value, (list, tuple)) or not value:
            return None
        for v in value:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return None
        vec = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            return None
        if self.dim is None:
            self.dim = len(vec)
            self.cols = (np.empty((0, self.dim), dtype=np.float64),)
        if len(vec) != self.dim:
            return None
        norm = float(np.linalg.norm(vec))
        return vec / norm if norm > 0.0 else vec

    # -- write side --------------------------------------------------

    def index_node(self, node_id: int, props: Dict[int, Any]) -> bool:
        vec = self._coerce(props.get(self.attr_id))
        if vec is None:
            return False
        self.add(int(node_id), vec)
        return True

    def unindex_node(self, node_id: int, props: Dict[int, Any]) -> None:
        self.drop(int(node_id))

    def bulk_insert(self, values: Sequence[Any], ids: Sequence[int]) -> int:
        vecs: List[np.ndarray] = []
        nids: List[int] = []
        for value, nid in zip(values, ids):
            vec = self._coerce(value)
            if vec is not None:
                vecs.append(vec)
                nids.append(int(nid))
        self.bulk(nids, vecs)
        return len(vecs)

    def _folded(self, dead: np.ndarray, ids: np.ndarray, cols: Tuple[np.ndarray, ...]) -> None:
        """Carry the fold into the centroid buckets when trained, then
        re-evaluate the training policy."""
        if self._centroids is not None:
            if len(dead):
                self._drop_from_buckets(dead)
            if len(ids):
                self._append_to_buckets(ids, cols[0])
        self._maybe_train()

    # -- IVF layout ----------------------------------------------------

    def _maybe_train(self) -> None:
        """The write-side training policy.  First training waits for
        :data:`DEFAULT_TRAIN_MIN` rows; once trained, drift — the flat set doubling
        since the last train, or one bucket outgrowing the mean by
        :data:`_IMBALANCE_FACTOR` — triggers an incremental re-cluster
        (the same cheap-counter pattern the statistics epoch uses to
        refresh derived read state)."""
        if self.exact:
            return
        n = len(self.ids)
        if self._centroids is None:
            if n >= DEFAULT_TRAIN_MIN:
                self._train()
            return
        if n >= 2 * max(1, self._trained_size):
            self._train(warm=True)
            return
        sizes = [len(b) for b in self._bucket_ids]
        if sizes and n >= DEFAULT_TRAIN_MIN:
            mean = max(1.0, n / len(sizes))
            if max(sizes) > _IMBALANCE_FACTOR * mean:
                self._train(warm=True)

    def _train(self, warm: bool = False) -> None:
        """(Re)build the coarse quantizer and bucket layout.

        Deterministic by construction — the RNG seed is a function of the
        index identity and the flat size, and every draw depends only on
        the flat matrix — so WAL replay re-derives the identical layout.
        The new centroids and buckets are computed on the side and swapped
        in atomically (single attribute assignments under the write lock);
        a concurrent reader sees either the old layout or the new one.
        ``warm=True`` seeds Lloyd's from the current centroids instead of
        k-means++ — the incremental re-clustering path."""
        mat, ids = self.cols[0], self.ids
        n = len(ids)
        if n == 0:
            self._centroids = None
            self._bucket_ids, self._bucket_mats = [], []
            self._trained_size = 0
            return
        nlist = self.nlist_opt if self.nlist_opt is not None else max(1, int(round(math.sqrt(n))))
        nlist = min(nlist, n)
        seed = ((self.label_id + 1) * 2654435761 + (self.attr_id + 1) * 40503 + n) & 0xFFFFFFFF
        rng = np.random.default_rng(seed)
        sample_n = min(n, max(256, nlist * _TRAIN_SAMPLE_PER_LIST))
        pts = mat[rng.choice(n, size=sample_n, replace=False)] if sample_n < n else mat
        was_trained = self._centroids is not None
        if warm and was_trained and len(self._centroids) == nlist:
            centroids = self._centroids.copy()
        else:
            centroids = _kmeanspp_seed(pts, nlist, rng)
        for _ in range(_LLOYD_ITERATIONS):
            assign = _nearest_centroid(pts, centroids)
            sums = np.zeros_like(centroids)
            np.add.at(sums, assign, pts)
            counts = np.bincount(assign, minlength=nlist)
            norms = np.linalg.norm(sums, axis=1)
            ok = (counts > 0) & (norms > 0.0)
            centroids[ok] = sums[ok] / norms[ok, None]
            empty = np.flatnonzero(counts == 0)
            if len(empty):
                # re-seed empty clusters from the worst-covered points
                coverage = np.max(pts @ centroids.T, axis=1)
                worst = np.argsort(coverage, kind="stable")[: len(empty)]
                centroids[empty] = pts[worst]
        self.install_centroids(centroids)
        if was_trained:
            self._retrains += 1

    def install_centroids(self, centroids: np.ndarray) -> None:
        """Adopt ``centroids`` and rebuild the buckets by nearest-centroid
        assignment of the flat matrix — a pure function of (vectors,
        centroids), which is how snapshot restore reproduces the layout
        without re-running Lloyd's."""
        centroids = np.ascontiguousarray(centroids, dtype=np.float64)
        mat = self.cols[0]
        assign = _nearest_centroid(mat, centroids)
        order = np.argsort(assign, kind="stable")
        sorted_assign = assign[order]
        bounds = np.searchsorted(sorted_assign, np.arange(len(centroids) + 1))
        bucket_ids: List[np.ndarray] = []
        bucket_mats: List[np.ndarray] = []
        for c in range(len(centroids)):
            sl = order[bounds[c] : bounds[c + 1]]
            bucket_ids.append(self.ids[sl].copy())
            bucket_mats.append(np.ascontiguousarray(mat[sl]))
        self._centroids = centroids
        self._bucket_ids = bucket_ids
        self._bucket_mats = bucket_mats
        self._trained_size = len(self.ids)

    def _append_to_buckets(self, aids: np.ndarray, amat: np.ndarray) -> None:
        assign = _nearest_centroid(amat, self._centroids)
        for c in np.unique(assign):
            mask = assign == c
            c = int(c)
            self._bucket_ids[c] = np.concatenate([self._bucket_ids[c], aids[mask]])
            self._bucket_mats[c] = np.vstack([self._bucket_mats[c], amat[mask]])

    def _drop_from_buckets(self, dead: np.ndarray) -> None:
        for c in range(len(self._bucket_ids)):
            bids = self._bucket_ids[c]
            if not len(bids):
                continue
            keep = ~np.isin(bids, dead)
            if not np.all(keep):
                self._bucket_ids[c] = bids[keep]
                self._bucket_mats[c] = self._bucket_mats[c][keep]

    # -- read side ---------------------------------------------------

    def query(
        self, vector: Any, k: int, nprobe: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` (node_ids, cosine_scores), score-descending with
        node-id tie-break.  ``nprobe`` overrides the index default probe
        width; untrained and ``exact`` indexes ignore it and answer with
        the flat brute-force path.  Raises ValueError on a malformed
        query vector."""
        if self.dim is None:
            return _EMPTY_IDS, np.empty(0, dtype=np.float64)
        if not isinstance(vector, (list, tuple)):
            raise ValueError(f"query vector must be a list of {self.dim} numbers")
        if len(vector) != self.dim:
            raise ValueError(
                f"query vector has dimension {len(vector)}, index expects {self.dim}"
            )
        for v in vector:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError("query vector must contain only numbers")
        q = np.asarray(vector, dtype=np.float64)
        if not np.all(np.isfinite(q)):
            raise ValueError("query vector must be finite")
        norm = float(np.linalg.norm(q))
        if norm > 0.0:
            q = q / norm
        if self._centroids is None:
            return self._query_flat(q, k)
        return self._query_ivf(q, k, nprobe)

    def _query_flat(self, q: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The brute-force path — PR 9's exact scan, preserved verbatim as
        the differential-testing oracle."""
        ids, (mat,) = self.view()
        if not len(ids) or k <= 0:
            return _EMPTY_IDS, np.empty(0, dtype=np.float64)
        scores = mat @ q
        order = np.lexsort((ids, -scores))[: int(k)]
        return ids[order].astype(_I64), scores[order]

    def _query_ivf(
        self, q: np.ndarray, k: int, nprobe: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe the ``nprobe`` best buckets exactly, plus the pending
        tail; the candidate pool keeps the flat path's global ordering
        (score descending, node-id tie-break)."""
        if k <= 0:
            return _EMPTY_IDS, np.empty(0, dtype=np.float64)
        centroids = self._centroids
        width = nprobe if nprobe is not None else self.nprobe
        width = max(1, min(int(width), len(centroids)))
        cscores = centroids @ q
        if width < len(cscores):
            probe = np.argpartition(-cscores, width - 1)[:width]
        else:
            probe = np.arange(len(cscores))
        id_parts: List[np.ndarray] = []
        score_parts: List[np.ndarray] = []
        for c in probe:
            bids = self._bucket_ids[int(c)]
            if len(bids):
                id_parts.append(bids)
                score_parts.append(self._bucket_mats[int(c)] @ q)
        ids = np.concatenate(id_parts) if id_parts else _EMPTY_IDS
        scores = np.concatenate(score_parts) if score_parts else np.empty(0, dtype=np.float64)
        keep = self._live_mask(ids)
        if keep is not None:
            ids, scores = ids[keep], scores[keep]
        if self.adds:
            # the unfolded tail is always scanned exactly — fresh writes
            # are visible at full recall before any fold
            aids, (amat,) = self.pending()
            ids = np.concatenate([ids, aids])
            scores = np.concatenate([scores, amat @ q])
        if not len(ids):
            return _EMPTY_IDS, np.empty(0, dtype=np.float64)
        order = np.lexsort((ids, -scores))[: int(k)]
        return ids[order].astype(_I64), scores[order]

    # -- introspection -----------------------------------------------

    def ndv(self) -> int:
        return self.live

    def __repr__(self) -> str:
        layout = f"ivf[{self.nlist}]" if self.trained else ("exact" if self.exact else "flat")
        return (
            f"<VectorIndex label={self.label_id} attr={self.attr_id} "
            f"entries={len(self)} layout={layout}>"
        )
