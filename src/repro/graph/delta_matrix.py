"""DeltaMatrix: a Boolean adjacency matrix with buffered updates.

RedisGraph does not touch its CSR matrices on every edge write — that would
be O(nnz) per edge.  Instead each matrix keeps *pending* additions and
deletions next to the base CSR, and **reads never force a rebuild**: the
:meth:`DeltaMatrix.overlay` view evaluates ``(base ⊕ Δ+) ⊖ Δ−`` directly,
merging the sorted linear-key delta arrays (``i*n + j``) against the base
rows actually touched by each read.  The base CSR is only rewritten by an
explicit :meth:`flush` — invoked by writers once ``max_pending`` changes
accumulate, by persistence, and by :meth:`resize` — so read queries running
under the graph's read lock never mutate matrix state.

The overlay view duck-types :class:`repro.grblas.Matrix` for every read
operation the executor and algorithms use (``row``, ``nvals``, ``mxm``/
``mxv``/``vxm`` operand, ``transpose``, ``to_linear`` …); whole-matrix
operations materialize a merged snapshot once per write generation without
touching the pending buffers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DimensionMismatch, IndexOutOfBounds
from repro.grblas import Matrix
from repro.grblas import _kernels as K
from repro.grblas.types import BOOL

__all__ = ["DeltaMatrix", "DeltaMatrixView"]

_I64 = np.int64
_EMPTY_I64 = np.empty(0, dtype=_I64)


def _transpose_keys(keys: np.ndarray, ncols: int) -> np.ndarray:
    """Linear keys of the transposed coordinates (``i*n+j`` → ``j*n+i``),
    re-sorted.  O(k log k) in the delta count only."""
    if not len(keys):
        return keys
    rows, cols = np.divmod(keys, _I64(ncols))
    return np.sort(cols * _I64(ncols) + rows)


class DeltaMatrixView:
    """A read-only, Matrix-like overlay ``(base ⊕ Δ+) ⊖ Δ−``.

    Point reads (``row``, ``has``, ``nvals``) merge only the rows they
    touch; matrix products gather overlay rows on demand through
    :meth:`rows_csr`; anything else falls through to a memoized merged
    snapshot via :meth:`materialize`.  The view never mutates the owning
    :class:`DeltaMatrix`'s logical state — pending buffers and the base
    CSR are left exactly as they were.
    """

    def __init__(
        self,
        base: Matrix,
        add_keys: np.ndarray,
        del_keys: np.ndarray,
        nvals_hint: Optional[int] = None,
        base_keys: Optional[np.ndarray] = None,
    ) -> None:
        self._vbase = base
        self._add = add_keys
        self._del = del_keys
        self._nvals_hint = nvals_hint
        self._base_keys = base_keys
        self._eff: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._merged: Optional[np.ndarray] = None
        self._mat: Optional[Matrix] = None
        self._trans: Optional[Matrix] = None

    # -- shape/domain ---------------------------------------------------
    @property
    def nrows(self) -> int:
        return self._vbase.nrows

    @property
    def ncols(self) -> int:
        return self._vbase.ncols

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._vbase.nrows, self._vbase.ncols)

    @property
    def dtype(self):
        return self._vbase.dtype

    # -- delta bookkeeping ----------------------------------------------
    def _effective(self) -> Tuple[np.ndarray, np.ndarray]:
        """(Δ+ \\ base, Δ− ∩ base): the deltas that actually change the
        stored pattern.  Costs O(deltas · log nnz), never a full merge."""
        if self._eff is None:
            base = self._vbase
            if self._base_keys is not None:
                base_lin = self._base_keys
            else:
                # probe only the rows the deltas touch, not the whole matrix
                touched = np.unique(np.concatenate([self._add, self._del]) // _I64(base.ncols))
                base_lin = K.gather_rows_linear(base.indptr, base.indices, touched, base.ncols)
            in_base_add, _ = K.membership(base_lin, self._add)
            in_base_del, _ = K.membership(base_lin, self._del)
            self._eff = (self._add[~in_base_add], self._del[in_base_del])
        return self._eff

    @property
    def nvals(self) -> int:
        if self._nvals_hint is not None:
            return self._nvals_hint
        if len(self._add) == 0 and len(self._del) == 0:
            return self._vbase.nvals
        add_eff, del_eff = self._effective()
        return self._vbase.nvals + len(add_eff) - len(del_eff)

    # -- point reads ----------------------------------------------------
    @property
    def _clean(self) -> bool:
        return len(self._add) == 0 and len(self._del) == 0

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s (column indices, values) under the overlay.

        Point-read fast path: the delta arrays are sorted linear keys, so
        the slice touching row ``i`` is two binary searches — a row with
        no pending deltas returns the base CSR slice zero-copy, and a
        touched row merges only its own deltas (the execution engine's
        single-source 1-hop lives on this)."""
        base = self._vbase
        if not 0 <= i < base.nrows:
            raise IndexOutOfBounds(f"row {i} out of range [0, {base.nrows})")
        if self._clean:
            return base.row(i)
        lo = _I64(i) * _I64(base.ncols)
        hi = lo + _I64(base.ncols)
        a0, a1 = np.searchsorted(self._add, (lo, hi))
        d0, d1 = np.searchsorted(self._del, (lo, hi))
        cols, vals = base.row(i)
        if a0 == a1 and d0 == d1:
            return cols, vals
        keys = np.asarray(cols, dtype=_I64) + lo
        if a0 != a1:
            keys = K.merge_sorted_unique(keys, self._add[a0:a1])
        if d0 != d1:
            keys = keys[K.setdiff_sorted(keys, self._del[d0:d1])]
        cols = keys - lo
        return cols, np.ones(len(cols), dtype=np.bool_)

    def __getitem__(self, key):
        i, j = key
        k = _I64(int(i)) * _I64(self._vbase.ncols) + _I64(int(j))
        if len(self._del):
            present, _ = K.membership(self._del, np.asarray([k]))
            if present[0]:
                return None
        if len(self._add):
            present, _ = K.membership(self._add, np.asarray([k]))
            if present[0]:
                return True
        return self._vbase[int(i), int(j)]

    def __contains__(self, key) -> bool:
        return self[key] is not None

    def row_degree(self) -> np.ndarray:
        """Stored entries per row under the overlay (out-degree vector)."""
        return self._degree(np.diff(self._vbase.indptr).astype(_I64, copy=False), 0)

    def col_degree(self) -> np.ndarray:
        """Stored entries per column under the overlay (in-degree vector),
        counted off the base's column indices: no transpose is built."""
        return self._degree(np.bincount(self._vbase.indices, minlength=self.ncols), 1)

    def _degree(self, deg: np.ndarray, axis: int) -> np.ndarray:
        """``deg`` (the base's per-row or per-column counts) with the
        effective deltas applied."""
        if not self._clean:
            add_eff, del_eff = self._effective()
            n = _I64(self._vbase.ncols)
            for keys, sign in ((add_eff, 1), (del_eff, -1)):
                if len(keys):
                    deg += sign * np.bincount(keys // n if axis == 0 else keys % n, minlength=len(deg))
        return deg

    # -- bulk views ------------------------------------------------------
    def merged_keys(self) -> np.ndarray:
        """All overlay linear keys, sorted (memoized; O(nnz + deltas))."""
        if self._merged is None:
            if self._base_keys is not None:
                keys = self._base_keys
            else:
                keys, _ = self._vbase.to_linear()
            if len(self._add):
                keys = K.merge_sorted_unique(keys, self._add)
            if len(self._del) and len(keys):
                keys = keys[K.setdiff_sorted(keys, self._del)]
            self._merged = keys
        return self._merged

    def to_linear(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = self.merged_keys()
        return keys, np.ones(len(keys), dtype=np.bool_)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = self.merged_keys()
        rows, cols = K.split_keys(keys, self.ncols)
        return rows, cols, np.ones(len(keys), dtype=np.bool_)

    def rows_csr(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays covering only ``rows`` (sorted unique); every other
        row is empty.  This is what matrix products gather from, so a
        traversal touching a small frontier never merges the full matrix."""
        if self._mat is not None:
            return self._mat.indptr, self._mat.indices, self._mat.values
        base = self._vbase
        if self._clean:
            return base.indptr, base.indices, base.values
        merged = K.overlay_merge_rows(
            np.asarray(rows, dtype=_I64), base.ncols, base.indptr, base.indices, self._add, self._del
        )
        r, c = K.split_keys(merged, base.ncols)
        return K.rows_to_indptr(r, base.nrows), c, np.ones(len(c), dtype=np.bool_)

    def materialize(self) -> Matrix:
        """A real, canonical-CSR snapshot of the overlay (memoized).

        With no pending deltas this is the base itself — the overlay of a
        freshly-flushed matrix costs nothing over the old synced() path."""
        if self._mat is None:
            if self._clean:
                # a distinct Matrix whose in-place-mutable arrays (indptr,
                # values) are private; indices may be shared because every
                # Matrix mutator rebinds it rather than writing through it
                base = self._vbase
                self._mat = Matrix(
                    base.nrows, base.ncols, base.dtype,
                    indptr=base.indptr.copy(),
                    indices=base.indices,
                    values=np.ones(base.nvals, dtype=np.bool_),
                )
                return self._mat
            keys = self.merged_keys()
            rows, cols = K.split_keys(keys, self.ncols)
            self._mat = Matrix(
                self.nrows,
                self.ncols,
                self.dtype,
                indptr=K.rows_to_indptr(rows, self.nrows),
                indices=cols,
                values=np.ones(len(cols), dtype=np.bool_),
            )
        return self._mat

    def overlay(self) -> "DeltaMatrixView":
        """A view is already the overlay — lets coercion helpers probe for
        ``overlay`` without tripping the materializing ``__getattr__``."""
        return self

    def transpose(self) -> Matrix:
        if self._trans is None:
            self._trans = self.materialize().transpose()
        return self._trans

    @property
    def T(self) -> Matrix:
        return self.transpose()

    _MUTATORS = frozenset({"set_element", "remove_element", "resize", "clear"})

    def __getattr__(self, name: str):
        # Whole-matrix operations (mxm/ewise/apply/reduce/...) fall through
        # to the memoized snapshot; underscored lookups must fail fast to
        # keep internal attribute access from recursing.
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._MUTATORS:
            raise AttributeError(
                f"DeltaMatrixView is read-only: {name}() would mutate a throwaway "
                "snapshot; write through the owning DeltaMatrix (add/delete) instead"
            )
        return getattr(self.materialize(), name)

    def __repr__(self) -> str:
        return (
            f"<DeltaMatrixView {self.nrows}x{self.ncols} base_nvals={self._vbase.nvals} "
            f"adds={len(self._add)} dels={len(self._del)}>"
        )


class DeltaMatrix:
    def __init__(self, dim: int, *, max_pending: int = 10_000) -> None:
        self._base = Matrix(dim, dim, BOOL)
        # pending op log: linear key -> True (add) / False (delete).
        # Last op per key wins, which is exactly the overlay semantics.
        self._pending: Dict[int, bool] = {}
        # net change the pending ops make to the stored-entry count,
        # maintained write-side so nvals() is O(1) on the read side
        self._nvals_delta = 0
        # sorted linear keys of the base CSR: flush() produces this for
        # free; writes and overlay merges probe it instead of re-linearizing
        self._base_keys: Optional[np.ndarray] = _EMPTY_I64
        self._delta_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._view_cache: Optional[DeltaMatrixView] = None
        # transpose of the base CSR, keyed by base identity: survives
        # pending writes (the base only changes on flush/splice/rebind),
        # so transposed reads pay O(deltas) per write, not O(nvals)
        self._base_T: Optional[Matrix] = None
        self._base_T_for: Optional[Matrix] = None
        self._tview_cache: Optional[DeltaMatrixView] = None
        self._generation = 0
        self.max_pending = max_pending

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._base.nrows

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def dirty(self) -> bool:
        return bool(self._pending)

    @property
    def generation(self) -> int:
        """Bumped on every logical mutation (writes, flush, clear)."""
        return self._generation

    def nvals(self) -> int:
        """Stored entries under the overlay — O(1), maintained write-side."""
        return self._base.nvals + self._nvals_delta

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._delta_cache = None
        self._view_cache = None
        self._tview_cache = None  # _base_T survives: it tracks base identity
        self._generation += 1

    @staticmethod
    def _effect(is_add: bool, in_base: bool) -> int:
        """Net nvals change one pending op makes against the base."""
        if is_add:
            return 0 if in_base else 1
        return -1 if in_base else 0

    def _base_linear(self) -> np.ndarray:
        """Sorted linear keys of the base CSR (rebuilt lazily after bulk
        splices; flush maintains it as a by-product)."""
        if self._base_keys is None:
            self._base_keys = self._base.to_linear()[0]
        return self._base_keys

    def _in_base(self, key: int) -> bool:
        keys = self._base_linear()
        pos = int(keys.searchsorted(key))
        return pos < len(keys) and keys[pos] == key

    def _check_bounds(self, i: int, j: int) -> None:
        dim = self._base.nrows
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexOutOfBounds(f"({i}, {j}) outside {dim}x{dim} delta matrix")

    def _record(self, i: int, j: int, is_add: bool) -> None:
        self._check_bounds(i, j)
        key = i * self._base.ncols + j
        in_base = self._in_base(key)
        prev = self._pending.get(key)
        if prev is not None:
            self._nvals_delta -= self._effect(prev, in_base)
        self._nvals_delta += self._effect(is_add, in_base)
        self._pending[key] = is_add
        self._touch()
        if len(self._pending) >= self.max_pending:
            self.flush()

    def add(self, i: int, j: int) -> None:
        """Buffer the insertion of entry (i, j); auto-flushes once
        ``max_pending`` changes have accumulated."""
        self._record(i, j, True)

    def delete(self, i: int, j: int) -> None:
        """Buffer the removal of entry (i, j); auto-flushes once
        ``max_pending`` changes have accumulated."""
        self._record(i, j, False)

    def resize(self, dim: int) -> None:
        # linear keys are ncols-relative, so compact before reshaping;
        # resize a duplicate so outstanding views keep a stable base
        self.flush()
        resized = self._base.dup()
        resized.resize(dim, dim)
        self._base = resized
        self._base_keys = None  # keys are ncols-relative: recompute lazily
        self._touch()

    def clear(self) -> None:
        self._pending.clear()
        self._nvals_delta = 0
        self._base = Matrix(self._base.nrows, self._base.ncols, BOOL)
        self._base_keys = _EMPTY_I64
        self._touch()

    def replace_base(self, matrix: Matrix) -> None:
        """Install a pre-built CSR as the new base (bulk-load splice),
        dropping any pending changes."""
        self._pending.clear()
        self._nvals_delta = 0
        self._base = matrix
        self._base_keys = None  # rebuilt lazily on the next probe
        self._touch()

    def union_splice(self, rows: np.ndarray, cols: np.ndarray) -> int:
        """Bulk-insert a batch of entries in one vectorized merge.

        Writer-side (bulk ingestion): pending ops are compacted first, then
        the batch joins the base CSR through a single sorted-key union —
        O(nnz + batch log batch) total instead of one :meth:`add` per entry.
        Duplicates within the batch and entries already present collapse;
        the sorted-key cache stays warm (unlike :meth:`replace_base`, which
        must drop it).  Returns the number of entries new to the matrix.
        """
        rows = np.asarray(rows, dtype=_I64)
        cols = np.asarray(cols, dtype=_I64)
        if len(rows) != len(cols):
            raise DimensionMismatch("union_splice: rows/cols length mismatch")
        self.flush()
        if not len(rows):
            return 0
        dim = self._base.nrows
        if rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim:
            raise IndexOutOfBounds(f"union_splice: entry outside {dim}x{dim} delta matrix")
        batch = np.sort(rows * _I64(self._base.ncols) + cols)
        if len(batch) > 1:  # dedupe the sorted batch (cheaper than np.unique's hash path)
            batch = batch[np.concatenate(([True], batch[1:] != batch[:-1]))]
        keys = self._base_linear()
        merged = K.merge_sorted_unique(keys, batch) if len(keys) else batch
        added = len(merged) - len(keys)
        if added:
            self._base = Matrix.from_linear(merged, nrows=dim, ncols=self._base.ncols)
            self._base_keys = merged
            self._touch()
        return added

    # ------------------------------------------------------------------
    # Reads — all flush-free
    # ------------------------------------------------------------------
    def _deltas(self) -> Tuple[np.ndarray, np.ndarray]:
        """(Δ+, Δ−) as sorted-unique linear-key arrays (memoized)."""
        if self._delta_cache is None:
            if not self._pending:
                self._delta_cache = (_EMPTY_I64, _EMPTY_I64)
            else:
                keys = np.fromiter(self._pending.keys(), dtype=_I64, count=len(self._pending))
                flags = np.fromiter(self._pending.values(), dtype=np.bool_, count=len(self._pending))
                order = np.argsort(keys)
                keys, flags = keys[order], flags[order]
                self._delta_cache = (keys[flags], keys[~flags])
        return self._delta_cache

    def overlay(self) -> DeltaMatrixView:
        """The flush-free read view ``(base ⊕ Δ+) ⊖ Δ−`` (memoized per
        write generation, so repeated reads share snapshot caches)."""
        if self._view_cache is None:
            add, dele = self._deltas()
            self._view_cache = DeltaMatrixView(
                self._base, add, dele, self.nvals(), base_keys=self._base_keys
            )
        return self._view_cache

    def has(self, i: int, j: int) -> bool:
        self._check_bounds(i, j)
        key = i * self._base.ncols + j
        state = self._pending.get(key)
        if state is not None:
            return state
        return self._in_base(key)

    def row_ids(self, i: int) -> np.ndarray:
        """Column ids present in row i (overlay view, no flush)."""
        cols, _ = self.overlay().row(i)
        return cols

    def _transposed_base(self) -> Matrix:
        """The base CSR's transpose, cached by base identity — recomputed
        only when flush/splice/resize rebinds the base matrix."""
        base = self._base
        if self._base_T_for is not base:
            self._base_T = base.transpose()
            self._base_T_for = base
        return self._base_T

    def transposed(self) -> DeltaMatrixView:
        """The transposed overlay ``((base ⊕ Δ+) ⊖ Δ−)ᵀ`` (no flush).

        Evaluated as ``(baseᵀ ⊕ Δ+ᵀ) ⊖ Δ−ᵀ``: the expensive base transpose
        is cached across write generations, and each write generation only
        pays re-sorting the (small) delta key arrays — incoming-edge
        traversals on write-heavy graphs no longer re-transpose the full
        matrix after every write."""
        if self._tview_cache is None:
            base_t = self._transposed_base()
            add, dele = self._deltas()
            n = self._base.ncols
            self._tview_cache = DeltaMatrixView(
                base_t, _transpose_keys(add, n), _transpose_keys(dele, n), self.nvals()
            )
        return self._tview_cache

    # ------------------------------------------------------------------
    # Compaction — the only path that rewrites the base CSR
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Apply all pending changes in one vectorized merge."""
        if not self._pending:
            return
        add, dele = self._deltas()
        keys = self._base_linear()
        if len(add):
            keys = K.merge_sorted_unique(keys, add)
        if len(dele) and len(keys):
            keys = keys[K.setdiff_sorted(keys, dele)]
        # rebind a fresh Matrix rather than rewriting the old one's arrays:
        # views handed out before this flush keep aliasing the pre-flush
        # object, so they stay *consistent* snapshots instead of tearing
        self._base = Matrix.from_linear(keys, nrows=self._base.nrows, ncols=self._base.ncols)
        self._base_keys = keys  # the merge *is* the new sorted key cache
        self._pending.clear()
        self._nvals_delta = 0
        self._touch()

    def synced(self) -> Matrix:
        """The up-to-date CSR matrix (flushes pending changes first).

        Writer-side only: persistence and bulk loads want the compacted
        base.  Read paths must use :meth:`overlay` instead."""
        self.flush()
        return self._base

    def __repr__(self) -> str:
        return f"<DeltaMatrix dim={self.dim} nvals={self._base.nvals} pending={self.pending}>"
