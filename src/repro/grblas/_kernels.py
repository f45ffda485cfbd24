"""Vectorized sparse kernels shared by the GraphBLAS operations.

Everything in this module operates on plain NumPy arrays — no Python-level
loop ever runs per nonzero.  The central kernel is :func:`esc_spgemm`, an
Expand-Sort-Compress sparse matrix-matrix multiply:

1. **Expand** — for every stored entry ``A[i,k]`` gather the whole row
   ``B[k,:]`` using ``repeat``/``cumsum`` index arithmetic, producing the
   multiset of partial products as a COO triple list.
2. **Sort** — order the triples by ``(i, j)`` using a single stable sort on
   linearized ``i*ncols + j`` keys.
3. **Compress** — reduce runs of equal keys with the semiring's add monoid
   via ``ufunc.reduceat``.

The expansion is tiled over row blocks so the intermediate never exceeds a
configurable budget — the same discipline GPU SpGEMM implementations use.
Structural semirings (``any_pair`` and friends) skip value arithmetic
entirely and reduce to a sorted unique over keys — or, in a masked
``vxm`` whose expansion covers much of the output, to a dense Boolean
scatter — which is the BFS/k-hop fast path that the paper's traversal
engine lives on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.grblas.monoid import Monoid
from repro.grblas.ops import BinaryOp
from repro.grblas.semiring import Semiring

__all__ = [
    "concat_ranges",
    "coo_to_csr",
    "csr_transpose",
    "esc_spgemm",
    "gather_rows_linear",
    "intersect_sorted",
    "linear_keys",
    "membership",
    "merge_sorted_unique",
    "merge_union",
    "mxv_kernel",
    "overlay_merge_rows",
    "range_slices_sorted",
    "rows_to_indptr",
    "run_starts",
    "setdiff_sorted",
    "sorted_unique",
    "split_keys",
    "vxm_kernel",
]

_I64 = np.int64
_EMPTY_I64 = np.empty(0, dtype=_I64)

# Default cap on the size of one expanded tile (number of partial products).
# 2^23 triples of (int64 key + float64 value) is ~128 MiB transient.
DEFAULT_TILE_BUDGET = 1 << 23

# Masked structural vxm dedupes with a dense scatter once the expanded
# column count reaches 1/8 of the columns; below it, sorting the
# survivors is cheaper.  Measured on NumPy 2.4 (x86-64): the two break
# even between 1/16 and 1/8 of the columns at 16k, 128k and 1M columns.
DENSE_DEDUPE_RATIO = 8


# ---------------------------------------------------------------------------
# Index arithmetic helpers
# ---------------------------------------------------------------------------

def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i]+lens[i])`` for all ``i``.

    This is the gather-index generator of the Expand step: with ``starts``
    pointing at B-row beginnings and ``lens`` the B-row lengths, the result
    indexes every partial product's B entry.  Fully vectorized.
    """
    starts = np.asarray(starts, dtype=_I64)
    lens = np.asarray(lens, dtype=_I64)
    total = int(lens.sum())
    if total == 0:
        return _EMPTY_I64
    cum = np.cumsum(lens)
    # position of each output element within its own segment
    seg_offsets = np.arange(total, dtype=_I64) - np.repeat(cum - lens, lens)
    return np.repeat(starts, lens) + seg_offsets


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where a new run of equal values begins in a sorted array."""
    n = len(sorted_keys)
    if n == 0:
        return _EMPTY_I64
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D array, by one sort and a run scan.
    NumPy 2.4's hash-based ``np.unique`` measured 10-20x slower than this
    on 1k-100k int64 values (x86-64)."""
    out = np.sort(values)
    return out[run_starts(out)]


def rows_to_indptr(sorted_rows: np.ndarray, nrows: int) -> np.ndarray:
    """Build a CSR ``indptr`` from row indices sorted ascending."""
    indptr = np.zeros(nrows + 1, dtype=_I64)
    if len(sorted_rows):
        counts = np.bincount(sorted_rows, minlength=nrows)
        np.cumsum(counts, out=indptr[1:])
    return indptr


def linear_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Linearize ``(row, col)`` to a single sortable int64 key."""
    return np.asarray(rows, dtype=_I64) * _I64(ncols) + np.asarray(cols, dtype=_I64)


def split_keys(keys: np.ndarray, ncols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`linear_keys`."""
    keys = np.asarray(keys, dtype=_I64)
    return keys // _I64(ncols), keys % _I64(ncols)


# ---------------------------------------------------------------------------
# Sorted-set operations (masks, eWise)
# ---------------------------------------------------------------------------

def membership(sorted_ref: np.ndarray, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each query key return (present?, position-in-ref).

    ``sorted_ref`` must be sorted and unique.  Positions are only meaningful
    where ``present`` is True.
    """
    queries = np.asarray(queries)
    if len(sorted_ref) == 0 or len(queries) == 0:
        return np.zeros(len(queries), dtype=bool), np.zeros(len(queries), dtype=_I64)
    pos = np.searchsorted(sorted_ref, queries)
    pos_c = np.minimum(pos, len(sorted_ref) - 1)
    present = sorted_ref[pos_c] == queries
    return present, pos_c


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions ``(ia, ib)`` such that ``a[ia] == b[ib]`` for sorted-unique
    arrays ``a`` and ``b``."""
    in_b, pos_b = membership(b, a)
    ia = np.flatnonzero(in_b)
    return ia, pos_b[ia]


def setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Positions of elements of sorted-unique ``a`` that are *not* in ``b``."""
    in_b, _ = membership(b, a)
    return np.flatnonzero(~in_b)


def merge_union(
    ka: np.ndarray,
    va: np.ndarray,
    kb: np.ndarray,
    vb: np.ndarray,
    op: Optional[BinaryOp],
    out_dtype: np.dtype,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union-merge two sorted-unique keyed value sets in linear time.

    The concatenated keys are two sorted runs, which a stable argsort
    merges in one linear pass; a key held by both inputs then appears as
    an adjacent pair, ``a``'s entry first.  Where a key exists in only one
    input, its value is copied; where it exists in both, ``op(va, vb)`` is
    applied (GraphBLAS eWiseAdd / accum semantics) — with no ``op``, ``b``
    (the new result) wins.  Returns ``(keys, values)``, keys sorted unique.
    """
    na = len(ka)
    both_keys = np.concatenate([np.asarray(ka, dtype=_I64), np.asarray(kb, dtype=_I64)])
    order = np.argsort(both_keys, kind="stable")
    skeys = both_keys[order]
    starts = run_starts(skeys)
    keys = skeys[starts]
    first = order[starts]  # a-position, or na + b-position
    paired = np.diff(starts, append=len(skeys)) == 2
    from_a = first < na
    out = np.empty(len(keys), dtype=out_dtype)
    only_a = from_a & ~paired
    out[only_a] = va[first[only_a]]
    out[~from_a] = vb[first[~from_a] - na]
    if paired.any():
        pa = first[paired]
        pb = order[starts[paired] + 1] - na
        out[paired] = vb[pb] if op is None else np.asarray(op(va[pa], vb[pb])).astype(out_dtype, copy=False)
    return keys, out


def merge_sorted_unique(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted-unique int64 key arrays."""
    if len(a) == 0:
        return np.asarray(b, dtype=_I64)
    if len(b) == 0:
        return np.asarray(a, dtype=_I64)
    merged = np.concatenate([a, b])
    merged.sort(kind="stable")
    return merged[np.concatenate([[True], merged[1:] != merged[:-1]])]


# ---------------------------------------------------------------------------
# Delta-overlay merges (the flush-free read path of repro.graph.DeltaMatrix)
# ---------------------------------------------------------------------------

def range_slices_sorted(sorted_keys: np.ndarray, rows: np.ndarray, ncols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row (start, stop) slice bounds of ``sorted_keys`` for each row in
    ``rows`` — i.e. the keys falling in ``[row*ncols, (row+1)*ncols)``."""
    rows = np.asarray(rows, dtype=_I64)
    lo = np.searchsorted(sorted_keys, rows * _I64(ncols), side="left")
    hi = np.searchsorted(sorted_keys, (rows + 1) * _I64(ncols), side="left")
    return lo, hi


def gather_rows_linear(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, ncols: int
) -> np.ndarray:
    """Linear keys of the CSR entries in the given rows, sorted ascending
    (requires ``rows`` sorted unique)."""
    rows = np.asarray(rows, dtype=_I64)
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    cols = indices[concat_ranges(starts, lens)]
    return np.repeat(rows, lens) * _I64(ncols) + cols


def overlay_merge_rows(
    rows: np.ndarray,
    ncols: int,
    base_indptr: np.ndarray,
    base_indices: np.ndarray,
    add_keys: np.ndarray,
    del_keys: np.ndarray,
) -> np.ndarray:
    """Merged linear keys of ``(base ⊕ Δ+) ⊖ Δ−`` restricted to a row set.

    ``rows`` must be sorted unique; ``add_keys``/``del_keys`` are sorted
    unique linear keys.  Cost is proportional to the stored entries of the
    *requested* rows plus the deltas touching them — never the whole matrix.
    This is the per-row-range kernel behind flush-free DeltaMatrix reads.
    """
    rows = np.asarray(rows, dtype=_I64)
    base_lin = gather_rows_linear(base_indptr, base_indices, rows, ncols)
    if len(add_keys):
        lo, hi = range_slices_sorted(add_keys, rows, ncols)
        add_sel = add_keys[concat_ranges(lo, hi - lo)]
        merged = merge_sorted_unique(base_lin, add_sel)
    else:
        merged = base_lin
    if len(del_keys) and len(merged):
        merged = merged[setdiff_sorted(merged, del_keys)]
    return merged


# ---------------------------------------------------------------------------
# COO -> CSR canonicalization and transpose
# ---------------------------------------------------------------------------

def coo_to_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    values: Optional[np.ndarray],
    nrows: int,
    ncols: int,
    dup: Optional[Monoid] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Canonicalize COO triples into sorted, duplicate-free CSR arrays.

    Duplicate coordinates are combined with the ``dup`` monoid (last-wins
    when ``dup`` is None, matching ``GrB_Matrix_build``'s SECOND behaviour).
    """
    rows = np.asarray(rows, dtype=_I64)
    cols = np.asarray(cols, dtype=_I64)
    if len(rows) == 0:
        empty_vals = None if values is None else np.asarray(values)[:0].copy()
        return np.zeros(nrows + 1, dtype=_I64), _EMPTY_I64.copy(), empty_vals
    keys = linear_keys(rows, cols, ncols)
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    starts = run_starts(skeys)
    ukeys = skeys[starts]
    out_vals: Optional[np.ndarray] = None
    if values is not None:
        values = np.asarray(values)
        svals = values[order]
        if len(ukeys) == len(skeys):
            out_vals = svals
        elif dup is None:
            # last occurrence wins
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:]
            ends[-1] = len(skeys)
            out_vals = svals[ends - 1]
        else:
            out_vals = dup.segment_reduce(svals, starts)
    urows, ucols = split_keys(ukeys, ncols)
    return rows_to_indptr(urows, nrows), ucols, out_vals


def csr_transpose(
    nrows: int,
    ncols: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    values: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Transpose a CSR matrix, returning CSR arrays of the transpose.

    A stable counting argsort over column indices keeps rows sorted inside
    each output row, preserving the canonical-form invariant.
    """
    nnz = len(indices)
    if nnz == 0:
        empty_vals = None if values is None else values[:0].copy()
        return np.zeros(ncols + 1, dtype=_I64), _EMPTY_I64.copy(), empty_vals
    rows = np.repeat(np.arange(nrows, dtype=_I64), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    t_indices = rows[order]
    t_indptr = rows_to_indptr(indices[order], ncols)
    t_values = None if values is None else values[order]
    return t_indptr, t_indices, t_values


# ---------------------------------------------------------------------------
# ESC SpGEMM
# ---------------------------------------------------------------------------

def _row_blocks(expansion_per_row: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Partition rows into contiguous blocks whose total expansion stays
    under ``budget`` (single oversized rows become singleton blocks)."""
    nrows = len(expansion_per_row)
    if nrows == 0:
        return []
    cum = np.cumsum(expansion_per_row, dtype=_I64)
    blocks: list[tuple[int, int]] = []
    start = 0
    base = 0
    while start < nrows:
        # furthest row such that cumulative expansion from `start` <= budget
        end = int(np.searchsorted(cum, base + budget, side="right"))
        if end <= start:
            end = start + 1  # oversized single row: process alone
        blocks.append((start, end))
        base = int(cum[end - 1])
        start = end
    return blocks


def esc_spgemm(
    a_nrows: int,
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_values: Optional[np.ndarray],
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
    b_values: Optional[np.ndarray],
    b_ncols: int,
    ring: Semiring,
    out_dtype: np.dtype,
    tile_budget: int = DEFAULT_TILE_BUDGET,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sparse ``C = A ⊕.⊗ B`` via Expand-Sort-Compress, tiled by row blocks.

    Returns canonical COO ``(rows, cols, values)`` sorted by (row, col);
    ``values`` is None for structural semirings (all-implicit-one output).
    """
    structural = ring.is_structural
    mult = ring.mult
    add = ring.add
    b_rowlen = np.diff(b_indptr)

    a_rowlen = np.diff(a_indptr)
    # expansion cost of each A row = sum of B-row lengths over its columns
    lens_all = b_rowlen[a_indices]
    cum_lens = np.zeros(len(lens_all) + 1, dtype=_I64)
    np.cumsum(lens_all, out=cum_lens[1:])
    row_expansion = cum_lens[a_indptr[1:]] - cum_lens[a_indptr[:-1]]

    out_rows_parts: list[np.ndarray] = []
    out_cols_parts: list[np.ndarray] = []
    out_vals_parts: list[np.ndarray] = []

    for r0, r1 in _row_blocks(row_expansion, tile_budget):
        p0, p1 = int(a_indptr[r0]), int(a_indptr[r1])
        if p0 == p1:
            continue
        a_cols_blk = a_indices[p0:p1]
        lens = b_rowlen[a_cols_blk]
        total = int(lens.sum())
        if total == 0:
            continue
        arows_blk = np.repeat(np.arange(r0, r1, dtype=_I64), a_rowlen[r0:r1])
        out_rows = np.repeat(arows_blk, lens)
        gather = concat_ranges(b_indptr[a_cols_blk], lens)
        out_cols = b_indices[gather]
        keys = linear_keys(out_rows, out_cols, b_ncols)

        if structural:
            ukeys = sorted_unique(keys)
            urows, ucols = split_keys(ukeys, b_ncols)
            out_rows_parts.append(urows)
            out_cols_parts.append(ucols)
            continue

        # value path: compute partial products then segment-reduce
        if mult.positional == "first":
            prods = np.repeat(a_values[p0:p1], lens)
        elif mult.positional == "second":
            prods = b_values[gather]
        elif mult.positional == "one":
            prods = np.ones(total, dtype=out_dtype)
        else:
            av = np.repeat(a_values[p0:p1], lens)
            prods = mult(av, b_values[gather])
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        sprods = np.asarray(prods)[order]
        starts = run_starts(skeys)
        reduced = add.segment_reduce(sprods, starts)
        urows, ucols = split_keys(skeys[starts], b_ncols)
        out_rows_parts.append(urows)
        out_cols_parts.append(ucols)
        out_vals_parts.append(np.asarray(reduced, dtype=out_dtype))

    if not out_rows_parts:
        vals = None if structural else np.empty(0, dtype=out_dtype)
        return _EMPTY_I64.copy(), _EMPTY_I64.copy(), vals
    rows = np.concatenate(out_rows_parts)
    cols = np.concatenate(out_cols_parts)
    vals = None if structural else np.concatenate(out_vals_parts)
    return rows, cols, vals


# ---------------------------------------------------------------------------
# Matrix-vector kernels
# ---------------------------------------------------------------------------

def mxv_kernel(
    a_nrows: int,
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_values: Optional[np.ndarray],
    v_indices: np.ndarray,
    v_values: Optional[np.ndarray],
    ring: Semiring,
    out_dtype: np.dtype,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``w = A ⊕.⊗ v``: for each stored A entry whose column is present in
    ``v``, form the product and reduce within each row (rows are already
    contiguous in CSR order, so no sort is needed)."""
    if len(a_indices) == 0 or len(v_indices) == 0:
        return _EMPTY_I64.copy(), (None if ring.is_structural else np.empty(0, dtype=out_dtype))
    present, pos = membership(v_indices, a_indices)
    hit = np.flatnonzero(present)
    if len(hit) == 0:
        return _EMPTY_I64.copy(), (None if ring.is_structural else np.empty(0, dtype=out_dtype))
    rows_of_nz = np.repeat(np.arange(a_nrows, dtype=_I64), np.diff(a_indptr))
    hit_rows = rows_of_nz[hit]
    starts = run_starts(hit_rows)
    out_idx = hit_rows[starts]
    if ring.is_structural:
        return out_idx, None
    mult = ring.mult
    if mult.positional == "first":
        prods = a_values[hit]
    elif mult.positional == "second":
        prods = v_values[pos[hit]]
    elif mult.positional == "one":
        prods = np.ones(len(hit), dtype=out_dtype)
    else:
        prods = mult(a_values[hit], v_values[pos[hit]])
    reduced = ring.add.segment_reduce(np.asarray(prods), starts)
    return out_idx, np.asarray(reduced, dtype=out_dtype)


def vxm_kernel(
    v_indices: np.ndarray,
    v_values: Optional[np.ndarray],
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
    b_values: Optional[np.ndarray],
    ring: Semiring,
    out_dtype: np.dtype,
    drop_dense: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``w = v ⊕.⊗ B``: gather the B rows selected by ``v``'s pattern (the
    frontier-expansion step of BFS), then sort-reduce by column.

    ``drop_dense`` is a dense Boolean array (one cell per output column)
    marking columns to discard — the complemented-mask pushdown SuiteSparse
    applies inside its masked kernels.  The fresh columns are then
    deduplicated one of two ways, picked from the input sizes: when the
    expanded multiset is a sizeable fraction of the columns (the middle
    levels of a deep BFS), a dense Boolean scatter + ``flatnonzero`` is
    linear; below that, dropping masked columns first and sorting the
    survivors is cheaper than touching every column.
    """
    if len(v_indices) == 0 or len(b_indices) == 0:
        return _EMPTY_I64.copy(), (None if ring.is_structural else np.empty(0, dtype=out_dtype))
    lens = np.diff(b_indptr)[v_indices]
    total = int(lens.sum())
    if total == 0:
        return _EMPTY_I64.copy(), (None if ring.is_structural else np.empty(0, dtype=out_dtype))
    gather = concat_ranges(b_indptr[v_indices], lens)
    cols = b_indices[gather]
    if drop_dense is not None and ring.is_structural:
        if total * DENSE_DEDUPE_RATIO >= len(drop_dense):
            fresh = np.zeros(len(drop_dense), dtype=bool)
            fresh[cols] = True
            fresh &= ~drop_dense
            return np.flatnonzero(fresh), None
        return sorted_unique(cols[~drop_dense[cols]]), None
    if ring.is_structural:
        return sorted_unique(cols), None
    mult = ring.mult
    if mult.positional == "first":
        prods = np.repeat(v_values, lens)
    elif mult.positional == "second":
        prods = b_values[gather]
    elif mult.positional == "one":
        prods = np.ones(total, dtype=out_dtype)
    else:
        prods = mult(np.repeat(v_values, lens), b_values[gather])
    order = np.argsort(cols, kind="stable")
    scols = cols[order]
    sprods = np.asarray(prods)[order]
    starts = run_starts(scols)
    reduced = ring.add.segment_reduce(sprods, starts)
    return scols[starts], np.asarray(reduced, dtype=out_dtype)
