"""The GraphBLAS sparse matrix (GrB_Matrix), stored as canonical CSR.

Invariants (checked by :meth:`Matrix.check_invariants`, exercised heavily by
the property-based tests):

* ``indptr`` has length ``nrows + 1``, is non-decreasing, ``indptr[0] == 0``
  and ``indptr[-1] == nvals``;
* within every row, column indices are strictly increasing (sorted, no
  duplicates);
* ``values`` has exactly ``nvals`` entries of ``dtype``'s NumPy dtype.

The matrix is *logically immutable* through the operation API (operations
return new matrices); the few in-place mutators (``set_element``,
``remove_element``, ``resize``, ``clear``) rebuild the arrays and are meant
for graph-mutation paths, which batch their updates through the delta-matrix
layer in :mod:`repro.graph` instead of calling these per edge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

import numpy as np

from repro.errors import DimensionMismatch, IndexOutOfBounds, InvalidValue
from repro.grblas import _kernels as K
from repro.grblas.types import BOOL, GrBType, lookup_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.grblas.descriptor import Descriptor
    from repro.grblas.monoid import Monoid
    from repro.grblas.ops import BinaryOp
    from repro.grblas.semiring import Semiring
    from repro.grblas.vector import Vector

__all__ = ["Matrix"]

_I64 = np.int64


class Matrix:
    """A sparse ``nrows × ncols`` matrix over a GraphBLAS domain."""

    __slots__ = ("nrows", "ncols", "dtype", "indptr", "indices", "values")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        dtype: "GrBType | str | np.dtype | type" = BOOL,
        *,
        indptr: Optional[np.ndarray] = None,
        indices: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
    ) -> None:
        if nrows < 0 or ncols < 0:
            raise InvalidValue("matrix dimensions must be non-negative")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.dtype = lookup_type(dtype)
        if indptr is None:
            self.indptr = np.zeros(self.nrows + 1, dtype=_I64)
            self.indices = np.empty(0, dtype=_I64)
            self.values = np.empty(0, dtype=self.dtype.np_dtype)
        else:
            self.indptr = np.asarray(indptr, dtype=_I64)
            self.indices = np.asarray(indices, dtype=_I64)
            if values is None:
                values = np.ones(len(self.indices), dtype=self.dtype.np_dtype)
            self.values = np.asarray(values, dtype=self.dtype.np_dtype)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def new(cls, dtype, nrows: int, ncols: int) -> "Matrix":
        """``GrB_Matrix_new`` — an empty matrix of the given shape/domain."""
        return cls(nrows, ncols, dtype)

    @classmethod
    def from_coo(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        values=None,
        *,
        nrows: int,
        ncols: int,
        dtype=None,
        dup: "Optional[Monoid]" = None,
    ) -> "Matrix":
        """Build from COO triples (``GrB_Matrix_build``).

        ``values`` may be a scalar (broadcast), an array, or ``None`` for an
        all-True Boolean structure.  Duplicates combine via ``dup``
        (last-wins when omitted).
        """
        rows = np.asarray(rows, dtype=_I64)
        cols = np.asarray(cols, dtype=_I64)
        if len(rows) != len(cols):
            raise DimensionMismatch("rows and cols must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
            raise IndexOutOfBounds(f"row index out of range for nrows={nrows}")
        if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
            raise IndexOutOfBounds(f"col index out of range for ncols={ncols}")
        if values is None:
            dtype = lookup_type(dtype) if dtype is not None else BOOL
            vals = np.ones(len(rows), dtype=dtype.np_dtype)
        elif np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            dtype = lookup_type(dtype) if dtype is not None else lookup_type(np.asarray(values).dtype)
            vals = np.full(len(rows), values, dtype=dtype.np_dtype)
        else:
            vals = np.asarray(values)
            if len(vals) != len(rows):
                raise DimensionMismatch("values length must match rows/cols")
            dtype = lookup_type(dtype) if dtype is not None else lookup_type(vals.dtype)
            vals = vals.astype(dtype.np_dtype, copy=False)
        indptr, indices, out_vals = K.coo_to_csr(rows, cols, vals, nrows, ncols, dup)
        return cls(nrows, ncols, dtype, indptr=indptr, indices=indices, values=out_vals)

    @classmethod
    def from_edges(cls, src, dst, *, nrows: int, ncols: Optional[int] = None) -> "Matrix":
        """Boolean adjacency matrix from an edge list (duplicates collapse)."""
        return cls.from_coo(src, dst, None, nrows=nrows, ncols=ncols if ncols is not None else nrows, dtype=BOOL)

    @classmethod
    def from_linear(cls, keys: np.ndarray, *, nrows: int, ncols: int) -> "Matrix":
        """Boolean matrix from sorted-unique linear keys (``i * ncols + j``).

        The inverse of :meth:`to_linear` for Boolean structures — the
        delta-matrix flush/bulk-splice fast path, which works in linear-key
        space and should not round-trip through COO building/sorting."""
        keys = np.asarray(keys, dtype=_I64)
        if len(keys) and (keys[0] < 0 or keys[-1] >= nrows * ncols):
            raise IndexOutOfBounds(f"linear key out of range for {nrows}x{ncols}")
        rows, cols = K.split_keys(keys, ncols)
        return cls(
            nrows,
            ncols,
            BOOL,
            indptr=K.rows_to_indptr(rows, nrows),
            indices=cols,
            values=np.ones(len(cols), dtype=np.bool_),
        )

    @classmethod
    def from_dense(cls, array, *, keep_zeros: bool = False) -> "Matrix":
        """Build from a dense 2-D array; zeros become implicit (unless
        ``keep_zeros``)."""
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise DimensionMismatch("from_dense expects a 2-D array")
        dtype = lookup_type(arr.dtype)
        if keep_zeros:
            rows, cols = np.indices(arr.shape)
            rows, cols = rows.ravel(), cols.ravel()
        else:
            rows, cols = np.nonzero(arr)
        return cls.from_coo(rows, cols, arr[rows, cols], nrows=arr.shape[0], ncols=arr.shape[1], dtype=dtype)

    @classmethod
    def identity(cls, n: int, dtype=BOOL, value=True) -> "Matrix":
        """Diagonal matrix with a constant value (label matrices use this)."""
        idx = np.arange(n, dtype=_I64)
        return cls.from_coo(idx, idx, value, nrows=n, ncols=n, dtype=dtype)

    @classmethod
    def diag(cls, vector: "Vector") -> "Matrix":
        """``GxB_Matrix_diag`` — place a vector on the main diagonal."""
        idx, vals = vector.to_coo()
        return cls.from_coo(idx, idx, vals, nrows=vector.size, ncols=vector.size, dtype=vector.dtype)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nvals(self) -> int:
        """Number of stored entries (``GrB_Matrix_nvals``)."""
        return len(self.indices)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Extract (rows, cols, values), sorted by (row, col)."""
        rows = np.repeat(np.arange(self.nrows, dtype=_I64), np.diff(self.indptr))
        return rows, self.indices.copy(), self.values.copy()

    def to_linear(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted linear keys, values) — the kernel-facing view."""
        rows = np.repeat(np.arange(self.nrows, dtype=_I64), np.diff(self.indptr))
        return K.linear_keys(rows, self.indices, self.ncols), self.values

    def to_dense(self, fill=0) -> np.ndarray:
        """Materialize as a dense array with ``fill`` at implicit entries."""
        out_dtype = np.promote_types(self.dtype.np_dtype, np.asarray(fill).dtype) if fill != 0 else self.dtype.np_dtype
        out = np.full((self.nrows, self.ncols), fill, dtype=out_dtype)
        rows = np.repeat(np.arange(self.nrows, dtype=_I64), np.diff(self.indptr))
        out[rows, self.indices] = self.values
        return out

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy view of row ``i``'s (column indices, values)."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBounds(f"row {i} out of range [0, {self.nrows})")
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.values[s:e]

    def row_degree(self) -> np.ndarray:
        """Number of stored entries in every row (out-degree vector)."""
        return np.diff(self.indptr)

    def __getitem__(self, key):
        """Scalar extract: ``A[i, j]`` → value or None when absent."""
        i, j = key
        cols, vals = self.row(int(i))
        pos = np.searchsorted(cols, j)
        if pos < len(cols) and cols[pos] == j:
            return vals[pos].item()
        return None

    def __contains__(self, key) -> bool:
        return self[key] is not None

    def __eq__(self, other) -> bool:  # structural + value equality
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.isequal(other)

    def __hash__(self):  # pragma: no cover - identity hashing for containers
        return id(self)

    def isequal(self, other: "Matrix") -> bool:
        """Same shape, same pattern, same values (dtype-insensitive compare)."""
        if self.shape != other.shape or self.nvals != other.nvals:
            return False
        if not np.array_equal(self.indptr, other.indptr):
            return False
        if not np.array_equal(self.indices, other.indices):
            return False
        return bool(np.all(self.values == other.values))

    def check_invariants(self) -> None:
        """Raise AssertionError when the canonical-CSR invariants are broken."""
        assert len(self.indptr) == self.nrows + 1
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert np.all(np.diff(self.indptr) >= 0)
        assert len(self.values) == len(self.indices)
        if len(self.indices):
            assert self.indices.min() >= 0 and self.indices.max() < self.ncols
        for i in range(self.nrows):
            s, e = self.indptr[i], self.indptr[i + 1]
            if e - s > 1:
                assert np.all(np.diff(self.indices[s:e]) > 0), f"row {i} not strictly sorted"

    def __repr__(self) -> str:
        return f"<Matrix {self.nrows}x{self.ncols} {self.dtype.name} nvals={self.nvals}>"

    # ------------------------------------------------------------------
    # Mutation (single-element; bulk updates go through repro.graph deltas)
    # ------------------------------------------------------------------
    def dup(self) -> "Matrix":
        """Deep copy (``GrB_Matrix_dup``)."""
        return Matrix(
            self.nrows,
            self.ncols,
            self.dtype,
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            values=self.values.copy(),
        )

    def clear(self) -> None:
        """Remove all entries, keeping shape and domain."""
        self.indptr = np.zeros(self.nrows + 1, dtype=_I64)
        self.indices = np.empty(0, dtype=_I64)
        self.values = np.empty(0, dtype=self.dtype.np_dtype)

    def set_element(self, i: int, j: int, value) -> None:
        """Insert or overwrite one entry (``GrB_Matrix_setElement``)."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfBounds(f"({i}, {j}) outside {self.shape}")
        s, e = self.indptr[i], self.indptr[i + 1]
        pos = s + np.searchsorted(self.indices[s:e], j)
        if pos < e and self.indices[pos] == j:
            self.values[pos] = value
            return
        self.indices = np.insert(self.indices, pos, j)
        self.values = np.insert(self.values, pos, np.asarray(value, dtype=self.dtype.np_dtype))
        self.indptr[i + 1 :] += 1

    def remove_element(self, i: int, j: int) -> bool:
        """Delete one entry; returns whether it existed."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfBounds(f"({i}, {j}) outside {self.shape}")
        s, e = self.indptr[i], self.indptr[i + 1]
        pos = s + np.searchsorted(self.indices[s:e], j)
        if pos >= e or self.indices[pos] != j:
            return False
        self.indices = np.delete(self.indices, pos)
        self.values = np.delete(self.values, pos)
        self.indptr[i + 1 :] -= 1
        return True

    def resize(self, nrows: int, ncols: int) -> None:
        """Grow or shrink in place; entries outside the new shape drop
        (``GrB_Matrix_resize``).  RedisGraph grows adjacency matrices this
        way as nodes are created."""
        if nrows < 0 or ncols < 0:
            raise InvalidValue("matrix dimensions must be non-negative")
        rows, cols, vals = self.to_coo()
        keep = (rows < nrows) & (cols < ncols)
        indptr, indices, values = K.coo_to_csr(rows[keep], cols[keep], vals[keep], nrows, ncols, None)
        self.nrows, self.ncols = int(nrows), int(ncols)
        self.indptr, self.indices, self.values = indptr, indices, values

    # ------------------------------------------------------------------
    # Operation façade (lazy imports avoid module cycles)
    # ------------------------------------------------------------------
    def mxm(self, other: "Matrix", ring: "Semiring", *, mask=None, accum=None, desc=None, out=None) -> "Matrix":
        from repro.grblas import matmul

        return matmul.mxm(self, other, ring, mask=mask, accum=accum, desc=desc, out=out)

    def mxv(self, v: "Vector", ring: "Semiring", *, mask=None, accum=None, desc=None, out=None) -> "Vector":
        from repro.grblas import matmul

        return matmul.mxv(self, v, ring, mask=mask, accum=accum, desc=desc, out=out)

    def ewise_add(self, other: "Matrix", op: "BinaryOp", *, mask=None, accum=None, desc=None) -> "Matrix":
        from repro.grblas import ewise

        return ewise.ewise_add(self, other, op, mask=mask, accum=accum, desc=desc)

    def ewise_mult(self, other: "Matrix", op: "BinaryOp", *, mask=None, accum=None, desc=None) -> "Matrix":
        from repro.grblas import ewise

        return ewise.ewise_mult(self, other, op, mask=mask, accum=accum, desc=desc)

    def select(self, predicate, value=None) -> "Matrix":
        from repro.grblas import select as _select

        return _select.select_matrix(self, predicate, value)

    def reduce_rows(self, mon: "Monoid") -> "Vector":
        from repro.grblas import reduce as _reduce

        return _reduce.reduce_rows(self, mon)

    def reduce_cols(self, mon: "Monoid") -> "Vector":
        from repro.grblas import reduce as _reduce

        return _reduce.reduce_cols(self, mon)

    def reduce_scalar(self, mon: "Monoid"):
        from repro.grblas import reduce as _reduce

        return _reduce.reduce_matrix_scalar(self, mon)

    def transpose(self) -> "Matrix":
        t_indptr, t_indices, t_values = K.csr_transpose(self.nrows, self.ncols, self.indptr, self.indices, self.values)
        return Matrix(self.ncols, self.nrows, self.dtype, indptr=t_indptr, indices=t_indices, values=t_values)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def cast(self, dtype) -> "Matrix":
        """Return a copy re-typed into another domain."""
        dtype = lookup_type(dtype)
        return Matrix(
            self.nrows,
            self.ncols,
            dtype,
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            values=self.values.astype(dtype.np_dtype),
        )

    def pattern(self) -> "Matrix":
        """The Boolean structure of this matrix (values → True)."""
        return Matrix(
            self.nrows,
            self.ncols,
            BOOL,
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            values=np.ones(self.nvals, dtype=np.bool_),
        )
