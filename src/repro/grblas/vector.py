"""The GraphBLAS sparse vector (GrB_Vector): sorted indices + values.

Invariants: ``indices`` strictly increasing within ``[0, size)``;
``len(values) == len(indices)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

import numpy as np

from repro.errors import DimensionMismatch, IndexOutOfBounds, InvalidValue
from repro.grblas import _kernels as K
from repro.grblas.types import BOOL, GrBType, lookup_type

if TYPE_CHECKING:  # pragma: no cover
    from repro.grblas.matrix import Matrix
    from repro.grblas.monoid import Monoid
    from repro.grblas.ops import BinaryOp
    from repro.grblas.semiring import Semiring

__all__ = ["Vector"]

_I64 = np.int64


class Vector:
    """A sparse vector of length ``size`` over a GraphBLAS domain."""

    __slots__ = ("size", "dtype", "indices", "values")

    def __init__(
        self,
        size: int,
        dtype: "GrBType | str | np.dtype | type" = BOOL,
        *,
        indices: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
    ) -> None:
        if size < 0:
            raise InvalidValue("vector size must be non-negative")
        self.size = int(size)
        self.dtype = lookup_type(dtype)
        if indices is None:
            self.indices = np.empty(0, dtype=_I64)
            self.values = np.empty(0, dtype=self.dtype.np_dtype)
        else:
            self.indices = np.asarray(indices, dtype=_I64)
            if values is None:
                values = np.ones(len(self.indices), dtype=self.dtype.np_dtype)
            self.values = np.asarray(values, dtype=self.dtype.np_dtype)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def new(cls, dtype, size: int) -> "Vector":
        return cls(size, dtype)

    @classmethod
    def from_coo(
        cls,
        indices: Iterable[int],
        values=None,
        *,
        size: int,
        dtype=None,
        dup: "Optional[Monoid]" = None,
    ) -> "Vector":
        """Build from (index, value) pairs; duplicates combine via ``dup``
        (last-wins when omitted)."""
        idx = np.asarray(indices, dtype=_I64)
        if len(idx) and (idx.min() < 0 or idx.max() >= size):
            raise IndexOutOfBounds(f"index out of range for size={size}")
        if values is None:
            dtype = lookup_type(dtype) if dtype is not None else BOOL
            vals = np.ones(len(idx), dtype=dtype.np_dtype)
        elif np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            dtype = lookup_type(dtype) if dtype is not None else lookup_type(np.asarray(values).dtype)
            vals = np.full(len(idx), values, dtype=dtype.np_dtype)
        else:
            vals = np.asarray(values)
            if len(vals) != len(idx):
                raise DimensionMismatch("values length must match indices")
            dtype = lookup_type(dtype) if dtype is not None else lookup_type(vals.dtype)
            vals = vals.astype(dtype.np_dtype, copy=False)
        # reuse the COO canonicalizer with a single row
        indptr, cols, out_vals = K.coo_to_csr(np.zeros(len(idx), dtype=_I64), idx, vals, 1, size, dup)
        return cls(size, dtype, indices=cols, values=out_vals)

    @classmethod
    def from_dense(cls, array, *, keep_zeros: bool = False) -> "Vector":
        arr = np.asarray(array)
        if arr.ndim != 1:
            raise DimensionMismatch("from_dense expects a 1-D array")
        idx = np.arange(len(arr), dtype=_I64) if keep_zeros else np.flatnonzero(arr)
        return cls(len(arr), lookup_type(arr.dtype), indices=idx, values=arr[idx])

    @classmethod
    def full(cls, size: int, value, dtype=None) -> "Vector":
        """A vector with every position stored (dense-in-sparse)."""
        dtype = lookup_type(dtype) if dtype is not None else lookup_type(np.asarray(value).dtype)
        return cls(
            size,
            dtype,
            indices=np.arange(size, dtype=_I64),
            values=np.full(size, value, dtype=dtype.np_dtype),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        return len(self.indices)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.indices.copy(), self.values.copy()

    def to_dense(self, fill=0) -> np.ndarray:
        out_dtype = np.promote_types(self.dtype.np_dtype, np.asarray(fill).dtype) if fill != 0 else self.dtype.np_dtype
        out = np.full(self.size, fill, dtype=out_dtype)
        out[self.indices] = self.values
        return out

    def __getitem__(self, i: int):
        if not 0 <= i < self.size:
            raise IndexOutOfBounds(f"index {i} out of range [0, {self.size})")
        pos = np.searchsorted(self.indices, i)
        if pos < len(self.indices) and self.indices[pos] == i:
            return self.values[pos].item()
        return None

    def __contains__(self, i: int) -> bool:
        return self[i] is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.isequal(other)

    def __hash__(self):  # pragma: no cover
        return id(self)

    def isequal(self, other: "Vector") -> bool:
        return (
            self.size == other.size
            and np.array_equal(self.indices, other.indices)
            and bool(np.all(self.values == other.values))
        )

    def check_invariants(self) -> None:
        assert len(self.values) == len(self.indices)
        if len(self.indices):
            assert self.indices.min() >= 0 and self.indices.max() < self.size
            assert np.all(np.diff(self.indices) > 0)

    def __repr__(self) -> str:
        return f"<Vector size={self.size} {self.dtype.name} nvals={self.nvals}>"

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def dup(self) -> "Vector":
        return Vector(self.size, self.dtype, indices=self.indices.copy(), values=self.values.copy())

    def clear(self) -> None:
        self.indices = np.empty(0, dtype=_I64)
        self.values = np.empty(0, dtype=self.dtype.np_dtype)

    def set_element(self, i: int, value) -> None:
        if not 0 <= i < self.size:
            raise IndexOutOfBounds(f"index {i} out of range [0, {self.size})")
        pos = int(np.searchsorted(self.indices, i))
        if pos < len(self.indices) and self.indices[pos] == i:
            self.values[pos] = value
            return
        self.indices = np.insert(self.indices, pos, i)
        self.values = np.insert(self.values, pos, np.asarray(value, dtype=self.dtype.np_dtype))

    def remove_element(self, i: int) -> bool:
        pos = int(np.searchsorted(self.indices, i))
        if pos >= len(self.indices) or self.indices[pos] != i:
            return False
        self.indices = np.delete(self.indices, pos)
        self.values = np.delete(self.values, pos)
        return True

    def resize(self, size: int) -> None:
        keep = self.indices < size
        self.indices = self.indices[keep]
        self.values = self.values[keep]
        self.size = int(size)

    # ------------------------------------------------------------------
    # Operation façade
    # ------------------------------------------------------------------
    def vxm(self, A: "Matrix", ring: "Semiring", *, mask=None, accum=None, desc=None, out=None) -> "Vector":
        from repro.grblas import matmul

        return matmul.vxm(self, A, ring, mask=mask, accum=accum, desc=desc, out=out)

    def ewise_add(self, other: "Vector", op: "BinaryOp", *, mask=None, accum=None, desc=None) -> "Vector":
        from repro.grblas import ewise

        return ewise.ewise_add_vector(self, other, op, mask=mask, accum=accum, desc=desc)

    def ewise_mult(self, other: "Vector", op: "BinaryOp", *, mask=None, accum=None, desc=None) -> "Vector":
        from repro.grblas import ewise

        return ewise.ewise_mult_vector(self, other, op, mask=mask, accum=accum, desc=desc)

    def select(self, predicate, value=None) -> "Vector":
        from repro.grblas import select as _select

        return _select.select_vector(self, predicate, value)

    def reduce(self, mon: "Monoid"):
        from repro.grblas import reduce as _reduce

        return _reduce.reduce_vector_scalar(self, mon)

    def cast(self, dtype) -> "Vector":
        dtype = lookup_type(dtype)
        return Vector(self.size, dtype, indices=self.indices.copy(), values=self.values.astype(dtype.np_dtype))

    def pattern(self) -> "Vector":
        return Vector(self.size, BOOL, indices=self.indices.copy(), values=np.ones(self.nvals, dtype=np.bool_))
