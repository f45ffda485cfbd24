"""Element-wise operations: union (``eWiseAdd``) and intersection
(``eWiseMult``) of sparse structures, for matrices and vectors."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DimensionMismatch
from repro.grblas import _kernels as K
from repro.grblas._write import finalize_matrix, finalize_vector, masked_accum_write
from repro.grblas.matrix import Matrix
from repro.grblas.ops import BinaryOp
from repro.grblas.types import promote
from repro.grblas.vector import Vector

__all__ = ["ewise_add", "ewise_mult", "ewise_add_vector", "ewise_mult_vector"]


def _result_dtype(op: BinaryOp, a_dtype, b_dtype):
    if op.result_type is not None:
        return op.result_type
    if op.positional == "first":
        return a_dtype
    if op.positional == "second":
        return b_dtype
    return promote(a_dtype, b_dtype)


def _intersection(ka, va, kb, vb, op: BinaryOp, out_np):
    ia, ib = K.intersect_sorted(ka, kb)
    keys = ka[ia]
    vals = np.asarray(op(va[ia], vb[ib])).astype(out_np, copy=False)
    return keys, vals


def _ewise_matrix(A: Matrix, B: Matrix, op: BinaryOp, combine, *, mask, accum, desc) -> Matrix:
    if desc is not None and desc.transpose_a:
        A = A.transpose()
    if desc is not None and desc.transpose_b:
        B = B.transpose()
    if A.shape != B.shape:
        raise DimensionMismatch(f"ewise: shapes differ {A.shape} vs {B.shape}")
    out_dtype = _result_dtype(op, A.dtype, B.dtype)
    ka, va = A.to_linear()
    kb, vb = B.to_linear()
    t_keys, t_vals = combine(ka, va, kb, vb, op, out_dtype.np_dtype)
    out = Matrix(A.nrows, A.ncols, out_dtype)
    keys, vals = masked_accum_write(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=out_dtype.np_dtype),
        t_keys,
        t_vals,
        out_dtype.np_dtype,
        accum=accum,
        mask=mask,
        desc=desc,
        shape=A.shape,
    )
    return finalize_matrix(out, keys, vals)


def ewise_add(A: Matrix, B: Matrix, op: BinaryOp, *, mask=None, accum=None, desc=None) -> Matrix:
    """``C = A ∪ B`` with ``op`` where both are present (set union)."""
    return _ewise_matrix(A, B, op, K.merge_union, mask=mask, accum=accum, desc=desc)


def ewise_mult(A: Matrix, B: Matrix, op: BinaryOp, *, mask=None, accum=None, desc=None) -> Matrix:
    """``C = A ∩ B`` with ``op`` applied pairwise (set intersection)."""
    return _ewise_matrix(A, B, op, _intersection, mask=mask, accum=accum, desc=desc)


def _ewise_vector(u: Vector, v: Vector, op: BinaryOp, combine, *, mask, accum, desc) -> Vector:
    if u.size != v.size:
        raise DimensionMismatch(f"ewise: sizes differ {u.size} vs {v.size}")
    out_dtype = _result_dtype(op, u.dtype, v.dtype)
    t_keys, t_vals = combine(u.indices, u.values, v.indices, v.values, op, out_dtype.np_dtype)
    out = Vector(u.size, out_dtype)
    keys, vals = masked_accum_write(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=out_dtype.np_dtype),
        t_keys,
        t_vals,
        out_dtype.np_dtype,
        accum=accum,
        mask=mask,
        desc=desc,
        shape=(u.size,),
    )
    return finalize_vector(out, keys, vals)


def ewise_add_vector(u: Vector, v: Vector, op: BinaryOp, *, mask=None, accum=None, desc=None) -> Vector:
    return _ewise_vector(u, v, op, K.merge_union, mask=mask, accum=accum, desc=desc)


def ewise_mult_vector(u: Vector, v: Vector, op: BinaryOp, *, mask=None, accum=None, desc=None) -> Vector:
    return _ewise_vector(u, v, op, _intersection, mask=mask, accum=accum, desc=desc)
