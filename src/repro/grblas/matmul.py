"""Masked, accumulated matrix products: ``mxm``, ``mxv``, ``vxm``.

These are the operations RedisGraph's traversal engine is built from: a
`MATCH (a)-[:R]->(b)` pattern compiles to ``F.mxm(R, any_pair)`` where
``F`` selects the frontier rows, and BFS layers are ``q.vxm(A)`` with a
complemented visited mask — exactly the calls implemented here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DimensionMismatch
from repro.grblas import _kernels as K
from repro.grblas._write import finalize_matrix, finalize_vector, masked_accum_write
from repro.grblas.matrix import Matrix
from repro.grblas.ops import BinaryOp
from repro.grblas.semiring import Semiring
from repro.grblas.types import BOOL, promote
from repro.grblas.vector import Vector

__all__ = ["mxm", "mxv", "vxm"]


def _output_dtype(ring: Semiring, a_dtype, b_dtype):
    """Result domain of ``a ⊕.⊗ b``: the multiply's fixed type, the picked
    operand's type for positional multiplies, else the promoted type."""
    if ring.add.op.result_type is not None:
        return ring.add.op.result_type
    if ring.mult.result_type is not None:
        return ring.mult.result_type
    if ring.mult.positional == "first":
        return a_dtype
    if ring.mult.positional == "second":
        return b_dtype
    if ring.mult.positional == "one":
        return promote(a_dtype, b_dtype)
    return promote(a_dtype, b_dtype)


def _gather_operand(B, needed_rows, *, sorted_unique: bool = False):
    """CSR arrays of the right operand, restricted to the rows a product
    will actually gather.  Delta-overlay views expose ``rows_csr`` and merge
    only those rows (the flush-free traversal fast path); plain matrices
    hand back their arrays unchanged.  ``sorted_unique`` says the rows are
    already a sorted set (a Vector's indices), which skips the sort."""
    rows_csr = getattr(B, "rows_csr", None)
    if rows_csr is None:
        return B.indptr, B.indices, B.values
    rows = np.asarray(needed_rows, dtype=np.int64)
    return rows_csr(rows if sorted_unique else K.sorted_unique(rows))


def mxm(
    A: Matrix,
    B: Matrix,
    ring: Semiring,
    *,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc=None,
    out: Optional[Matrix] = None,
) -> Matrix:
    """``C⟨M⟩ accum= A ⊕.⊗ B`` (with optional input transposes via desc)."""
    if desc is not None and desc.transpose_a:
        A = A.transpose()
    if desc is not None and desc.transpose_b:
        B = B.transpose()
    if A.ncols != B.nrows:
        raise DimensionMismatch(f"mxm: inner dimensions differ ({A.shape} x {B.shape})")
    out_dtype = _output_dtype(ring, A.dtype, B.dtype)
    structural = ring.is_structural

    b_indptr, b_indices, b_values = _gather_operand(B, A.indices)
    rows, cols, vals = K.esc_spgemm(
        A.nrows,
        A.indptr,
        A.indices,
        None if structural else A.values,
        b_indptr,
        b_indices,
        None if structural else b_values,
        B.ncols,
        ring,
        out_dtype.np_dtype,
    )
    t_keys = K.linear_keys(rows, cols, B.ncols)
    if vals is None:
        vals = np.ones(len(t_keys), dtype=out_dtype.np_dtype)

    if out is None:
        out = Matrix(A.nrows, B.ncols, out_dtype)
        c_keys = np.empty(0, dtype=np.int64)
        c_vals = np.empty(0, dtype=out.dtype.np_dtype)
    else:
        if out.shape != (A.nrows, B.ncols):
            raise DimensionMismatch(f"mxm: output shape {out.shape} != {(A.nrows, B.ncols)}")
        c_keys, c_vals = out.to_linear()
    keys, final_vals = masked_accum_write(
        c_keys,
        c_vals,
        t_keys,
        vals,
        out.dtype.np_dtype,
        accum=accum,
        mask=mask,
        desc=desc,
        shape=out.shape,
    )
    return finalize_matrix(out, keys, final_vals)


def mxv(
    A: Matrix,
    v: Vector,
    ring: Semiring,
    *,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc=None,
    out: Optional[Vector] = None,
) -> Vector:
    """``w⟨m⟩ accum= A ⊕.⊗ v``."""
    if desc is not None and desc.transpose_a:
        A = A.transpose()
    if A.ncols != v.size:
        raise DimensionMismatch(f"mxv: A.ncols={A.ncols} != v.size={v.size}")
    out_dtype = _output_dtype(ring, A.dtype, v.dtype)
    structural = ring.is_structural
    idx, vals = K.mxv_kernel(
        A.nrows,
        A.indptr,
        A.indices,
        None if structural else A.values,
        v.indices,
        None if structural else v.values,
        ring,
        out_dtype.np_dtype,
    )
    if vals is None:
        vals = np.ones(len(idx), dtype=out_dtype.np_dtype)
    if out is None:
        out = Vector(A.nrows, out_dtype)
        c_keys = np.empty(0, dtype=np.int64)
        c_vals = np.empty(0, dtype=out.dtype.np_dtype)
    else:
        if out.size != A.nrows:
            raise DimensionMismatch(f"mxv: output size {out.size} != {A.nrows}")
        c_keys, c_vals = out.indices, out.values
    keys, final_vals = masked_accum_write(
        c_keys,
        c_vals,
        idx,
        vals,
        out.dtype.np_dtype,
        accum=accum,
        mask=mask,
        desc=desc,
        shape=(out.size,),
    )
    return finalize_vector(out, keys, final_vals)


def vxm(
    v: Vector,
    B: Matrix,
    ring: Semiring,
    *,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc=None,
    out: Optional[Vector] = None,
) -> Vector:
    """``w⟨m⟩ accum= v ⊕.⊗ B`` — the BFS frontier-expansion call."""
    if desc is not None and desc.transpose_b:
        B = B.transpose()
    if v.size != B.nrows:
        raise DimensionMismatch(f"vxm: v.size={v.size} != B.nrows={B.nrows}")
    out_dtype = _output_dtype(ring, v.dtype, B.dtype)
    structural = ring.is_structural

    # masked-kernel pushdown: a complemented structural mask with no
    # accumulator and an empty output (the BFS layer call) filters inside
    # the kernel instead of after it
    drop_dense = None
    if structural and accum is None and (out is None or out.nvals == 0):
        from repro.grblas.mask import resolve_mask

        resolved = resolve_mask(mask, desc)
        if resolved is not None:
            true_keys, complement = resolved
            if complement:
                drop_dense = np.zeros(B.ncols, dtype=bool)
                drop_dense[true_keys] = True
                mask = None
                if desc is not None:
                    desc = desc.with_(mask_complement=False, mask_structural=False)

    b_indptr, b_indices, b_values = _gather_operand(B, v.indices, sorted_unique=True)
    idx, vals = K.vxm_kernel(
        v.indices,
        None if structural else v.values,
        b_indptr,
        b_indices,
        None if structural else b_values,
        ring,
        out_dtype.np_dtype,
        drop_dense=drop_dense,
    )
    if vals is None:
        vals = np.ones(len(idx), dtype=out_dtype.np_dtype)
    if out is None:
        out = Vector(B.ncols, out_dtype)
        c_keys = np.empty(0, dtype=np.int64)
        c_vals = np.empty(0, dtype=out.dtype.np_dtype)
    else:
        if out.size != B.ncols:
            raise DimensionMismatch(f"vxm: output size {out.size} != {B.ncols}")
        c_keys, c_vals = out.indices, out.values
    keys, final_vals = masked_accum_write(
        c_keys,
        c_vals,
        idx,
        vals,
        out.dtype.np_dtype,
        accum=accum,
        mask=mask,
        desc=desc,
        shape=(out.size,),
    )
    return finalize_vector(out, keys, final_vals)
