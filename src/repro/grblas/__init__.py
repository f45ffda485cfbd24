"""repro.grblas — a GraphBLAS-style sparse linear-algebra engine.

This package reimplements the subset of the GraphBLAS C API that RedisGraph
builds on (SuiteSparse:GraphBLAS in the original system), in pure
Python/NumPy with fully vectorized kernels:

* typed sparse :class:`Matrix` (CSR) and :class:`Vector` (sorted COO),
* an operator algebra of :class:`BinaryOp`, :class:`Monoid` and
  :class:`Semiring` objects,
* masked, accumulated ``mxm`` / ``mxv`` / ``vxm`` where the multiplication
  kernel is an Expand-Sort-Compress SpGEMM,
* element-wise union/intersection (``ewise_add`` / ``ewise_mult``),
  ``select``, ``reduce`` and ``transpose``.

Naming follows the GraphBLAS spec loosely (``mxm``, ``vxm``, descriptors,
masks) so that algorithms written against SuiteSparse translate line by
line.
"""

from repro.grblas.types import (
    BOOL,
    FP32,
    FP64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    GrBType,
    lookup_type,
)
from repro.grblas.ops import BinaryOp, binary
from repro.grblas.monoid import Monoid, monoid
from repro.grblas.semiring import Semiring, semiring
from repro.grblas.descriptor import Descriptor
from repro.grblas.mask import Mask
from repro.grblas.matrix import Matrix
from repro.grblas.vector import Vector
from repro.grblas.scalar import Scalar

__all__ = [
    "BOOL",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "FP32",
    "FP64",
    "GrBType",
    "lookup_type",
    "BinaryOp",
    "binary",
    "Monoid",
    "monoid",
    "Semiring",
    "semiring",
    "Descriptor",
    "Mask",
    "Matrix",
    "Vector",
    "Scalar",
]
