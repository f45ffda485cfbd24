"""Monoids: associative binary operators with an identity element.

The performance-critical entry point is :meth:`Monoid.segment_reduce`,
which reduces contiguous runs of a value array in one vectorized call —
the "compress" step of the Expand-Sort-Compress SpGEMM and the engine
behind ``reduce`` (matrix → vector / scalar).

A monoid may also carry a *terminal* value (e.g. ``True`` for LOR): once
seen, the reduction result is known.  Kernels use it to short-circuit
structural reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.grblas.ops import BinaryOp, _Namespace, binary
from repro.grblas.types import GrBType

__all__ = ["Monoid", "monoid"]


@dataclass(frozen=True)
class Monoid:
    """An associative, commutative binary operator with identity.

    ``identity`` may be a concrete value or one of the sentinels
    ``"min"``/``"max"`` meaning the domain's +inf/-inf respectively
    (resolved per dtype at reduction time).
    """

    name: str
    op: BinaryOp = field(compare=False)
    identity: object = field(compare=False)
    terminal: Optional[object] = field(default=None, compare=False)

    # -- identity handling --------------------------------------------------
    def identity_for(self, dtype: np.dtype) -> object:
        """Concrete identity value for a given NumPy dtype."""
        dtype = np.dtype(dtype)
        if self.identity == "min_ident":  # identity of MAX monoid
            if np.issubdtype(dtype, np.floating):
                return -np.inf
            if dtype == np.bool_:
                return False
            return np.iinfo(dtype).min
        if self.identity == "max_ident":  # identity of MIN monoid
            if np.issubdtype(dtype, np.floating):
                return np.inf
            if dtype == np.bool_:
                return True
            return np.iinfo(dtype).max
        return self.identity

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.op(x, y)

    # -- vectorized segmented reduction -------------------------------------
    def segment_reduce(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Reduce ``values`` over segments ``[starts[i], starts[i+1])``.

        ``starts`` must be strictly increasing (no empty segments) and
        ``starts[0] == 0``; the final segment extends to ``len(values)``.
        """
        values = np.asarray(values)
        starts = np.asarray(starts, dtype=np.int64)
        if len(values) == 0:
            return values.copy()
        if self.op.positional in ("first", "one"):
            out = values[starts]
            if self.op.positional == "one":
                out = np.ones_like(out)
            return out
        if self.op.positional == "second":
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:]
            ends[-1] = len(values)
            return values[ends - 1]
        if self.op.ufunc is not None:
            out = self.op.ufunc.reduceat(values, starts)
            # logical ufuncs return bool; arithmetic keeps values.dtype
            return out
        # generic fallback: per-segment Python reduction (rare; only for
        # operators without a backing ufunc, none of which form hot paths)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = len(values)
        out = np.empty(len(starts), dtype=values.dtype)
        for i, (s, e) in enumerate(zip(starts, ends)):
            acc = values[s]
            for j in range(s + 1, e):
                acc = self.op(np.asarray(acc), np.asarray(values[j]))
            out[i] = acc
        return out

    def reduce_all(self, values: np.ndarray, dtype: Optional[np.dtype] = None) -> object:
        """Reduce a whole array to one scalar (identity when empty)."""
        values = np.asarray(values)
        if dtype is None:
            dtype = values.dtype
        if len(values) == 0:
            return np.dtype(dtype).type(self.identity_for(dtype))
        if self.op.positional in ("first", "any"):
            return values[0]
        if self.op.positional == "second":
            return values[-1]
        if self.op.positional == "one":
            return np.dtype(dtype).type(1)
        if self.op.ufunc is not None:
            return self.op.ufunc.reduce(values)
        acc = values[0]
        for v in values[1:]:
            acc = self.op(np.asarray(acc), np.asarray(v))
        return acc

    def __repr__(self) -> str:
        return f"Monoid({self.name})"


monoid = _Namespace("monoid")

for _m in [
    Monoid("plus", binary.plus, identity=0),
    Monoid("times", binary.times, identity=1),
    Monoid("min", binary.min, identity="max_ident", terminal=None),
    Monoid("max", binary.max, identity="min_ident", terminal=None),
    Monoid("lor", binary.lor, identity=False, terminal=True),
    Monoid("land", binary.land, identity=True, terminal=False),
    Monoid("lxor", binary.lxor, identity=False),
    Monoid("any", binary.any, identity=0),
    Monoid("first", binary.first, identity=0),
    Monoid("second", binary.second, identity=0),
]:
    monoid._register(_m)
