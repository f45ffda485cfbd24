"""Binary operators of the GraphBLAS operator algebra.

Every operator is a small object wrapping a *vectorized* callable over NumPy
arrays.  It remembers the backing NumPy ufunc when one exists, because
:meth:`numpy.ufunc.reduceat` is what makes segmented (monoid) reductions
fast in the Expand-Sort-Compress SpGEMM kernel.

Operators whose result domain differs from the input domain (comparisons)
declare ``result_type``; positional operators (``first``, ``second``,
``pair``) declare which argument carries the result so kernels can skip
value arithmetic entirely — the trick behind structural semirings such as
``any_pair`` used for BFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import DomainMismatch
from repro.grblas.types import BOOL, INT64, GrBType

__all__ = ["BinaryOp", "binary"]


@dataclass(frozen=True)
class BinaryOp:
    """A vectorized elementwise operator of two arguments.

    Attributes
    ----------
    ufunc:
        The NumPy ufunc implementing the op when one exists (enables
        ``reduceat``-based segmented reduction for the derived monoid).
    result_type:
        Fixed output domain (e.g. BOOL for comparisons); ``None`` means the
        promoted input domain.
    positional:
        ``"first"``/``"second"``/``"one"`` when the result is simply one of
        the inputs (or the constant 1) — lets kernels avoid touching values.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)
    ufunc: Optional[np.ufunc] = field(default=None, compare=False)
    result_type: Optional[GrBType] = field(default=None, compare=False)
    positional: Optional[str] = field(default=None, compare=False)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fn(x, y)

    def __repr__(self) -> str:
        return f"BinaryOp({self.name})"


class _Namespace:
    """Attribute/value registry for operator objects (``binary.plus`` etc.)."""

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._ops: dict[str, object] = {}

    def _register(self, op) -> None:
        self._ops[op.name] = op
        setattr(self, op.name, op)

    def __getitem__(self, name: str):
        try:
            return self._ops[name]
        except KeyError:
            raise DomainMismatch(f"unknown {self._kind} operator: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def names(self) -> list[str]:
        return sorted(self._ops)


binary = _Namespace("binary")


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------

def _first(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(x).copy()


def _second(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(y).copy()


def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(x))


def _any(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # ANY may return either argument; we deterministically pick the first.
    return np.asarray(x).copy()


def _safe_div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    y = np.asarray(y)
    if np.issubdtype(np.promote_types(x.dtype, y.dtype), np.integer):
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.promote_types(x.dtype, y.dtype))
        nz = y != 0
        np.floor_divide(x, y, out=out, where=nz)
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(x, y)


def _as_bool(fn):
    def wrapped(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return fn(np.asarray(x, dtype=bool), np.asarray(y, dtype=bool))

    return wrapped


for _op in [
    BinaryOp("plus", np.add, ufunc=np.add),
    BinaryOp("minus", np.subtract, ufunc=np.subtract),
    BinaryOp("times", np.multiply, ufunc=np.multiply),
    BinaryOp("div", _safe_div),
    BinaryOp("min", np.minimum, ufunc=np.minimum),
    BinaryOp("max", np.maximum, ufunc=np.maximum),
    BinaryOp("first", _first, positional="first"),
    BinaryOp("second", _second, positional="second"),
    # PAIR produces the typed constant 1; INT64 so that counting semirings
    # (plus_pair — triangle counting, intersection sizes) count in integers
    # even over Boolean structures.
    BinaryOp("pair", _pair, positional="one", result_type=INT64),
    BinaryOp("any", _any, positional="first"),
    BinaryOp("eq", np.equal, ufunc=np.equal, result_type=BOOL),
    BinaryOp("ne", np.not_equal, ufunc=np.not_equal, result_type=BOOL),
    BinaryOp("lt", np.less, ufunc=np.less, result_type=BOOL),
    BinaryOp("gt", np.greater, ufunc=np.greater, result_type=BOOL),
    BinaryOp("le", np.less_equal, ufunc=np.less_equal, result_type=BOOL),
    BinaryOp("ge", np.greater_equal, ufunc=np.greater_equal, result_type=BOOL),
    BinaryOp("lor", _as_bool(np.logical_or), ufunc=np.logical_or, result_type=BOOL),
    BinaryOp("land", _as_bool(np.logical_and), ufunc=np.logical_and, result_type=BOOL),
    BinaryOp("lxor", _as_bool(np.logical_xor), ufunc=np.logical_xor, result_type=BOOL),
]:
    binary._register(_op)
