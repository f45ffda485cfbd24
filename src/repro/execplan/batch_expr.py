"""Vectorized expression evaluation over :class:`RecordBatch` columns.

``vectorize(fn)`` turns a scalar :data:`CompiledExpr` closure into a batch
evaluator ``(batch, ctx) -> Const | Column``:

* closures produced by :func:`~repro.execplan.expressions.compile_expr`
  carry their source AST, which compiles here into columnar kernels —
  bulk property gathers, numpy comparisons/boolean logic with Cypher's
  ternary NULL semantics, ``id()`` straight off the id vector;
* any expression shape without a kernel (CASE, slices, UDF-ish calls,
  hand-written planner closures) gets the automatic per-row fallback
  wrapper, so batch execution can never change semantics — it only
  changes how many rows are computed per Python-level step.

Null representation: a typed :class:`ValueColumn` pairs its array with a
``nulls`` mask (values are canonicalized to False/0 under the mask); an
object column uses ``None`` cells.  ``Const`` marks a value that is the
same for every row of the batch (literals, parameters), which keeps
scalar-vs-column kernels branch-cheap.

Error timing caveat (documented in the README): vectorized AND/OR
evaluate both sides for the whole batch, so an expression that the row
engine would short-circuit past can raise here.  Operators recover by
re-running the batch per row on any Cypher error (see
``ops_stream``), which restores exact row-engine error behavior at the
cost of one retry; ``exec_batch_size=1`` is bit-for-bit row-at-a-time.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from repro.cypher import ast_nodes as A
from repro.errors import CypherSemanticError, CypherTypeError
from repro.execplan.batch import (
    Column,
    EntityColumn,
    RecordBatch,
    ValueColumn,
    as_entity_ids,
    float64_exact,
    gathered_column,
    object_column,
)
from repro.execplan.expressions import (
    CompiledExpr,
    _arith,
    _compare,
    _equal,
    _property_of,
    _truth,
    compile_expr,
)
from repro.execplan.record import Layout

__all__ = ["Const", "BatchResult", "BatchEval", "vectorize", "as_column", "true_mask"]

_NoneType = type(None)
_NUMERIC_TYPES = frozenset((int, float))
_I64 = np.int64


class Const:
    """A per-batch-constant result (literal / parameter / folded value)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


BatchResult = Union[Const, Column]
BatchEval = Callable[[RecordBatch, Any], BatchResult]


# ---------------------------------------------------------------------------
# Result adapters
# ---------------------------------------------------------------------------


def as_column(res: BatchResult, n: int) -> Column:
    """Materialize a batch result into a real column of length ``n``."""
    if isinstance(res, Const):
        out = np.empty(n, dtype=object)
        if res.value is not None:
            out.fill(res.value)  # fill stores the object, no sequence broadcast
        return ValueColumn(out)
    return res


def _objects_of(res: BatchResult, n: int) -> np.ndarray:
    if isinstance(res, Const):
        return as_column(res, n).to_objects()
    return res.to_objects()


def _scalar_cell(value: Any) -> np.ndarray:
    """A 0-d object array so frompyfunc broadcasts *any* value (including
    lists, which numpy would otherwise flatten) as one scalar operand."""
    cell = np.empty((), dtype=object)
    cell[()] = value
    return cell


def true_mask(res: BatchResult, n: int) -> np.ndarray:
    """WHERE semantics: keep rows whose value is exactly ``true``."""
    if isinstance(res, Const):
        return np.full(n, res.value is True, dtype=np.bool_)
    if isinstance(res, ValueColumn) and res.values.dtype == np.bool_:
        if res.nulls is None:
            return res.values
        return res.values & ~res.nulls
    if isinstance(res, EntityColumn):
        return np.zeros(n, dtype=np.bool_)
    values = res.to_objects()
    return np.fromiter((v is True for v in values), dtype=np.bool_, count=n)


def _tri_masks(res: BatchResult, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Kleene decomposition ``(true, null)`` of a boolean-valued result
    (false = neither).  Raises like scalar ``_truth`` on non-booleans."""
    if isinstance(res, Const):
        t = _truth(res.value)
        return (
            np.full(n, t is True, dtype=np.bool_),
            np.full(n, t is None, dtype=np.bool_),
        )
    if isinstance(res, ValueColumn) and res.values.dtype == np.bool_:
        nulls = res.nulls if res.nulls is not None else np.zeros(n, dtype=np.bool_)
        return res.values & ~nulls, nulls
    values = _objects_of(res, n)
    t = np.empty(n, dtype=np.bool_)
    nl = np.empty(n, dtype=np.bool_)
    for i, v in enumerate(values):
        tv = _truth(v)
        t[i] = tv is True
        nl[i] = tv is None
    return t, nl


def _bool_column(true: np.ndarray, nulls: Optional[np.ndarray]) -> ValueColumn:
    if nulls is None:
        return ValueColumn(true)
    return ValueColumn(true & ~nulls, nulls)


def _numeric_parts(res: BatchResult, n: int):
    """``(numeric array, nulls-or-None)`` when every value is a pure
    int/float (bools excluded, as in scalar ``_is_number``); None when the
    fast numeric path does not apply.  A gathered int/float property is
    already typed; an object column converts here."""
    if not isinstance(res, ValueColumn):
        return None
    if res.values.dtype in (np.int64, np.float64):
        return res.values, res.nulls
    if res.values.dtype != object:
        return None
    lst = res.values.tolist()
    types = set(map(type, lst))
    has_null = _NoneType in types
    types.discard(_NoneType)
    if not types <= _NUMERIC_TYPES:
        return None
    # pure-int columns stay int64 so values past 2**53 compare exactly;
    # mixed int/float takes float64 only while exact, and an overflow
    # drops the column to the elementwise path
    dtype = _I64 if types == {int} else np.float64
    if dtype is np.float64 and int in types and not float64_exact(lst):
        return None
    try:
        if has_null:
            nulls = np.fromiter((v is None for v in lst), dtype=np.bool_, count=n)
            return np.array([0 if v is None else v for v in lst], dtype=dtype), nulls
        return np.array(lst, dtype=dtype), None
    except OverflowError:
        return None


def _float_domain(side) -> bool:
    return isinstance(side, float) or (
        isinstance(side, np.ndarray) and side.dtype == np.float64
    )


def _int_side_unsafe(side) -> bool:
    """An int operand (scalar or int64 array) that float64 promotion
    would collapse (|v| > 2**53)."""
    if isinstance(side, np.ndarray):
        if side.dtype != _I64 or not len(side):
            return False
        lo, hi = int(side.min()), int(side.max())
        return max(abs(lo), abs(hi)) > 2**53
    if type(side) is int:
        return abs(side) > 2**53
    return False


def _elementwise(fn: Callable[[Any], Any], res: BatchResult, n: int) -> ValueColumn:
    values = np.frompyfunc(fn, 1, 1)(_objects_of(res, n))
    return ValueColumn(values)


def _elementwise2(
    fn: Callable[[Any, Any], Any], a: BatchResult, b: BatchResult, n: int
) -> ValueColumn:
    av = _scalar_cell(a.value) if isinstance(a, Const) else a.to_objects()
    bv = _scalar_cell(b.value) if isinstance(b, Const) else b.to_objects()
    values = np.frompyfunc(fn, 2, 1)(av, bv)
    if values.ndim == 0:  # both const — keep column shape for the caller
        values = np.full(n, values[()], dtype=object)
    return ValueColumn(values)


# ---------------------------------------------------------------------------
# Vectorizer entry point
# ---------------------------------------------------------------------------


def vectorize(fn: CompiledExpr) -> BatchEval:
    """The batch evaluator twin of a scalar compiled expression."""
    batch_eval = getattr(fn, "batch_eval", None)
    if batch_eval is not None:  # hand-vectorized planner predicates
        return batch_eval
    ast = getattr(fn, "ast", None)
    if ast is not None:
        return _compile_batch(ast, fn.layout)
    return _row_fallback(fn)


def _row_fallback(scalar: CompiledExpr) -> BatchEval:
    def run(batch: RecordBatch, ctx) -> Column:
        rows = batch.materialize_rows()
        return ValueColumn(object_column([scalar(r, ctx) for r in rows]))

    return run


def _fallback_for(expr: A.Expr, layout: Layout) -> BatchEval:
    return _row_fallback(compile_expr(expr, layout))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _compile_batch(expr: A.Expr, layout: Layout) -> BatchEval:
    if isinstance(expr, A.Literal):
        value = expr.value
        return lambda b, c: Const(value)

    if isinstance(expr, A.Parameter):
        name = expr.name

        def param(b, c):
            if name not in c.params:
                raise CypherSemanticError(f"missing query parameter ${name}")
            return Const(c.params[name])

        return param

    if isinstance(expr, A.Identifier):
        slot = layout.get(expr.name)
        if slot is None:
            raise CypherSemanticError(f"variable {expr.name!r} not in scope")
        return lambda b, c: b.columns[slot]

    if isinstance(expr, A.PropertyAccess):
        subject = _compile_batch(expr.subject, layout)
        key = expr.key

        def prop(b, c):
            res = subject(b, c)
            if isinstance(res, Const):
                return Const(_property_of(res.value, key))
            if isinstance(res, EntityColumn):
                return res.property_column(key)
            entity = as_entity_ids(res)
            if entity is not None:
                return gathered_column(c.graph, entity[0], entity[1], key)
            return _elementwise(lambda v: _property_of(v, key), res, b.length)

        return prop

    if isinstance(expr, A.Comparison):
        left = _compile_batch(expr.left, layout)
        right = _compile_batch(expr.right, layout)
        op = expr.op

        def compare(b, c):
            n = b.length
            a_res = left(b, c)
            b_res = right(b, c)
            if isinstance(a_res, Const) and isinstance(b_res, Const):
                return Const(_compare(op, a_res.value, b_res.value))
            # null constants propagate: the whole column is null
            if (isinstance(a_res, Const) and a_res.value is None) or (
                isinstance(b_res, Const) and b_res.value is None
            ):
                return ValueColumn(
                    np.zeros(n, dtype=np.bool_), np.ones(n, dtype=np.bool_)
                )
            # constants stay raw Python numbers (no float() collapse —
            # an int64 column vs an int constant compares exactly)
            a_num = (
                (a_res.value, None)
                if isinstance(a_res, Const) and type(a_res.value) in _NUMERIC_TYPES
                else _numeric_parts(a_res, n)
                if not isinstance(a_res, Const)
                else None
            )
            b_num = (
                (b_res.value, None)
                if isinstance(b_res, Const) and type(b_res.value) in _NUMERIC_TYPES
                else _numeric_parts(b_res, n)
                if not isinstance(b_res, Const)
                else None
            )
            if a_num is not None and b_num is not None:
                av, a_nulls = a_num
                bv, b_nulls = b_num
                # cross-dtype promotion (int64 side vs float side) goes
                # through float64; bail to the exact elementwise path when
                # that would collapse large ints, like scalar _compare
                # (which compares Python int vs float exactly) never does
                if (_float_domain(av) and _int_side_unsafe(bv)) or (
                    _float_domain(bv) and _int_side_unsafe(av)
                ):
                    return _elementwise2(
                        lambda x, y: _compare(op, x, y), a_res, b_res, n
                    )
                try:
                    if op == "=":
                        raw = np.equal(av, bv)
                    elif op == "<>":
                        raw = np.not_equal(av, bv)
                    elif op == "<":
                        raw = np.less(av, bv)
                    elif op == ">":
                        raw = np.greater(av, bv)
                    elif op == "<=":
                        raw = np.less_equal(av, bv)
                    else:
                        raw = np.greater_equal(av, bv)
                except OverflowError:
                    raw = None  # constant outside int64: exact path below
                if raw is not None:
                    if a_nulls is None:
                        nulls = b_nulls
                    elif b_nulls is None:
                        nulls = a_nulls
                    else:
                        nulls = a_nulls | b_nulls
                    if raw.ndim == 0:
                        raw = np.full(n, bool(raw), dtype=np.bool_)
                    return _bool_column(raw, nulls)
            return _elementwise2(lambda x, y: _compare(op, x, y), a_res, b_res, n)

        return compare

    if isinstance(expr, A.Binary):
        left = _compile_batch(expr.left, layout)
        right = _compile_batch(expr.right, layout)
        op = expr.op

        def arith(b, c):
            a_res = left(b, c)
            b_res = right(b, c)
            if isinstance(a_res, Const) and isinstance(b_res, Const):
                return Const(_arith(op, a_res.value, b_res.value))
            return _elementwise2(lambda x, y: _arith(op, x, y), a_res, b_res, b.length)

        return arith

    if isinstance(expr, A.BoolOp):
        left = _compile_batch(expr.left, layout)
        right = _compile_batch(expr.right, layout)
        op = expr.op

        def boolop(b, c):
            n = b.length
            at, an = _tri_masks(left(b, c), n)
            bt, bn = _tri_masks(right(b, c), n)
            af = ~at & ~an
            bf = ~bt & ~bn
            if op == "AND":
                t = at & bt
                f = af | bf
            elif op == "OR":
                t = at | bt
                f = af & bf
            else:  # XOR: null if either null, else inequality
                nulls = an | bn
                return _bool_column((at ^ bt) & ~nulls, nulls)
            return _bool_column(t, ~(t | f))

        return boolop

    if isinstance(expr, A.Not):
        operand = _compile_batch(expr.operand, layout)

        def not_(b, c):
            n = b.length
            t, nulls = _tri_masks(operand(b, c), n)
            return _bool_column(~t & ~nulls, nulls)

        return not_

    if isinstance(expr, A.IsNull):
        operand = _compile_batch(expr.operand, layout)
        negated = expr.negated

        def isnull(b, c):
            res = operand(b, c)
            if isinstance(res, Const):
                is_null = res.value is None
                return Const(not is_null if negated else is_null)
            mask = res.null_mask()
            return ValueColumn(~mask if negated else mask.copy())

        return isnull

    if isinstance(expr, A.StringPredicate):
        left = _compile_batch(expr.left, layout)
        right = _compile_batch(expr.right, layout)
        op = expr.op

        def scalar_pred(a, b):
            if not isinstance(a, str) or not isinstance(b, str):
                return None
            if op == "STARTS_WITH":
                return a.startswith(b)
            if op == "ENDS_WITH":
                return a.endswith(b)
            return b in a  # CONTAINS

        def strpred(b, c):
            a_res = left(b, c)
            b_res = right(b, c)
            if isinstance(a_res, Const) and isinstance(b_res, Const):
                return Const(scalar_pred(a_res.value, b_res.value))
            return _elementwise2(scalar_pred, a_res, b_res, b.length)

        return strpred

    if isinstance(expr, A.InList):
        needle = _compile_batch(expr.needle, layout)
        haystack = _compile_batch(expr.haystack, layout)

        def scalar_in(item, hay):
            if hay is None:
                return None
            if not isinstance(hay, list):
                raise CypherTypeError("IN expects a list on the right")
            saw_null = item is None
            for h in hay:
                eq = _equal(item, h)
                if eq is True:
                    return True
                if eq is None:
                    saw_null = True
            return None if saw_null else False

        def in_list(b, c):
            n_res = needle(b, c)
            h_res = haystack(b, c)
            if isinstance(n_res, Const) and isinstance(h_res, Const):
                return Const(scalar_in(n_res.value, h_res.value))
            if isinstance(h_res, Const):
                hay = h_res.value
                return _elementwise(lambda v: scalar_in(v, hay), n_res, b.length)
            return _elementwise2(scalar_in, n_res, h_res, b.length)

        return in_list

    if isinstance(expr, A.ListLiteral):
        items = [_compile_batch(e, layout) for e in expr.items]

        def list_literal(b, c):
            results = [item(b, c) for item in items]
            if all(isinstance(r, Const) for r in results):
                return Const([r.value for r in results])
            cols = [_objects_of(r, b.length) for r in results]
            return ValueColumn(object_column([list(row) for row in zip(*cols)]))

        return list_literal

    if isinstance(expr, A.FunctionCall):
        if expr.name == "id" and len(expr.args) == 1:
            arg = _compile_batch(expr.args[0], layout)
            fallback = _fallback_for(expr, layout)

            def id_fn(b, c):
                res = arg(b, c)
                if not isinstance(res, Const):
                    entity = as_entity_ids(res)
                    if entity is not None:
                        _, ids = entity
                        holes = ids < 0
                        return ValueColumn(ids, holes if holes.any() else None)
                return fallback(b, c)

            return id_fn
        if expr.name == "labels" and len(expr.args) == 1:
            arg = _compile_batch(expr.args[0], layout)
            fallback = _fallback_for(expr, layout)

            def labels_fn(b, c):
                res = arg(b, c)
                if not isinstance(res, Const):
                    entity = as_entity_ids(res)
                    if entity is not None and entity[0] == "node":
                        tuples = c.graph.node_labels_column(entity[1])
                        return ValueColumn(
                            object_column(
                                [None if t is None else list(t) for t in tuples]
                            )
                        )
                return fallback(b, c)

            return labels_fn
        return _fallback_for(expr, layout)

    # CASE, subscript, slice, map literal, unary minus, …: per-row fallback
    return _fallback_for(expr, layout)
