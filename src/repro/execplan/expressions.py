"""Compilation of AST expressions into runtime closures (RedisGraph's
AR_Exp arithmetic expression trees).

``compile_expr(expr, layout)`` returns ``fn(record, ctx) -> value``.  The
compiler resolves identifier slots at compile time; evaluation is pure
closure calls with no AST walking.

Cypher's SQL-style three-valued logic is implemented throughout: ``null``
propagates through arithmetic, comparisons and string predicates; AND/OR/
XOR/NOT follow Kleene logic; ``WHERE`` keeps only rows whose predicate is
exactly ``true``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import CypherSemanticError, CypherTypeError
from repro.cypher import ast_nodes as A
from repro.cypher.functions import call_scalar
from repro.cypher.semantic import AGGREGATE_FUNCTIONS
from repro.execplan.record import Layout, Record
from repro.graph.entities import Edge, Node

__all__ = ["compile_expr", "ExecContext", "CompiledExpr"]

CompiledExpr = Callable[[Record, "ExecContext"], Any]


class ExecContext:
    """Per-execution runtime context passed to every plan operation and
    compiled expression.

    Since plans are compiled once and cached (see
    :mod:`repro.execplan.plan_cache`), ALL mutable per-run state lives
    here rather than on the plan operations themselves:

    * ``args`` — one-row batches seeded into :class:`~repro.execplan.ops_base.
      Argument` leaves by Apply-style operators (OPTIONAL MATCH / MERGE),
      keyed by the Argument's compile-time id,
    * ``profile`` — the run's :class:`~repro.execplan.profiling.
      ProfileRun` (None outside GRAPH.PROFILE),
    * a bind-time operand cache: for read-only executions each algebraic
      operand (relation matrix, label diagonal) is resolved against the
      live graph once at first use and reused for the rest of the run —
      safe under the read lock, where matrices cannot change.  Write
      queries must re-resolve every time (``cache_operands=False``) so
      later clauses observe their own earlier writes.
    """

    __slots__ = (
        "graph",
        "params",
        "stats",
        "args",
        "profile",
        "cache_operands",
        "_operands",
        "batch_size",
    )

    def __init__(self, graph, params=None, stats=None, profile=None, *, cache_operands=False) -> None:
        self.graph = graph
        self.params = params or {}
        self.stats = stats
        self.args = {}
        self.profile = profile
        self.cache_operands = cache_operands
        self._operands = {}
        # record-batch granularity for this run; 1 = row-at-a-time
        self.batch_size = graph.config.exec_batch_size if graph is not None else 1

    def operand(self, key, resolve):
        """Bind one algebraic operand against the live graph (memoized for
        the rest of this execution when ``cache_operands`` is set)."""
        if not self.cache_operands:
            return resolve(self.graph)
        matrix = self._operands.get(key)
        if matrix is None:
            matrix = resolve(self.graph)
            self._operands[key] = matrix
        return matrix


# ---------------------------------------------------------------------------
# Value helpers
# ---------------------------------------------------------------------------


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _property_of(subject, key: str):
    if subject is None:
        return None
    if isinstance(subject, (Node, Edge)):
        return subject.properties.get(key)
    if isinstance(subject, dict):
        return subject.get(key)
    raise CypherTypeError(f"cannot access property {key!r} on {type(subject).__name__}")


def _arith(op: str, a, b):
    if a is None or b is None:
        return None
    if op == "+":
        if isinstance(a, str) and isinstance(b, str):
            return a + b
        if isinstance(a, list) and isinstance(b, list):
            return a + b
        if isinstance(a, list):
            return a + [b]
        if isinstance(b, list):
            return [a] + b
        if isinstance(a, str) or isinstance(b, str):
            # Cypher allows string + number concatenation
            return f"{a}{b}"
        if _is_number(a) and _is_number(b):
            return a + b
        raise CypherTypeError(f"cannot add {type(a).__name__} and {type(b).__name__}")
    if not (_is_number(a) and _is_number(b)):
        raise CypherTypeError(f"operator {op} expects numbers")
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            if isinstance(a, int) and isinstance(b, int):
                raise CypherTypeError("division by zero")
            return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
        if isinstance(a, int) and isinstance(b, int):
            return int(a / b)  # Cypher integer division truncates toward zero
        return a / b
    if op == "%":
        if b == 0:
            raise CypherTypeError("modulo by zero")
        return math.fmod(a, b) if isinstance(a, float) or isinstance(b, float) else int(math.fmod(a, b))
    if op == "^":
        return float(a) ** float(b)
    raise CypherTypeError(f"unknown operator {op}")  # pragma: no cover


_TYPE_ORDER = {"map": 0, "node": 1, "edge": 2, "list": 3, "str": 4, "bool": 5, "num": 6, "null": 7}


def _type_class(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if _is_number(v):
        return "num"
    if isinstance(v, str):
        return "str"
    if isinstance(v, list):
        return "list"
    if isinstance(v, Node):
        return "node"
    if isinstance(v, Edge):
        return "edge"
    if isinstance(v, dict):
        return "map"
    return "other"


def _equal(a, b):
    """Cypher equality: null-propagating; cross-type numerics compare
    numerically, otherwise differing types are simply not equal."""
    if a is None or b is None:
        return None
    if _is_number(a) and _is_number(b):
        return a == b
    if type(a) is bool or type(b) is bool:
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        acc: Optional[bool] = True
        for x, y in zip(a, b):
            e = _equal(x, y)
            if e is None:
                acc = None
            elif not e:
                return False
        return acc
    if type(a) is not type(b) and not (isinstance(a, (Node, Edge)) and isinstance(b, (Node, Edge))):
        return False
    return a == b


def _compare(op: str, a, b):
    if op == "=":
        return _equal(a, b)
    if op == "<>":
        eq = _equal(a, b)
        return None if eq is None else not eq
    if a is None or b is None:
        return None
    if _is_number(a) and _is_number(b):
        pass
    elif isinstance(a, str) and isinstance(b, str):
        pass
    elif isinstance(a, bool) and isinstance(b, bool):
        pass
    elif isinstance(a, list) and isinstance(b, list):
        pass
    else:
        return None  # incomparable types order as null
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    raise CypherTypeError(f"unknown comparison {op}")  # pragma: no cover


def sort_key(value):
    """Total order over mixed-type values for ORDER BY: group by type class,
    then compare within the class; nulls sort last ascending."""
    cls = _type_class(value)
    rank = _TYPE_ORDER.get(cls, 8)
    if cls == "null":
        return (rank, 0)
    if cls == "num":
        return (rank, value)
    if cls == "bool":
        return (rank, int(value))
    if cls == "str":
        return (rank, value)
    if cls == "list":
        return (rank, tuple(sort_key(v) for v in value))
    if cls in ("node", "edge"):
        return (rank, value.id)
    if cls == "map":
        return (rank, tuple(sorted((k, sort_key(v)) for k, v in value.items())))
    return (rank, str(value))


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


def compile_expr(expr: A.Expr, layout: Layout) -> CompiledExpr:
    """Compile an expression against a record layout.

    The returned closure is tagged with the source ``ast`` and ``layout``
    so the batch compiler (:func:`repro.execplan.batch_expr.vectorize`)
    can build the vectorized twin of the same expression; closures built
    by hand (no tag) automatically get the per-row fallback wrapper."""
    fn = _compile_expr(expr, layout)
    try:
        fn.ast = expr
        fn.layout = layout
    except AttributeError:  # pragma: no cover - plain functions always accept
        pass
    return fn


def _compile_expr(expr: A.Expr, layout: Layout) -> CompiledExpr:
    if isinstance(expr, A.Literal):
        value = expr.value
        return lambda r, c: value

    if isinstance(expr, A.Parameter):
        name = expr.name

        def param(r, c):
            if name not in c.params:
                raise CypherSemanticError(f"missing query parameter ${name}")
            return c.params[name]

        return param

    if isinstance(expr, A.Identifier):
        slot = layout.get(expr.name)
        if slot is None:
            raise CypherSemanticError(f"variable {expr.name!r} not in scope")
        return lambda r, c: r[slot]

    if isinstance(expr, A.PropertyAccess):
        subject = compile_expr(expr.subject, layout)
        key = expr.key
        return lambda r, c: _property_of(subject(r, c), key)

    if isinstance(expr, A.Subscript):
        subject = compile_expr(expr.subject, layout)
        index = compile_expr(expr.index, layout)

        def subscript(r, c):
            s = subject(r, c)
            i = index(r, c)
            if s is None or i is None:
                return None
            if isinstance(s, list):
                if not isinstance(i, int) or isinstance(i, bool):
                    raise CypherTypeError("list index must be an integer")
                return s[i] if -len(s) <= i < len(s) else None
            if isinstance(s, dict):
                return s.get(i)
            raise CypherTypeError(f"cannot subscript {type(s).__name__}")

        return subscript

    if isinstance(expr, A.Slice):
        subject = compile_expr(expr.subject, layout)
        start = compile_expr(expr.start, layout) if expr.start is not None else None
        stop = compile_expr(expr.stop, layout) if expr.stop is not None else None

        def slice_(r, c):
            s = subject(r, c)
            if s is None:
                return None
            if not isinstance(s, list):
                raise CypherTypeError("slicing expects a list")
            lo = start(r, c) if start else 0
            hi = stop(r, c) if stop else len(s)
            if lo is None or hi is None:
                return None
            return s[lo:hi]

        return slice_

    if isinstance(expr, A.ListLiteral):
        items = [compile_expr(e, layout) for e in expr.items]
        return lambda r, c: [f(r, c) for f in items]

    if isinstance(expr, A.MapLiteral):
        pairs = [(k, compile_expr(v, layout)) for k, v in expr.items]
        return lambda r, c: {k: f(r, c) for k, f in pairs}

    if isinstance(expr, A.Unary):
        operand = compile_expr(expr.operand, layout)
        if expr.op == "-":
            def neg(r, c):
                v = operand(r, c)
                if v is None:
                    return None
                if not _is_number(v):
                    raise CypherTypeError("unary minus expects a number")
                return -v

            return neg
        return operand  # unary plus

    if isinstance(expr, A.Binary):
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        op = expr.op
        return lambda r, c: _arith(op, left(r, c), right(r, c))

    if isinstance(expr, A.Comparison):
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        op = expr.op
        return lambda r, c: _compare(op, left(r, c), right(r, c))

    if isinstance(expr, A.BoolOp):
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        if expr.op == "AND":
            def and_(r, c):
                a = _truth(left(r, c))
                if a is False:
                    return False
                b = _truth(right(r, c))
                if b is False:
                    return False
                return None if a is None or b is None else True

            return and_
        if expr.op == "OR":
            def or_(r, c):
                a = _truth(left(r, c))
                if a is True:
                    return True
                b = _truth(right(r, c))
                if b is True:
                    return True
                return None if a is None or b is None else False

            return or_

        def xor(r, c):
            a = _truth(left(r, c))
            b = _truth(right(r, c))
            if a is None or b is None:
                return None
            return a != b

        return xor

    if isinstance(expr, A.Not):
        operand = compile_expr(expr.operand, layout)

        def not_(r, c):
            v = _truth(operand(r, c))
            return None if v is None else not v

        return not_

    if isinstance(expr, A.IsNull):
        operand = compile_expr(expr.operand, layout)
        if expr.negated:
            return lambda r, c: operand(r, c) is not None
        return lambda r, c: operand(r, c) is None

    if isinstance(expr, A.StringPredicate):
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        op = expr.op

        def strpred(r, c):
            a = left(r, c)
            b = right(r, c)
            if a is None or b is None:
                return None
            if not isinstance(a, str) or not isinstance(b, str):
                return None
            if op == "STARTS_WITH":
                return a.startswith(b)
            if op == "ENDS_WITH":
                return a.endswith(b)
            return b in a  # CONTAINS

        return strpred

    if isinstance(expr, A.InList):
        needle = compile_expr(expr.needle, layout)
        haystack = compile_expr(expr.haystack, layout)

        def in_list(r, c):
            hay = haystack(r, c)
            if hay is None:
                return None
            if not isinstance(hay, list):
                raise CypherTypeError("IN expects a list on the right")
            item = needle(r, c)
            saw_null = item is None
            for h in hay:
                eq = _equal(item, h)
                if eq is True:
                    return True
                if eq is None:
                    saw_null = True
            return None if saw_null else False

        return in_list

    if isinstance(expr, A.FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            raise CypherSemanticError(
                f"aggregate {expr.name}() cannot be evaluated as a scalar here"
            )
        args = [compile_expr(a, layout) for a in expr.args]
        name = expr.name
        return lambda r, c: call_scalar(name, [f(r, c) for f in args])

    if isinstance(expr, A.CaseExpr):
        subject = compile_expr(expr.subject, layout) if expr.subject is not None else None
        whens = [(compile_expr(w, layout), compile_expr(t, layout)) for w, t in expr.whens]
        default = compile_expr(expr.default, layout) if expr.default is not None else None

        def case(r, c):
            if subject is not None:
                subj = subject(r, c)
                for w, t in whens:
                    if _equal(subj, w(r, c)) is True:
                        return t(r, c)
            else:
                for w, t in whens:
                    if _truth(w(r, c)) is True:
                        return t(r, c)
            return default(r, c) if default is not None else None

        return case

    raise CypherSemanticError(f"cannot compile expression {expr!r}")  # pragma: no cover


def _truth(v) -> Optional[bool]:
    """Cypher boolean coercion: booleans pass through, null is unknown."""
    if v is None:
        return None
    if isinstance(v, bool):
        return v
    raise CypherTypeError(f"expected a boolean, got {type(v).__name__}")
