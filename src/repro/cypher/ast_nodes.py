"""Abstract syntax tree node definitions for the Cypher subset.

Plain frozen dataclasses; the parser builds them, the semantic checker
walks them, and :mod:`repro.execplan.planner` compiles them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "Query",
    "SingleQuery",
    "MatchClause",
    "CreateClause",
    "MergeClause",
    "DeleteClause",
    "SetClause",
    "SetItem",
    "RemoveClause",
    "RemoveItem",
    "WithClause",
    "ReturnClause",
    "UnwindClause",
    "CallClause",
    "YieldItem",
    "CreateIndexClause",
    "DropIndexClause",
    "Projection",
    "OrderItem",
    "Path",
    "NodePattern",
    "RelPattern",
    "Expr",
    "Literal",
    "Parameter",
    "Identifier",
    "PropertyAccess",
    "Subscript",
    "Slice",
    "ListLiteral",
    "MapLiteral",
    "Unary",
    "Binary",
    "Comparison",
    "BoolOp",
    "Not",
    "IsNull",
    "StringPredicate",
    "InList",
    "FunctionCall",
    "CaseExpr",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any  # int, float, str, bool, None


@dataclass(frozen=True)
class Parameter(Expr):
    name: str


@dataclass(frozen=True)
class Identifier(Expr):
    name: str


@dataclass(frozen=True)
class PropertyAccess(Expr):
    subject: Expr
    key: str


@dataclass(frozen=True)
class Subscript(Expr):
    subject: Expr
    index: Expr


@dataclass(frozen=True)
class Slice(Expr):
    subject: Expr
    start: Optional[Expr]
    stop: Optional[Expr]


@dataclass(frozen=True)
class ListLiteral(Expr):
    items: Tuple[Expr, ...]


@dataclass(frozen=True)
class MapLiteral(Expr):
    items: Tuple[Tuple[str, Expr], ...]


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '-' or '+'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / % ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Comparison(Expr):
    op: str  # = <> < > <= >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # AND OR XOR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool  # IS NOT NULL


@dataclass(frozen=True)
class StringPredicate(Expr):
    op: str  # STARTS_WITH / ENDS_WITH / CONTAINS
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    needle: Expr
    haystack: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str  # lower-cased
    args: Tuple[Expr, ...]
    distinct: bool = False  # count(DISTINCT x), collect(DISTINCT x), ...


@dataclass(frozen=True)
class CaseExpr(Expr):
    """Both simple (``CASE x WHEN v THEN r``) and generic
    (``CASE WHEN pred THEN r``) forms; ``subject`` is None for generic."""

    subject: Optional[Expr]
    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    var: Optional[str]
    labels: Tuple[str, ...]
    properties: Tuple[Tuple[str, Expr], ...]  # {key: expr, ...}


@dataclass(frozen=True)
class RelPattern:
    var: Optional[str]
    types: Tuple[str, ...]
    direction: str  # 'out' (->), 'in' (<-), 'any' (undirected)
    min_hops: int = 1
    max_hops: int = 1  # -1 = unbounded
    properties: Tuple[Tuple[str, Expr], ...] = ()

    @property
    def variable_length(self) -> bool:
        return not (self.min_hops == 1 and self.max_hops == 1)


@dataclass(frozen=True)
class Path:
    """Alternating nodes and relationships: ``nodes[i] rels[i] nodes[i+1]``."""

    var: Optional[str]
    nodes: Tuple[NodePattern, ...]
    rels: Tuple[RelPattern, ...]

    def __post_init__(self) -> None:
        assert len(self.nodes) == len(self.rels) + 1


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchClause:
    patterns: Tuple[Path, ...]
    optional: bool = False
    where: Optional[Expr] = None


@dataclass(frozen=True)
class CreateClause:
    patterns: Tuple[Path, ...]


@dataclass(frozen=True)
class MergeClause:
    pattern: Path
    on_create: Tuple["SetItem", ...] = ()
    on_match: Tuple["SetItem", ...] = ()


@dataclass(frozen=True)
class DeleteClause:
    exprs: Tuple[Expr, ...]
    detach: bool = False


@dataclass(frozen=True)
class SetItem:
    """``target.key = value`` or ``target += map`` or ``target:Label``."""

    target: str
    key: Optional[str]  # None for += map or label set
    value: Optional[Expr]
    labels: Tuple[str, ...] = ()
    merge_map: bool = False


@dataclass(frozen=True)
class SetClause:
    items: Tuple[SetItem, ...]


@dataclass(frozen=True)
class RemoveItem:
    target: str
    key: Optional[str]
    labels: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RemoveClause:
    items: Tuple[RemoveItem, ...]


@dataclass(frozen=True)
class Projection:
    expr: Expr
    alias: Optional[str]
    star: bool = False  # RETURN *

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return _expr_to_name(self.expr)


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class ReturnClause:
    projections: Tuple[Projection, ...]
    distinct: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    skip: Optional[Expr] = None
    limit: Optional[Expr] = None


@dataclass(frozen=True)
class WithClause:
    projections: Tuple[Projection, ...]
    distinct: bool = False
    where: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    skip: Optional[Expr] = None
    limit: Optional[Expr] = None


@dataclass(frozen=True)
class UnwindClause:
    expr: Expr
    alias: str


@dataclass(frozen=True)
class YieldItem:
    """One ``YIELD column [AS alias]`` item of a CALL clause."""

    column: str
    alias: Optional[str] = None

    def output_name(self) -> str:
        return self.alias or self.column


@dataclass(frozen=True)
class CallClause:
    """``CALL proc.name(args...) [YIELD col [AS alias], ...] [WHERE expr]``.

    ``yields == ()`` means the implicit star form (standalone CALL only):
    every declared output column is projected under its own name."""

    procedure: str
    args: Tuple[Expr, ...]
    yields: Tuple[YieldItem, ...] = ()
    where: Optional[Expr] = None


@dataclass(frozen=True)
class CreateIndexClause:
    """``CREATE [VECTOR] INDEX ON :Label(attr[, attr...]) [OPTIONS {...}]``.

    ``kind`` is ``"range"`` (one attribute), ``"composite"`` (several) or
    ``"vector"``; ``options`` holds literal OPTIONS entries as sorted
    (name, value) pairs so the clause stays hashable for the plan cache.
    Vector indexes accept ``dimension``, ``similarity``, and the IVF
    knobs ``nlist`` (bucket count, auto ~sqrt(N) when omitted),
    ``nprobe`` (default probe width) and ``exact`` (true pins the
    brute-force path — the differential-testing hook).
    """

    label: str
    attributes: Tuple[str, ...]
    kind: str = "range"
    options: Tuple[Tuple[str, Any], ...] = ()

    @property
    def attribute(self) -> str:
        return self.attributes[0]


@dataclass(frozen=True)
class DropIndexClause:
    label: str
    attributes: Tuple[str, ...]
    kind: str = "range"

    @property
    def attribute(self) -> str:
        return self.attributes[0]


Clause = Union[
    MatchClause,
    CreateClause,
    MergeClause,
    DeleteClause,
    SetClause,
    RemoveClause,
    WithClause,
    ReturnClause,
    UnwindClause,
    CallClause,
    CreateIndexClause,
    DropIndexClause,
]


@dataclass(frozen=True)
class SingleQuery:
    clauses: Tuple[Clause, ...]


@dataclass(frozen=True)
class Query:
    """Top-level query (UNION of one or more single queries)."""

    parts: Tuple[SingleQuery, ...]
    union_all: bool = False

    @property
    def single(self) -> SingleQuery:
        assert len(self.parts) == 1
        return self.parts[0]


def _expr_to_name(expr: Expr) -> str:
    """Render an expression back to a short column name for un-aliased
    projections (``RETURN a.name`` → column ``a.name``)."""
    if isinstance(expr, Identifier):
        return expr.name
    if isinstance(expr, PropertyAccess):
        return f"{_expr_to_name(expr.subject)}.{expr.key}"
    if isinstance(expr, FunctionCall):
        inner = ", ".join(_expr_to_name(a) for a in expr.args) if expr.args else "*"
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, Parameter):
        return f"${expr.name}"
    if isinstance(expr, Binary):
        return f"{_expr_to_name(expr.left)} {expr.op} {_expr_to_name(expr.right)}"
    return expr.__class__.__name__.lower()
