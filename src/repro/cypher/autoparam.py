"""Literal lifting: queries that differ only in inline values share a plan.

Clients that send values inline (``MATCH (p:Person) WHERE p.uid = 42``)
would otherwise pay a full compile per distinct value and flood the plan
cache with one entry each.  :func:`lift_literals` rewrites the token
stream instead, replacing each liftable number or string with a
reserved-prefix parameter (``$__lit0``, ``$__lit1`` …), and returns the
normalised text plus the lifted values.  The plan cache keys on the
normalised text, so one compile serves every literal variant.

The rewrite changes the AST only by turning ``Literal`` leaves into
``Parameter`` leaves, and the compiler never reads a parameter's value.
A literal therefore stays inline wherever the compiler reads its value
or its spelling:

* ``SKIP`` / ``LIMIT`` counts — the top-k sort reads them at plan time;
* variable-length bounds, ``..`` ranges and slices — a hop range takes
  integer tokens only;
* unaliased ``RETURN`` / ``WITH`` items, because the column is named
  after the expression, and every literal of a projection block with
  ``ORDER BY``, because sort keys are matched to projections
  structurally;
* operands of ``<``, ``<=``, ``>``, ``>=`` and ``IN`` lists — the cost
  model prices an index seek by those values;
* any statement with ``CALL`` or index DDL — procedure arguments are
  type-checked and ``OPTIONS`` values must be literals at compile time;
* integers outside int64, and the keywords ``TRUE``, ``FALSE``, ``NULL``.

Equal literals (same type, same value) share one parameter, so a
repeated expression such as ``id(n) = 1 AND id(n) = 1`` stays
structurally equal after the rewrite.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CypherSyntaxError
from repro.cypher.lexer import tokenize
from repro.cypher.tokens import Token, TokenType

__all__ = ["LIFT_PREFIX", "lift_literals"]

#: name prefix of the synthetic parameters; a query that already uses a
#: parameter with this prefix is never lifted, so names cannot collide
LIFT_PREFIX = "__lit"

# enum members bound once: attribute access on an Enum class is slow
_INTEGER, _FLOAT, _STRING = TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING
_IDENT, _KEYWORD, _PARAMETER = TokenType.IDENT, TokenType.KEYWORD, TokenType.PARAMETER
_PUNCT, _OPERATOR, _RANGE = TokenType.PUNCT, TokenType.OPERATOR, TokenType.RANGE
_DASH, _ARROW_LEFT = TokenType.DASH, TokenType.ARROW_LEFT

_INT64_MAX = 2**63 - 1
_VALUE_TYPES = {_INTEGER: int, _FLOAT: float, _STRING: str}
_RANGE_OPS = frozenset(("<", "<=", ">", ">="))
_CLOSERS = {"(": ")", "[": "]", "{": "}"}
_TAIL = frozenset(("ORDER", "SKIP", "LIMIT"))
# top-level words that end a RETURN / WITH item list ("" is end of input)
_ITEMS_END = _TAIL | {
    "", "WHERE", "MATCH", "OPTIONAL", "CREATE", "MERGE", "DELETE", "DETACH",
    "SET", "REMOVE", "WITH", "RETURN", "UNWIND", "UNION",
}


def lift_literals(text: str) -> Optional[Tuple[str, Dict[str, Any]]]:
    """``(normalised text, {parameter name: value})``, or None when the
    query has nothing to lift (or does not lex — the exact text then
    produces the error)."""
    try:
        tokens = tokenize(text)
    except CypherSyntaxError:
        return None
    kept = _kept_positions(tokens)
    if kept is None:
        return None
    names: Dict[Tuple[type, Any], str] = {}
    params: Dict[str, Any] = {}
    out: List[str] = []
    for tok, keep in zip(tokens[:-1], kept):  # the last token is EOF
        kind = tok.type
        convert = _VALUE_TYPES.get(kind)
        if convert is not None and not keep:
            try:
                value = convert(tok.value)
            except ValueError:  # a digit int() rejects: the parser reports it
                value = None
            if value is not None and not (isinstance(value, int) and value > _INT64_MAX):
                name = names.get((type(value), value))
                if name is None:
                    name = names[(type(value), value)] = f"{LIFT_PREFIX}{len(names)}"
                    params[name] = value
                out.append("$" + name)
                continue
        # every other token is written so that it lexes back to itself
        if kind is _STRING:
            out.append("'" + tok.value.replace("\\", "\\\\").replace("'", "\\'") + "'")
        elif kind is _IDENT:
            out.append(f"`{tok.value}`")
        elif kind is _PARAMETER:
            out.append("$" + tok.value)
        else:
            out.append(tok.value)
    if not params:
        return None
    return " ".join(out), params


def _kept_positions(tokens: List[Token]) -> Optional[List[bool]]:
    """Per token, whether a literal there must stay inline; None when the
    statement must not be lifted at all (CALL, index DDL, a reserved
    parameter name, or brackets the parser will reject)."""
    n = len(tokens)
    parent = [-1] * n  # innermost open bracket around each token
    word = [None] * n  # the keyword of each top-level keyword token
    word[-1] = ""
    close: Dict[int, int] = {}  # open bracket -> its closing bracket
    stack: List[int] = []
    for i, tok in enumerate(tokens):
        kind = tok.type
        if stack:
            parent[i] = stack[-1]
        if kind is _PUNCT:
            if tok.value in _CLOSERS:
                stack.append(i)
            elif tok.value in ")]}":
                if not stack or _CLOSERS[tokens[stack[-1]].value] != tok.value:
                    return None
                close[stack.pop()] = i
        elif kind is _KEYWORD:
            if tok.value in ("CALL", "INDEX"):
                return None
            # STARTS WITH / ENDS WITH are predicates, not a WITH clause
            if not stack and not (tok.value == "WITH" and word[i - 1] in ("STARTS", "ENDS")):
                word[i] = tok.value
        elif kind is _PARAMETER and tok.value.startswith(LIFT_PREFIX):
            return None
    if stack:
        return None

    kept = [False] * n

    def opens(i: int, bracket: str) -> bool:
        return tokens[i].type is _PUNCT and tokens[i].value == bracket

    for i, tok in enumerate(tokens):
        kind = tok.type
        if word[i] in ("RETURN", "WITH"):
            _keep_projection(tokens, parent, word, kept, i)
        elif kind is _KEYWORD and tok.value == "IN":
            j = i + 1
            while opens(j, "("):
                j += 1
            if opens(j, "["):
                kept[i + 1 : close[i + 1] + 1] = [True] * (close[i + 1] - i)
        elif kind is _OPERATOR and tok.value in _RANGE_OPS:
            j = i + 1
            while opens(j, "("):
                j += 1
            kept[j] = True
            j = i - 1
            while j > 0 and opens(j, ")"):
                j -= 1
            kept[j] = True
        elif kind is _RANGE and parent[i] >= 0:
            p = parent[i]
            kept[p : close[p] + 1] = [True] * (close[p] + 1 - p)
        elif kind is _OPERATOR and tok.value == "*":
            p = parent[i]
            if p > 0 and opens(p, "[") and tokens[p - 1].type in (
                _DASH, _ARROW_LEFT,
            ):
                kept[i + 1] = True  # a hop count: -[:T*2]->
    return kept


def _keep_projection(tokens, parent, word, kept, start: int) -> None:
    """Keep the literals of the RETURN / WITH block at ``start`` that name
    a column or are read at plan time: unaliased items and the ORDER BY /
    SKIP / LIMIT tail — and every item when the block sorts."""
    first = start + 1
    if tokens[first].is_keyword("DISTINCT"):
        first += 1
    end = first
    while word[end] not in _ITEMS_END:
        end += 1
    tail_end = end
    while word[tail_end] in _TAIL:
        tail_end += 1
        while word[tail_end] not in _ITEMS_END:
            tail_end += 1
    kept[end:tail_end] = [True] * (tail_end - end)
    if word[end] == "ORDER":
        kept[first:end] = [True] * (end - first)
        return
    item, aliased = first, False
    for i in range(first, end + 1):
        if i == end or (parent[i] == -1 and tokens[i].type is _PUNCT
                        and tokens[i].value == ","):
            if not aliased:
                kept[item:i] = [True] * (i - item)
            item, aliased = i + 1, False
        elif word[i] == "AS":
            aliased = True
