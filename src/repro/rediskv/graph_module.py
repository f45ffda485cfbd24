"""The graph module: the ``GRAPH.*`` command family.

Commands (mirroring RedisGraph):

* ``GRAPH.QUERY <key> <query>`` — run a Cypher query against the graph at
  ``key`` (created on first use).  Replies with a 3-element array:
  ``[header, rows, statistics]``.
* ``GRAPH.RO_QUERY`` — same, rejecting update clauses.
* ``GRAPH.EXPLAIN`` / ``GRAPH.PROFILE`` — plan text / executed plan text.
* ``GRAPH.BULK <key> BEGIN|NODES|EDGES|COMMIT|ABORT ...`` — columnar bulk
  ingestion (the RedisGraph bulk-loader protocol, RESP-framed; see
  :meth:`GraphModule.bulk`).
* ``GRAPH.DELETE <key>`` — drop the graph.
* ``GRAPH.LIST`` — names of graph keys.

Queries may carry parameters with the RedisGraph convention of a
``CYPHER name=value [name=value ...]`` prefix.

Value encoding in replies: scalars map to RESP directly; nodes encode as
``["node", id, [labels...], [[k, v]...]]`` and relationships as
``["relationship", id, type, src, dst, [[k, v]...]]``, in RESP bytes
written from the property store under the query's lock.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import GraphDB
from repro.errors import ReproError, ResponseError
from repro.execplan.compiled import CompiledQuery
from repro.execplan.ops_update import CreateIndexOp, DropIndexOp
from repro.execplan.resultset import ResultSet
from repro.graph.bulk import BulkWriter
from repro.graph.config import CONFIG_SPECS, GraphConfig, config_spec
from repro.graph.entities import Edge, Node
from repro.graph.path import PathValue
from repro.rediskv.durability import DurabilityManager
from repro.rediskv.keyspace import Keyspace
from repro.rediskv.resp import Encoded, encode

__all__ = ["GraphModule", "parse_cypher_params", "encode_value"]


def parse_cypher_params(query: str) -> Tuple[str, Dict[str, Any]]:
    """Split an optional ``CYPHER k=v ...`` prefix off a query string.

    Values are numbers, ``true`` / ``false`` / ``null``, quoted or bare
    strings, and lists and ``{key: value}`` maps of those, nested freely.
    Only the prefix is scanned.  A quoted string, list or map left open
    raises :class:`ResponseError` naming the parameter, instead of
    swallowing the query into the value."""
    stripped = query.lstrip()
    if not stripped[:7].upper() == "CYPHER ":
        return query, {}
    rest = stripped[7:]
    params: Dict[str, Any] = {}
    pos = 0
    n = len(rest)
    while True:
        while pos < n and rest[pos].isspace():
            pos += 1
        start = pos
        while pos < n and (rest[pos].isalnum() or rest[pos] == "_"):
            pos += 1
        name = rest[start:pos]
        if not name or pos >= n or rest[pos] != "=":
            pos = start  # not a k=v pair: the query text starts here
            break
        try:
            params[name], pos = _parse_param_value(rest, pos + 1)
        except ValueError as exc:
            raise ResponseError(f"ERR query parameter {name!r}: {exc}") from None
    return rest[pos:], params


def _parse_param_value(text: str, pos: int) -> Tuple[Any, int]:
    n = len(text)
    if pos < n and text[pos] in "'\"":
        quote = text[pos]
        end = pos + 1
        buf = []
        while end < n and text[end] != quote:
            if text[end] == "\\" and end + 1 < n:
                buf.append(text[end + 1])
                end += 2
                continue
            buf.append(text[end])
            end += 1
        if end >= n:
            raise ValueError("unterminated string")
        return "".join(buf), end + 1
    if pos < n and text[pos] in "[{":
        return _parse_param_container(text, pos)
    start = pos
    while pos < n and not text[pos].isspace() and text[pos] not in ",]}":
        pos += 1
    token = text[start:pos]
    low = token.lower()
    if low == "true":
        return True, pos
    if low == "false":
        return False, pos
    if low == "null":
        return None, pos
    try:
        return int(token), pos
    except ValueError:
        pass
    try:
        return float(token), pos
    except ValueError:
        return token, pos


def _parse_param_container(text: str, pos: int) -> Tuple[Any, int]:
    """A ``[...]`` list or ``{key: value, ...}`` map starting at ``pos``;
    items are separated by commas and/or whitespace."""
    n = len(text)
    is_map = text[pos] == "{"
    kind, closer = ("map", "}") if is_map else ("list", "]")
    out: Any = {} if is_map else []
    pos += 1
    while True:
        while pos < n and (text[pos].isspace() or text[pos] == ","):
            pos += 1
        if pos >= n:
            raise ValueError(f"unterminated {kind}")
        if text[pos] == closer:
            return out, pos + 1
        if is_map:
            start = pos
            if text[pos] in "'\"":
                key, pos = _parse_param_value(text, pos)
            else:
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                key = text[start:pos]
            while pos < n and text[pos].isspace():
                pos += 1
            if pos >= n:
                raise ValueError(f"unterminated {kind}")
            if pos == start or text[pos] != ":":
                raise ValueError("map entries are key: value")
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
        start = pos
        value, pos = _parse_param_value(text, pos)
        if pos == start:
            raise ValueError(f"unterminated {kind}" if pos >= n else f"unexpected {text[pos]!r}")
        if is_map:
            out[key] = value
        else:
            out.append(value)


def encode_value(value: Any) -> Any:
    """Runtime value → RESP-encodable structure (entities as :class:`Encoded`)."""
    if isinstance(value, list):
        kinds = set(map(type, value)) - {type(None)}
        if kinds == {Node} or kinds == {Edge}:
            return _encode_entities(value)
        return value if kinds <= {bool, int, float, str} else [encode_value(v) for v in value]
    if isinstance(value, (Node, Edge)):
        return _encode_entities([value])[0]
    if isinstance(value, PathValue):
        return ["path", encode_value(value.nodes), encode_value(value.edges)]
    if isinstance(value, dict):
        return [[k, encode_value(v)] for k, v in sorted(value.items())]
    return value


def _bulk(text: str, template: bool = False) -> bytes:
    data = text.encode()
    data = b"$%d\r\n%s\r\n" % (len(data), data)
    return data.replace(b"%", b"%%") if template else data


def _encode_entities(items: list) -> list:
    """Nodes, or edges, to one :class:`Encoded` cell each (None stays None): a
    gather per attribute, then one ``%``-template per label set (or type)
    holding every key formats an entity's ids, count and values at once."""
    live = [e for e in items if e is not None]
    graph, is_node = live[0]._graph, type(live[0]) is Node
    ids = [e.id for e in live]
    records, columns = graph.entity_columns(np.array(ids, dtype=np.int64), edges=not is_node)
    body, cells, count = b"", [], np.zeros(len(ids), dtype=np.int64)
    for name, values, nulls, codes in columns:
        count, pooled = count + ~nulls, codes is not None
        if nulls.any():  # a whole chunk per cell, b"" where absent
            present, column = np.flatnonzero(~nulls), [b""] * len(ids)
            for i, chunk in zip(present.tolist(), _chunks(b"*2\r\n" + _bulk(name), values[present], pooled)):
                column[i] = chunk
            body += b"%s"
        elif values.dtype.kind == "i":
            body, column = body + b"*2\r\n" + _bulk(name, True) + b":%d\r\n", values.tolist()
        else:
            body, column = body + b"*2\r\n" + _bulk(name, True) + b"%s", _chunks(b"", values, pooled)
        cells.append(column)
    if is_node:  # ["node", id, [labels], [[key, value]...]]
        keys, args, name = [r.labels for r in records], [ids], graph.schema.label_name
        heads = {k: b"*%d\r\n" % len(k) + b"".join(_bulk(name(i), True) for i in k) for k in set(keys)}
        start = b"*4\r\n$4\r\nnode\r\n:%d\r\n"
    else:  # ["relationship", id, type, src, dst, [[key, value]...]]
        keys, args = [r.rel_id for r in records], [ids, [r.src for r in records], [r.dst for r in records]]
        heads = {k: _bulk(graph.schema.reltype_name(k), True) + b":%d\r\n:%d\r\n" for k in set(keys)}
        start = b"*6\r\n$12\r\nrelationship\r\n:%d\r\n"
    templates = {k: start + head + b"*%d\r\n" + body for k, head in heads.items()}
    encoded = iter([Encoded(templates[k] % row) for k, row in zip(keys, zip(*args, count.tolist(), *cells))])
    return [None if e is None else next(encoded) for e in items]


def _chunks(prefix: bytes, values: np.ndarray, pooled: bool) -> List[bytes]:
    """``prefix`` plus each value of one property column in RESP."""
    cells = values.tolist()
    if pooled:  # a string column: each distinct string once
        return list(map({v: prefix + _bulk(v) for v in set(cells)}.__getitem__, cells))
    return [prefix + encode(encode_value(v)) for v in cells]


def _walk_ops(op):
    yield op
    for child in op.children:
        yield from _walk_ops(child)


class _BulkSession:
    """One in-flight GRAPH.BULK load: the target graph plus its writer.

    Sessions are addressed by the token BEGIN returns (not by connection),
    so chunks may arrive on any connection — and a worker-pool thread can
    serve each chunk without the server tracking per-socket state.  The
    per-session lock serializes chunks racing in from different pool
    threads (pipelined NODES batches must observe disjoint index ranges).
    ``last_used`` drives idle expiry: abandoned sessions (a loader that
    crashed between BEGIN and COMMIT) are swept lazily so staged columns
    cannot pin server memory forever."""

    __slots__ = ("key", "db", "writer", "lock", "last_used")

    def __init__(self, key: str, db: GraphDB, writer: BulkWriter) -> None:
        self.key = key
        self.db = db
        self.writer = writer
        self.lock = threading.Lock()
        self.last_used = time.monotonic()


class GraphModule:
    """Owns the per-key GraphDB instances reachable through a keyspace."""

    def __init__(
        self,
        keyspace: Keyspace,
        config: Optional[GraphConfig] = None,
        durability: Optional[DurabilityManager] = None,
    ) -> None:
        self.keyspace = keyspace
        self.config = config or GraphConfig()
        # attached by the server AFTER recovery (replay must not re-log)
        self.durability = durability
        self._bulk_sessions: Dict[str, _BulkSession] = {}
        self._bulk_lock = threading.Lock()
        self._bulk_counter = itertools.count(1)

    # ------------------------------------------------------------------
    def _graph(self, key: str, *, create: bool = True) -> GraphDB:
        db = self.keyspace.get_graph(key)
        if db is None:
            if not create:
                raise ResponseError(f"ERR graph key {key!r} does not exist")
            db = self.keyspace.get_or_create_graph(key, lambda: GraphDB(key, self.config))
        return db

    @staticmethod
    def _execute(db: GraphDB, compiled: CompiledQuery, params: Dict[str, Any], **kw) -> list:
        """Run ``compiled`` and reply; the rows encode inside the query's
        lock, so every entity reads as the query left it."""
        rows: list = []

        def encode_rows(result: ResultSet) -> None:
            rows.extend(map(list, zip(*[encode_value(list(column)) for column in zip(*result.rows)])))

        result = db.engine.execute(compiled, params, on_result=encode_rows, **kw)
        return [list(result.columns), rows, result.stats.summary()]

    # ------------------------------------------------------------------
    # Command handlers (each runs on ONE pool thread)
    # ------------------------------------------------------------------
    def query(self, key: str, query_text: str) -> list:
        text, params = parse_cypher_params(query_text)
        db = self._graph(key)
        compiled, cached, run_params = db.engine.get_plan(text, params)
        on_commit = None
        if compiled.writes and self.durability is not None:
            # the log keeps the text as sent and the caller's parameters;
            # replay lifts the literals again
            on_commit = self._log_hook(key, db, compiled, text, params)
        reply = self._execute(db, compiled, run_params, cached=cached, on_commit=on_commit)
        if on_commit is not None:
            self._maybe_auto_snapshot(key, db)
        return reply

    def _log_hook(self, key: str, db: GraphDB, compiled: CompiledQuery, text: str, params: Dict[str, Any]):
        """The durability append for one write query, to run inside the
        graph's write lock after a successful execution.  Index create/
        drop statements get first-class record kinds (replayed against
        the graph directly — no recompilation); everything else logs as
        a ``query`` record."""
        index_ops: List[Tuple[str, CreateIndexOp]] = []
        for planned in compiled.plans:
            for op in _walk_ops(planned.root):
                if isinstance(op, CreateIndexOp):
                    index_ops.append(("create", op))
                elif isinstance(op, DropIndexOp):
                    index_ops.append(("drop", op))
        if index_ops and len(index_ops) == len(compiled.plans):

            def log_index() -> None:
                for action, op in index_ops:
                    options = getattr(op, "_options", None)
                    if action == "create" and op._kind == "vector":
                        # log the live index's resolved options, not the
                        # statement's: they carry the always-present
                        # "exact" marker that tells replay this record is
                        # IVF-era (its absence means brute-force semantics)
                        live = db.graph.get_vector_index(op._label, op._attribute)
                        if live is not None:
                            options = live.options
                    self.durability.log_index(
                        key,
                        action,
                        op._label,
                        op._attribute,
                        itype=op._kind,
                        attributes=list(op._attributes),
                        options=options,
                    )

            return log_index
        return lambda: self.durability.log_query(key, text, params)

    def _maybe_auto_snapshot(self, key: str, db: GraphDB) -> None:
        """Dirty-counter-driven snapshot.  Runs on a background thread so
        the write that crossed the threshold doesn't pay the snapshot
        write in its own ack; the manager's in-flight guard collapses
        racing triggers to one save."""
        if self.durability is not None and self.durability.should_snapshot(key):
            threading.Thread(
                target=self.durability.save_graph,
                args=(key, db),
                name=f"auto-snapshot-{key}",
                daemon=True,
            ).start()

    def save(self, key: str) -> str:
        """GRAPH.SAVE — snapshot one graph to the data dir now."""
        if self.durability is None:
            raise ResponseError("ERR persistence is not enabled (start the server with a data dir)")
        db = self._graph(key, create=False)
        if not self.durability.save_graph(key, db):
            raise ResponseError(
                f"ERR background save of graph key {key!r} is already in progress"
            )
        return "OK"

    def ro_query(self, key: str, query_text: str) -> list:
        text, params = parse_cypher_params(query_text)
        db = self._graph(key, create=False)
        # one compile serves both the write-check and the execution (and
        # lands in the same plan cache GRAPH.QUERY / EXPLAIN / PROFILE use)
        compiled, cached, run_params = db.engine.get_plan(text, params)
        if compiled.writes:
            raise ResponseError("ERR graph.RO_QUERY is to be executed only on read-only queries")
        return self._execute(db, compiled, run_params, cached=cached)

    def explain(self, key: str, query_text: str) -> List[str]:
        text, params = parse_cypher_params(query_text)
        return self._graph(key).explain(text, params).splitlines()

    def profile(self, key: str, query_text: str) -> List[str]:
        text, params = parse_cypher_params(query_text)
        db = self._graph(key)
        on_commit = None
        if self.durability is not None:
            compiled, _, _ = db.engine.get_plan(text, lift=False)
            if compiled.writes:
                on_commit = self._log_hook(key, db, compiled, text, params)
        result = db.engine.profile(text, params, on_commit=on_commit)
        if on_commit is not None:
            self._maybe_auto_snapshot(key, db)
        return result.profile.splitlines()

    # ------------------------------------------------------------------
    # GRAPH.BULK (columnar bulk ingestion)
    # ------------------------------------------------------------------
    def bulk(self, key: str, subcommand: str, args: List[str]):
        """Dispatch one GRAPH.BULK chunk.

        Protocol (chunks are JSON documents — one RESP bulk string each)::

            GRAPH.BULK <key> BEGIN                      -> session token
            GRAPH.BULK <key> NODES <token> <json>       -> staged node total
            GRAPH.BULK <key> EDGES <token> <json>       -> staged edge total
            GRAPH.BULK <key> COMMIT <token>             -> statistics lines
            GRAPH.BULK <key> ABORT  <token>             -> OK

        NODES chunks: ``{"count": 3, "labels": ["Person"],
        "props": {"name": ["a", "b", "c"]}}`` (``count`` optional when a
        column fixes it; ``null`` column entries mean "absent").  EDGES
        chunks: ``{"type": "KNOWS", "src": [0, 1], "dst": [1, 2],
        "endpoints": "batch"|"graph", "props": {...}}`` — ``"batch"``
        endpoints (default) index the session's staged nodes in order.
        COMMIT applies every staged chunk atomically under the graph's
        write lock; a failed COMMIT discards the session.  Sessions idle
        past ``BULK_SESSION_TTL`` seconds are swept lazily and at most
        ``BULK_SESSION_LIMIT`` may be open at once, so abandoned loads
        cannot pin staged columns in server memory forever."""
        sub = subcommand.upper()
        if sub == "BEGIN":
            if args:
                raise ResponseError("ERR GRAPH.BULK BEGIN takes no further arguments")
            db = self._graph(key)
            with self._bulk_lock:
                self._sweep_bulk_sessions()
                if len(self._bulk_sessions) >= self.BULK_SESSION_LIMIT:
                    raise ResponseError(
                        f"ERR too many open bulk sessions (limit {self.BULK_SESSION_LIMIT}); "
                        "COMMIT or ABORT an existing one"
                    )
                token = f"bulk{next(self._bulk_counter)}"
                self._bulk_sessions[token] = _BulkSession(key, db, db.bulk_writer())
            return token
        if sub not in ("NODES", "EDGES", "COMMIT", "ABORT"):
            raise ResponseError(f"ERR unknown GRAPH.BULK subcommand {subcommand!r}")
        if not args:
            raise ResponseError(f"ERR GRAPH.BULK {sub} requires a session token")
        token = args[0]
        with self._bulk_lock:
            # every dispatch sweeps, so abandoned sessions expire even if
            # no further BEGIN ever arrives
            self._sweep_bulk_sessions()
            session = self._bulk_sessions.get(token)
        if session is None or session.key != key:
            raise ResponseError(f"ERR no open bulk session {token!r} for graph key {key!r}")
        session.last_used = time.monotonic()

        if sub in ("NODES", "EDGES"):
            if len(args) != 2:
                raise ResponseError(f"ERR GRAPH.BULK {sub} requires exactly one JSON chunk")
            chunk = self._bulk_chunk(args[1])
            try:
                with session.lock:
                    if sub == "NODES":
                        session.writer.add_nodes(
                            count=chunk.get("count"),
                            labels=chunk.get("labels", ()),
                            properties=chunk.get("props"),
                        )
                        return session.writer.staged_nodes
                    reltype = chunk.get("type")
                    if not isinstance(reltype, str) or not reltype:
                        raise ResponseError("ERR GRAPH.BULK EDGES: chunk needs a non-empty 'type'")
                    session.writer.add_edges(
                        reltype,
                        chunk.get("src", ()),
                        chunk.get("dst", ()),
                        properties=chunk.get("props"),
                        endpoints=chunk.get("endpoints", "batch"),
                    )
                    return session.writer.staged_edges
            except (TypeError, ValueError, AttributeError) as exc:
                raise ResponseError(f"ERR GRAPH.BULK {sub}: malformed chunk: {exc}") from exc

        # COMMIT / ABORT consume the session either way
        with self._bulk_lock:
            self._bulk_sessions.pop(token, None)
        with session.lock:
            if sub == "ABORT":
                session.writer.abort()
                return "OK"
            if self.keyspace.get_graph(key) is not session.db:
                raise ResponseError(
                    f"ERR graph key {key!r} was deleted or replaced during the bulk session"
                )
            on_commit = None
            if self.durability is not None:
                payload = session.writer.staged_payload()
                on_commit = lambda: self.durability.log_bulk(key, payload)  # noqa: E731
            report = session.writer.commit(on_commit=on_commit)
            if on_commit is not None:
                self._maybe_auto_snapshot(key, session.db)
        # a GRAPH.DELETE racing the commit orphans the target after the
        # pre-check: re-verify so the client never gets a success reply
        # for data that is no longer reachable under the key
        if self.keyspace.get_graph(key) is not session.db:
            raise ResponseError(
                f"ERR graph key {key!r} was deleted during the bulk COMMIT; the load was discarded"
            )
        return report.summary()

    BULK_SESSION_LIMIT = 64
    BULK_SESSION_TTL = 600.0  # seconds a session may sit idle

    def _sweep_bulk_sessions(self) -> None:
        """Drop idle-expired sessions (caller holds ``_bulk_lock``)."""
        deadline = time.monotonic() - self.BULK_SESSION_TTL
        for token, session in list(self._bulk_sessions.items()):
            if session.last_used < deadline:
                del self._bulk_sessions[token]

    @staticmethod
    def _bulk_chunk(raw: str) -> Dict[str, Any]:
        try:
            chunk = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ResponseError(f"ERR GRAPH.BULK: invalid JSON chunk: {exc}") from exc
        if not isinstance(chunk, dict):
            raise ResponseError("ERR GRAPH.BULK: chunk must be a JSON object")
        return chunk

    # ------------------------------------------------------------------
    # GRAPH.CONFIG (runtime knobs, RedisGraph style)
    #
    # Entirely generated from the declarative registry in
    # ``repro.graph.config``: every knob in CONFIG_SPECS is readable,
    # knobs flagged ``mutable`` are settable at runtime, and side effects
    # beyond mutating the shared GraphConfig live in the ``_CONFIG_APPLY``
    # hooks below.  Adding a knob is one
    # ConfigSpec entry — no per-name branch here.
    # ------------------------------------------------------------------
    def config_get(self, name: str) -> list:
        upper = name.upper()
        if upper == "*":
            return [self.config_get(spec.redis_name) for spec in CONFIG_SPECS]
        spec = config_spec(upper)
        if spec is None:
            raise ResponseError(f"ERR Unknown configuration parameter {name!r}")
        return [upper, getattr(self.config, spec.name)]

    def config_set(self, name: str, value: str) -> str:
        upper = name.upper()
        spec = config_spec(upper)
        if spec is None or not spec.mutable:
            raise ResponseError(
                f"ERR configuration parameter {name!r} is not settable at runtime"
            )
        if spec.choices is not None:
            parsed = str(value).lower()
        else:
            try:
                parsed = spec.parse(value)
            except ValueError:
                raise ResponseError(
                    f"ERR invalid value {value!r} for {spec.redis_name}"
                ) from None
        try:
            spec.check(parsed)
        except ValueError:
            if spec.choices is not None:
                raise ResponseError(
                    f"ERR invalid value {value!r} for {spec.redis_name} "
                    f"(expected one of {', '.join(spec.choices)})"
                ) from None
            raise ResponseError(f"ERR {spec.redis_name} must be >= {spec.min}") from None
        setattr(self.config, spec.name, parsed)
        apply = self._CONFIG_APPLY.get(spec.name)
        if apply is not None:
            apply(self, parsed)
        if self.durability is not None:
            self.durability.log_config(spec.redis_name, getattr(self.config, spec.name))
        return "OK"

    def _apply_plan_cache_size(self, capacity: int) -> None:
        # apply to every live graph: resize its cache and bump its
        # schema version so pre-change artifacts are not reused
        for key in self.keyspace.graph_keys():
            db = self.keyspace.get_graph(key)
            if db is not None:
                db.engine.set_plan_cache_size(capacity)

    def _apply_wal_fsync(self, policy: str) -> None:
        if self.durability is not None:
            self.durability.set_fsync(policy)

    def _apply_cost_based_planner(self, value: int) -> None:
        # plans compiled under the other planning mode must not be
        # reused; bumping each graph's schema version evicts them lazily
        for key in self.keyspace.graph_keys():
            db = self.keyspace.get_graph(key)
            if db is not None:
                db.graph.bump_schema_version()

    _CONFIG_APPLY = {
        "plan_cache_size": _apply_plan_cache_size,
        "wal_fsync": _apply_wal_fsync,
        "cost_based_planner": _apply_cost_based_planner,
    }

    def delete(self, key: str) -> str:
        db = self.keyspace.get_graph(key)
        if db is None:
            raise ResponseError(f"ERR graph key {key!r} does not exist")
        # log + unmap under the graph's write lock, delete record first:
        # writers that committed (and logged) before us hold this lock, so
        # their records sequence below the delete; a re-create of the key
        # can only observe the keyspace after the delete record is durable,
        # so its records sequence above it — replay order matches live order
        with db.graph.lock.write():
            if self.keyspace.peek_graph(key) is not db:
                raise ResponseError(f"ERR graph key {key!r} does not exist")
            if self.durability is not None:
                self.durability.log_delete(key)
            self.keyspace.delete(key)
        return "OK"

    def list_graphs(self) -> List[str]:
        return self.keyspace.graph_keys()
