"""The embedded public API: :class:`GraphDB`.

A GraphDB is a named property graph plus its query engine — the same
object a RedisGraph deployment exposes per graph key, usable in-process
without the server::

    from repro import GraphDB

    db = GraphDB("social")
    db.query("CREATE (:Person {name: 'Ann'})-[:KNOWS]->(:Person {name: 'Bo'})")
    result = db.query("MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name")
    for row in result:
        print(row)

For the full client/server path (RESP protocol, thread pool) see
:mod:`repro.rediskv`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

from repro.execplan.executor import QueryEngine
from repro.execplan.resultset import QueryResult
from repro.graph.bulk import BulkReport, BulkWriter
from repro.graph.config import GraphConfig
from repro.graph.graph import Graph

__all__ = ["GraphDB"]


class GraphDB:
    """An embedded graph database instance."""

    def __init__(self, name: str = "g", config: Optional[GraphConfig] = None) -> None:
        self.graph = Graph(name, config)
        self.engine = QueryEngine(self.graph)

    @property
    def name(self) -> str:
        return self.graph.name

    def query(self, text: str, params: Optional[Dict[str, Any]] = None) -> QueryResult:
        """Run a Cypher query (read or update).

        Returns the unified :class:`~repro.execplan.resultset.QueryResult`
        — ``.rows`` / ``.columns`` / ``.stats`` / ``.plan`` / ``.profile``
        — which iterates like the old ResultSet."""
        return self.engine.query(text, params)

    def ro_query(self, text: str, params: Optional[Dict[str, Any]] = None) -> QueryResult:
        """Run a query that must be read-only (GRAPH.RO_QUERY): raises
        before executing anything when the plan contains updates."""
        return self.engine.ro_query(text, params)

    def explain(self, text: str, params: Optional[Dict[str, Any]] = None) -> str:
        """The query's execution plan without running it.  ``params`` are
        validated against the parameters the query references."""
        return self.engine.explain(text, params)

    def plan_cache_info(self) -> Dict[str, int]:
        """Plan-cache counters: capacity, entries, hits, misses.

        Compilation runs once per distinct query text — once per shape
        for texts whose inline literals are lifted into parameters;
        repeated queries reuse the cached plan until the graph's schema
        version moves (new label/reltype, index create/drop, config
        change).  Each request counts one hit or one miss.  See README
        "Plan cache"."""
        return self.engine.plan_cache.info()

    @staticmethod
    def procedures() -> Dict[str, str]:
        """Name → signature of every registered ``CALL``-able procedure
        (the embedded-API twin of ``CALL dbms.procedures()``)."""
        from repro.procedures import registry

        return {proc.name: proc.signature for proc in registry.all()}

    def bulk_writer(self) -> BulkWriter:
        """A fresh :class:`~repro.graph.bulk.BulkWriter` for incremental
        staging (the GRAPH.BULK session object); ``commit()`` applies
        everything atomically under the graph's write lock."""
        return BulkWriter(self.graph)

    def bulk_insert(
        self,
        nodes: Iterable[Mapping[str, Any]] = (),
        edges: Iterable[Mapping[str, Any]] = (),
    ) -> BulkReport:
        """Columnar bulk ingestion — the embedded form of ``GRAPH.BULK``.

        ``nodes`` is an iterable of batch specs::

            {"labels": ["Person"], "count": 3,
             "properties": {"name": ["a", "b", "c"], "age": [30, None, 25]}}

        (``count`` may be omitted when a property column fixes it; ``None``
        property entries mean "absent on this node").  ``edges`` specs::

            {"type": "KNOWS", "src": [0, 1], "dst": [1, 2],
             "properties": {"since": [2020, 2021]},   # optional
             "endpoints": "batch"}                     # or "graph"

        ``endpoints="batch"`` (default) reads src/dst as 0-based indices
        into the nodes staged by this call, in spec order; ``"graph"``
        as pre-existing node ids.  The whole load commits atomically
        under the write lock; new labels/relationship types invalidate
        cached plans and existing indexes are backfilled.  Returns a
        :class:`~repro.graph.bulk.BulkReport`."""
        writer = self.bulk_writer()
        for spec in nodes:
            writer.add_nodes(
                count=spec.get("count"),
                labels=spec.get("labels", ()),
                properties=spec.get("properties"),
            )
        for spec in edges:
            writer.add_edges(
                spec["type"],
                spec["src"],
                spec["dst"],
                properties=spec.get("properties"),
                endpoints=spec.get("endpoints", "batch"),
            )
        return writer.commit()

    def profile(self, text: str, params: Optional[Dict[str, Any]] = None) -> QueryResult:
        """Run the query with per-operation metering; the report is the
        returned result's ``.profile`` attribute."""
        return self.engine.profile(text, params)

    def delete(self) -> None:
        """Drop all graph content (GRAPH.DELETE)."""
        self.graph = Graph(self.graph.name, self.graph.config)
        self.engine = QueryEngine(self.graph)

    def save(self, path) -> None:
        """Persist the graph to a file (the module's RDB-save equivalent).

        Writes the columnar v2 snapshot format: a point-in-time image is
        captured under the graph's **read lock only** (matrices through
        flush-free overlay views — saving never mutates the graph), then
        encoded and written with no lock held, so concurrent writers only
        wait out the capture, not the disk I/O."""
        from repro.graph.persist import save_graph

        save_graph(self.graph, path)

    @classmethod
    def load(cls, path) -> "GraphDB":
        """Restore a graph saved with :meth:`save` (v2) or by the legacy
        v1 writer (read-only migration path)."""
        from repro.graph.persist import load_graph

        db = cls.__new__(cls)
        db.graph = load_graph(path)
        db.engine = QueryEngine(db.graph)
        return db

    def __repr__(self) -> str:
        return f"<GraphDB {self.name!r} {self.graph.node_count} nodes, {self.graph.edge_count} edges>"
