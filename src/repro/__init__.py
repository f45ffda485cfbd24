"""repro — reproduction of *RedisGraph: GraphBLAS Enabled Graph Database*.

The package implements, from scratch and in pure Python/NumPy:

* :mod:`repro.grblas` — a GraphBLAS-style sparse linear algebra engine
  (typed CSR matrices/vectors, semirings, masks, ``mxm``/``mxv``/``vxm``).
* :mod:`repro.algorithms` — graph algorithms written against the GraphBLAS
  layer (BFS, PageRank, triangle counting, k-truss, components, SSSP).
* :mod:`repro.graph` — the property-graph layer: labels, relationship types,
  attribute storage, adjacency matrices with buffered (delta) updates.
* :mod:`repro.cypher` — an openCypher lexer/parser/AST.
* :mod:`repro.execplan` — the execution engine that compiles Cypher into a
  plan whose traversals are algebraic (matrix-product) expressions.
* :mod:`repro.rediskv` — a Redis-like single-threaded server with a module
  thread pool and the ``GRAPH.*`` command family, plus a RESP client.
* :mod:`repro.datasets` — Graph500/RMAT and LDBC-lite generators, CSV
  import.

The paper's k-hop benchmark runs end to end against the server from
``benchmarks/ledger`` (outside the package).

Quickstart (embedded, no server)::

    from repro import GraphDB
    db = GraphDB("social")
    db.query("CREATE (:Person {name:'Ann'})-[:KNOWS]->(:Person {name:'Bo'})")
    result = db.query("MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name")
    print(result.rows)
"""

from repro._version import __version__

__all__ = ["GraphDB", "__version__"]


def __getattr__(name: str):
    # GraphDB pulls in the whole query stack; import it on first use so that
    # `import repro.grblas` stays lightweight.
    if name == "GraphDB":
        from repro.api import GraphDB

        return GraphDB
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
