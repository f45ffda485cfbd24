"""Differential net for CALL: batch-size and planner invariance.

Every registered procedure runs through the full pipeline at
``exec_batch_size`` 1 (row-at-a-time bridge), 7 (misaligns every chunk
boundary) and 1024, and with ``cost_based_planner`` on and off —
results must be identical, in order.  The ProcedureCall op chunks its
columnar YIELD output at the context batch size; none of that may
change what comes out.
"""

import pytest

from repro import GraphDB
from repro.execplan.ops_stream import _hashable
from repro.graph.config import GraphConfig

BATCH_SIZES = (1, 7, 1024)


def _normalize(rows):
    return [tuple(_hashable(v) for v in row) for row in rows]


@pytest.fixture(scope="module")
def db():
    d = GraphDB("diff-call", GraphConfig(node_capacity=512))
    # hub-and-spoke plus a chain and a triangle: enough rows that batches
    # split, components differ, and k-core/k-truss are non-trivial
    d.query(
        "UNWIND range(0, 39) AS i "
        "CREATE (:Spoke {name: 'spoke' + toString(i), idx: i})"
    )
    d.query("CREATE (:Hub {name: 'hub'})")
    d.query(
        "MATCH (h:Hub), (s:Spoke) CREATE (h)-[:KNOWS {w: 1}]->(s)"
    )
    d.query(
        "MATCH (a:Spoke {idx: 0}), (b:Spoke {idx: 1}) CREATE (a)-[:LIKES]->(b)"
    )
    d.query(
        "CREATE (t1:Tri {name: 't1'})-[:KNOWS]->(t2:Tri {name: 't2'})"
        "-[:KNOWS]->(t3:Tri {name: 't3'})-[:KNOWS]->(t1)"
    )
    d.query("CREATE INDEX ON :Spoke(idx)")
    return d


# one query per registered procedure, plus composition shapes
QUERIES = [
    "CALL db.labels() YIELD label RETURN label ORDER BY label",
    "CALL db.relationshipTypes() YIELD relationshipType "
    "RETURN relationshipType ORDER BY relationshipType",
    "CALL db.propertyKeys() YIELD propertyKey RETURN propertyKey ORDER BY propertyKey",
    "CALL db.indexes() YIELD label, property, type RETURN label, property, type",
    "CALL dbms.procedures() YIELD name, signature, mode RETURN name, mode ORDER BY name",
    "MATCH (h:Hub) CALL algo.bfs(h) YIELD node, level "
    "RETURN node.name, level ORDER BY level, node.name",
    "CALL algo.pagerank() YIELD node, score RETURN node.name, score ORDER BY node.name",
    "CALL algo.wcc() YIELD node, componentId "
    "RETURN componentId, count(node) AS size ORDER BY size DESC, componentId",
    "MATCH (h:Hub) CALL algo.sssp(h) YIELD node, distance "
    "RETURN node.name, distance ORDER BY distance, node.name",
    "CALL algo.kcore(2) YIELD node, coreNumber RETURN node.name, coreNumber ORDER BY node.name",
    "CALL algo.ktruss(3) YIELD src, dst RETURN src.name, dst.name ORDER BY src.name, dst.name",
    "CALL algo.triangleCount() YIELD triangles RETURN triangles",
    "MATCH (h:Hub) CALL algo.khop(h, 2) YIELD node, hop "
    "RETURN node.name, hop ORDER BY hop, node.name",
    "MATCH (h:Hub), (s:Spoke {idx: 7}) CALL algo.shortestPath(h, s) YIELD path, length "
    "RETURN length, size(nodes(path))",
    # YIELD WHERE + downstream filter/aggregate
    "CALL algo.wcc() YIELD node, componentId WHERE componentId > 0 "
    "RETURN count(node)",
    # YIELD node into a downstream MATCH (the composition acceptance shape)
    "MATCH (h:Hub) CALL algo.khop(h, 1) YIELD node, hop "
    "MATCH (node)-[:LIKES]->(m) RETURN node.name, m.name ORDER BY node.name",
    # per-record fan-out: the proc runs once per incoming row
    "MATCH (t:Tri) CALL algo.khop(t, 1) YIELD node, hop "
    "RETURN t.name, node.name ORDER BY t.name, node.name",
    # named path + CALL in one query
    "MATCH p = (h:Hub)-[:KNOWS]->(s:Spoke {idx: 3}) CALL algo.bfs(s) YIELD node "
    "RETURN length(p), count(node)",
]


@pytest.mark.parametrize("query", QUERIES)
def test_batch_size_invariance(db, query):
    results = {}
    for size in BATCH_SIZES:
        db.graph.config.exec_batch_size = size
        try:
            results[size] = _normalize(db.query(query).rows)
        finally:
            db.graph.config.exec_batch_size = 1024
    assert results[1] == results[7] == results[1024], query



def _set_planner(db, value):
    db.graph.config.cost_based_planner = value
    db.graph.bump_schema_version()  # GRAPH.CONFIG SET does the same


@pytest.mark.parametrize("query", QUERIES)
def test_planner_invariance(db, query):
    """The cost-based and the rule-based planner place ProcedureCall
    differently relative to the surrounding MATCH; rows must not move."""
    before = db.graph.config.cost_based_planner
    results = {}
    for value in (1, 0):
        _set_planner(db, value)
        try:
            results[value] = _normalize(db.query(query).rows)
        finally:
            _set_planner(db, before)
    assert results[1] == results[0], query
