"""CALL ... YIELD end-to-end: registry, introspection, algorithms (ISSUE 8).

The procedure framework serves the GraphBLAS algorithm suite as
first-class Cypher: every registered procedure must be callable, compose
with downstream clauses, validate its arguments, and appear in
``CALL dbms.procedures()``.
"""

import pytest

from repro import GraphDB
from repro.errors import CypherSemanticError, CypherTypeError
from repro.graph.config import GraphConfig
from repro.procedures import ProcArg, ProcCol, Procedure, registry


@pytest.fixture(scope="module")
def db():
    d = GraphDB("procs", GraphConfig(node_capacity=256))
    # a 4-node KNOWS chain plus a disconnected LIKES pair and a triangle
    d.query(
        "CREATE (a:Person {name: 'a'})-[:KNOWS]->(b:Person {name: 'b'})"
        "-[:KNOWS]->(c:Person {name: 'c'})-[:KNOWS]->(d:Person {name: 'd'})"
    )
    d.query("CREATE (x:Item {name: 'x'})-[:LIKES]->(y:Item {name: 'y'})")
    d.query(
        "CREATE (t1:Tri {name: 't1'})-[:KNOWS]->(t2:Tri {name: 't2'})"
        "-[:KNOWS]->(t3:Tri {name: 't3'})-[:KNOWS]->(t1)"
    )
    d.query("CREATE INDEX ON :Person(name)")
    return d


# ---------------------------------------------------------------------------
# Introspection procedures
# ---------------------------------------------------------------------------


class TestIntrospection:
    def test_db_labels(self, db):
        rows = db.query("CALL db.labels()").rows
        assert rows == [("Item",), ("Person",), ("Tri",)]

    def test_db_relationship_types(self, db):
        rows = db.query("CALL db.relationshipTypes()").rows
        assert rows == [("KNOWS",), ("LIKES",)]

    def test_db_property_keys(self, db):
        rows = db.query("CALL db.propertyKeys()").rows
        assert ("name",) in rows

    def test_db_indexes(self, db):
        rows = db.query("CALL db.indexes()").rows
        assert ("Person", "name", "range", 4, 4, None) in rows

    def test_dbms_procedures_lists_whole_catalog(self, db):
        names = [r[0] for r in db.query("CALL dbms.procedures() YIELD name RETURN name").rows]
        for expected in (
            "algo.bfs",
            "algo.pagerank",
            "algo.wcc",
            "algo.sssp",
            "algo.kcore",
            "algo.ktruss",
            "algo.triangleCount",
            "algo.khop",
            "algo.shortestPath",
            "db.labels",
            "db.relationshipTypes",
            "db.propertyKeys",
            "db.indexes",
            "dbms.procedures",
        ):
            assert expected in names

    def test_embedded_api_listing_matches_registry(self, db):
        listing = GraphDB.procedures()
        assert set(listing) == set(p.name for p in registry.all())
        assert "algo.pagerank" in listing
        assert listing["db.labels"].startswith("db.labels(")


# ---------------------------------------------------------------------------
# YIELD forms and composition
# ---------------------------------------------------------------------------


class TestYieldAndComposition:
    def test_trailing_call_without_yield_returns_all_columns(self, db):
        result = db.query("CALL db.labels()")
        assert result.columns == ["label"]

    def test_yield_alias(self, db):
        result = db.query("CALL db.labels() YIELD label AS l RETURN l ORDER BY l")
        assert result.columns == ["l"]
        assert result.rows[0] == ("Item",)

    def test_yield_where_filters(self, db):
        rows = db.query(
            "CALL db.labels() YIELD label WHERE label STARTS WITH 'P' RETURN label"
        ).rows
        assert rows == [("Person",)]

    def test_yield_into_return_expression(self, db):
        rows = db.query(
            "CALL algo.pagerank() YIELD node, score "
            "RETURN node.name AS name, score ORDER BY score DESC"
        ).rows
        scores = {name: score for name, score in rows}
        # rank flows down the chain: each hop accumulates strictly more
        assert scores["d"] > scores["c"] > scores["b"] > scores["a"]

    def test_call_composes_after_match(self, db):
        rows = db.query(
            "MATCH (s:Person {name: 'a'}) CALL algo.bfs(s) YIELD node, level "
            "RETURN node.name, level ORDER BY level"
        ).rows
        assert rows == [("a", 0), ("b", 1), ("c", 2), ("d", 3)]

    def test_yield_node_feeds_downstream_match(self, db):
        # YIELD a node column, then traverse from it in a later MATCH
        rows = db.query(
            "MATCH (s:Person {name: 'a'}) CALL algo.khop(s, 1) YIELD node, hop "
            "MATCH (node)-[:KNOWS]->(m) RETURN node.name, m.name"
        ).rows
        assert rows == [("b", "c")]

    def test_call_runs_once_per_input_record(self, db):
        rows = db.query(
            "MATCH (s:Person) CALL algo.khop(s, 1) YIELD node "
            "RETURN s.name, node.name ORDER BY s.name"
        ).rows
        # every Person except the sink 'd' has exactly one 1-hop neighbour
        assert rows == [("a", "b"), ("b", "c"), ("c", "d")]

    def test_aggregate_over_yield(self, db):
        rows = db.query(
            "CALL algo.wcc() YIELD node, componentId "
            "RETURN componentId, count(node) AS size ORDER BY size DESC"
        ).rows
        assert [r[1] for r in rows] == [4, 3, 2]

    def test_explain_shows_procedure_call(self, db):
        plan = db.explain("CALL algo.pagerank() YIELD node, score RETURN score")
        assert "ProcedureCall | algo.pagerank() YIELD node, score" in plan


# ---------------------------------------------------------------------------
# Algorithms through CALL
# ---------------------------------------------------------------------------


class TestAlgorithmProcedures:
    def test_wcc_components(self, db):
        rows = db.query(
            "CALL algo.wcc() YIELD node, componentId RETURN node.name, componentId"
        ).rows
        comp = dict(rows)
        assert comp["a"] == comp["b"] == comp["c"] == comp["d"]
        assert comp["x"] == comp["y"] != comp["a"]
        assert comp["t1"] == comp["t2"] == comp["t3"] != comp["a"]

    @staticmethod
    def _full_graph():
        full = GraphDB("full", GraphConfig(node_capacity=4))
        full.query("CREATE (:H)<-[:R]-(:S), (:H)<-[:R]-(:S)")
        assert full.graph.capacity == full.graph.node_count == 4
        return full

    @staticmethod
    def _sparse_graph():
        sparse = GraphDB("sparse", GraphConfig(node_capacity=256))
        sparse.query("CREATE (:H)<-[:R]-(:S), (:Gone)")
        sparse.query("MATCH (n:Gone) DELETE n")
        assert (sparse.graph.capacity, sparse.graph.node_count) == (256, 2)
        return sparse

    @staticmethod
    def _power_iteration(nodes, edges, damping=0.85, iterations=200):
        """Plain-Python PageRank over the live nodes only."""
        n = len(nodes)
        out = {v: [d for s, d in edges if s == v] for v in nodes}
        rank = {v: 1.0 / n for v in nodes}
        for _ in range(iterations):
            dangling = sum(rank[v] for v in nodes if not out[v])
            new = {v: (1.0 - damping) / n + damping * dangling / n for v in nodes}
            for v in nodes:
                for d in out[v]:
                    new[d] += damping * rank[v] / len(out[v])
            rank = new
        return rank

    @pytest.mark.parametrize("build", ["_full_graph", "_sparse_graph"], ids=["full", "sparse"])
    def test_pagerank_over_a_full_matrix_sums_to_one(self, build):
        """Only live nodes are ranked: a graph using 2 of its 256 slots
        (plus one deleted node) still sums to 1, like a full matrix."""
        g = getattr(self, build)()
        nodes = sorted(g.query("MATCH (n) RETURN id(n) AS id").column("id"))
        edges = g.query("MATCH (a)-[:R]->(b) RETURN id(a), id(b)").rows
        expect = self._power_iteration(nodes, edges)
        rows = g.query("CALL algo.pagerank() YIELD node, score RETURN id(node), score").rows
        assert dict(rows) == pytest.approx(expect)
        assert sum(score for _, score in rows) == pytest.approx(1.0)

    def test_sssp_distances(self, db):
        rows = db.query(
            "MATCH (s:Person {name: 'a'}) CALL algo.sssp(s) YIELD node, distance "
            "RETURN node.name, distance ORDER BY distance"
        ).rows
        assert rows == [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)]

    def test_triangle_count(self, db):
        rows = db.query("CALL algo.triangleCount() YIELD triangles RETURN triangles").rows
        assert rows == [(1,)]

    def test_kcore(self, db):
        rows = db.query(
            "CALL algo.kcore(2) YIELD node, coreNumber RETURN node.name ORDER BY node.name"
        ).rows
        assert [r[0] for r in rows] == ["t1", "t2", "t3"]

    def test_ktruss_returns_triangle_edges(self, db):
        rows = db.query(
            "CALL algo.ktruss(3) YIELD src, dst RETURN src.name, dst.name"
        ).rows
        names = {n for row in rows for n in row}
        assert names == {"t1", "t2", "t3"}

    def test_khop_frontiers(self, db):
        rows = db.query(
            "MATCH (s:Person {name: 'a'}) CALL algo.khop(s, 2) YIELD node, hop "
            "RETURN node.name, hop ORDER BY hop"
        ).rows
        assert rows == [("b", 1), ("c", 2)]

    def test_shortest_path(self, db):
        rows = db.query(
            "MATCH (a:Person {name: 'a'}), (d:Person {name: 'd'}) "
            "CALL algo.shortestPath(a, d) YIELD path, length "
            "RETURN length, size(nodes(path)), size(relationships(path))"
        ).rows
        assert rows == [(3, 4, 3)]

    def test_shortest_path_unreachable_yields_no_rows(self, db):
        rows = db.query(
            "MATCH (a:Person {name: 'a'}), (x:Item {name: 'x'}) "
            "CALL algo.shortestPath(a, x) YIELD path, length RETURN length"
        ).rows
        assert rows == []

    def test_reltype_scoping(self, db):
        # restricting WCC to LIKES leaves the KNOWS chain as singletons
        rows = db.query(
            "CALL algo.wcc('LIKES') YIELD node, componentId "
            "RETURN componentId, count(node) AS n ORDER BY n DESC LIMIT 1"
        ).rows
        assert rows[0][1] == 2


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------


class TestValidation:
    def test_unknown_procedure(self, db):
        with pytest.raises(CypherSemanticError, match="unknown procedure"):
            db.query("CALL algo.nope()")

    def test_unknown_yield_column(self, db):
        with pytest.raises(CypherSemanticError, match="does not yield"):
            db.query("CALL db.labels() YIELD nope RETURN nope")

    def test_duplicate_yield_name(self, db):
        with pytest.raises(CypherSemanticError, match="duplicate YIELD"):
            db.query("CALL db.indexes() YIELD label, property AS label RETURN label")

    def test_yield_shadowing_bound_variable(self, db):
        with pytest.raises(CypherSemanticError, match="already bound"):
            db.query(
                "MATCH (node:Person) CALL algo.wcc() YIELD node, componentId RETURN node"
            )

    def test_composing_call_requires_yield(self, db):
        with pytest.raises(CypherSemanticError, match="must use YIELD"):
            db.query("CALL db.labels() RETURN 1")

    def test_arity_too_many(self, db):
        with pytest.raises(CypherTypeError, match="argument"):
            db.query("CALL db.labels(1)")

    def test_arity_missing_required(self, db):
        with pytest.raises(CypherTypeError, match="argument"):
            db.query("CALL algo.kcore()")

    def test_argument_type_mismatch(self, db):
        with pytest.raises(CypherTypeError, match="expects an integer"):
            db.query("CALL algo.kcore('two')")

    def test_node_argument_rejects_scalar(self, db):
        with pytest.raises(CypherTypeError, match="node"):
            db.query("CALL algo.bfs('a')")

    def test_domain_validation(self, db):
        with pytest.raises(CypherTypeError, match="damping"):
            db.query("CALL algo.pagerank(null, 1.5)")

    def test_null_required_argument(self, db):
        with pytest.raises(CypherTypeError, match="must not be null"):
            db.query(
                "MATCH (s:Person {name: 'a'}) OPTIONAL MATCH (s)-[:NOPE]->(m) "
                "CALL algo.bfs(m) YIELD node RETURN node"
            )


# ---------------------------------------------------------------------------
# Plan-cache interaction
# ---------------------------------------------------------------------------


class TestPlanCacheFreshness:
    def test_registry_version_invalidates_cached_plans(self, db):
        query = "CALL db.labels() YIELD label RETURN count(label)"
        db.query(query)
        info = db.plan_cache_info()
        db.query(query)
        assert db.plan_cache_info()["hits"] == info["hits"] + 1
        # a (re-)registration bumps the registry version: cached CALL
        # plans must recompile rather than resolve against the old catalog
        registry.register(
            Procedure(
                name="test.fresh",
                args=(ProcArg("x", "integer"),),
                yields=(ProcCol("x", "integer"),),
                fn=lambda graph, x: [[x]],
            )
        )
        before = db.plan_cache_info()["misses"]
        db.query(query)
        assert db.plan_cache_info()["misses"] == before + 1

    def test_custom_registered_procedure_is_callable(self, db):
        registry.register(
            Procedure(
                name="test.echo",
                args=(ProcArg("x", "integer"),),
                yields=(ProcCol("doubled", "integer"),),
                fn=lambda graph, x: [[x * 2]],
            )
        )
        rows = db.query("CALL test.echo(21) YIELD doubled RETURN doubled").rows
        assert rows == [(42,)]
