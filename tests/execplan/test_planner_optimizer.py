"""Plan-shape and optimizer tests: the planner must pick the access paths
and operation structure RedisGraph's planner picks."""

import pytest

from repro import GraphDB
from repro.errors import CypherSemanticError


@pytest.fixture
def db():
    d = GraphDB("plans")
    d.query(
        "CREATE (a:Person {name:'A', age: 1}), (b:Person {name:'B', age: 2}),"
        " (c:City {name:'X'}), (a)-[:KNOWS]->(b), (a)-[:LIVES_IN]->(c)"
    )
    return d


class TestAccessPaths:
    def test_label_scan_chosen(self, db):
        assert "NodeByLabelScan" in db.explain("MATCH (n:Person) RETURN n")

    def test_all_scan_without_label(self, db):
        assert "AllNodeScan" in db.explain("MATCH (n) RETURN n")

    def test_id_seek_from_where(self, db):
        plan = db.explain("MATCH (n) WHERE id(n) = 0 RETURN n")
        assert "NodeByIdSeek" in plan and "AllNodeScan" not in plan

    def test_id_seek_reversed_equality(self, db):
        plan = db.explain("MATCH (n) WHERE 0 = id(n) RETURN n")
        assert "NodeByIdSeek" in plan

    def test_id_seek_inside_and(self, db):
        plan = db.explain("MATCH (n:Person) WHERE id(n) = 0 AND n.age > 1 RETURN n")
        assert "NodeByIdSeek" in plan

    def test_id_seek_not_used_for_or(self, db):
        plan = db.explain("MATCH (n) WHERE id(n) = 0 OR n.age > 1 RETURN n")
        assert "NodeByIdSeek" not in plan

    def test_index_scan_after_create_index(self, db):
        db.query("CREATE INDEX ON :Person(name)")
        plan = db.explain("MATCH (n:Person {name: 'A'}) RETURN n")
        assert "IndexRangeScan" in plan

    def test_anchor_prefers_indexed_side(self, db):
        db.query("CREATE INDEX ON :Person(name)")
        plan = db.explain("MATCH (c:City)<-[:LIVES_IN]-(p:Person {name: 'A'}) RETURN c")
        # the Person side has an index: scan starts there, traverses backwards
        assert plan.index("IndexRangeScan") > plan.index("ConditionalTraverse")


class TestTraverseShapes:
    def test_labels_folded_into_expression(self, db):
        plan = db.explain("MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN b")
        assert "KNOWS * diag(Person)" in plan

    def test_type_union_in_expression(self, db):
        plan = db.explain("MATCH (a)-[:KNOWS|LIVES_IN]->(b) RETURN b")
        assert "KNOWS|LIVES_IN" in plan

    def test_transposed_for_incoming(self, db):
        plan = db.explain("MATCH (a)<-[:KNOWS]-(b) RETURN b")
        assert "T(KNOWS)" in plan

    def test_expand_into_for_cycle(self, db):
        plan = db.explain("MATCH (a)-[:KNOWS]->(b), (a)-[:LIVES_IN]->(b) RETURN a")
        assert "ExpandInto" in plan

    def test_cartesian_for_disconnected(self, db):
        plan = db.explain("MATCH (a:Person), (b:City) RETURN a, b")
        assert "CartesianProduct" in plan

    def test_correlated_path_not_cartesian(self, db):
        plan = db.explain("UNWIND ['A'] AS x MATCH (n:Person {name: x}) RETURN n")
        assert "CartesianProduct" not in plan


class TestOptimizer:
    def test_filters_fused(self, db):
        # two residual filters (label check + WHERE) stack and fuse
        plan = db.explain("MATCH (n:Person:Person) WHERE n.age > 0 RETURN n")
        assert plan.count("Filter") == 1

    def test_topk_sort_annotated(self, db):
        plan = db.explain("MATCH (n:Person) RETURN n.age ORDER BY n.age LIMIT 2")
        assert "Sort | top=2" in plan

    def test_sort_without_limit_not_annotated(self, db):
        plan = db.explain("MATCH (n:Person) RETURN n.age ORDER BY n.age")
        assert "top=" not in plan

    def test_topk_results_match_full_sort(self, db):
        db.query("UNWIND range(1, 50) AS i CREATE (:N {v: i})")
        topk = db.query("MATCH (n:N) RETURN n.v ORDER BY n.v DESC LIMIT 5").column("n.v")
        assert topk == [50, 49, 48, 47, 46]
        topk_asc = db.query("MATCH (n:N) RETURN n.v ORDER BY n.v LIMIT 3").column("n.v")
        assert topk_asc == [1, 2, 3]


class TestProfileInstrumentation:
    def test_row_counts_accurate(self, db):
        report = db.profile("MATCH (n:Person) RETURN n").profile
        scan_line = next(l for l in report.splitlines() if "NodeByLabelScan" in l)
        assert "Records produced: 2" in scan_line

    def test_profile_returns_same_rows_as_query(self, db):
        plain = db.query("MATCH (n:Person) RETURN n.name ORDER BY n.name")
        profiled = db.profile("MATCH (n:Person) RETURN n.name ORDER BY n.name")
        assert plain.rows == profiled.rows


class TestUnsupportedConstructs:
    def test_named_path_plans_project_path(self, db):
        plan = db.explain("MATCH p = (a)-[:KNOWS]->(b) RETURN length(p)")
        assert "ProjectPath" in plan
        rows = db.query("MATCH p = (a)-[:KNOWS]->(b) RETURN length(p)").rows
        assert all(r == (1,) for r in rows)

    def test_varlen_properties_rejected(self, db):
        with pytest.raises(CypherSemanticError, match="variable-length"):
            db.query("MATCH (a)-[:KNOWS* {w: 1}]->(b) RETURN b")

    def test_anonymous_edge_properties_rejected(self, db):
        with pytest.raises(CypherSemanticError, match="anonymous"):
            db.query("MATCH (a)-[:KNOWS {w: 1}]->(b) RETURN b")
