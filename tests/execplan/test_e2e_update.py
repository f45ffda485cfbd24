"""End-to-end update queries: CREATE / MERGE / DELETE / SET / REMOVE / indices."""

import pytest

from repro.errors import ConstraintViolation, CypherSemanticError, CypherTypeError


class TestCreate:
    def test_create_node_with_stats(self, db):
        r = db.query("CREATE (:Person {name:'A'})")
        assert r.stats.nodes_created == 1
        assert r.stats.labels_added == 1
        assert r.stats.properties_set == 1

    def test_create_returns_entity(self, db):
        r = db.query("CREATE (n:Person {name:'A'}) RETURN n.name")
        assert r.rows == [("A",)]

    def test_create_path(self, db):
        r = db.query("CREATE (:A)-[:R {w: 2}]->(:B)")
        assert r.stats.nodes_created == 2
        assert r.stats.relationships_created == 1
        assert db.query("MATCH (:A)-[e:R]->(:B) RETURN e.w").scalar() == 2

    def test_create_from_match(self, db):
        db.query("CREATE (:Person {name:'A'}), (:Person {name:'B'})")
        r = db.query(
            "MATCH (a:Person {name:'A'}), (b:Person {name:'B'}) CREATE (a)-[:KNOWS]->(b)"
        )
        assert r.stats.relationships_created == 1
        assert r.stats.nodes_created == 0

    def test_create_incoming_direction(self, db):
        db.query("CREATE (a:A)<-[:R]-(b:B)")
        assert db.query("MATCH (:B)-[:R]->(:A) RETURN count(*)").scalar() == 1

    def test_create_per_input_record(self, db):
        db.query("UNWIND [1,2,3] AS x CREATE (:N {v: x})")
        assert db.query("MATCH (n:N) RETURN count(n)").scalar() == 3

    def test_create_var_reuse_in_clause(self, db):
        r = db.query("CREATE (a:X), (a)-[:R]->(b:Y)")
        assert r.stats.nodes_created == 2
        assert db.query("MATCH (:X)-[:R]->(:Y) RETURN count(*)").scalar() == 1

    def test_create_null_properties_skipped(self, db):
        db.query("CREATE (:P {a: 1, b: null})")
        node = db.query("MATCH (n:P) RETURN n").scalar()
        assert node.properties == {"a": 1}

    def test_restated_props_on_bound_var_rejected(self, db):
        db.query("CREATE (:P {name:'x'})")
        with pytest.raises(CypherSemanticError):
            db.query("MATCH (a:P) CREATE (a {name:'y'})-[:R]->(:Q)")


class TestMerge:
    def test_merge_creates_when_absent(self, db):
        r = db.query("MERGE (n:P {name:'A'}) RETURN id(n)")
        assert r.stats.nodes_created == 1

    def test_merge_matches_when_present(self, db):
        id1 = db.query("MERGE (n:P {name:'A'}) RETURN id(n)").scalar()
        r = db.query("MERGE (n:P {name:'A'}) RETURN id(n)")
        assert r.stats.nodes_created == 0
        assert r.scalar() == id1

    def test_merge_edge(self, db):
        db.query("CREATE (:P {name:'A'}), (:P {name:'B'})")
        q = "MATCH (a:P {name:'A'}), (b:P {name:'B'}) MERGE (a)-[:KNOWS]->(b)"
        r1 = db.query(q)
        assert r1.stats.relationships_created == 1
        r2 = db.query(q)
        assert r2.stats.relationships_created == 0
        assert db.query("MATCH (:P)-[:KNOWS]->(:P) RETURN count(*)").scalar() == 1


class TestDelete:
    def test_delete_node(self, db):
        db.query("CREATE (:P)")
        r = db.query("MATCH (n:P) DELETE n")
        assert r.stats.nodes_deleted == 1
        assert db.query("MATCH (n) RETURN count(n)").scalar() == 0

    def test_delete_connected_requires_detach(self, db):
        db.query("CREATE (:A)-[:R]->(:B)")
        with pytest.raises(ConstraintViolation):
            db.query("MATCH (n:A) DELETE n")

    def test_detach_delete(self, db):
        db.query("CREATE (:A)-[:R]->(:B)")
        r = db.query("MATCH (n:A) DETACH DELETE n")
        assert r.stats.nodes_deleted == 1
        assert r.stats.relationships_deleted == 1

    def test_delete_edge_only(self, db):
        db.query("CREATE (:A)-[:R]->(:B)")
        r = db.query("MATCH (:A)-[e:R]->(:B) DELETE e")
        assert r.stats.relationships_deleted == 1
        assert db.query("MATCH (n) RETURN count(n)").scalar() == 2

    def test_delete_null_is_noop(self, db):
        db.query("CREATE (:A)")
        r = db.query("MATCH (n:A) OPTIONAL MATCH (n)-[:R]->(m) DELETE m")
        assert r.stats.nodes_deleted == 0

    def test_delete_scalar_rejected(self, db):
        db.query("CREATE (:A {x: 1})")
        with pytest.raises(CypherTypeError):
            db.query("MATCH (n:A) DELETE n.x")


class TestSetRemove:
    def test_set_property(self, db):
        db.query("CREATE (:P {name:'A'})")
        r = db.query("MATCH (n:P) SET n.age = 9")
        assert r.stats.properties_set == 1
        assert db.query("MATCH (n:P) RETURN n.age").scalar() == 9

    def test_set_from_expression(self, db):
        db.query("CREATE (:P {a: 2})")
        db.query("MATCH (n:P) SET n.b = n.a * 10")
        assert db.query("MATCH (n:P) RETURN n.b").scalar() == 20

    def test_set_null_removes(self, db):
        db.query("CREATE (:P {a: 1})")
        db.query("MATCH (n:P) SET n.a = null")
        node = db.query("MATCH (n:P) RETURN n").scalar()
        assert node.properties == {}

    def test_set_plus_equals_map(self, db):
        db.query("CREATE (:P {a: 1})")
        db.query("MATCH (n:P) SET n += {b: 2, c: 3}")
        node = db.query("MATCH (n:P) RETURN n").scalar()
        assert node.properties == {"a": 1, "b": 2, "c": 3}

    def test_set_replace_map(self, db):
        db.query("CREATE (:P {a: 1, b: 2})")
        db.query("MATCH (n:P) SET n = {z: 9}")
        node = db.query("MATCH (n:P) RETURN n").scalar()
        assert node.properties == {"z": 9}

    def test_set_label(self, db):
        db.query("CREATE (:P)")
        r = db.query("MATCH (n:P) SET n:Admin")
        assert r.stats.labels_added == 1
        assert db.query("MATCH (n:Admin) RETURN count(n)").scalar() == 1

    def test_set_edge_property(self, db):
        db.query("CREATE (:A)-[:R]->(:B)")
        db.query("MATCH (:A)-[e:R]->(:B) SET e.w = 5")
        assert db.query("MATCH (:A)-[e:R]->(:B) RETURN e.w").scalar() == 5

    def test_remove_property(self, db):
        db.query("CREATE (:P {a: 1, b: 2})")
        db.query("MATCH (n:P) REMOVE n.a")
        node = db.query("MATCH (n:P) RETURN n").scalar()
        assert node.properties == {"b": 2}

    def test_remove_label(self, db):
        db.query("CREATE (:P:Admin)")
        db.query("MATCH (n:P) REMOVE n:Admin")
        assert db.query("MATCH (n:Admin) RETURN count(n)").scalar() == 0
        assert db.query("MATCH (n:P) RETURN count(n)").scalar() == 1


class TestIndexClauses:
    def test_create_index_and_planner_uses_it(self, db):
        db.query("CREATE (:P {name:'A'}), (:P {name:'B'})")
        r = db.query("CREATE INDEX ON :P(name)")
        assert r.stats.indices_created == 1
        plan = db.explain("MATCH (n:P {name:'A'}) RETURN n")
        assert "IndexRangeScan" in plan
        assert db.query("MATCH (n:P {name:'A'}) RETURN n.name").scalar() == "A"

    def test_without_index_label_scan(self, db):
        db.query("CREATE (:P {name:'A'})")
        plan = db.explain("MATCH (n:P {name:'A'}) RETURN n")
        assert "NodeByLabelScan" in plan

    def test_drop_index(self, db):
        db.query("CREATE INDEX ON :P(name)")
        r = db.query("DROP INDEX ON :P(name)")
        assert r.stats.indices_deleted == 1
        plan = db.explain("MATCH (n:P {name:'A'}) RETURN n")
        assert "IndexRangeScan" not in plan

    def test_index_used_with_parameters(self, db):
        db.query("CREATE (:P {name:'A', v: 1})")
        db.query("CREATE INDEX ON :P(name)")
        got = db.query("MATCH (n:P {name: $x}) RETURN n.v", {"x": "A"}).scalar()
        assert got == 1
