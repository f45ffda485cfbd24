"""GraphDB facade tests."""

import pytest

from repro import GraphDB


class TestGraphDB:
    def test_repr(self):
        db = GraphDB("demo")
        db.query("CREATE (:A)-[:R]->(:B)")
        assert "demo" in repr(db) and "2 nodes" in repr(db)

    def test_delete_resets(self):
        db = GraphDB("demo")
        db.query("CREATE (:A)")
        db.delete()
        assert db.query("MATCH (n) RETURN count(n)").scalar() == 0
        assert db.name == "demo"

    def test_profile_returns_pair(self):
        db = GraphDB("demo")
        db.query("CREATE (:A)")
        result = db.profile("MATCH (n) RETURN n")
        report = result.profile
        assert len(result.rows) == 1 and "Records produced" in report

    def test_lazy_import_attribute(self):
        import repro

        assert repro.GraphDB is GraphDB
        with pytest.raises(AttributeError):
            repro.NoSuchThing
