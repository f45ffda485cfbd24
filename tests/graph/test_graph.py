"""Property-graph behaviour: entities, labels, matrices, indices, bulk load."""

import numpy as np
import pytest

from repro.errors import ConstraintViolation, EntityNotFound
from repro.graph import BulkWriter, Graph, GraphConfig


@pytest.fixture
def g():
    return Graph("test", GraphConfig(node_capacity=4))


class TestNodes:
    def test_create_and_read(self, g):
        n = g.create_node(["Person"], {"name": "Ann", "age": 30})
        assert g.node_count == 1
        assert n.labels == ("Person",)
        assert n.properties == {"name": "Ann", "age": 30}
        assert n["name"] == "Ann"
        assert n.get("missing", 7) == 7

    def test_multiple_labels(self, g):
        n = g.create_node(["Person", "Admin"])
        assert set(n.labels) == {"Person", "Admin"}
        assert g.has_label(n.id, "Admin")
        assert not g.has_label(n.id, "Ghost")

    def test_capacity_growth(self):
        g = Graph("grow", GraphConfig(node_capacity=2))
        ids = [g.create_node().id for _ in range(10)]
        assert g.capacity >= 10
        m = g.relation_matrix()
        assert m.nrows == g.capacity
        assert g.has_node(ids[-1])

    def test_delete_node(self, g):
        n = g.create_node(["Person"])
        g.delete_node(n.id)
        assert g.node_count == 0
        assert not g.has_node(n.id)
        with pytest.raises(EntityNotFound):
            g.get_node(n.id)

    def test_delete_connected_requires_detach(self, g):
        a = g.create_node()
        b = g.create_node()
        g.create_edge(a.id, "KNOWS", b.id)
        with pytest.raises(ConstraintViolation):
            g.delete_node(a.id)
        deleted = g.delete_node(a.id, detach=True)
        assert deleted == 1
        assert g.edge_count == 0

    def test_node_id_reuse_after_delete(self, g):
        a = g.create_node(["L"])
        g.delete_node(a.id)
        b = g.create_node()
        assert b.id == a.id
        assert g.labels_of(b.id) == ()

    def test_label_scan(self, g):
        a = g.create_node(["Person"])
        g.create_node(["Robot"])
        c = g.create_node(["Person"])
        assert np.array_equal(g.nodes_with_label("Person"), [a.id, c.id])
        assert len(g.nodes_with_label("Ghost")) == 0

    def test_add_label_later(self, g):
        n = g.create_node()
        g.add_label(n.id, "Person")
        assert g.has_label(n.id, "Person")
        assert n.id in g.nodes_with_label("Person")

    def test_set_property(self, g):
        n = g.create_node(["P"], {"x": 1})
        g.set_node_property(n.id, "x", 2)
        assert g.node_property(n.id, "x") == 2
        g.set_node_property(n.id, "x", None)
        assert g.node_property(n.id, "x") is None

    def test_unknown_property_returns_none(self, g):
        n = g.create_node()
        assert g.node_property(n.id, "never_interned") is None


class TestEdges:
    def test_create_and_read(self, g):
        a = g.create_node()
        b = g.create_node()
        e = g.create_edge(a.id, "KNOWS", b.id, {"since": 2020})
        assert g.edge_count == 1
        assert e.src == a.id and e.dst == b.id
        assert e.type == "KNOWS"
        assert e["since"] == 2020

    def test_edge_to_missing_node(self, g):
        a = g.create_node()
        with pytest.raises(EntityNotFound):
            g.create_edge(a.id, "KNOWS", 99)
        with pytest.raises(EntityNotFound):
            g.create_edge(99, "KNOWS", a.id)

    def test_matrix_entry_set(self, g):
        a = g.create_node()
        b = g.create_node()
        g.create_edge(a.id, "KNOWS", b.id)
        R = g.relation_matrix("KNOWS")
        assert R[a.id, b.id] is not None
        ADJ = g.relation_matrix()
        assert ADJ[a.id, b.id] is not None

    def test_transposed_matrix(self, g):
        a = g.create_node()
        b = g.create_node()
        g.create_edge(a.id, "KNOWS", b.id)
        RT = g.relation_matrix("KNOWS", transposed=True)
        assert RT[b.id, a.id] is not None

    def test_unknown_reltype_empty_matrix(self, g):
        g.create_node()
        assert g.relation_matrix("NOPE").nvals == 0

    def test_multi_edge_same_pair(self, g):
        a = g.create_node()
        b = g.create_node()
        e1 = g.create_edge(a.id, "KNOWS", b.id)
        e2 = g.create_edge(a.id, "KNOWS", b.id)
        assert g.edge_count == 2
        assert set(g.edges_between(a.id, b.id, "KNOWS")) == {e1.id, e2.id}
        # one matrix entry shared by both edges
        assert g.relation_matrix("KNOWS").nvals == 1
        g.delete_edge(e1.id)
        assert g.relation_matrix("KNOWS")[a.id, b.id] is not None
        g.delete_edge(e2.id)
        assert g.relation_matrix("KNOWS").nvals == 0

    def test_adjacency_multi_reltype(self, g):
        a = g.create_node()
        b = g.create_node()
        e1 = g.create_edge(a.id, "A", b.id)
        g.create_edge(a.id, "B", b.id)
        g.delete_edge(e1.id)
        # ADJ must survive while the B edge remains
        assert g.relation_matrix()[a.id, b.id] is not None

    def test_delete_edge(self, g):
        a = g.create_node()
        b = g.create_node()
        e = g.create_edge(a.id, "KNOWS", b.id)
        g.delete_edge(e.id)
        assert g.edge_count == 0
        assert g.relation_matrix("KNOWS").nvals == 0
        assert g.out_edges(a.id) == [] and g.in_edges(b.id) == []

    def test_out_in_edges(self, g):
        a, b, c = (g.create_node() for _ in range(3))
        e1 = g.create_edge(a.id, "R", b.id)
        e2 = g.create_edge(a.id, "R", c.id)
        e3 = g.create_edge(c.id, "R", a.id)
        assert g.out_edges(a.id) == sorted([e1.id, e2.id])
        assert g.in_edges(a.id) == [e3.id]

    def test_edge_set_property(self, g):
        a = g.create_node()
        b = g.create_node()
        e = g.create_edge(a.id, "R", b.id)
        g.set_edge_property(e.id, "w", 3)
        assert g.edge_property(e.id, "w") == 3


class TestIndices:
    def test_index_populated_from_existing(self, g):
        n = g.create_node(["Person"], {"name": "Ann"})
        idx = g.create_index("Person", "name")
        assert idx.seek_eq("Ann").tolist() == [n.id]

    def test_index_tracks_creates(self, g):
        g.create_index("Person", "name")
        n = g.create_node(["Person"], {"name": "Bo"})
        assert g.get_index("Person", "name").seek_eq("Bo").tolist() == [n.id]

    def test_index_tracks_updates(self, g):
        g.create_index("Person", "name")
        n = g.create_node(["Person"], {"name": "Bo"})
        g.set_node_property(n.id, "name", "Cy")
        idx = g.get_index("Person", "name")
        assert idx.seek_eq("Bo").tolist() == [] and idx.seek_eq("Cy").tolist() == [n.id]

    def test_index_tracks_deletes(self, g):
        g.create_index("Person", "name")
        n = g.create_node(["Person"], {"name": "Bo"})
        g.delete_node(n.id)
        assert g.get_index("Person", "name").seek_eq("Bo").tolist() == []

    def test_duplicate_index_rejected(self, g):
        g.create_index("P", "a")
        with pytest.raises(ConstraintViolation):
            g.create_index("P", "a")

    def test_drop_index(self, g):
        g.create_index("P", "a")
        assert g.drop_index("P", "a")
        assert not g.drop_index("P", "a")
        assert g.get_index("P", "a") is None

    def test_label_restriction(self, g):
        g.create_index("Person", "name")
        g.create_node(["Robot"], {"name": "R2"})
        assert g.get_index("Person", "name").seek_eq("R2").tolist() == []

    def test_unindexable_values_skipped(self, g):
        idx = g.create_index("P", "tags")
        g.create_node(["P"], {"tags": [1, 2, 3]})
        assert len(idx) == 0


class TestBulkLoad:
    @staticmethod
    def load(g, count=0, label=None, edges=None):
        """One BulkWriter commit: ``count`` nodes, then ``edges`` as
        (src, dst) id arrays of type E between existing nodes."""
        w = BulkWriter(g)
        if count:
            w.add_nodes(count, labels=() if label is None else label)
        if edges is not None:
            w.add_edges("E", *edges, endpoints="graph")
        return w.commit(lock=False)

    def test_bulk_nodes(self, g):
        self.load(g, 100, "V")
        assert g.node_count == 100
        assert len(g.nodes_with_label("V")) == 100

    def test_bulk_edges(self, g):
        self.load(g, 10, "V")
        src = np.array([0, 1, 2, 0])
        dst = np.array([1, 2, 3, 1])  # duplicate (0,1)
        report = self.load(g, edges=(src, dst))
        assert report.matrix_entries_added == 3
        assert report.relationships_created == g.edge_count == 4
        R = g.relation_matrix("E")
        assert R[0, 1] is not None and R[2, 3] is not None
        assert g.relation_matrix()[0, 1] is not None

    def test_bulk_edges_bad_endpoint(self, g):
        self.load(g, 2)
        with pytest.raises(EntityNotFound):
            self.load(g, edges=(np.array([0]), np.array([5])))

    def test_bulk_then_incremental(self, g):
        self.load(g, 5, "V")
        self.load(g, edges=(np.array([0]), np.array([1])))
        n = g.create_node(["V"])
        g.create_edge(n.id, "E", 0)
        R = g.relation_matrix("E")
        assert R[n.id, 0] is not None and R[0, 1] is not None


class TestRepr:
    def test_repr(self, g):
        g.create_node(["L"])
        text = repr(g)
        assert "nodes=1" in text and "test" in text
