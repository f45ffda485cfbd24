"""Dataset generator tests: shape, determinism, degree structure."""

import numpy as np
import pytest

from repro import GraphDB
from repro.datasets import graph500_edges, ldbc_lite


class TestGraph500:
    def test_sizes(self):
        src, dst, n = graph500_edges(scale=10, edge_factor=16, seed=3)
        assert n == 1024
        assert len(src) == len(dst)
        assert len(src) <= 16 * n
        assert len(src) > 14 * n  # only self-loops were dropped

    def test_ids_in_range(self):
        src, dst, n = graph500_edges(scale=8, seed=1)
        assert src.min() >= 0 and src.max() < n
        assert dst.min() >= 0 and dst.max() < n

    def test_deterministic(self):
        a = graph500_edges(scale=8, seed=5)
        b = graph500_edges(scale=8, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_output(self):
        a = graph500_edges(scale=8, seed=1)
        b = graph500_edges(scale=8, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_no_self_loops(self):
        src, dst, _ = graph500_edges(scale=8, seed=1)
        assert np.all(src != dst)

    def test_rmat_degree_skew(self):
        """RMAT graphs have heavy-tailed degrees: the max out-degree far
        exceeds the mean (unlike an Erdos-Renyi graph)."""
        src, dst, n = graph500_edges(scale=12, seed=1)
        deg = np.bincount(src, minlength=n)
        assert deg.max() > 8 * deg.mean()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            graph500_edges(scale=0)
        with pytest.raises(ValueError):
            graph500_edges(scale=4, a=0.6, b=0.3, c=0.2)

    def test_bulk_inserted_graph_queryable(self):
        """Duplicate R-MAT edges become multi-edges; 1-hop reachability
        from the hub still counts each neighbour once."""
        src, dst, n = graph500_edges(scale=6, seed=1)
        db = GraphDB("rmat")
        db.bulk_insert(
            nodes=[{"labels": ["V"], "count": n}],
            edges=[{"type": "E", "src": src.tolist(), "dst": dst.tolist()}],
        )
        assert db.query("MATCH (v:V) RETURN count(v)").scalar() == n
        assert db.graph.edge_count == len(src)
        hub = int(np.bincount(src, minlength=n).argmax())
        count = db.query(
            "MATCH (s:V)-[:E]->(t) WHERE id(s) = $s RETURN count(DISTINCT t)",
            {"s": hub},
        ).scalar()
        assert count == len(np.unique(dst[src == hub]))


class TestLdbcLite:
    @pytest.fixture(scope="class")
    def db(self):
        return ldbc_lite(persons=40, seed=5)

    def test_entity_counts(self, db):
        assert db.query("MATCH (p:Person) RETURN count(p)").scalar() == 40
        assert db.query("MATCH (p:Post) RETURN count(p)").scalar() == 80

    def test_created_edges(self, db):
        assert db.query("MATCH (:Person)-[:CREATED]->(:Post) RETURN count(*)").scalar() == 80

    def test_cities_assigned(self, db):
        cities = db.query("MATCH (p:Person) RETURN DISTINCT p.city ORDER BY p.city").column("p.city")
        assert len(cities) == 4

    def test_community_structure(self, db):
        """KNOWS should be denser within a city than across."""
        intra = db.query(
            "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.city = b.city RETURN count(*)"
        ).scalar()
        inter = db.query(
            "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.city <> b.city RETURN count(*)"
        ).scalar()
        assert intra > inter

    def test_likes_present(self, db):
        assert db.query("MATCH (:Person)-[:LIKES]->(:Post) RETURN count(*)").scalar() == 120
