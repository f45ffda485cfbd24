"""Index-backed ORDER BY: ``MATCH (n:L) ... ORDER BY n.attr [DESC] LIMIT k``
over an indexed attribute must plan as :class:`IndexOrderScan` (no Sort
operator — rows stream out of the index in order, so LIMIT k stops after
k rows instead of sorting the whole label), and the fast path must return
exactly what the generic ``label scan + Sort`` pipeline returns — same
rows, same order — across types, directions, aliases and churn.
"""

import random

import pytest

from repro import GraphDB

SEEDS = [5, 21, 77]


def build_pair(seed):
    """Two graphs with identical data; only one has the index."""
    rng = random.Random(seed)
    fast = GraphDB("fast")
    slow = GraphDB("slow")
    fast.query("CREATE INDEX ON :P(v)")
    values = []
    for i in range(60):
        values.append(
            rng.choice(
                [
                    rng.randint(-5, 5),
                    rng.randint(0, 3) + 0.5,
                    10**18 + rng.randint(0, 3),  # beyond float64 ULP
                    f"s{rng.randint(0, 9)}",
                    rng.random() < 0.5,
                    [rng.randint(0, 2)],
                    None,  # property absent on the node
                ]
            )
        )
    for db in (fast, slow):
        for v in values:
            if v is None:
                db.query("CREATE (:P {other: 1})")
            else:
                db.query("CREATE (:P {v: $v})", {"v": v})
    # churn: updates move nodes between index buckets, deletes shrink it
    for db in (fast, slow):
        db.query("MATCH (n:P) WHERE id(n) % 7 = 0 SET n.v = id(n)")
        db.query("MATCH (n:P) WHERE id(n) % 11 = 3 REMOVE n.v")
        db.query("MATCH (n:P) WHERE id(n) % 13 = 5 DELETE n")
    return fast, slow


QUERIES = [
    "MATCH (n:P) RETURN id(n), n.v ORDER BY n.v",
    "MATCH (n:P) RETURN id(n), n.v ORDER BY n.v DESC",
    "MATCH (n:P) RETURN id(n), n.v ORDER BY n.v LIMIT 5",
    "MATCH (n:P) RETURN id(n), n.v ORDER BY n.v DESC LIMIT 5",
    "MATCH (n:P) RETURN id(n), n.v AS x ORDER BY x",  # alias dereference
    "MATCH (n:P) RETURN id(n) ORDER BY n.v",  # key not projected
    "MATCH (n:P) RETURN id(n), n.v ORDER BY n.v SKIP 3 LIMIT 4",
]


class TestDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_path_matches_sort(self, seed, fold_at):
        fold_at(4)
        fast, slow = build_pair(seed)
        for q in QUERIES:
            assert "IndexOrderScan" in fast.explain(q), q
            assert "IndexOrderScan" not in slow.explain(q), q
            assert fast.query(q).rows == slow.query(q).rows, q

    def test_order_is_total_including_unindexed_nodes(self, fold_at):
        """Nodes missing the attribute (and non-scalar values) still appear,
        in the same type-class positions Sort gives them."""
        fold_at(4)
        fast, slow = build_pair(99)
        q = "MATCH (n:P) RETURN id(n) ORDER BY n.v"
        assert fast.query(q).rows == slow.query(q).rows
        q = "MATCH (n:P) RETURN id(n) ORDER BY n.v DESC"
        assert fast.query(q).rows == slow.query(q).rows


class TestPlanShape:
    @pytest.fixture()
    def db(self):
        d = GraphDB("shape")
        d.query("CREATE INDEX ON :P(age)")
        for i in range(10):
            d.query("CREATE (:P {age: $a, name: $n})", {"a": i, "n": f"p{i}"})
        return d

    def test_explain_shows_index_order_scan_and_no_sort(self, db):
        plan = db.explain("MATCH (n:P) RETURN n.name ORDER BY n.age LIMIT 3")
        assert "IndexOrderScan | (n:P) [age ASC]" in plan
        assert "Sort" not in plan
        assert "Limit" in plan

    def test_desc_direction_in_plan(self, db):
        plan = db.explain("MATCH (n:P) RETURN n.name ORDER BY n.age DESC")
        assert "IndexOrderScan | (n:P) [age DESC]" in plan

    def test_no_fast_path_without_index(self, db):
        plan = db.explain("MATCH (n:P) RETURN n.name ORDER BY n.name")
        assert "IndexOrderScan" not in plan
        assert "Sort" in plan

    def test_no_fast_path_with_where(self, db):
        # a WHERE filter plans a Filter (or a seek) above the scan — the
        # scan is no longer the direct child of the projection
        plan = db.explain(
            "MATCH (n:P) WHERE n.name = 'p3' RETURN n.name ORDER BY n.age"
        )
        assert "IndexOrderScan" not in plan

    def test_no_fast_path_with_aggregate(self, db):
        plan = db.explain("MATCH (n:P) RETURN n.age, count(n) ORDER BY n.age")
        assert "IndexOrderScan" not in plan

    def test_no_fast_path_with_distinct(self, db):
        plan = db.explain("MATCH (n:P) RETURN DISTINCT n.age ORDER BY n.age")
        assert "IndexOrderScan" not in plan

    def test_no_fast_path_on_multiple_keys(self, db):
        plan = db.explain("MATCH (n:P) RETURN n.name ORDER BY n.age, n.name")
        assert "IndexOrderScan" not in plan

    def test_vector_index_never_triggers_fast_path(self, db):
        db.query("CREATE VECTOR INDEX ON :P(emb) OPTIONS {dimension: 2}")
        plan = db.explain("MATCH (n:P) RETURN n.name ORDER BY n.emb")
        assert "IndexOrderScan" not in plan

    def test_runtime_fallback_when_index_dropped(self, db):
        """A cached plan keeps running (stable sorted label scan) if the
        index disappears between planning and execution."""
        text = "MATCH (n:P) RETURN n.age ORDER BY n.age DESC LIMIT 4"
        compiled, _, _ = db.engine.get_plan(text)
        expected = db.query(text).rows
        db.query("DROP INDEX ON :P(age)")
        result = db.engine.execute(compiled, None)
        assert list(result.rows) == expected == [(9,), (8,), (7,), (6,)]
