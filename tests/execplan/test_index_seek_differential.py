"""Differential net over index seeks: with secondary indexes present the
engine routes WHERE conjuncts and inline-map entries through
:class:`IndexRangeScan`; without them it filters a label scan.  Both
worlds must return identical rows for every predicate shape the seek
layer claims to serve — equality, one- and two-sided ranges, string
prefixes, ``IN`` lists, composite prefixes, cross-type, null and
list-valued probes — under create/update/delete/bulk workloads, at
scalar and batched execution, with both planners."""

import random

import pytest

from repro import GraphDB
from repro.errors import CypherTypeError
from repro.graph.config import GraphConfig

SEEDS = [11, 37, 90]

# every query here must be served by a seek when indexes exist (or fall
# back soundly) and by a filtered scan when they don't
QUERIES = [
    "MATCH (n:P) WHERE n.v = 3 RETURN id(n)",
    "MATCH (n:P) WHERE n.v = 3.0 RETURN id(n)",          # cross-type numeric eq
    "MATCH (n:P) WHERE n.v = true RETURN id(n)",          # bool family isolation
    "MATCH (n:P) WHERE n.v = '3' RETURN id(n)",           # string family isolation
    "MATCH (n:P) WHERE n.v = null RETURN id(n)",          # null probe: no rows
    "MATCH (n:P) WHERE n.v > 2 RETURN id(n)",
    "MATCH (n:P) WHERE n.v >= 2 AND n.v < 5 RETURN id(n)",
    "MATCH (n:P) WHERE n.v < 4 RETURN id(n), n.v",
    "MATCH (n:P) WHERE n.v IN [1, 3, 9, true, 'x'] RETURN id(n)",
    "MATCH (n:P) WHERE n.v IN [] RETURN id(n)",
    "MATCH (n:P) WHERE n.v IN [[1], 2] RETURN id(n)",     # list element -> fallback guard
    "MATCH (n:P) WHERE n.name STARTS WITH 'u' RETURN id(n)",
    "MATCH (n:P) WHERE n.name STARTS WITH '' RETURN id(n)",
    "MATCH (n:P) WHERE n.name STARTS WITH 'u1' AND n.v > 1 RETURN id(n)",
    "MATCH (n:P) WHERE n.g = 1 AND n.name = 'u3' RETURN id(n)",   # composite full width
    "MATCH (n:P) WHERE n.g = 2 RETURN id(n)",                      # composite prefix
    "MATCH (n:P) WHERE n.g = 1 AND n.v > 2 RETURN id(n)",          # seek + residual
    "MATCH (n:P) WHERE n.v = 3 OR n.name = 'u5' RETURN id(n)",     # OR: no seek, still equal
    "MATCH (n:P)-[:R]->(m) WHERE n.v = 3 RETURN id(n), id(m)",     # seek under expand
    "MATCH (n:P) WHERE n.v = 3 RETURN count(n)",
    "MATCH (n:P {v: 3}) RETURN id(n)",                             # inline-map seek
    "MATCH (n:P {v: 3.0, name: 'u1tail'}) RETURN id(n)",
    "MATCH (n:P {g: 1, name: 'u3'}) RETURN id(n)",                 # inline map, composite
    "MATCH (n:P {g: 1}) WHERE n.v > 2 RETURN id(n)",               # inline map + WHERE
    "MATCH (n:P {v: [1, 2]}) RETURN count(n)",                     # list probe -> fallback
    ("MATCH (n:P {v: $x}) RETURN count(n)", {"x": [1, 2]}),
    ("MATCH (n:P {v: $x}) RETURN count(n)", {"x": 3}),
]

INDEX_DDL = [
    "CREATE INDEX ON :P(v)",
    "CREATE INDEX ON :P(name)",
    "CREATE INDEX ON :P(g, name)",
]


def run_workload(db: GraphDB, seed: int, bulk: bool) -> None:
    """Seeded create/update/delete churn; ``bulk`` routes the initial
    cohort through the columnar bulk writer instead of per-row CREATE."""
    rng = random.Random(seed)
    count = 40
    vs = [rng.choice([rng.randint(0, 9), rng.uniform(0, 9), True, None, "3", "x"])
          for _ in range(count)]
    names = [f"u{rng.randint(0, 12)}" if rng.random() < 0.9 else None for _ in range(count)]
    gs = [rng.randint(0, 3) if rng.random() < 0.8 else None for _ in range(count)]
    if bulk:
        db.bulk_insert(
            nodes=[{"labels": ("P",), "count": count,
                    "properties": {"v": vs, "name": names, "g": gs}}],
            edges=[{"type": "R",
                    "src": [rng.randrange(count) for _ in range(count)],
                    "dst": [rng.randrange(count) for _ in range(count)],
                    "endpoints": "batch"}],
        )
    else:
        for v, name, g in zip(vs, names, gs):
            db.query("CREATE (:P {v: $v, name: $name, g: $g})",
                     {"v": v, "name": name, "g": g})
        for _ in range(count):
            db.query(
                "MATCH (a:P), (b:P) WHERE id(a) = $s AND id(b) = $d CREATE (a)-[:R]->(b)",
                {"s": rng.randrange(count), "d": rng.randrange(count)},
            )
    # churn: updates (including to/from null and across families), deletes
    for _ in range(20):
        nid = rng.randrange(count)
        nv = rng.choice([rng.randint(0, 9), None, True, "3", rng.uniform(0, 9)])
        db.query("MATCH (n:P) WHERE id(n) = $i SET n.v = $nv", {"i": nid, "nv": nv})
    for nid in rng.sample(range(count), 5):
        db.query("MATCH (n:P) WHERE id(n) = $i DETACH DELETE n", {"i": nid})
    db.query("CREATE (:P {v: 3, name: 'u1tail', g: 1})")
    db.query("CREATE (:P {v: [1, 2], name: 'u1list', g: 1})")  # lists are never indexed


def build(seed, bulk, indexed, *, batch=1024, cost=1):
    db = GraphDB("diff", GraphConfig(exec_batch_size=batch, cost_based_planner=cost))
    if indexed == "before":
        for ddl in INDEX_DDL:
            db.query(ddl)
    run_workload(db, seed, bulk)
    if indexed == "after":
        for ddl in INDEX_DDL:
            db.query(ddl)
    return db


def rows(db, query):
    """Sorted result rows of one QUERIES entry (a query, or a query and
    its parameters)."""
    q, params = (query, None) if isinstance(query, str) else query
    return sorted(db.query(q, params).rows)


class TestIndexOnOffDifferential:
    @pytest.mark.parametrize("cost", [0, 1], ids=["rule", "cost"])
    @pytest.mark.parametrize("batch", [1, 1024], ids=["scalar", "batched"])
    @pytest.mark.parametrize("bulk", [False, True], ids=["per-row", "bulk"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexed_equals_unindexed(self, seed, bulk, batch, cost, fold_at):
        fold_at(8)
        plain = build(seed, bulk, indexed=None, batch=batch, cost=cost)
        seek = build(seed, bulk, indexed="before", batch=batch, cost=cost)
        for q in QUERIES:
            assert rows(seek, q) == rows(plain, q), q

    @pytest.mark.parametrize("seed", SEEDS)
    def test_index_created_after_workload(self, seed, fold_at):
        """Backfill path: indexes created over existing data answer like
        indexes that watched every write."""
        fold_at(4)
        before = build(seed, True, indexed="before")
        after = build(seed, True, indexed="after")
        for q in QUERIES:
            assert rows(before, q) == rows(after, q), q

    @pytest.mark.parametrize("cost", [0, 1], ids=["rule", "cost"])
    def test_merge_twice_on_a_list_value(self, cost):
        """MERGE matches a list-valued node the index never holds, so a
        second run creates nothing — with and without the index."""
        plain = build(1, False, indexed=None, cost=cost)
        seek = build(1, False, indexed="before", cost=cost)
        for db in (plain, seek):
            for _ in range(2):
                db.query("MERGE (:P {v: [1, 2]})")
            db.query("MERGE (:P {v: [3]})")
            db.query("MERGE (:P {v: [3]})")
        count = "MATCH (n:P) WHERE n.v = [1, 2] OR n.v = [3] RETURN count(n)"
        assert seek.query(count).scalar() == plain.query(count).scalar() == 2

    @pytest.mark.parametrize("cost", [0, 1], ids=["rule", "cost"])
    def test_in_type_error_parity(self, cost):
        """`x IN <non-list>` raises the same CypherTypeError whether it
        runs as a seek or a filter."""
        plain = build(1, False, indexed=None, cost=cost)
        seek = build(1, False, indexed="before", cost=cost)
        for db in (plain, seek):
            with pytest.raises(CypherTypeError, match="IN expects a list"):
                db.query("MATCH (n:P) WHERE n.v IN 5 RETURN n")

    def test_seek_plan_shapes(self):
        db = build(1, False, indexed="before")
        inline = db.explain("MATCH (n:P {v: 3}) RETURN n")
        assert "IndexRangeScan | (n:P) [range: n.v = 3]" in inline
        inline_comp = db.explain("MATCH (n:P {g: 1, name: 'u3'}) RETURN n")
        assert "[composite: n.g = 1, n.name = 'u3']" in inline_comp
        plan = db.explain("MATCH (n:P) WHERE n.v > 2 RETURN n")
        assert "IndexRangeScan" in plan and "range: n.v > 2" in plan
        assert "est_rows" in plan
        assert "Filter" not in plan  # fully consumed conjunct leaves no residual
        comp = db.explain("MATCH (n:P) WHERE n.g = 1 AND n.name = 'u3' RETURN n")
        assert "composite" in comp
        residual = db.explain("MATCH (n:P) WHERE n.g = 1 AND n.v > 2 RETURN n")
        assert "IndexRangeScan" in residual and "Filter" in residual

    def test_rule_planner_uses_seeks_too(self):
        db = build(1, False, indexed="before", cost=0)
        assert "IndexRangeScan" in db.explain("MATCH (n:P) WHERE n.v > 2 RETURN n")

    def test_profile_reports_actual_rows(self):
        db = build(1, False, indexed="before")
        expect = db.query("MATCH (n:P) WHERE n.v > 2 RETURN count(n)").scalar()
        report = db.profile("MATCH (n:P) WHERE n.v > 2 RETURN id(n)").profile
        line = next(l for l in report.splitlines() if "IndexRangeScan" in l)
        assert f"Records produced: {expect}," in line and "est_rows" in line
