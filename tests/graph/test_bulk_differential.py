"""Differential net over the write path: for seeded random workloads, a
bulk-ingested graph and an equivalent per-row CREATE-query graph must be
indistinguishable to every read surface we have — counts, property
reads, label scans, index lookups, and 1-hop/2-hop traversals.

The workload generator emits node *cohorts* (one label set + property
columns per cohort, nodes numbered in staging order) so the bulk graph
and the per-row graph allocate identical node ids; edges then reference
those ids directly in both worlds.
"""

import random

import pytest

from repro import GraphDB
from repro.graph.config import GraphConfig

SEEDS = [7, 23, 51, 88, 104]

LABEL_POOL = [("A",), ("B",), ("A", "B"), ("C",), ()]
RELTYPES = ["R", "S"]


def make_workload(seed):
    rng = random.Random(seed)
    cohorts = []
    total = 0
    for labels in rng.sample(LABEL_POOL, k=rng.randint(3, len(LABEL_POOL))):
        count = rng.randint(4, 12)
        props = {}
        if rng.random() < 0.9:
            props["name"] = [f"n{seed}_{total + i}" for i in range(count)]
        if rng.random() < 0.8:
            props["v"] = [rng.randint(0, 5) if rng.random() < 0.8 else None for _ in range(count)]
        if rng.random() < 0.5:
            props["w"] = [round(rng.uniform(0, 1), 3) for _ in range(count)]
        cohorts.append({"labels": labels, "count": count, "props": props})
        total += count
    edges = []
    for reltype in RELTYPES:
        m = rng.randint(total, 2 * total)
        src = [rng.randrange(total) for _ in range(m)]
        dst = [rng.randrange(total) for _ in range(m)]
        props = {"k": [rng.randint(0, 9) for _ in range(m)]} if rng.random() < 0.7 else {}
        edges.append({"type": reltype, "src": src, "dst": dst, "props": props})
    return cohorts, edges, total


def build_bulk(cohorts, edges):
    db = GraphDB("bulk", GraphConfig(node_capacity=64))
    db.bulk_insert(
        nodes=[
            {"labels": c["labels"], "count": c["count"], "properties": c["props"]}
            for c in cohorts
        ],
        edges=[
            {"type": e["type"], "src": e["src"], "dst": e["dst"],
             "properties": e["props"], "endpoints": "batch"}
            for e in edges
        ],
    )
    return db


def _prop_literal(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return "'" + value + "'"  # generator emits quote-free strings
    return repr(value)


def build_per_row(cohorts, edges):
    """The same content through one CREATE query per node / per edge."""
    db = GraphDB("perrow", GraphConfig(node_capacity=64))
    for c in cohorts:
        label_frag = "".join(f":{l}" for l in c["labels"])
        for i in range(c["count"]):
            props = {
                name: column[i]
                for name, column in c["props"].items()
                if column[i] is not None
            }
            prop_frag = ""
            if props:
                prop_frag = " {" + ", ".join(f"{k}: {_prop_literal(v)}" for k, v in props.items()) + "}"
            db.query(f"CREATE ({label_frag}{prop_frag})")
    for e in edges:
        for i, (s, d) in enumerate(zip(e["src"], e["dst"])):
            prop_frag = ""
            if e["props"]:
                prop_frag = " {" + ", ".join(f"{k}: {_prop_literal(col[i])}" for k, col in e["props"].items()) + "}"
            db.query(
                f"MATCH (a), (b) WHERE id(a) = $s AND id(b) = $d "
                f"CREATE (a)-[:{e['type']}{prop_frag}]->(b)",
                {"s": s, "d": d},
            )
    return db


@pytest.fixture(params=SEEDS, scope="module")
def pair(request):
    cohorts, edges, total = make_workload(request.param)
    return build_bulk(cohorts, edges), build_per_row(cohorts, edges), cohorts, edges, total


def both(pair, query, params=None):
    bulk, perrow = pair[0], pair[1]
    a = bulk.query(query, params)
    b = perrow.query(query, params)
    return sorted(a.rows), sorted(b.rows)


class TestDifferential:
    def test_node_and_edge_counts(self, pair):
        bulk, perrow = pair[0], pair[1]
        assert bulk.graph.node_count == perrow.graph.node_count
        assert bulk.graph.edge_count == perrow.graph.edge_count
        for q in ("MATCH (n) RETURN count(n)",
                  "MATCH ()-[e]->() RETURN count(e)",
                  "MATCH ()-[e:R]->() RETURN count(e)",
                  "MATCH ()-[e:S]->() RETURN count(e)"):
            a, b = both(pair, q)
            assert a == b, q

    def test_label_scans(self, pair):
        for label in ("A", "B", "C"):
            a, b = both(pair, f"MATCH (n:{label}) RETURN id(n)")
            assert a == b, label

    def test_property_reads(self, pair):
        for q in ("MATCH (n) RETURN id(n), n.name, n.v, n.w",
                  "MATCH ()-[e:R]->() RETURN e.k",
                  "MATCH (n:A) WHERE n.v > 2 RETURN n.name, n.v"):
            a, b = both(pair, q)
            assert a == b, q

    def test_index_lookup(self, pair):
        bulk, perrow, cohorts = pair[0], pair[1], pair[2]
        bulk.query("CREATE INDEX ON :A(v)")
        perrow.query("CREATE INDEX ON :A(v)")
        for v in range(6):
            a, b = both(pair, "MATCH (n:A {v: $v}) RETURN id(n), n.name", {"v": v})
            assert a == b, v
        # the probe must actually ride the index on the bulk graph
        assert "IndexRangeScan" in bulk.explain("MATCH (n:A {v: 3}) RETURN n")

    def test_one_hop(self, pair):
        total = pair[4]
        for src in range(0, total, 3):
            a, b = both(pair, "MATCH (a)-[:R]->(b) WHERE id(a) = $s RETURN id(b)", {"s": src})
            assert a == b, src

    def test_two_hop(self, pair):
        total = pair[4]
        for src in range(0, total, 5):
            a, b = both(
                pair,
                "MATCH (a)-[:R]->()-[:S]->(c) WHERE id(a) = $s RETURN id(c)",
                {"s": src},
            )
            assert a == b, src

    def test_aggregation_over_groups(self, pair):
        a, b = both(pair, "MATCH (n) WHERE n.v IS NOT NULL WITH n.v AS v, count(n) AS c RETURN v, c")
        assert a == b

    def test_traversal_after_incremental_write(self, pair):
        """Post-bulk per-entity writes behave identically in both worlds."""
        bulk, perrow = pair[0], pair[1]
        for db in (bulk, perrow):
            db.query("CREATE (:Z {name: 'tail'})")
            db.query("MATCH (z:Z), (n) WHERE id(n) = 0 CREATE (z)-[:R]->(n)")
        a, b = both(pair, "MATCH (z:Z)-[:R]->(n) RETURN id(n)")
        assert a == b
