"""The batch-granularity semantics net (ISSUE 5, ISSUE 15).

Every query in the battery runs at ``exec_batch_size`` 1 (the
batch-of-one oracle), 7 (a prime that misaligns every internal chunk
boundary) and the default — results must be identical, in order.  This is
the differential hook the vectorized engine is built around: batch size
may change how many rows move per Python-level step, never what comes
out.  The read battery also runs with the cost-based planner on and off.
Read queries share one module graph; write queries (and the
null-source regressions) each run on a fresh graph per batch size and
also compare statistics and the final graph contents.
"""

import pytest

from repro import GraphDB
from repro.execplan.ops_stream import _hashable
from repro.graph.config import GraphConfig

BATCH_SIZES = (1, 7, 1024)


def _normalize(rows):
    """Rows with entity handles replaced by comparable (kind, id) keys."""
    return [tuple(_hashable(v) for v in row) for row in rows]


@pytest.fixture(scope="module")
def db():
    d = GraphDB("diff-batch", GraphConfig(node_capacity=512))
    # people: some without age (NULL-propagating predicates), mixed-type
    # `tag` values (DISTINCT over mixed types), a few duplicate names
    d.query(
        "CREATE (:Person {name: 'Ann', age: 34, tag: 1}),"
        " (:Person {name: 'Bo', age: 27, tag: 'x'}),"
        " (:Person {name: 'Cy', tag: 1.0}),"
        " (:Person {name: 'Dee', age: 41, tag: true}),"
        " (:Person {name: 'Ann', age: 34, tag: 'x'}),"
        " (:Person {name: 'Eve', age: 27}),"
        " (:Ghost {name: 'Zed'})"
    )
    d.query(
        "MATCH (a:Person {name: 'Ann'}), (b:Person {name: 'Bo'}) "
        "CREATE (a)-[:KNOWS {w: 2}]->(b)"
    )
    d.query(
        "MATCH (a:Person {name: 'Bo'}), (b:Person {name: 'Dee'}) "
        "CREATE (a)-[:KNOWS {w: 5}]->(b), (b)-[:LIKES]->(a)"
    )
    d.query(
        "MATCH (a:Person {name: 'Dee'}), (b:Person {name: 'Cy'}) "
        "CREATE (a)-[:KNOWS]->(b)"
    )
    return d


QUERIES = [
    # filters with NULL-propagating predicates (missing age -> null > 30
    # -> null -> dropped; NOT null stays null; IS NULL keeps it)
    "MATCH (n:Person) WHERE n.age > 30 RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) WHERE NOT (n.age > 30) RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) WHERE n.age IS NULL RETURN n.name",
    "MATCH (n:Person) WHERE n.age > 25 AND n.name STARTS WITH 'A' RETURN n.name, n.age",
    "MATCH (n:Person) WHERE n.age = 27 OR n.tag = 1 RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) WHERE n.age IN [27, 41] RETURN n.name ORDER BY n.name",
    # DISTINCT over mixed types (int/float/str/bool tags + missing)
    "MATCH (n:Person) RETURN DISTINCT n.tag",
    "MATCH (n:Person) RETURN DISTINCT n.name, n.age",
    # aggregates on empty input
    "MATCH (n:Nobody) RETURN count(n), count(*), sum(n.age), avg(n.age), min(n.age), collect(n.age)",
    "MATCH (n:Person) WHERE n.age > 1000 RETURN count(*), sum(n.age)",
    # grouped aggregates (np.unique fast path vs dict path) + DISTINCT agg
    "MATCH (n:Person) RETURN n.age, count(*) ORDER BY n.age",
    "MATCH (n:Person) RETURN n.name, collect(n.age) ORDER BY n.name",
    "MATCH (n:Person) RETURN count(DISTINCT n.name), min(n.name), max(n.age)",
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a, count(b) ORDER BY count(b) DESC, a.name",
    # count(DISTINCT): node/edge id columns, int/str/mixed values, OPTIONAL
    # MATCH holes, grouped and ungrouped
    "MATCH (a:Person)-[r]->(b) RETURN count(DISTINCT a), count(DISTINCT b), count(DISTINCT r)",
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, count(DISTINCT b) ORDER BY a.name",
    "MATCH (n:Person) RETURN count(DISTINCT n.tag), count(DISTINCT n.age), count(DISTINCT n.name)",
    "MATCH (n:Person) RETURN n.age, count(DISTINCT n.name) ORDER BY n.age",
    "MATCH (n:Person) OPTIONAL MATCH (n)-[:KNOWS]->(m) RETURN count(DISTINCT m), count(m)",
    "MATCH (n:Person) OPTIONAL MATCH (n)-[:KNOWS]->(m) RETURN n.name, count(DISTINCT m) ORDER BY n.name",
    # ORDER BY mixed directions + SKIP/LIMIT (cross-batch carry)
    "MATCH (n:Person) RETURN n.name, n.age ORDER BY n.age DESC, n.name ASC",
    "MATCH (n:Person) RETURN n.name ORDER BY n.name SKIP 2 LIMIT 3",
    "MATCH (n:Person) RETURN n.name, n.age ORDER BY n.age ASC, n.name DESC SKIP 1 LIMIT 4",
    "UNWIND range(0, 19) AS x RETURN x ORDER BY x % 5 ASC, x DESC LIMIT 7",
    # OPTIONAL MATCH null-extension
    "MATCH (n:Person) OPTIONAL MATCH (n)-[:KNOWS]->(m) RETURN n.name, m.name ORDER BY n.name, m.name",
    "MATCH (n:Person) OPTIONAL MATCH (n)-[r:LIKES]->(m) RETURN n.name, r.w, m.name ORDER BY n.name",
    # traversal shapes: edge vars, undirected, var-length, closed cycles
    "MATCH (a)-[r:KNOWS]->(b) RETURN a.name, r.w, b.name ORDER BY a.name, b.name",
    "MATCH (a:Person)-[:KNOWS]-(b) RETURN a.name, b.name ORDER BY a.name, b.name",
    "MATCH (a:Person)-[:KNOWS*1..3]->(b) RETURN a.name, b.name ORDER BY a.name, b.name",
    "MATCH (a)-[:KNOWS]->(b)-[:LIKES]->(a) RETURN a.name, b.name",
    # expression zoo: CASE, arithmetic, string ops, parameters via literal
    "MATCH (n:Person) RETURN n.name, CASE WHEN n.age > 30 THEN 'old' WHEN n.age IS NULL THEN '?' ELSE 'young' END ORDER BY n.name",
    "MATCH (n:Person) RETURN n.name, n.age * 2 + 1, -n.age ORDER BY n.name",
    "MATCH (n:Person) WHERE n.name CONTAINS 'e' RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) RETURN n.name + '!' ORDER BY n.name",
    "RETURN 1 + 2, 'a' + 'b', [1, 2] + [3]",
    # UNWIND fan-out with list building
    "MATCH (n:Person) UNWIND [1, 2] AS k RETURN n.name, k ORDER BY n.name, k",
    "UNWIND [[1, 2], [], [3]] AS xs RETURN size(xs)",
    # cartesian product of disconnected patterns
    "MATCH (a:Ghost), (b:Person) RETURN a.name, b.name ORDER BY b.name",
    # WITH pipeline + id() / labels()
    "MATCH (n:Person) WITH n.age AS age WHERE age > 25 RETURN age ORDER BY age",
    "MATCH (n:Ghost) RETURN labels(n), id(n) >= 0",
    # UNION dedup across plan parts
    "MATCH (n:Person) RETURN n.name AS name UNION MATCH (n:Ghost) RETURN n.name AS name",
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
    """The same battery with ``cost_based_planner`` on and off: exact rows
    under ORDER BY, the same multiset otherwise (anchor choice and join
    order may legitimately change emission order)."""
    before = db.graph.config.cost_based_planner
    results = {}
    for value in (1, 0):
        _set_planner(db, value)
        try:
            results[value] = _normalize(db.query(query).rows)
        finally:
            _set_planner(db, before)
    if "ORDER BY" in query:
        assert results[1] == results[0], query
    else:
        assert sorted(map(repr, results[1])) == sorted(map(repr, results[0])), query


def _profile_counts(report):
    """(operator, Records produced) per PROFILE line."""
    out = []
    for line in report.splitlines():
        if "Records produced: " not in line:
            continue  # the separator between UNION parts
        op = line.split("|")[0].strip()
        rows = line.split("Records produced: ")[1].split(",")[0]
        out.append((op, int(rows)))
    return out


# LIMIT stops pulling mid-stream, so how many records the operators below
# it had produced by then legitimately depends on the batch size
@pytest.mark.parametrize("query", [q for q in QUERIES if " LIMIT " not in q])
def test_profile_rowcounts_match_row_engine(db, query):
    """PROFILE per-op row counts are identical to the batch-of-one
    oracle's on the same query (ISSUE 5 acceptance criterion)."""

    def counts(size):
        db.graph.config.exec_batch_size = size
        try:
            return _profile_counts(db.profile(query).profile)
        finally:
            db.graph.config.exec_batch_size = 1024

    assert counts(1) == counts(7) == counts(1024)


# (query, expected rows or None, follow-up read, its expected rows) — each
# case starts from a fresh six-node :P chain 0-[:K]->1-...->5.
FRESH_GRAPH_CASES = [
    ("UNWIND range(1,20) AS x CREATE (n:T {v:x}) RETURN n.v", [(x,) for x in range(1, 21)], None, None),
    # the second 1 must match the node the first 1 created, whatever the
    # batch size; n.c stays out of the MERGE's own RETURN because handles
    # are read after the batch's later writes (a granularity effect)
    (
        "UNWIND [1,1,2] AS x MERGE (n:M {v:x}) "
        "ON CREATE SET n.c = 1 ON MATCH SET n.c = n.c + 1 RETURN n.v",
        [(1,), (1,), (2,)],
        "MATCH (n:M) RETURN n.v, n.c ORDER BY n.v",
        [(1, 2), (2, 1)],
    ),
    # a write op hands its input columns on: the filter's memoised n.n
    # gather must not survive the SET
    ("MATCH (n:P) WHERE n.n = 1 SET n.n = 10 RETURN n.n", [(10,)], None, None),
    ("MATCH (n:P) REMOVE n.n RETURN n.n", [(None,)] * 6, None, None),
    ("MATCH (a)-[r]->(b) DELETE r RETURN count(*)", [(5,)], "MATCH ()-[r]->() RETURN count(r)", [(0,)]),
    ("MATCH (n:P) OPTIONAL MATCH (n)-[:K*1..3]->(m) RETURN n.n, m.n", None, None, None),
    ("MATCH p = (a)-[:K*1..2]->(b) RETURN length(p)", None, None, None),
    # a null traversal source (an enclosing OPTIONAL MATCH left a hole)
    # matches nothing instead of crashing on None.id
    ("OPTIONAL MATCH (a:Nope) OPTIONAL MATCH (a)-[:K]->(b) RETURN a, b", [(None, None)], None, None),
    ("OPTIONAL MATCH (a:Nope) MATCH (a)-[:K]->(b) RETURN b", [], None, None),
    ("OPTIONAL MATCH (a:Nope) MATCH (a)-[:K*1..2]->(b) RETURN b", [], None, None),
]

_WRITE_COUNTERS = (
    "nodes_created",
    "nodes_deleted",
    "relationships_created",
    "relationships_deleted",
    "properties_set",
    "labels_added",
)


def _contents(d):
    nodes = [
        (n.id, n.labels, n.properties)
        for (n,) in d.query("MATCH (n) RETURN n ORDER BY id(n)").rows
    ]
    edges = [
        (r.id, r.src, r.type, r.dst, r.properties)
        for (r,) in d.query("MATCH ()-[r]->() RETURN r ORDER BY id(r)").rows
    ]
    return nodes, edges


@pytest.mark.parametrize("query,expected,followup,followup_expected", FRESH_GRAPH_CASES)
def test_fresh_graph_batch_size_invariance(query, expected, followup, followup_expected):
    outcomes = []
    for size in BATCH_SIZES:
        d = GraphDB("fresh", GraphConfig(exec_batch_size=size))
        d.query("UNWIND range(0, 5) AS i CREATE (:P {n: i})")
        d.query("MATCH (a:P), (b:P) WHERE b.n = a.n + 1 CREATE (a)-[:K]->(b)")
        result = d.profile(query)
        rows = _normalize(result.rows)
        if expected is not None:
            assert rows == expected, (query, size)
        if followup is not None:
            assert d.query(followup).rows == followup_expected, (query, size)
        outcomes.append(
            (
                rows,
                [getattr(result.stats, c) for c in _WRITE_COUNTERS],
                _profile_counts(result.profile),
                _contents(d),
            )
        )
    assert outcomes[0] == outcomes[1] == outcomes[2], query


# Values of n.v for 42 :D nodes, in creation (= scan) order.  At batch
# size 7 each line is one batch: pure ints (count(DISTINCT) keys them as
# int64, so 2**53 and 2**53 + 1 stay apart), an int/float mix (row loop;
# 1.0 meets the int 1), strings, ints repeating earlier batches, bools
# next to 0/1 (row loop; true == 1 there), strings again.
_BIG = 2**53
DISTINCT_VALUES = [
    _BIG + 1, _BIG, 1, 2, 3, 1, _BIG + 1,
    1.0, 2.5, 3, None, 4, 1, 2.5,
    "a", "b", "a", "1", "c", None, "b",
    1, _BIG + 1, 4, 5, 5, None, 3,
    True, False, 0, 7, None, "a", 1,
    "c", "d", "a", "x", "x", None, "1",
]


@pytest.fixture(scope="module")
def distinct_db():
    d = GraphDB("diff-distinct", GraphConfig(node_capacity=64))
    rows = [[i, v, i % 3] for i, v in enumerate(DISTINCT_VALUES)]
    d.query("UNWIND $rows AS r CREATE (:D {i: r[0], v: r[1], g: r[2]})", {"rows": rows})
    # every destination is hit from several batches of sources
    d.query("MATCH (a:D), (b:D) WHERE b.i = a.i % 5 CREATE (a)-[:E]->(b)")
    return d


DISTINCT_QUERIES = [
    "MATCH (n:D) RETURN count(DISTINCT n.v), count(n.v)",
    "MATCH (n:D) RETURN n.g, count(DISTINCT n.v) ORDER BY n.g",
    "MATCH (a:D)-[:E]->(b) RETURN count(DISTINCT b), count(b)",
    "MATCH (a:D)-[r:E]->(b) RETURN count(DISTINCT r), count(DISTINCT a)",
    "MATCH (a:D)-[:E]->(b) RETURN a.g, count(DISTINCT b) ORDER BY a.g",
    "MATCH (a:D)-[:E*1..2]->(b) RETURN count(DISTINCT b)",
    "MATCH (a:D) OPTIONAL MATCH (a)-[:E]->(b) WHERE b.i > 2 RETURN count(DISTINCT b)",
    "MATCH (a:D) OPTIONAL MATCH (a)-[:E]->(b) WHERE b.i > 2 RETURN a.g, count(DISTINCT b) ORDER BY a.g",
]


def _distinct_runs(d, query):
    """Normalized rows at every batch size."""
    cfg = d.graph.config
    runs = []
    for size in BATCH_SIZES:
        cfg.exec_batch_size = size
        try:
            runs.append(_normalize(d.query(query).rows))
        finally:
            cfg.exec_batch_size = 1024
    return runs


@pytest.mark.parametrize("query", DISTINCT_QUERIES)
def test_count_distinct_batch_invariance(distinct_db, query):
    runs = _distinct_runs(distinct_db, query)
    assert all(run == runs[0] for run in runs), query


def test_count_distinct_values_match_python_sets(distinct_db):
    """The exact answers: Python set semantics over the row engine's
    dedup keys (2**53 != 2**53 + 1, 1 == 1.0 == true, '1' != 1)."""
    present = [v for v in DISTINCT_VALUES if v is not None]
    by_group = {}
    for i, v in enumerate(DISTINCT_VALUES):
        if v is not None:
            by_group.setdefault(i % 3, set()).add(_hashable(v))
    ungrouped = [(len({_hashable(v) for v in present}), len(present))]
    grouped = [(g, len(by_group[g])) for g in sorted(by_group)]
    for run in _distinct_runs(distinct_db, DISTINCT_QUERIES[0]):
        assert run == ungrouped
    for run in _distinct_runs(distinct_db, DISTINCT_QUERIES[1]):
        assert run == grouped


def test_params_are_batch_invariant(db):
    q = "MATCH (n:Person) WHERE n.age > $lo AND n.age < $hi RETURN n.name ORDER BY n.name"
    rows = None
    for size in BATCH_SIZES:
        db.graph.config.exec_batch_size = size
        try:
            got = db.query(q, {"lo": 25, "hi": 40}).rows
        finally:
            db.graph.config.exec_batch_size = 1024
        if rows is None:
            rows = got
        assert got == rows
