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
    # batch size; each row reads n.c as it stood when that row was
    # produced (MERGE hands buffered rows on before an ON ... SET writes
    # an entity they bind)
    (
        "UNWIND [1,1,2] AS x MERGE (n:M {v:x}) "
        "ON CREATE SET n.c = 1 ON MATCH SET n.c = n.c + 1 RETURN n.v, n.c",
        [(1, 1), (1, 2), (2, 1)],
        "MATCH (n:M) RETURN n.v, n.c ORDER BY n.v",
        [(1, 2), (2, 1)],
    ),
    (
        "MATCH (n:P) WHERE n.n < 3 MERGE (c:C {k: n.n % 2}) "
        "ON CREATE SET c.c = 1 ON MATCH SET c.c = c.c + 1 RETURN n.n, c.k, c.c",
        [(0, 0, 1), (1, 1, 1), (2, 0, 2)],
        "MATCH (c:C) RETURN c.k, c.c ORDER BY c.k",
        [(0, 2), (1, 1)],
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
# next to 0/1 (row loop; true is its own key there), strings again.
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
    dedup keys (2**53 != 2**53 + 1, 1 == 1.0, true != 1, '1' != 1)."""
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


def test_merge_on_match_set_reads_like_the_row_engine():
    """Each returned row sees the ON ... SET writes made up to it, not the
    later ones: the row engine's answer, at every batch size."""
    for size in BATCH_SIZES:
        d = GraphDB("merge-set", GraphConfig(exec_batch_size=size))
        d.query("CREATE (:M {k: 1}), (:M {k: 1}), (:M {k: 2})")
        rows = d.query(
            "MATCH (n:M) MERGE (c:C {k: n.k}) ON CREATE SET c.c = 1 "
            "ON MATCH SET c.c = c.c + 1 RETURN n.k, c.c"
        ).rows
        assert rows == [(1, 1), (1, 2), (2, 1)], size


# Grouping and DISTINCT keep true apart from 1 (``true = 1`` is false),
# while 1 and 1.0 still meet (``1 = 1.0`` is true).
BOOL_KEY_CASES = [
    ("UNWIND [true, 1, false, 0] AS x RETURN x, count(*)", [(True, 1), (1, 1), (False, 1), (0, 1)]),
    ("UNWIND [true, 1, false, 0] AS x RETURN count(DISTINCT x)", [(4,)]),
    ("UNWIND [[true], [1]] AS x RETURN DISTINCT x", [([True],), ([1],)]),
    ("UNWIND [{a: true}, {a: 1}] AS x RETURN count(DISTINCT x)", [(2,)]),
    ("UNWIND [1, 1.0, true] AS x RETURN count(DISTINCT x)", [(2,)]),
    ("UNWIND [[1], [1.0], [true]] AS x RETURN DISTINCT x", [([1],), ([True],)]),
    ("UNWIND [true, 1, 1.0, true] AS x RETURN x, count(*)", [(True, 2), (1, 2)]),
    ("UNWIND [true, 1, false, 0] AS x RETURN collect(DISTINCT x)", [([True, 1, False, 0],)]),
]


@pytest.mark.parametrize("query,expected", BOOL_KEY_CASES)
def test_bools_group_apart_from_ints(query, expected):
    d = GraphDB("bool-keys")
    cfg = d.graph.config
    for size in BATCH_SIZES:
        cfg.exec_batch_size = size
        rows = d.query(query).rows
        assert rows == expected and [list(map(type, r)) for r in rows] == [
            list(map(type, r)) for r in expected
        ], (query, size)


def test_typed_bool_group_keys_meet_row_loop_keys():
    """A bool property gathers as a typed column; a batch holding a null
    takes the row loop instead.  Both paths must land in the same groups,
    apart from a sibling int attribute's 1/0 groups."""
    d = GraphDB("bool-column")
    d.query("CREATE (:B {n: 0})")
    d.query("UNWIND range(1, 1100) AS i CREATE (:B {v: i % 3 = 0, w: i % 2, n: i})")
    runs = []
    for size in BATCH_SIZES:
        d.graph.config.exec_batch_size = size
        runs.append(
            (
                d.query("MATCH (b:B) RETURN b.v, count(*)").rows,
                d.query("MATCH (b:B) UNWIND [b.v, b.w] AS x RETURN x, count(*)").rows,
            )
        )
    assert runs[0][0] == [(None, 1), (False, 734), (True, 366)]
    assert runs[0][1] == [(None, 2), (False, 734), (1, 550), (0, 550), (True, 366)]
    assert all(run == runs[0] for run in runs)


# Group-by battery: one key of each kind per query, under count, sum, avg,
# min, max and count(DISTINCT) in one RETURN, over 1 100 nodes, so that
# at every batch size some groups first appear in a later batch (`s` =
# 'late' only past row 1 050) and pin the emission order.  Float values
# are multiples of 1/4, so that sums are exact in any association.
_GROUP_ROWS = 1100
_INT64_MIN = -(2**63)


@pytest.fixture(scope="module")
def group_db():
    n = _GROUP_ROWS
    d = GraphDB("diff-group", GraphConfig(node_capacity=2048))
    # the pool numbers these strings against their order of appearance
    # in the :G scan, so that pool codes cannot stand in for that order
    d.query("UNWIND ['late', 's0', 's6', 's5', 's4', 's3', 's2', 's1'] AS s CREATE (:Pre {s: s})")
    props = {
        "i": list(range(n)),
        # pooled strings with a null group, and one group only at the end
        "s": [None if i % 10 == 0 else "late" if i >= 1050 else f"s{i % 7}" for i in range(n)],
        "h": [(i % 9) * 0.5 for i in range(n)],
        "c": [i % 17 for i in range(n)],
        "m": [[1, 1.0, 2, 2.5][i % 4] for i in range(n)],  # 1 meets 1.0
        # typed bool, with nulls only in the last rows (the row loop then)
        "flag": [None if i >= 1030 and i % 2 else i % 3 == 0 for i in range(n)],
        "x": [float("nan") if i % 50 == 0 else (i % 4) * 0.25 for i in range(n)],
        "big": [_BIG + i % 3 for i in range(n)],
        "bigmix": [[_BIG + 1, float(_BIG)][i % 2] for i in range(n)],
        "lo": [_INT64_MIN if i % 100 == 7 else i for i in range(n)],
    }
    src = [i for i in range(n) if i % 3]
    d.bulk_insert(
        nodes=[{"labels": ["G"], "properties": props}],
        edges=[{"type": "E", "src": src, "dst": [(i * 7) % n for i in src]}],
    )
    return d


_AGGS = "count(*), count(n.s), sum(n.i), avg(n.h), min(n.i), max(n.h), min(n.s), count(DISTINCT n.c)"
GROUP_QUERIES = [
    f"MATCH (n:G) RETURN n.s, {_AGGS}",
    f"MATCH (n:G) RETURN n.i % 13, {_AGGS}",
    f"MATCH (n:G) RETURN n.h, {_AGGS}",
    f"MATCH (n:G) RETURN n.m, {_AGGS}",
    f"MATCH (n:G) RETURN n.flag, {_AGGS}",
    "MATCH (n:G) UNWIND [n.flag, n.i % 2] AS k RETURN k, count(*), sum(n.i)",
    f"MATCH (n:G) RETURN n.x, {_AGGS}",
    f"MATCH (n:G) RETURN n.big, {_AGGS}",
    f"MATCH (n:G) RETURN n.bigmix, {_AGGS}",
    "MATCH (n:G) RETURN n.s, max(n.lo), min(n.lo), count(DISTINCT n.lo)",
    "MATCH (n:G) RETURN n.s, n.i % 2, count(*), avg(n.h)",
    f"MATCH (n:G) RETURN {_AGGS}",
    "MATCH (a:G) OPTIONAL MATCH (a)-[:E]->(n) RETURN n, count(*), count(n), max(n.h), count(DISTINCT a.c)",
    "MATCH (a:G) OPTIONAL MATCH (a)-[:E]->(n) WHERE n.i > 500 RETURN n.s, count(*), sum(n.i)",
    "MATCH (a:G)-[e:E]->(n) RETURN e, count(*), collect(n.i)",
    "MATCH (a:G)-[:E]->(n) RETURN a.i % 3, min(n), max(n), collect(DISTINCT n.i % 4)",
]


@pytest.mark.parametrize("query", GROUP_QUERIES)
def test_group_table_matches_row_engine(group_db, query):
    cfg = group_db.graph.config
    runs = {}
    for size in BATCH_SIZES:
        cfg.exec_batch_size = size
        try:
            # repr: a NaN key is not equal to itself, so rows compare by text
            runs[size] = repr(_normalize(group_db.query(query).rows))
        finally:
            cfg.exec_batch_size = 1024
    assert runs[1] == runs[7] == runs[1024], query


@pytest.mark.parametrize("kind", ["sum", "avg"])
def test_numeric_aggregates_over_entities_raise(group_db, kind):
    """sum/avg over nodes is a type error at every batch size (an id
    column is not a number column)."""
    from repro.errors import CypherTypeError

    for size in BATCH_SIZES:
        group_db.graph.config.exec_batch_size = size
        try:
            with pytest.raises(CypherTypeError):
                group_db.query(f"MATCH (n:G) RETURN n.i % 2, {kind}(n)")
        finally:
            group_db.graph.config.exec_batch_size = 1024


NAN_QUERIES = {
    "MATCH (n:N) RETURN n.x, count(*)": [(None, 1), ("nan", 3), (1.0, 1)],
    "MATCH (n:N) RETURN count(DISTINCT n.x)": [(2,)],
    "MATCH (n:N) RETURN DISTINCT n.x": [(None,), ("nan",), (1.0,)],
    "MATCH (n:N) RETURN n.x UNION MATCH (n:N) RETURN n.x": [(None,), ("nan",), (1.0,)],
    "MATCH (n:N) RETURN collect(DISTINCT n.x)": [(["nan", 1.0],)],
    "MATCH (n:N) RETURN [n.x] AS l, {x: n.x} AS m, count(*)": [
        ([None], {"x": None}, 1), (["nan"], {"x": "nan"}, 3), ([1.0], {"x": 1.0}, 1)
    ],
}


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_nan_keys_group_together(size):
    """Every NaN is one grouping and DISTINCT key, as openCypher says, at
    any nesting depth — each gathered NaN is a fresh float object, so a
    key that hashed the object itself made one group per row."""
    import math

    def text(value):
        if isinstance(value, float) and math.isnan(value):
            return "nan"
        if isinstance(value, list):
            return [text(v) for v in value]
        if isinstance(value, dict):
            return {k: text(v) for k, v in value.items()}
        return value

    d = GraphDB("nan-keys", GraphConfig(exec_batch_size=size))
    d.query("CREATE (:N)")
    d.query("UNWIND range(0, 2) AS i CREATE (:N {x: 0.0 / 0.0})")
    d.query("CREATE (:N {x: 1.0})")
    for query, expected in NAN_QUERIES.items():
        assert [tuple(text(v) for v in row) for row in d.query(query).rows] == expected, query


OVERFLOWS = [
    ("UNWIND $xs AS x RETURN sum(x)", {"xs": [10**400]}),
    ("UNWIND $xs AS x RETURN avg(x)", {"xs": [10**400]}),
    ("UNWIND $xs AS x RETURN x % 2, sum(x)", {"xs": [1, 10**400, 3]}),
    ("RETURN 10^400", None),
    ("MATCH (n:N) RETURN n.i ^ 400", None),
    ("MATCH (n:N) WHERE n.i ^ 400 > 0 RETURN count(*)", None),
]


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("query, params", OVERFLOWS)
def test_numeric_overflow_is_a_cypher_error(size, query, params):
    """A number past float64 is a Cypher type error on the row and the
    vector path alike, not a Python OverflowError."""
    from repro.errors import CypherTypeError

    d = GraphDB("overflow", GraphConfig(exec_batch_size=size))
    d.query("UNWIND range(2, 9) AS i CREATE (:N {i: i})")
    with pytest.raises(CypherTypeError, match="numeric overflow"):
        d.query(query, params)


def test_group_table_emission_order(group_db):
    """Groups come out in first-appearance order, the late one last."""
    for size in BATCH_SIZES:
        group_db.graph.config.exec_batch_size = size
        try:
            keys = [r[0] for r in group_db.query("MATCH (n:G) RETURN n.s, count(*)").rows]
        finally:
            group_db.graph.config.exec_batch_size = 1024
        assert keys == [None, "s1", "s2", "s3", "s4", "s5", "s6", "s0", "late"], size


def _replay_aggregate(graph, batches, layout, size):
    """``count(*)`` grouped by slot 0 over hand-built batches."""
    from repro.cypher import ast_nodes as A
    from repro.execplan.expressions import ExecContext, compile_expr
    from repro.execplan.ops_base import PlanOp
    from repro.execplan.ops_stream import Aggregate, AggSpec

    class Replay(PlanOp):
        def _produce_batches(self, ctx):
            yield from batches

    key = compile_expr(A.Identifier(layout.names[0]), layout)
    agg = Aggregate(Replay([], layout), [("k", key)], [("c", AggSpec("count", None, False))])
    ctx = ExecContext(graph)
    ctx.batch_size = size
    return [tuple(r) for b in agg.produce_batches(ctx) for r in b.iter_rows()]


def test_group_codes_from_two_pool_versions_group_by_string():
    """Batches whose codes index two versions of one string pool — before
    and after the rebuild that fresh SETs bring about, which renumbers the
    codes — still group by string value."""
    import numpy as np

    from repro.execplan.batch import RecordBatch, gathered_column
    from repro.execplan.record import Layout

    d = GraphDB("pool-versions")
    d.query("CREATE (:S {s: 'a'})")
    d.query("UNWIND range(1, 4) AS i CREATE (:S {s: 'b'})")
    graph, ids = d.graph, np.arange(5)
    before = gathered_column(graph, "node", ids, "s")
    fresh = 0
    while graph.string_pool("node", "s") is before.pool:  # until the pool rebuilds
        d.query("MATCH (n:S) WHERE id(n) = 0 SET n.s = $s", {"s": f"fresh{fresh}"})
        fresh += 1
    d.query("MATCH (n:S) WHERE id(n) = 0 SET n.s = 'a'")
    after = gathered_column(graph, "node", ids, "s")
    assert after.to_objects().tolist() == before.to_objects().tolist() == ["a", "b", "b", "b", "b"]
    assert after.pool is not before.pool and after.codes[1] == before.codes[0]  # 'b' took 'a''s code
    layout = Layout(["k"])
    batches = [RecordBatch(layout, [before]), RecordBatch(layout, [after]), RecordBatch(layout, [before])]
    for size in BATCH_SIZES:
        assert _replay_aggregate(graph, batches, layout, size) == [("a", 3), ("b", 12)], size


def test_group_keys_meet_across_column_kinds():
    """An int64 batch, a float64 batch, an object batch (the row loop:
    bools and null) and a string batch share one table: 1 and 1.0 meet,
    true stays apart, and each group keeps its first-seen value."""
    import numpy as np

    from repro.execplan.batch import RecordBatch, ValueColumn, object_column
    from repro.execplan.record import Layout

    d = GraphDB("column-kinds")
    layout = Layout(["k"])
    batches = [
        RecordBatch(layout, [ValueColumn(np.array([1, 2, 1], dtype=np.int64))]),
        RecordBatch(layout, [ValueColumn(np.array([1.0, 3.5, 2.0]))]),
        RecordBatch(layout, [ValueColumn(object_column([True, 1, None, 3.5]))]),
        RecordBatch(layout, [ValueColumn(object_column(["1", 2.0, 1]))]),
        RecordBatch(layout, [ValueColumn(np.array([True, False]))]),
    ]
    expected = [(1, 5), (2, 3), (3.5, 2), (True, 2), (None, 1), ("1", 1), (False, 1)]
    for size in BATCH_SIZES:
        got = _replay_aggregate(d.graph, batches, layout, size)
        assert got == expected and [type(k) for k, _ in got] == [type(k) for k, _ in expected], size
