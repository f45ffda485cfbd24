"""Literal lifting (``repro.cypher.autoparam``) against exact-text compiles.

A query whose inline literals were lifted into ``$__litN`` parameters
must be indistinguishable from the same text compiled as written: same
header, same rows in the same order, same write statistics, same final
graph and the same operator tree — at ``exec_batch_size`` 1, 7 and 1024,
with the cost-based planner on and off.  The exact side compiles with
``QueryEngine.compile`` (no cache, no lifting); the lifted side goes
through ``GraphDB.query``.  The positions that must keep their literal
are pinned one by one, and a hypothesis property draws literal values
into a set of query templates.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GraphDB
from repro.cypher.autoparam import LIFT_PREFIX, lift_literals
from repro.cypher.lexer import tokenize
from repro.cypher.tokens import TokenType
from repro.errors import CypherSemanticError
from repro.execplan import executor
from repro.execplan.ops_stream import _hashable
from repro.graph.config import GraphConfig

CONFIGS = [(size, planner) for size in (1, 7, 1024) for planner in (1, 0)]
CONFIG_IDS = [f"batch{size}-cost{planner}" for size, planner in CONFIGS]


def _normalize(rows):
    return [tuple(_hashable(v) for v in row) for row in rows]


def _seed(d):
    d.query(
        "CREATE (:Person {name: 'Ann', age: 34, tag: 1, big: 9223372036854775807}),"
        " (:Person {name: 'Bo', age: 27, tag: '1', score: -5}),"
        " (:Person {name: 'Cy', tag: 1.0, note: 'it\\'s'}),"
        " (:Person {name: 'Dee', age: 41, tag: true, note: 'ünï ☃ 𝄞'}),"
        " (:Person {name: 'Ann', age: 29, tag: 'x', score: -5}),"
        " (:Person {name: 'Eve', age: 27, note: 'a\\\\b'}),"
        " (:Ghost {name: 'Zed', age: 7})"
    )
    d.query(
        "MATCH (a:Person {name: 'Bo'}), (b:Person {name: 'Dee'}) "
        "CREATE (a)-[:KNOWS {w: 2}]->(b), (b)-[:KNOWS {w: 5}]->(a)"
    )
    d.query(
        "MATCH (a:Person {name: 'Dee'}), (b:Person {name: 'Cy'}) "
        "CREATE (a)-[:KNOWS {w: 2.5}]->(b), (b)-[:LIKES]->(a)"
    )
    d.query("CREATE INDEX ON :Person(name)")
    d.query("CREATE INDEX ON :Person(age)")


@pytest.fixture(scope="module")
def graphs():
    out = {}
    for size, planner in CONFIGS:
        d = GraphDB("autoparam", GraphConfig(exec_batch_size=size, cost_based_planner=planner))
        _seed(d)
        out[(size, planner)] = d
    return out


def _outcome(run):
    """(columns, rows) of a run, or the error it raised."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - errors are compared too
        return ("error", type(exc).__name__, str(exc))
    return (list(result.columns), _normalize(result.rows))


def _exact(d, query, params=None):
    return d.engine.execute(d.engine.compile(query), params)


def _op_tree(compiled):
    """Operator names with their nesting, without the per-op arguments
    (those print ``$__lit0`` where the exact plan prints the value)."""
    return [line.split(" |")[0] for line in compiled.explain().splitlines()]


def _remaining_literals(shape):
    kinds = (TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING)
    return [tok.value for tok in tokenize(shape) if tok.type in kinds]


# read queries with at least one liftable literal
LIFTED_READS = [
    # 1 / 1.0 / '1' / true never alias
    "MATCH (n:Person) WHERE n.tag = 1 RETURN n.name AS name",
    "MATCH (n:Person) WHERE n.tag = 1.0 RETURN n.name AS name",
    "MATCH (n:Person) WHERE n.tag = '1' RETURN n.name AS name",
    "MATCH (n:Person) WHERE n.tag = true AND n.name <> 'Q' RETURN n.name AS name",
    "UNWIND [1, 1.0, '1', true, 1] AS x RETURN x AS v, x = 1 AS eq",
    "RETURN 1 = 1.0 AS a, 1 = '1' AS b, '1' + 1 AS c, 1.0 AS d, 2 AS e, 2.0 AS f",
    # negatives and the int64 edges (2**63 itself stays inline)
    "MATCH (n:Person) WHERE n.score = -5 RETURN n.name AS name",
    "RETURN -1 AS a, - 2.5 AS b, 3 - -3 AS c, -0.0 AS d",
    "RETURN 9223372036854775807 AS a, -9223372036854775808 AS b, 9223372036854775808 AS c",
    "MATCH (n:Person) WHERE n.big = 9223372036854775807 RETURN n.name AS name",
    # quoted, escaped and unicode strings
    "MATCH (n:Person) WHERE n.note = 'it\\'s' RETURN n.name AS name",
    'MATCH (n:Person) WHERE n.note = "it\'s" OR n.note = "a\\\\b" RETURN n.name AS name',
    "MATCH (n:Person) WHERE n.note = 'ünï ☃ 𝄞' RETURN n.name AS name",
    "RETURN '' AS e, 'tab\\there' AS t, 'line\\nbreak' AS n, '\"q\"' AS q, '`tick`' AS b",
    # backquoted identifiers: spaces, keywords, a leading digit
    "MATCH (`my node`:Person) WHERE `my node`.name = 'Bo' RETURN `my node`.age AS `the age`",
    "WITH 1 AS `match`, 2 AS `1st` RETURN `match` + `1st` AS `return`",
    # STARTS WITH and equality seeks on the indexed attributes
    "MATCH (n:Person) WHERE n.name STARTS WITH 'A' RETURN n.name AS name, n.age AS age",
    "MATCH (n:Person) WHERE n.name = 'Ann' AND n.age = 34 RETURN id(n) AS i",
    "MATCH (n:Person) WHERE n.name CONTAINS 'e' OR n.name ENDS WITH 'y' RETURN n.name AS name",
    # property maps in MATCH (node and relationship)
    "MATCH (n:Person {name: 'Bo'}) RETURN n.age AS age",
    "MATCH (n:Person {name: 'Ann', age: 29}) RETURN n.tag AS tag",
    "MATCH (a)-[r:KNOWS {w: 2}]->(b) RETURN a.name AS a, b.name AS b",
    "MATCH (a:Person {name: 'Dee'})-[r:KNOWS]->(b) WHERE r.w = 2.5 RETURN b.name AS b",
    # UNWIND lists, WITH, UNION, OPTIONAL MATCH
    "UNWIND [3, 1, 2] AS x RETURN x AS y",
    "UNWIND ['b', 'a'] AS s MATCH (n:Person) WHERE n.name STARTS WITH toUpper(s) RETURN s AS s, n.name AS name",
    "MATCH (n:Person) WITH n, 10 AS k WHERE n.age + k = 37 RETURN n.name AS name, k AS k",
    "MATCH (n:Person {name: 'Ann'}) RETURN n.age AS v UNION MATCH (n:Ghost) RETURN 7 AS v",
    "MATCH (n:Person {name: 'Bo'}) RETURN n.age AS v UNION ALL MATCH (n:Person {name: 'Eve'}) RETURN n.age AS v",
    "MATCH (n:Person) OPTIONAL MATCH (n)-[r:KNOWS {w: 5}]->(m) RETURN n.name AS a, m.name AS b",
    "OPTIONAL MATCH (n:Person {name: 'Nobody'}) RETURN n.age AS age, 'x' AS x",
    # aggregates: constants beside aggregates, on empty and grouped input
    "MATCH (n:Person) RETURN count(*) + 1 AS c, sum(n.age) * 2 AS s",
    "MATCH (n:Nope) RETURN count(*) + 1 AS c",
    "MATCH (n:Nope) RETURN count(*) + 1 AS c, collect(n.age) + [1] AS l",
    "MATCH (n:Person) RETURN n.age AS age, count(*) + 1 AS c",
    "MATCH (n:Person) RETURN n.name AS name, count(*) * 10 AS c, 'k' AS k",
    # id seeks, repeated literals, CASE, functions
    "MATCH (n) WHERE id(n) = 2 RETURN n.name AS name",
    "MATCH (n) WHERE id(n) = 1 AND id(n) = 1 RETURN n.name AS name",
    "MATCH (n) WHERE id(n) = 1 AND id(n) = 2 RETURN n.name AS name",
    "RETURN CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END AS c",
    "MATCH (n:Person) RETURN n.name AS name, CASE WHEN n.age = 27 THEN 'yes' ELSE 'no' END AS c",
    "RETURN toUpper('abc') AS u, substring('hello', 1, 3) AS s, range(1, 4) AS r, size('héllo') AS z",
    "RETURN 7 / 2 AS a, 7.0 / 2 AS b, 7 % 3 AS c, 2 ^ 10 AS d",
    # errors must match too
    "RETURN 1 / 0 AS boom",
    "RETURN 'a' - 1 AS boom",
    "MATCH (n) RETURN m.x + 1 AS y",
]

# (query, the literals that must remain inline in the normalised text);
# every query here still lifts something else
KEPT = [
    ("MATCH (n:Person) WHERE n.name <> 'Zed' RETURN n.name AS name SKIP 1 LIMIT 2", ["1", "2"]),
    ("MATCH (n:Person) WHERE n.name <> 'Zed' WITH n SKIP 1 LIMIT 3 RETURN n.name AS name", ["1", "3"]),
    ("MATCH (a:Person {name: 'Bo'})-[:KNOWS*1..2]->(b) RETURN b.name AS b", ["1", "2"]),
    ("MATCH (a:Person {name: 'Bo'})-[:KNOWS*2]->(b) RETURN b.name AS b", ["2"]),
    ("MATCH (a:Person {name: 'Bo'})<-[:KNOWS*..2]-(b) RETURN b.name AS b", ["2"]),
    ("RETURN [1, 2, 3, 4][1..3] AS s, 'x' AS x", ["1", "3"]),
    ("RETURN [1, 2, 3, 4][..-1] AS s, 'x' AS x", ["1"]),
    # unaliased items name their column
    ("MATCH (n:Person {name: 'Ann'}) RETURN n.age + 1, 'x', 2 AS two", ["1", "x"]),
    ("MATCH (n:Person {name: 'Bo'}) RETURN 'it\\'s', \"a\\\\b\", 'ü\\n'", ["it's", "a\\b", "ü\n"]),
    ("MATCH (n:Person {name: 'Bo'}) WITH n.age + 1, 5 AS five RETURN five AS f", ["1"]),
    # a sorting block keeps every literal of its items
    ("MATCH (n:Person) WHERE n.name <> 'Zed' RETURN n.age + 1 AS a ORDER BY n.age + 1", ["1", "1"]),
    ("MATCH (n:Person) WHERE n.name <> 'Zed' RETURN DISTINCT n.age * 2 AS a ORDER BY a DESC", ["2"]),
    # range operands and IN lists are priced by value
    ("MATCH (n:Person) WHERE n.age > 30 AND n.name <> 'Zed' RETURN n.name AS name", ["30"]),
    ("MATCH (n:Person) WHERE 30 <= n.age AND n.name <> 'Zed' RETURN n.name AS name", ["30"]),
    ("MATCH (n:Person) WHERE n.age < (35) AND n.age >= 27 AND n.name <> 'Zed' RETURN n.name AS name", ["35", "27"]),
    ("MATCH (n:Person) WHERE n.age IN [27, 41] AND n.name <> 'Zed' RETURN n.name AS name", ["27", "41"]),
    ("MATCH (n:Person) WHERE n.name IN ['Bo', 'Cy'] AND n.age <> 1 RETURN n.name AS name", ["Bo", "Cy"]),
    # integers past int64 stay exact Python ints
    ("RETURN 18446744073709551616 AS a, 1 AS b", ["18446744073709551616"]),
]

NOT_LIFTED = [
    "MATCH (n:Person) RETURN n.name",
    "MATCH (n:Person) RETURN count(n) + 1",
    "MATCH (n:Person) RETURN n.name AS name ORDER BY name LIMIT 2",
    "MATCH (n:Person) WHERE n.age > 30 RETURN n.name AS name",
    "MATCH (n:Person) WHERE n.tag = true OR n.tag IS NULL RETURN false AS f, null AS z",
    "CALL db.labels()",
    "CALL db.idx.vector.query('Person', 'v', [1.0, 2.0], 3) YIELD node RETURN node",
    "CREATE INDEX ON :Person(age)",
    "DROP INDEX ON :Person(age)",
    "CREATE VECTOR INDEX ON :Person(v) OPTIONS {dimension: 2, similarity: 'cosine'}",
    "MATCH (n:Person) WHERE n.age = $__lit0 AND n.name = 'Ann' RETURN n.name AS n",
    "MATCH (n:Person) WHERE n.name = 'unterminated RETURN n",
    "MATCH (n:Person WHERE n.name = 'Ann' RETURN n",
]

READS = LIFTED_READS + [q for q, _ in KEPT]


def test_batteries_lift_what_they_claim():
    for query in LIFTED_READS:
        assert lift_literals(query) is not None, query
    for query, kept in KEPT:
        lifted = lift_literals(query)
        assert lifted is not None, query
        assert _remaining_literals(lifted[0]) == kept, query
    for query in NOT_LIFTED:
        assert lift_literals(query) is None, query


def test_equal_literals_share_one_parameter():
    shape, params = lift_literals("MATCH (n) WHERE n.a = 1 AND n.b = 1.0 AND n.c = '1' AND n.d = 1 RETURN 1 AS x")
    assert params == {f"{LIFT_PREFIX}0": 1, f"{LIFT_PREFIX}1": 1.0, f"{LIFT_PREFIX}2": "1"}
    assert shape.count(f"${LIFT_PREFIX}0") == 3


def test_variants_share_one_shape():
    a = lift_literals("MATCH (p:Person) WHERE p.uid = 42 RETURN p.age, 'op-1' AS op")
    b = lift_literals("MATCH  (p:Person)\nWHERE p.uid = 7 // comment\nRETURN p.age, 'op-2' AS op")
    assert a[0] == b[0]
    assert list(a[1].values()) == [42, "op-1"] and list(b[1].values()) == [7, "op-2"]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("query", READS)
def test_reads_match_exact_compile(graphs, config, query):
    d = graphs[config]
    lifted = _outcome(lambda: d.query(query))
    assert lifted == _outcome(lambda: _exact(d, query)), query
    # the cached shape serves the next run the same answer
    assert _outcome(lambda: d.query(query)) == lifted, query


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("query", [q for q in READS if "boom" not in q and "m.x" not in q])
def test_operator_tree_matches_exact_compile(graphs, config, query):
    d = graphs[config]
    shape, _ = lift_literals(query)
    assert _op_tree(d.engine.compile(shape)) == _op_tree(d.engine.compile(query)), query


def test_user_params_merge_with_lifted_literals(graphs):
    d = graphs[(1024, 1)]
    query = "MATCH (n:Person) WHERE n.age = $a AND n.name = 'Ann' RETURN n.tag AS tag"
    assert d.query(query, {"a": 29}).rows == [("x",)]
    assert d.query(query, {"a": 34}).rows == [(1,)]
    # a caller's parameter with the reserved prefix is simply overridden
    assert d.query(query, {"a": 34, f"{LIFT_PREFIX}0": "Bo"}).rows == [(1,)]


# ---------------------------------------------------------------------------
# writes: each query runs on two fresh graphs per configuration
# ---------------------------------------------------------------------------

WRITES = [
    "CREATE (:T {a: 1, b: 1.0, c: '1', d: true, e: -7, f: 'q\\'uote', g: [1, 2], h: 'ünï'})",
    "CREATE (a:X {k: 'a'})-[:R {s: 1}]->(b:X {k: 'b'}) RETURN a.k AS a, b.k AS b",
    "UNWIND [5, 6, 5] AS v CREATE (:U {v: v, tag: 'u'})",
    "MERGE (n:P {n: 3}) ON MATCH SET n.hit = 'yes' RETURN n.hit AS h",
    "MERGE (n:P {n: 99}) ON CREATE SET n.new = 1.5 RETURN n.n AS v, n.new AS w",
    "UNWIND [1, 1, 2] AS x MERGE (n:M {v: x}) ON CREATE SET n.c = 1 ON MATCH SET n.c = n.c + 1",
    "MATCH (n:P {n: 2}) SET n.x = 'set', n += {y: 4, z: 'zz'} RETURN n.x AS x, n.y AS y",
    "MATCH (n:P) WHERE n.n = 1 SET n.n = 10 RETURN n.n AS v",
    "MATCH (n:P {n: 4}) SET n = {n: 40, m: 'moved'}",
    "MATCH (a:P {n: 0}), (b:P {n: 5}) CREATE (a)-[:K {w: 0.5}]->(b)",
    "MATCH (n:P {n: 4}) DETACH DELETE n",
    "MATCH (n:P) WHERE n.n = 3 REMOVE n.n SET n.gone = true",
    "MATCH (n:P) WHERE n.n > 2 SET n.big = 'yes' RETURN count(*) AS c",
]


def _fresh(size, planner):
    d = GraphDB("fresh", GraphConfig(exec_batch_size=size, cost_based_planner=planner))
    d.query("UNWIND range(0, 5) AS i CREATE (:P {n: i})")
    d.query("MATCH (a:P), (b:P) WHERE b.n = a.n + 1 CREATE (a)-[:K]->(b)")
    return d


def _contents(d):
    nodes = [(n.id, n.labels, n.properties) for (n,) in _exact(d, "MATCH (n) RETURN n ORDER BY id(n)").rows]
    edges = [
        (r.id, r.src, r.type, r.dst, r.properties)
        for (r,) in _exact(d, "MATCH ()-[r]->() RETURN r ORDER BY id(r)").rows
    ]
    return nodes, edges


def _write_outcome(d, run):
    result = run()
    counters = result.stats.summary()[:-2]  # drop the cached flag and the timing
    return list(result.columns), _normalize(result.rows), counters, _contents(d)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("query", WRITES)
def test_writes_match_exact_compile(config, query):
    assert lift_literals(query) is not None, query
    lifted_db, exact_db = _fresh(*config), _fresh(*config)
    lifted = _write_outcome(lifted_db, lambda: lifted_db.query(query))
    assert lifted == _write_outcome(exact_db, lambda: _exact(exact_db, query)), query


# ---------------------------------------------------------------------------
# the plan cache
# ---------------------------------------------------------------------------


def test_distinct_literals_make_one_cache_entry():
    d = GraphDB("variants", GraphConfig())
    d.query("UNWIND range(0, 99) AS i CREATE (:Person {uid: i})")
    d.query("CREATE INDEX ON :Person(uid)")
    entries = len(d.engine.plan_cache)
    for i in range(1000):
        r = d.query(f"MATCH (p:Person) WHERE p.uid = {i % 100} RETURN p.uid AS uid, 'op{i}' AS op")
        assert r.rows == [(i % 100, f"op{i}")]
        assert ("Cached execution: 1" in r.stats.summary()) is (i > 0)
    assert len(d.engine.plan_cache) == entries + 1


def test_one_hit_or_one_miss_per_request():
    d = GraphDB("counts", GraphConfig())
    d.query("CREATE (:P {v: 1})")
    before = d.plan_cache_info()
    for v in range(5):
        d.query(f"MATCH (n:P) WHERE n.v = {v} RETURN count(*) AS c")
    d.query("MATCH (n:P) RETURN count(n)")  # nothing to lift: exact text
    d.query("MATCH (n:P) RETURN count(n)")
    after = d.plan_cache_info()
    assert after["misses"] - before["misses"] == 2
    assert after["hits"] - before["hits"] == 5


def test_lifted_text_is_never_cached_raw():
    d = GraphDB("raw", GraphConfig())
    query = "MATCH (n) WHERE n.v = 3 RETURN n.v AS v"
    d.query(query)
    compiled = d.engine.plan_cache.get(lift_literals(query)[0], d.graph.schema_version,
                                       d.graph.stats.epoch, None)
    assert compiled is not None
    assert d.engine.plan_cache.get(query, d.graph.schema_version, d.graph.stats.epoch, None) is None


def test_zero_capacity_lifts_nothing():
    d = GraphDB("off", GraphConfig(plan_cache_size=0))
    compiled, hit, params = d.engine.get_plan("MATCH (n) WHERE n.v = 3 RETURN n.v AS v")
    assert (hit, params) == (False, None)
    assert compiled.param_names == frozenset()


def test_explain_and_profile_keep_literals():
    d = GraphDB("explain", GraphConfig())
    _seed(d)
    query = "MATCH (n:Person) WHERE n.name = 'Bo' AND n.tag = '1' RETURN n.age AS age, 5 AS five"
    exact_plan = d.engine.compile(query).explain()
    assert "n.name = 'Bo'" in exact_plan
    d.query(query)  # caches the lifted shape
    assert LIFT_PREFIX in d.query(query).plan  # the plan that ran
    assert d.explain(query) == exact_plan
    report = d.profile(query).profile
    assert "n.name = 'Bo'" in report and LIFT_PREFIX not in report


def test_uncompilable_shape_falls_back_to_exact_text(monkeypatch):
    d = GraphDB("fallback", GraphConfig())
    monkeypatch.setattr(
        executor, "lift_literals", lambda text: ("RETURN $__lit0 +", {f"{LIFT_PREFIX}0": 1})
    )
    query = "RETURN 41 + 1 AS x"
    first = d.query(query)
    assert first.rows == [(42,)] and first.stats.cached_execution is False
    second = d.query(query)  # now a hit on the exact text
    assert second.rows == [(42,)] and second.stats.cached_execution is True


def test_lifting_keeps_compile_errors():
    d = GraphDB("errors", GraphConfig())
    query = "MATCH (n) WHERE n.v = 1 RETURN m.v AS v"
    with pytest.raises(CypherSemanticError) as exact:
        d.engine.compile(query)
    with pytest.raises(CypherSemanticError) as lifted:
        d.query(query)
    assert str(lifted.value) == str(exact.value)


# ---------------------------------------------------------------------------
# property: literal values drawn into query templates
# ---------------------------------------------------------------------------


def _cypher(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"


TEMPLATES = [
    "MATCH (n:Person) WHERE n.age = {v} RETURN n.name AS name",
    "MATCH (n:Person) WHERE n.name = {v} OR n.tag = {w} RETURN n.name AS name",
    "RETURN {v} AS x, {w} AS y, {v} = {w} AS eq",
    "UNWIND [{v}, {w}, {v}] AS x RETURN x AS x",
    "MATCH (n:Person) WHERE n.age > {v} RETURN n.name AS name",
    "MATCH (n:Person) RETURN n.name AS name, {v} AS k ORDER BY name",
    "MATCH (n:Person {{name: {s}}}) RETURN n.age AS age, {w} AS w",
    "MATCH (n:Person) WHERE n.name STARTS WITH {s} RETURN count(*) AS c",
    "RETURN {v} + {w} AS s",
    "MATCH (n) WHERE id(n) = {i} RETURN n.name AS name, {s} AS s",
    "RETURN CASE {v} WHEN {w} THEN 'same' ELSE 'diff' END AS c",
    "MATCH (n:Person) RETURN count(*) + {i} AS c, {s} AS s",
]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.sampled_from(["Ann", "Bo", "A", "", "1", "x"]),
    st.sampled_from([27, 34, 1, 1.0, -5]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    template=st.sampled_from(TEMPLATES),
    v=_scalars,
    w=_scalars,
    s=st.one_of(st.text(max_size=6), st.sampled_from(["Ann", "A", "B"])),
    i=st.integers(min_value=-3, max_value=9),
)
def test_drawn_literals_match_exact_compile(graphs, template, v, w, s, i):
    d = graphs[(1024, 1)]
    query = template.format(v=_cypher(v), w=_cypher(w), s=_cypher(s), i=i)
    assert _outcome(lambda: d.query(query)) == _outcome(lambda: _exact(d, query)), query
