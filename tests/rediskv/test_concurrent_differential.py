"""Concurrent-client differential: one query, one thread, no crosstalk.

Every query runs whole on one module-pool worker while other workers run
other queries on the same graph.  Each read query in the battery is sent
by several live connections at once, repeatedly, and every reply must
equal the rows the embedded engine returns for it run alone — in order,
with no ORDER BY required, since a query's emission order is the serial
order whatever else the pool is doing.
"""

import threading
import time

import pytest

from repro import GraphDB
from repro.graph.config import GraphConfig
from repro.rediskv.client import RedisClient
from repro.rediskv.resp import RespParser, encode
from repro.rediskv.server import RedisLikeServer

N_CLIENTS, N_ROUNDS = 4, 3

# nulls, duplicate groups and mixed tags keep the operators honest
SETUP = [
    "UNWIND range(0, 199) AS i "
    "CREATE (:Person {name: 'p' + toString(i % 23), age: i % 17, grp: i % 5})",
    "UNWIND range(0, 9) AS i CREATE (:Ghost {name: 'g' + toString(i)})",
    "MATCH (n:Person) WHERE n.grp = 0 SET n.age = null",
    "MATCH (a:Person), (b:Person) "
    "WHERE b.grp = a.grp AND a.age = b.age - 1 "
    "CREATE (a)-[:KNOWS {w: a.grp}]->(b)",
]

QUERIES = [
    # pure scans without ORDER BY: emission order is part of the answer
    "MATCH (n:Person) RETURN n.name, n.age",
    "MATCH (n:Person) WHERE n.age > 8 RETURN n.name, n.age",
    "MATCH (n) RETURN id(n)",
    "MATCH (n:Person) UNWIND [1, 2] AS k RETURN n.name, k",
    # traversals
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name",
    "MATCH (a:Person)-[r:KNOWS]->(b) WHERE r.w > 1 RETURN a.age, r.w, b.age",
    "MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN a.name, c.name",
    # aggregates, grouped and ungrouped
    "MATCH (n:Person) RETURN count(n), sum(n.age), min(n.age), max(n.age), avg(n.age)",
    "MATCH (n:Person) RETURN n.grp, count(*), sum(n.age) ORDER BY n.grp",
    "MATCH (n:Person) RETURN n.name, collect(n.age) ORDER BY n.name",
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.grp, count(b) ORDER BY a.grp",
    # first-appearance group order without ORDER BY
    "MATCH (n:Person) RETURN n.grp, count(*)",
    "MATCH (n:Person) RETURN count(DISTINCT n.name), count(DISTINCT n.age)",
    # sort, with SKIP/LIMIT
    "MATCH (n:Person) RETURN n.name, n.age ORDER BY n.age DESC, n.name",
    "MATCH (n:Person) RETURN n.age ORDER BY n.age LIMIT 9",
    "MATCH (n:Person) RETURN n.name ORDER BY n.name SKIP 5 LIMIT 7",
    # distinct, in first-appearance order
    "MATCH (n:Person) RETURN DISTINCT n.age",
    "MATCH (n:Person) RETURN DISTINCT n.name, n.grp",
    # nulls
    "MATCH (n:Person) WHERE n.age IS NULL RETURN n.name",
    "MATCH (n:Person) OPTIONAL MATCH (n)-[:KNOWS]->(m) RETURN n.name, m.name",
    "MATCH (n:Person) RETURN n.name SKIP 13 LIMIT 40",
    # cartesian products and unions
    "MATCH (a:Ghost), (b:Person) WHERE b.grp = 4 RETURN a.name, b.name",
    "MATCH (n:Person) RETURN n.name AS name UNION MATCH (n:Ghost) RETURN n.name AS name",
    # expression work
    "MATCH (n:Person) RETURN n.name, CASE WHEN n.age > 8 THEN 'hi' ELSE 'lo' END",
    "MATCH (n:Person) WITH n.age AS age WHERE age > 3 RETURN age, age * 2",
]


@pytest.fixture(scope="module")
def embedded():
    d = GraphDB("diff-concurrent", GraphConfig(node_capacity=512))
    for q in SETUP:
        d.query(q)
    return d


@pytest.fixture(scope="module")
def server():
    srv = RedisLikeServer(port=0, config=GraphConfig(thread_count=4, node_capacity=512)).start()
    time.sleep(0.05)
    with RedisClient(port=srv.port) as c:
        for q in SETUP:
            c.graph_query("g", q)
    yield srv
    srv.stop()


def _hammer(server, query, params=None):
    """Send read-only `query` from N_CLIENTS connections at once,
    N_ROUNDS each; return every reply's rows."""
    replies, errors = [], []
    barrier = threading.Barrier(N_CLIENTS, timeout=30)

    def client():
        try:
            with RedisClient(port=server.port) as c:
                barrier.wait()
                for _ in range(N_ROUNDS):
                    replies.append(c.graph_ro_query("g", query, params).rows)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(N_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert len(replies) == N_CLIENTS * N_ROUNDS
    return replies


def _rows(result):
    """Embedded rows as they read after a RESP round trip (floats travel
    as bulk strings, booleans as integers)."""
    parser = RespParser()
    parser.feed(encode([list(row) for row in result.rows]))
    return [tuple(row) for row in parser.parse_one()]


@pytest.mark.parametrize("query", QUERIES)
def test_concurrent_replies_match_embedded(embedded, server, query):
    expected = _rows(embedded.query(query))
    for got in _hammer(server, query):
        assert got == expected, query


def test_concurrent_params_match_embedded(embedded, server):
    q = "MATCH (n:Person) WHERE n.age > $lo RETURN n.name, n.age"
    expected = _rows(embedded.ro_query(q, {"lo": 10}))
    for got in _hammer(server, q, {"lo": 10}):
        assert got == expected


def test_different_queries_do_not_cross(server):
    """Each connection asks for a different group at the same time; no
    reply may carry another connection's answer."""
    errors = []
    barrier = threading.Barrier(5, timeout=30)

    def worker(grp):
        try:
            with RedisClient(port=server.port) as c:
                q = f"MATCH (n:Person) WHERE n.grp = {grp} RETURN {grp}, count(n)"
                barrier.wait()
                for _ in range(5):
                    assert c.graph_ro_query("g", q).rows == [(grp, 40)]
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(g,)) for g in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
