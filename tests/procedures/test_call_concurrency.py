"""Writers concurrent with algorithm procedures over a live RESP socket.

Algorithm procs read adjacency through flush-free overlay views under
the graph's read lock, so a CALL running while writers append must see a
consistent snapshot: never a partial write, never an error, and node
counts that only grow between successive reads on one connection.
"""

import threading
import time

import pytest

from repro.graph.config import GraphConfig
from repro.rediskv.client import RedisClient
from repro.rediskv.server import RedisLikeServer


@pytest.fixture(scope="module")
def server():
    cfg = GraphConfig(thread_count=4, node_capacity=4096)
    srv = RedisLikeServer(port=0, config=cfg).start()
    time.sleep(0.05)
    yield srv
    srv.stop()


def test_algo_procs_snapshot_isolated_under_writes(server):
    seed = RedisClient(port=server.port)
    try:
        seed.execute("FLUSHALL")
        seed.graph_query(
            "iso", "UNWIND range(0, 63) AS i CREATE (:N {v: i})"
        )
        seed.graph_query(
            "iso",
            "MATCH (a:N), (b:N) WHERE b.v = a.v + 1 CREATE (a)-[:R]->(b)",
        )
    finally:
        seed.close()

    stop = threading.Event()
    errors = []

    def writer(idx):
        c = RedisClient(port=server.port)
        try:
            for i in range(40):
                if stop.is_set():
                    break
                base = 1000 * (idx + 1) + 10 * i
                c.graph_query(
                    "iso",
                    f"CREATE (:N {{v: {base}}})-[:R]->(:N {{v: {base + 1}}})",
                )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
        finally:
            c.close()

    def reader(query, check):
        c = RedisClient(port=server.port)
        try:
            prev = -1
            while not stop.is_set():
                rows = c.graph_query("iso", query).rows
                prev = check(rows, prev)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
        finally:
            c.close()

    def check_wcc(rows, prev):
        # every live node appears exactly once, count never shrinks
        total = sum(int(r[1]) for r in rows)
        assert total >= max(prev, 64)
        return total

    def check_pagerank(rows, prev):
        (count,) = rows[0]
        assert int(count) >= max(prev, 64)
        return int(count)

    readers = [
        threading.Thread(
            target=reader,
            args=(
                "CALL algo.wcc() YIELD node, componentId "
                "RETURN componentId, count(node)",
                check_wcc,
            ),
        ),
        threading.Thread(
            target=reader,
            args=("CALL algo.pagerank() YIELD node RETURN count(node)", check_pagerank),
        ),
    ]
    writers = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert not errors

    final = RedisClient(port=server.port)
    try:
        rows = final.graph_query(
            "iso", "CALL algo.wcc() YIELD node RETURN count(node)"
        ).rows
        # 64 seed nodes + 2 writers x 40 iterations x 2 nodes
        assert rows[0][0] == 64 + 2 * 40 * 2
    finally:
        final.close()


def test_call_and_path_encode_over_resp(server):
    c = RedisClient(port=server.port)
    try:
        c.graph_query("wire", "CREATE (:A {name: 'a'})-[:R]->(:B {name: 'b'})")
        rows = c.graph_query(
            "wire", "CALL db.labels() YIELD label RETURN label ORDER BY label"
        ).rows
        assert [tuple(r) for r in rows] == [("A",), ("B",)]
        rows = c.graph_query(
            "wire",
            "MATCH (a:A), (b:B) CALL algo.shortestPath(a, b) YIELD path, length "
            "RETURN path, length",
        ).rows
        ((encoded, length),) = rows
        assert length == 1
        kind, nodes, edges = encoded
        assert kind == "path"
        assert [n[0] for n in nodes] == ["node", "node"]
        assert [e[0] for e in edges] == ["relationship"]
    finally:
        c.close()
