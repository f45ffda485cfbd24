"""Live-socket concurrency tests for the server.

One I/O event loop feeding a multi-thread module pool, hammered by
concurrent clients over real TCP connections: every reply must be
correct and per-connection reply order must hold while queries from
other connections complete out of order on the pool.
"""

import threading
import time

import pytest

from repro.graph.config import GraphConfig
from repro.rediskv.client import RedisClient
from repro.rediskv.server import RedisLikeServer


@pytest.fixture(scope="module")
def server():
    cfg = GraphConfig(thread_count=3, node_capacity=1024)
    srv = RedisLikeServer(port=0, config=cfg).start()
    time.sleep(0.05)
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = RedisClient(port=server.port)
    c.execute("FLUSHALL")
    yield c
    c.close()


def test_reply_order_under_slow_query(server, client):
    """Pipelined slow-query-then-PING on several connections: the module
    reply must never be overtaken by the inline PING."""
    client.graph_query("g", "UNWIND range(1, 2000) AS x CREATE (:M {v: x})")
    from repro.rediskv.resp import encode

    for _ in range(4):
        c = RedisClient(port=server.port)
        try:
            c._sock.sendall(
                encode(["GRAPH.QUERY", "g", "MATCH (a:M) RETURN count(a)"])
                + encode(["PING"])
            )
            first = c._read_reply()
            second = c._read_reply()
            assert first[1][0][0] == 2000
            assert str(second) == "PONG"
        finally:
            c.close()


def test_concurrent_clients_stress(server, client):
    """Readers and writers from many live connections at once; final
    state and every intermediate reply must be consistent."""
    client.graph_query("shared", "UNWIND range(1, 200) AS i CREATE (:S {v: i})")
    errors = []
    N_CLIENTS, N_OPS = 6, 8

    def reader(idx):
        try:
            c = RedisClient(port=server.port)
            for _ in range(N_OPS):
                total = c.graph_ro_query("shared", "MATCH (n:S) RETURN sum(n.v)").scalar()
                assert total == 20100
                ordered = c.graph_query(
                    "shared", "MATCH (n:S) WHERE n.v <= 10 RETURN n.v"
                ).rows
                assert [r[0] for r in ordered] == list(range(1, 11))
            c.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def writer(idx):
        try:
            c = RedisClient(port=server.port)
            for k in range(N_OPS):
                r = c.graph_query("shared", f"CREATE (:W {{tid: {idx}, op: {k}}})")
                assert r.stat("Nodes created") == "1"
            c.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader if i % 2 else writer, args=(i,))
        for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    made = client.graph_query("shared", "MATCH (w:W) RETURN count(w)").scalar()
    assert made == (N_CLIENTS // 2) * N_OPS


def test_plain_commands_from_many_clients(server):
    """SET/GET/DEL from concurrent clients, interleaved on the one I/O
    loop, each see their own writes."""
    errors = []

    def worker(idx):
        try:
            c = RedisClient(port=server.port)
            for k in range(25):
                key = f"k:{idx}:{k}"
                assert c.set(key, str(k)) == "OK"
                assert c.get(key) == str(k)
                assert c.delete(key) == 1
            c.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
