"""GraphModule unit tests: reply encoding and module-level behaviour
(without the TCP layer)."""

import sys
import threading
import time

import pytest

from repro.errors import ResponseError
from repro.graph.config import GraphConfig
from repro.rediskv.graph_module import GraphModule, encode_value, parse_cypher_params
from repro.rediskv.keyspace import Keyspace
from repro.rediskv.resp import RespParser, encode


def on_the_wire(reply):
    """A module reply as a client decodes it (entity cells are bytes)."""
    parser = RespParser()
    parser.feed(encode(reply))
    return parser.parse_one()


@pytest.fixture
def module():
    return GraphModule(Keyspace(), GraphConfig(node_capacity=16))


class TestEncodeValue:
    def test_scalars_pass_through(self):
        assert encode_value(5) == 5
        assert encode_value("x") == "x"
        assert encode_value(None) is None
        assert encode_value(2.5) == 2.5

    def test_list_recurses(self):
        assert encode_value([1, [2, None]]) == [1, [2, None]]

    def test_map_becomes_sorted_pairs(self):
        assert encode_value({"b": 2, "a": 1}) == [["a", 1], ["b", 2]]

    def test_node_encoding(self, module):
        module.query("g", "CREATE (:P:Q {b: 2, a: 1})")
        reply = on_the_wire(module.query("g", "MATCH (n:P) RETURN n"))
        node = reply[1][0][0]
        assert node[0] == "node"
        assert sorted(node[2]) == ["P", "Q"]
        assert node[3] == [["a", 1], ["b", 2]]

    def test_edge_encoding(self, module):
        module.query("g", "CREATE (:A)-[:R {w: 1}]->(:B)")
        reply = on_the_wire(module.query("g", "MATCH ()-[e:R]->() RETURN e"))
        edge = reply[1][0][0]
        assert edge[0] == "relationship" and edge[2] == "R"
        assert edge[5] == [["w", 1]]


class TestModuleCommands:
    def test_query_creates_graph_on_first_use(self, module):
        module.query("g", "CREATE (:X)")
        assert module.list_graphs() == ["g"]

    def test_reply_structure(self, module):
        reply = module.query("g", "RETURN 1 AS one")
        header, rows, stats = reply
        assert header == ["one"] and rows == [[1]]
        assert any("execution time" in s for s in stats)

    def test_ro_query_missing_graph(self, module):
        with pytest.raises(ResponseError, match="does not exist"):
            module.ro_query("nope", "MATCH (n) RETURN n")

    def test_explain_lines(self, module):
        module.query("g", "CREATE (:X)")
        lines = module.explain("g", "MATCH (n:X) RETURN n")
        assert any("NodeByLabelScan" in l for l in lines)

    def test_profile_lines(self, module):
        module.query("g", "CREATE (:X)")
        lines = module.profile("g", "MATCH (n:X) RETURN n")
        assert any("Records produced" in l for l in lines)

    def test_delete(self, module):
        module.query("g", "CREATE (:X)")
        assert module.delete("g") == "OK"
        assert module.list_graphs() == []
        with pytest.raises(ResponseError):
            module.delete("g")


class TestParamPrefixEdgeCases:
    def test_negative_numbers(self):
        _, p = parse_cypher_params("CYPHER x=-5 y=-2.5 RETURN 1")
        assert p == {"x": -5, "y": -2.5}

    def test_query_starting_with_word_cypher_lookalike(self):
        # 'CYPHERX' is not the prefix keyword
        q, p = parse_cypher_params("CYPHERX RETURN 1")
        assert p == {} and q.startswith("CYPHERX")

    def test_nested_list(self):
        _, p = parse_cypher_params("CYPHER xs=[1, [2, 3]] RETURN 1")
        assert p == {"xs": [1, [2, 3]]}

    def test_empty_params_section(self):
        q, p = parse_cypher_params("CYPHER   MATCH (n) RETURN n")
        assert p == {} and q.strip() == "MATCH (n) RETURN n"


def test_entity_replies_read_one_committed_state():
    """Readers encode ``RETURN n`` while a writer deletes every node and
    creates the next generation in the freed slots: no reply fails, and
    each one shows a single committed generation whole."""
    module = GraphModule(Keyspace(), GraphConfig())
    create = "UNWIND range(1, 200) AS i CREATE (:P {{gen: {0}, i: i, s: 'g{0}'}})"
    module.query("g", create.format(0))
    writing = threading.Event()
    writing.set()
    errors, replies = [], []

    def write():
        for gen in range(1, 31):
            module.query("g", "MATCH (n:P) DELETE n")
            time.sleep(0.0005)  # the lock prefers writers: leave readers a gap
            module.query("g", create.format(gen))
            time.sleep(0.0005)
        writing.clear()

    def read():
        while writing.is_set():
            try:
                replies.append(on_the_wire(module.query("g", "MATCH (n:P) RETURN n"))[1])
            except Exception as exc:  # noqa: BLE001 - every failure is a finding
                errors.append(exc)

    threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, as a busy server would
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and any(replies)
    for rows in replies:
        props = [dict(map(tuple, row[0][3])) for row in rows]
        assert all(row[0][2] == ["P"] for row in rows)
        assert len({p["gen"] for p in props}) <= 1
        assert sorted(p["i"] for p in props) in ([], list(range(1, 201)))
        assert all(p["s"] == f"g{p['gen']}" for p in props)


def test_readers_are_not_starved_by_a_writer_that_never_pauses():
    """Three readers run 150 ``RETURN n`` each against a writer looping
    DELETE/CREATE with no gap: the readers queued when a write ends get
    the lock before that writer's next write, so all 450 reads finish in
    seconds, and the writer keeps committing while they run."""
    module = GraphModule(Keyspace(), GraphConfig())
    create = "UNWIND range(1, 50) AS i CREATE (:P {{gen: {0}, i: i}})"
    module.query("g", create.format(0))
    reading = threading.Event()
    reading.set()
    writes, gens, errors = [0], set(), []

    def write():
        gen = 0
        while reading.is_set():
            gen += 1
            module.query("g", "MATCH (n:P) DELETE n")
            module.query("g", create.format(gen))
            writes[0] += 2

    def read():
        try:
            for _ in range(150):
                rows = on_the_wire(module.query("g", "MATCH (n:P) RETURN n"))[1]
                gens.update(dict(map(tuple, row[0][3]))["gen"] for row in rows)
        except Exception as exc:  # noqa: BLE001 - every failure is a finding
            errors.append(exc)

    writer = threading.Thread(target=write)
    readers = [threading.Thread(target=read) for _ in range(3)]
    start = time.perf_counter()
    writer.start()
    for t in readers:
        t.start()
    for t in readers:
        t.join(timeout=60)
    elapsed = time.perf_counter() - start
    written = writes[0]
    reading.clear()
    writer.join(timeout=60)
    assert errors == [] and not any(t.is_alive() for t in readers)
    assert elapsed < 5, f"450 reads took {elapsed:.1f} s"
    # the writer was not starved either: it committed all along, and the
    # readers saw several of its generations
    assert written >= 20 and len(gens) >= 3


@pytest.mark.parametrize(
    "query, params",
    [("RETURN 10^400", None), ("UNWIND $xs AS x RETURN sum(x)", {"xs": [10**400]})],
)
def test_numeric_overflow_is_an_error_reply(query, params):
    """A number past float64 comes back over RESP as a Cypher error reply,
    and the connection keeps serving."""
    from repro.rediskv.client import RedisClient
    from repro.rediskv.server import RedisLikeServer

    server = RedisLikeServer(port=0, config=GraphConfig(thread_count=1)).start()
    try:
        with RedisClient(port=server.port) as client:
            with pytest.raises(ResponseError, match="numeric overflow"):
                client.graph_query("g", query, params)
            assert client.graph_query("g", "RETURN 1").rows == [(1,)]
    finally:
        server.stop()
