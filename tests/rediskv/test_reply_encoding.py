"""The server's reply path (entity columns written as RESP bytes from the
property store, one joined ``encode``) against the recursive reference
encoder in ``reply_oracle.py``: byte for byte, at the row-at-a-time and
the default batch size."""

import pytest

from repro.graph.config import GraphConfig
from repro.rediskv.graph_module import GraphModule, encode_value
from repro.rediskv.keyspace import Keyspace
from repro.rediskv.resp import encode
from tests.rediskv import reply_oracle

# values the typed columns must hand back exactly: NaN, -0.0, a float
# that repr()s in exponent form, ints past 2**53 and past int64 (the
# latter promotes its column to object), the empty string, NUL, unicode;
# typed int/float/bool/string columns, object columns and absent cells
NODES = [
    (
        "CREATE (:P {f: $nan, g: $negz, h: $big, i: $i53, s: '', u: $u, z: $z, l: $l, o: 1, k: 7})",
        {"nan": float("nan"), "negz": -0.0, "big": 1e16, "i53": 2**53 + 1,
         "u": "héllo ✓ 日本 🙂", "z": "a\x00b", "l": [1, [2.5, "x"], [], None]},
    ),
    ("CREATE (:P:Q {i: $i64, s: 'x', b: true, o: 'one', f: 1.5, k: -3})", {"i64": 2**63 + 5}),
    ("CREATE (:Q {b: false, f: -0.0, l: [true, {}]})", {}),
    ("CREATE ()", {}),
]
EDGES = [
    "MATCH (a:P {s: ''}), (b:Q {s: 'x'}) CREATE (a)-[:R {w: 1, t: 'x', z: -0.5, n: 1}]->(b)",
    "MATCH (a:Q {s: 'x'}), (b:Q {b: false}) CREATE (a)-[:S]->(b)",
    "MATCH (a:Q {b: false}), (b:P {s: ''}) CREATE (a)-[:R {w: 2.5, t: '', n: -2}]->(b)",
    "MATCH (a) WHERE a.b IS NULL AND a.s IS NULL CREATE (a)-[:R {w: 3}]->(a)",
    # '%' in a label, type or key must not leak into the %-templates
    "CREATE (:`L%s` {`pct%d`: 5, p: '100%'})-[:`R%d` {`w%`: 1}]->(:`L%s`)",
]
QUERIES = [
    "MATCH (n) RETURN n ORDER BY id(n)",
    "MATCH ()-[r]->() RETURN r ORDER BY id(r)",
    "MATCH p = (a)-[r]->(b) RETURN p, a, r ORDER BY id(r)",
    "MATCH p = (a:P)-[*1..3]->(b) RETURN p",
    "MATCH (n) RETURN collect(n) AS ns",
    "MATCH ()-[r]->() RETURN collect(r) AS rs, count(r) AS c",
    "MATCH (n) RETURN {node: n, pair: [n, null], k: 1} AS m ORDER BY id(n)",
    "MATCH (a)-[r]->(b) RETURN [a, r, b] AS mixed, {r: r} AS m ORDER BY id(r)",
    "MATCH (n:P) OPTIONAL MATCH (n)-[r:S]->(m) RETURN n, r, m ORDER BY id(n)",
    "MATCH (n) OPTIONAL MATCH (n)-[:NOPE]->(m) RETURN m, [m], n.f ORDER BY id(n)",
    "MATCH (n) RETURN n.f, n.g, n.h, n.i, n.s, n.u, n.z, n.l, n.o, n.b, n.k ORDER BY id(n)",
    "UNWIND [1, 'x', null, 2.5, true, [1, [2, null]], {b: 2, a: {c: []}}] AS v RETURN v",
    "MATCH (n) WHERE n.i > 0 RETURN n, n.i ORDER BY id(n)",
    "MATCH (n) RETURN n LIMIT 0",
]


@pytest.fixture(scope="module", params=[1, 1024], ids=["batch1", "batch1024"])
def module(request):
    module = GraphModule(Keyspace(), GraphConfig(exec_batch_size=request.param))
    db = module._graph("g")
    for text, params in NODES:
        db.query(text, params)
    for text in EDGES:
        assert db.query(text).stats.relationships_created == 1
    db.query("MATCH (n:P {s: 'x'}) SET n.gone = 1")
    db.query("MATCH (n:P {s: 'x'}) REMOVE n.gone")
    return module


@pytest.mark.parametrize("query", QUERIES)
def test_reply_is_byte_identical_to_the_recursive_encoder(module, query):
    reply = module.query("g", query)
    expected = reply_oracle.reply_head(module._graph("g").query(query))
    assert encode(reply[:2]) == expected


def test_entities_inside_values_take_the_column_encoder(module):
    db = module._graph("g")
    (nodes, edges), = db.query("MATCH (n) WITH collect(n) AS ns MATCH ()-[r]->() RETURN ns, collect(r)").rows
    for value in (nodes, edges, nodes[0], edges[-1], {"x": nodes[1:], "y": [edges[0], None]}, [nodes[2], edges[1]]):
        assert encode(encode_value(value)) == reply_oracle.encode(reply_oracle.encode_value(value))


@pytest.mark.parametrize(
    "value",
    [None, True, False, 0, -(2**70), 2**64, 1.0, float("inf"), "", "é\r\n", b"\xff", [], [[[]]], ("a", 1)],
)
def test_encode_scalars_and_nesting(value):
    assert encode(value) == reply_oracle.encode(value)
