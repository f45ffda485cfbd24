"""Typed property columns against a dict model.

A hypothesis state machine drives nodes and edges through create, set,
remove, delete (slot reuse included), label adds and a save → load round
trip, and after every step checks the three read paths — the scalar
``node_property``, the whole-entity ``node_properties`` and the columnar
``node_property_column`` (and their edge twins) — against a plain
``{id: {key: value}}`` model: values, nulls and Python types.
"""

import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import EntityNotFound
from repro.execplan.batch import ValueColumn
from repro.graph.graph import Graph
from repro.graph.persist import load_graph, save_graph

KEYS = ("k0", "k1", "k2", "k3")

_scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan")]),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["", "\x00", "a\x00", "héllo"]),
)
VALUES = st.one_of(
    _scalars,
    _scalars,  # scalars twice as likely as containers
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.sampled_from(["a", "b"]), _scalars, max_size=2),
)


def same(a, b) -> bool:
    """Equal in value and in Python type, at any depth (NaN equals NaN,
    -0.0 differs from 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def same_props(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)


class PropertyStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.graph = Graph("oracle")
        self.nodes = {}  # id -> {key: value}
        self.edges = {}  # id -> {key: value}
        self.dead_nodes = set()

    # -- writes ---------------------------------------------------------
    @rule(labels=st.sets(st.sampled_from(["A", "B"])), props=st.dictionaries(st.sampled_from(KEYS), VALUES))
    def create_node(self, labels, props):
        node = self.graph.create_node(sorted(labels), props)
        self.nodes[node.id] = dict(props)
        self.dead_nodes.discard(node.id)

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), props=st.dictionaries(st.sampled_from(KEYS), VALUES))
    def create_edge(self, data, props):
        ids = sorted(self.nodes)
        src = data.draw(st.sampled_from(ids))
        dst = data.draw(st.sampled_from(ids))
        edge = self.graph.create_edge(src, "R", dst, props)
        self.edges[edge.id] = dict(props)

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), key=st.sampled_from(KEYS), value=st.one_of(st.none(), VALUES))
    def set_node(self, data, key, value):
        nid = data.draw(st.sampled_from(sorted(self.nodes)))
        self.graph.set_node_property(nid, key, value)
        if value is None:
            self.nodes[nid].pop(key, None)
        else:
            self.nodes[nid][key] = value

    @precondition(lambda self: self.edges)
    @rule(data=st.data(), key=st.sampled_from(KEYS), value=st.one_of(st.none(), VALUES))
    def set_edge(self, data, key, value):
        eid = data.draw(st.sampled_from(sorted(self.edges)))
        self.graph.set_edge_property(eid, key, value)
        if value is None:
            self.edges[eid].pop(key, None)
        else:
            self.edges[eid][key] = value

    @precondition(lambda self: self.nodes)
    @rule(data=st.data())
    def delete_node(self, data):
        nid = data.draw(st.sampled_from(sorted(self.nodes)))
        for eid in set(self.graph.out_edges(nid)) | set(self.graph.in_edges(nid)):
            del self.edges[eid]
        self.graph.delete_node(nid, detach=True)
        del self.nodes[nid]
        self.dead_nodes.add(nid)

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def delete_edge(self, data):
        eid = data.draw(st.sampled_from(sorted(self.edges)))
        self.graph.delete_edge(eid)
        del self.edges[eid]

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), label=st.sampled_from(["A", "B", "C"]))
    def add_label(self, data, label):
        self.graph.add_label(data.draw(st.sampled_from(sorted(self.nodes))), label)

    @rule()
    def save_and_load(self):
        buf = io.BytesIO()
        save_graph(self.graph, buf)
        buf.seek(0)
        self.graph = load_graph(buf)

    # -- reads ----------------------------------------------------------
    def _check(self, model, one, whole, column):
        for eid, props in model.items():
            assert same_props(whole(eid), props), (eid, whole(eid), props)
            for key in KEYS:
                assert same(one(eid, key), props.get(key)), (eid, key)
        ids = np.array(sorted(model) + [-1], dtype=np.int64)
        for key in KEYS + ("never_set",):
            values, nulls, codes = column(ids, key)
            got = ValueColumn(values, nulls).to_objects().tolist()
            want = [model[i].get(key) for i in ids[:-1].tolist()] + [None]
            assert all(same(g, w) for g, w in zip(got, want)), (key, got, want)
            if codes is not None:
                assert codes.dtype == np.int32 and ((codes < 0) == (np.asarray(got, dtype=object) == None)).all()  # noqa: E711

    @invariant()
    def reads_match_model(self):
        g = self.graph
        self._check(self.nodes, g.node_property, g.node_properties, g.node_property_column)
        self._check(self.edges, g.edge_property, g.edge_properties, g.edge_property_column)
        for nid in self.dead_nodes - set(self.nodes):
            with pytest.raises(EntityNotFound):
                g.node_property_column([nid], KEYS[0])


TestPropertyStoreMachine = PropertyStoreMachine.TestCase
TestPropertyStoreMachine.settings = settings(
    max_examples=30,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTypedGather:
    """Contract: a single-typed column gathers in its own dtype, so a
    silent fall-back to ``object`` shows up here."""

    def test_int_attribute_gathers_as_int64(self):
        g = Graph("t")
        ids = [g.create_node(["L"], {"v": i}).id for i in range(5)]
        g.create_node(["L"], {})
        values, nulls, codes = g.node_property_column(np.array(ids + [5, -1]), "v")
        assert values.dtype == np.int64 and codes is None
        assert values.tolist() == [0, 1, 2, 3, 4, 0, 0] and nulls.tolist() == [False] * 5 + [True, True]

    def test_float_and_bool_attributes_keep_their_dtypes(self):
        g = Graph("t")
        a = g.create_node([], {"f": 1.5, "b": True})
        b = g.create_node([], {"f": -0.0, "b": False})
        ids = np.array([a.id, b.id])
        assert g.node_property_column(ids, "f")[0].dtype == np.float64
        assert g.node_property_column(ids, "b")[0].dtype == np.bool_

    def test_string_attribute_gathers_with_codes(self):
        g = Graph("t")
        ids = [g.create_node([], {"city": c}).id for c in ["x", "y", "x", "z"]]
        g.create_node([], {})
        values, nulls, codes = g.node_property_column(np.array(ids + [4]), "city")
        assert codes.dtype == np.int32
        assert values.tolist() == ["x", "y", "x", "z", None]
        assert codes[0] == codes[2] and len({int(c) for c in codes[:4]}) == 3 and codes[4] == -1

    def test_edge_attribute_gathers_typed(self):
        g = Graph("t")
        a, b = g.create_node(), g.create_node()
        e = g.create_edge(a.id, "R", b.id, {"w": 3})
        values, nulls, _ = g.edge_property_column(np.array([e.id]), "w")
        assert values.dtype == np.int64 and values.tolist() == [3] and nulls is None

    def test_second_type_promotes_to_object_and_keeps_values(self):
        g = Graph("t")
        a = g.create_node([], {"v": 1})
        b = g.create_node([], {"v": 2**70})  # past int64
        c = g.create_node([], {"v": "s"})
        values, _, codes = g.node_property_column(np.array([a.id, b.id, c.id]), "v")
        assert values.dtype == object and codes is None
        assert [type(v) for v in values] == [int, int, str] and values.tolist() == [1, 2**70, "s"]

    def test_deleted_entity_leaves_nothing_to_a_reused_slot(self):
        g = Graph("t")
        a = g.create_node([], {"v": 1, "s": "x"})
        g.delete_node(a.id)
        b = g.create_node([], {})
        assert b.id == a.id and g.node_properties(b.id) == {}

    def test_string_pool_is_rebuilt_when_mostly_dead(self):
        from repro.graph import properties

        g = Graph("t")
        n = g.create_node([], {})
        for i in range(10 * (properties._POOL_FLOOR + 1)):
            g.set_node_property(n.id, "s", f"v{i}")
        column = g._nodes.store._cols[g.attrs.lookup("s")]
        assert len(column.pool) <= properties.POOL_SLACK * column.live + properties._POOL_FLOOR + 1
        assert g.node_property(n.id, "s") == f"v{10 * (properties._POOL_FLOOR + 1) - 1}"


FIXTURE = Path(__file__).parent / "data" / "snapshot_v2.npz"


def test_v2_snapshot_written_before_typed_columns_loads_equal():
    """``data/snapshot_v2.npz`` was written by the per-entity-dict build
    (format v2, unchanged since) with::

        g = Graph("fixture")
        a = g.create_node(["P"], {"i": 7, "f": 2.5, "b": True, "s": "héllo",
                                  "l": [1, "x", [2.0]], "m": {"k": [False]}})
        b = g.create_node(["P"], {"i": -(2**63), "f": float("-inf"), "b": False,
                                  "s": "", "z": "a\\x00b"})
        gone = g.create_node(["P"], {"i": 99, "s": "deleted"})
        c = g.create_node([], {"i": 2**63 - 1, "f": -0.0, "mixed": 1})
        d = g.create_node(["P"], {"mixed": "one", "s": "héllo"})
        g.set_node_property(d.id, "f", 1e300)
        g.set_node_property(a.id, "gone", None)
        g.create_edge(a.id, "R", b.id, {"w": 1.5, "tag": "r1"})
        g.create_edge(b.id, "R", c.id, {"w": 3, "tag": True})
        g.create_edge(c.id, "R", a.id, {})
        g.delete_node(gone.id)
        g.create_index("P", "i")
        save_graph(g, "snapshot_v2.npz")
    """
    g = load_graph(FIXTURE)
    nodes = {
        0: {"i": 7, "f": 2.5, "b": True, "s": "héllo", "l": [1, "x", [2.0]], "m": {"k": [False]}},
        1: {"i": -(2**63), "f": float("-inf"), "b": False, "s": "", "z": "a\x00b"},
        3: {"i": 2**63 - 1, "f": -0.0, "mixed": 1},
        4: {"mixed": "one", "s": "héllo", "f": 1e300},
    }
    assert g.all_node_ids().tolist() == sorted(nodes)
    for nid, props in nodes.items():
        assert same_props(g.node_properties(nid), props), nid
    edges = {0: (0, 1, {"w": 1.5, "tag": "r1"}), 1: (1, 3, {"w": 3, "tag": True}), 2: (3, 0, {})}
    for eid, (src, dst, props) in edges.items():
        assert g.edge_endpoints(eid) == (src, dst)
        assert same_props(g.edge_properties(eid), props), eid
    assert g.get_index("P", "i").seek_eq(7).tolist() == [0]
    # the reloaded columns are typed where one type was written
    assert g.node_property_column(np.array([0, 1, 3]), "i")[0].dtype == np.int64
    assert g.node_property_column(np.array([0, 1]), "s")[2] is not None
    # and a second round trip through the typed capture is lossless
    buf = io.BytesIO()
    save_graph(g, buf)
    buf.seek(0)
    again = load_graph(buf)
    for nid, props in nodes.items():
        assert same_props(again.node_properties(nid), props), nid


def test_unlocked_reads_never_see_a_torn_cell():
    """Embedded API handles read entity properties outside any query's
    lock, so one-cell reads race writes.  A writer flips an int and a string
    property between absent and ever-new values (the string forcing pool
    rebuilds) while readers take ``node_properties`` without a lock: every
    read must be a state some write produced — never a blank cell's 0."""
    import sys
    import threading

    g = Graph("race")
    node = g.create_node([], {})
    stop = threading.Event()
    seen_bad = []

    def writer():
        i = 0
        while not stop.is_set():
            i += 1
            g.set_node_property(node.id, "n", i if i % 2 else None)
            g.set_node_property(node.id, "s", f"v{i}" if i % 3 else None)

    def reader():
        while not stop.is_set():
            props = g.node_properties(node.id)
            n, s = props.get("n", 1), props.get("s", "v")
            if type(n) is not int or n < 1 or type(s) is not str or not s.startswith("v"):
                seen_bad.append(props)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        stop.wait(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not seen_bad, seen_bad[:5]
