"""Planner statistics, derived from storage (the cost-based planner's input).

The core invariant: after ANY sequence of writes — per-entity creates and
deletes, label add/remove, parallel edges, self-loops, DETACH DELETE,
bulk commits, a save → load round trip — ``StatisticsStore.snapshot()``
reports exactly what a plain-Python model of those writes says the graph
holds.  A hypothesis state machine checks it after every step, at delta
flush thresholds that keep the overlays dirty or flush on every write.
Further families pin the snapshot's fields on fixed graphs, the epoch's
drift rule, recovery after a kill, reads that build no transpose, and
compilation racing a writer.
"""

import io
import random
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test

from repro import GraphDB
from repro.graph import BulkWriter, Graph, GraphConfig

LABELS = ("A", "B")
TYPES = ("R", "S")


def fields(snap) -> dict:
    """The snapshot's planner-visible numbers as one comparable dict."""
    return {
        "node_count": snap.node_count,
        "edge_count": snap.edge_count,
        "label_counts": dict(snap.label_counts),
        "rels": {t: (r.edges, r.entries, r.out_nodes, r.in_nodes) for t, r in snap.rels.items()},
        "indexes": {k: (d["size"], d["ndv"]) for k, d in snap.index_details.items()},
    }


class StatsModel:
    """Nodes with their label sets and edges with their endpoints: the
    graph as a list of writes leaves it."""

    def __init__(self) -> None:
        self.labels = {}  # node id -> set of labels
        self.edges = {}  # edge id -> (src, dst, type)
        self.types = set()  # every type an edge was ever created with

    def add_edge(self, eid, src, dst, rtype):
        self.edges[eid] = (src, dst, rtype)
        self.types.add(rtype)

    def incident(self, nid):
        return [e for e, (s, d, _) in self.edges.items() if nid in (s, d)]

    def expected(self) -> dict:
        label_counts = Counter(l for ls in self.labels.values() for l in ls)
        rels = {}
        for rtype in self.types:
            mine = [(s, d) for s, d, t in self.edges.values() if t == rtype]
            pairs = set(mine)
            rels[rtype] = (len(mine), len(pairs), len({s for s, _ in pairs}), len({d for _, d in pairs}))
        return {
            "node_count": len(self.labels),
            "edge_count": len(self.edges),
            "label_counts": dict(label_counts),
            "rels": rels,
            "indexes": {},
        }

    def size(self) -> int:
        """What the epoch's drift rule measures: nodes plus distinct pairs."""
        return len(self.labels) + len({(s, d, t) for s, d, t in self.edges.values()})


class StatisticsMachine(RuleBasedStateMachine):
    max_pending = 10_000

    def __init__(self) -> None:
        super().__init__()
        self.db = GraphDB("stats", GraphConfig(node_capacity=4, delta_max_pending=self.max_pending))
        self.model = StatsModel()
        self.last_epoch = 0

    @property
    def graph(self):
        return self.db.graph

    def _pick_node(self, data):
        return data.draw(st.sampled_from(sorted(self.model.labels)))

    # -- writes ---------------------------------------------------------
    @rule(labels=st.sets(st.sampled_from(LABELS)))
    def create_node(self, labels):
        nid = self.graph.create_node(sorted(labels)).id
        self.model.labels[nid] = set(labels)

    @precondition(lambda self: any(not self.model.incident(n) for n in self.model.labels))
    @rule(data=st.data())
    def delete_node(self, data):
        nid = data.draw(st.sampled_from(sorted(n for n in self.model.labels if not self.model.incident(n))))
        self.graph.delete_node(nid)
        del self.model.labels[nid]

    @precondition(lambda self: self.model.labels)
    @rule(data=st.data(), label=st.sampled_from(LABELS))
    def add_label(self, data, label):
        nid = self._pick_node(data)
        self.graph.add_label(nid, label)
        self.model.labels[nid].add(label)

    @precondition(lambda self: self.model.labels)
    @rule(data=st.data(), label=st.sampled_from(LABELS))
    def remove_label(self, data, label):
        nid = self._pick_node(data)
        self.db.query(f"MATCH (n) WHERE id(n) = $n REMOVE n:{label}", {"n": nid})
        self.model.labels[nid].discard(label)

    @precondition(lambda self: self.model.labels)
    @rule(data=st.data(), rtype=st.sampled_from(TYPES))
    def create_edge(self, data, rtype):
        src, dst = self._pick_node(data), self._pick_node(data)
        self.model.add_edge(self.graph.create_edge(src, rtype, dst).id, src, dst, rtype)

    @precondition(lambda self: self.model.labels)
    @rule(data=st.data(), rtype=st.sampled_from(TYPES))
    def self_loop(self, data, rtype):
        nid = self._pick_node(data)
        eid = self.db.query(
            f"MATCH (a) WHERE id(a) = $a CREATE (a)-[r:{rtype}]->(a) RETURN id(r)", {"a": nid}
        ).scalar()
        self.model.add_edge(eid, nid, nid, rtype)

    @precondition(lambda self: self.model.edges)
    @rule(data=st.data())
    def parallel_edge(self, data):
        src, dst, rtype = self.model.edges[data.draw(st.sampled_from(sorted(self.model.edges)))]
        self.model.add_edge(self.graph.create_edge(src, rtype, dst).id, src, dst, rtype)

    @precondition(lambda self: self.model.edges)
    @rule(data=st.data())
    def delete_edge(self, data):
        eid = data.draw(st.sampled_from(sorted(self.model.edges)))
        self.graph.delete_edge(eid)
        del self.model.edges[eid]

    @precondition(lambda self: self.model.labels)
    @rule(data=st.data())
    def detach_delete(self, data):
        nid = self._pick_node(data)
        self.db.query("MATCH (n) WHERE id(n) = $n DETACH DELETE n", {"n": nid})
        for eid in self.model.incident(nid):
            del self.model.edges[eid]
        del self.model.labels[nid]

    @rule(data=st.data(), fresh=st.integers(0, 3), labels=st.sets(st.sampled_from(LABELS)))
    def bulk_commit(self, data, fresh, labels):
        """A BulkWriter commit: new nodes, then edges of one type among
        old and new nodes, repeats and self-loops included."""
        writer = BulkWriter(self.graph)
        writer.add_nodes(count=fresh, labels=sorted(labels))
        for nid in writer.commit().node_ids.tolist():
            self.model.labels[nid] = set(labels)
        ids = sorted(self.model.labels)
        if not ids:
            return
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=5))
        rtype = data.draw(st.sampled_from(TYPES))
        if not pairs:
            return
        before = set(self.graph._edges.ids())
        writer = BulkWriter(self.graph)
        writer.add_edges(rtype, [s for s, _ in pairs], [d for _, d in pairs], endpoints="graph")
        writer.commit()
        for eid in sorted(set(self.graph._edges.ids()) - before):
            self.model.add_edge(eid, *self.graph.edge_endpoints(eid), rtype)

    @rule()
    def save_and_load(self):
        buf = io.BytesIO()
        self.db.save(buf)
        buf.seek(0)
        self.db = GraphDB.load(buf)  # the config travels in the file
        self.last_epoch = 0  # a loaded graph starts its own epoch count

    # -- reads ----------------------------------------------------------
    @invariant()
    def snapshot_matches_model(self):
        stats = self.graph.stats
        snap = stats.snapshot()
        assert fields(snap) == self.model.expected()
        # the epoch never goes back, and after a read the graph's size is
        # inside the drift band around the size the epoch last moved at
        assert snap.epoch >= self.last_epoch
        self.last_epoch = snap.epoch
        n, anchor = self.model.size(), stats._epoch_anchor
        assert anchor - max(64, anchor // 2) <= n <= anchor + max(64, anchor)


@pytest.mark.parametrize("max_pending", [1, 3, 10_000])
def test_snapshot_matches_model(max_pending):
    machine = type("Machine", (StatisticsMachine,), {"max_pending": max_pending})
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=10,
            stateful_step_count=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


class TestSnapshot:
    def test_names_counts_and_indexes(self):
        db = GraphDB("s")
        db.query("UNWIND range(0, 2) AS i CREATE (:Person {name: 'p' + toString(i)})")
        db.query("CREATE (:City {name: 'x'})")
        db.query("MATCH (p:Person), (c:City) CREATE (p)-[:LIVES_IN]->(c)")
        db.query("CREATE INDEX ON :Person(name)")
        snap = db.graph.stats.snapshot()
        assert snap.label_counts == {"Person": 3, "City": 1}
        assert snap.node_count == 4
        rel = snap.rels["LIVES_IN"]
        assert (rel.edges, rel.entries, rel.out_nodes, rel.in_nodes) == (3, 3, 3, 1)
        detail = snap.index_details[("Person", ("name",), "range")]
        assert (detail["size"], detail["ndv"]) == (3, 3)

    def test_multi_edge_entry_counting(self):
        """Parallel edges share one matrix entry: the edge count moves per
        edge, entries and distinct endpoints only when the last sibling goes."""
        g = Graph("s", GraphConfig(node_capacity=16))
        a, b = g.create_node().id, g.create_node().id
        e1 = g.create_edge(a, "R", b)
        e2 = g.create_edge(a, "R", b)

        def rel():
            r = g.stats.snapshot().rels["R"]
            return r.edges, r.entries, r.out_nodes, r.in_nodes

        assert rel() == (2, 1, 1, 1)
        g.delete_edge(e1.id)
        assert rel() == (1, 1, 1, 1)  # the sibling keeps the entry
        g.delete_edge(e2.id)
        assert rel() == (0, 0, 0, 0)

    def test_bulk_multi_edges(self):
        """Bulk parallel edges: one record each, one matrix entry per pair."""
        g = Graph("s", GraphConfig(node_capacity=64))
        w = BulkWriter(g)
        w.add_nodes(count=10, labels=["V"])
        w.add_edges("E", [0, 1, 0], [1, 2, 1])
        w.commit(lock=False)
        rel = g.stats.snapshot().rels["E"]
        assert (rel.edges, rel.entries, rel.out_nodes, rel.in_nodes) == (3, 2, 2, 2)

    def test_snapshot_is_insulated_from_later_writes(self):
        db = GraphDB("s")
        db.query("CREATE (:A)")
        snap = db.graph.stats.snapshot()
        db.query("UNWIND range(0, 9) AS i CREATE (:A)")
        assert snap.label_counts == {"A": 1}
        assert db.graph.stats.snapshot().label_counts == {"A": 11}

    def test_snapshot_builds_no_transpose_or_merged_keys(self):
        """Counting sources and sinks reads the overlay's rows and column
        indices: neither the flushed base nor the pending deltas get a
        cached transpose, merged key array or materialized matrix."""
        g = Graph("s", GraphConfig(node_capacity=16))
        w = BulkWriter(g)
        w.add_nodes(count=8)
        w.add_edges("R", [0, 0, 1, 2], [1, 2, 2, 3])
        w.commit(lock=False)
        g.create_edge(5, "R", 6)  # a pending add on top of the spliced base
        g.delete_edge(0)  # and a pending delete
        matrix = g._rel_matrices[g.schema.reltype_id("R")]
        rel = g.stats.snapshot().rels["R"]
        assert (rel.entries, rel.out_nodes, rel.in_nodes) == (4, 4, 3)
        view = matrix.overlay()
        assert view._trans is None and view._merged is None and view._mat is None
        assert matrix._base_T is None and matrix._tview_cache is None

    def test_epoch_stable_under_small_writes(self):
        """Plans compiled over a small graph are not thrashed: below the
        64-entity drift floor the epoch never moves."""
        db = GraphDB("s")
        before = db.graph.stats.epoch
        db.query("UNWIND range(0, 19) AS i CREATE (:A)-[:R]->(:B)")
        assert db.graph.stats.epoch == before

    def test_epoch_bumps_on_large_growth(self):
        db = GraphDB("s")
        before = db.graph.stats.epoch
        db.query("UNWIND range(0, 499) AS i CREATE (:A)")
        assert db.graph.stats.epoch > before

    def test_epoch_follows_the_drift_rule(self):
        """A doubling moves the epoch, a further small growth does not, a
        halving moves it again; parallel edges add no matrix entry."""
        g = Graph("s", GraphConfig(node_capacity=16))
        ids = [g.create_node().id for _ in range(100)]
        first = g.stats.epoch
        assert first == 1  # 100 > 0 + 64
        for _ in range(30):
            g.create_node()
        assert g.stats.epoch == first  # 130 is not past 100 + 100
        for _ in range(200):
            g.create_edge(ids[0], "R", ids[1])
        assert g.stats.epoch == first  # one distinct pair
        for i in ids[:95]:
            g.delete_node(i, detach=True)
        assert g.stats.epoch == first + 1  # 35 < 100 - 64

    def test_compiling_while_edges_are_created(self):
        """Compilation takes the read lock for the snapshot while a writer
        creates edges through the write path: no error, no lock wedge."""
        db = GraphDB("s")
        db.query("UNWIND range(0, 199) AS i CREATE (:V)")
        stop = threading.Event()
        errors = []

        def writer():
            rng = random.Random(5)
            try:
                while not stop.is_set():
                    db.query(
                        "MATCH (a:V), (b:V) WHERE id(a) = $s AND id(b) = $d CREATE (a)-[:R]->(b)",
                        {"s": rng.randrange(200), "d": rng.randrange(200)},
                    )
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            deadline = time.monotonic() + 0.5
            compiled = 0
            while time.monotonic() < deadline:
                db.engine.compile(f"MATCH (a:V)-[:R]->(b) WHERE id(a) > {compiled} RETURN count(b)")
                compiled += 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive(), "the writer wedged"
        assert not errors
        assert compiled > 0
        edges = db.query("MATCH ()-[r:R]->() RETURN count(r)").scalar()
        assert db.graph.stats.snapshot().rels["R"].edges == edges > 0


class TestPersistence:
    def _roundtrip(self, db: GraphDB) -> GraphDB:
        buf = io.BytesIO()
        db.save(buf)
        buf.seek(0)
        return GraphDB.load(buf)

    def test_snapshot_restore_keeps_stats(self):
        db = GraphDB("s")
        db.query("UNWIND range(0, 9) AS i CREATE (:P {i: i})")
        db.query("MATCH (a:P), (b:P) WHERE b.i = a.i + 1 CREATE (a)-[:N]->(b)")
        db.query("MATCH (a:P {i: 2}), (b:P {i: 3}) CREATE (a)-[:N]->(b)")  # a parallel edge
        db.query("MATCH (n:P {i: 5}) DETACH DELETE n")
        db.query("CREATE INDEX ON :P(i)")
        db2 = self._roundtrip(db)
        assert fields(db2.graph.stats.snapshot()) == fields(db.graph.stats.snapshot())
        assert db2.graph.stats.snapshot().rels["N"].edges == 8

    def test_bulk_loaded_matrix_stats_survive(self):
        db = GraphDB("s", GraphConfig(node_capacity=64))
        db.bulk_insert(
            nodes=[{"labels": ["V"], "count": 10}],
            edges=[{"type": "E", "src": [0, 1, 2], "dst": [1, 2, 3]}],
        )
        db2 = self._roundtrip(db)
        assert fields(db2.graph.stats.snapshot()) == fields(db.graph.stats.snapshot())

    def test_restored_graph_keeps_counting(self):
        db = self._roundtrip(GraphDB("s"))
        db.query("CREATE (:A)-[:R]->(:B)")
        snap = db.graph.stats.snapshot()
        assert snap.label_counts == {"A": 1, "B": 1}
        assert (snap.rels["R"].edges, snap.rels["R"].entries) == (1, 1)


class TestWalRecovery:
    """Kill-and-restart: the recovered graph (snapshot load plus replayed
    log tail) reports the statistics the live graph had."""

    @pytest.mark.parametrize("save_midway", [False, True], ids=["log-only", "snapshot+tail"])
    def test_stats_identical_after_recovery(self, tmp_path, save_midway):
        from repro.rediskv.client import RedisClient
        from repro.rediskv.server import RedisLikeServer

        def start():
            srv = RedisLikeServer(
                port=0,
                config=GraphConfig(thread_count=2, node_capacity=64, wal_fsync="no"),
                data_dir=str(tmp_path),
            ).start()
            time.sleep(0.02)
            return srv

        srv = start()
        rng = random.Random(3)
        with RedisClient(port=srv.port) as c:
            for i in range(10):
                c.graph_query("g", f"CREATE (:{'A' if i % 2 else 'B'} {{i: {i}}})")
            for _ in range(15):
                c.graph_query(
                    "g",
                    "MATCH (a), (b) WHERE id(a) = $s AND id(b) = $d CREATE (a)-[:R]->(b)",
                    {"s": rng.randrange(10), "d": rng.randrange(10)},
                )
            if save_midway:
                assert c.graph_save("g") == "OK"
            token = c.graph_bulk_begin("g")
            c.graph_bulk_nodes("g", token, count=4, labels=["B"])
            c.graph_bulk_edges("g", token, "S", [0, 1], [2, 3])
            c.graph_bulk_commit("g", token)
            c.graph_query("g", "MATCH (x {i: 4}) DETACH DELETE x")
            expected = fields(srv.keyspace.get_graph("g").graph.stats.snapshot())
        srv.stop()  # "crash": the tail is never snapshotted

        srv2 = start()
        recovered = srv2.keyspace.get_graph("g").graph
        assert fields(recovered.stats.snapshot()) == expected
        srv2.stop()
