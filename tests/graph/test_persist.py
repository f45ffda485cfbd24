"""Graph persistence round-trip tests (save_graph / load_graph)."""

import io
import json
import threading
import time

import numpy as np
import pytest

from repro import GraphDB
from repro.errors import GraphError
from repro.graph.config import GraphConfig
from repro.graph.persist import load_graph, save_graph


def roundtrip(db: GraphDB) -> GraphDB:
    buf = io.BytesIO()
    db.save(buf)
    buf.seek(0)
    return GraphDB.load(buf)


class TestRoundTrip:
    def test_empty_graph(self):
        db = GraphDB("empty")
        db2 = roundtrip(db)
        assert db2.graph.name == "empty"
        assert db2.graph.node_count == 0

    def test_nodes_and_properties(self):
        db = GraphDB("g")
        db.query("CREATE (:Person {name:'Ann', age: 30, tags: ['a', 'b'], meta: {x: 1}})")
        db2 = roundtrip(db)
        node = db2.query("MATCH (n:Person) RETURN n").scalar()
        assert node.properties == {"name": "Ann", "age": 30, "tags": ["a", "b"], "meta": {"x": 1}}

    def test_edges_and_types(self):
        db = GraphDB("g")
        db.query("CREATE (:A {k: 1})-[:R {w: 2.5}]->(:B {k: 2})")
        db2 = roundtrip(db)
        assert db2.query("MATCH (:A)-[e:R]->(:B) RETURN e.w").scalar() == 2.5
        assert db2.graph.edge_count == 1

    def test_node_ids_preserved(self):
        db = GraphDB("g")
        ids = [db.graph.create_node(["L"]).id for _ in range(5)]
        db.graph.delete_node(ids[2])
        db2 = roundtrip(db)
        assert sorted(db2.graph.all_node_ids().tolist()) == sorted(set(ids) - {ids[2]})
        # deleted slot is reusable in the restored graph
        new = db2.graph.create_node()
        assert new.id == ids[2]

    def test_multiple_reltypes_and_queries(self):
        db = GraphDB("g")
        db.query("CREATE (a:P {i:0}), (b:P {i:1}), (c:P {i:2}), (a)-[:X]->(b), (b)-[:Y]->(c)")
        db2 = roundtrip(db)
        assert db2.query("MATCH (:P)-[:X]->()-[:Y]->(t) RETURN t.i").scalar() == 2

    def test_indices_restored(self):
        db = GraphDB("g")
        db.query("CREATE (:Person {name:'Zed'})")
        db.query("CREATE INDEX ON :Person(name)")
        db2 = roundtrip(db)
        plan = db2.explain("MATCH (n:Person {name:'Zed'}) RETURN n")
        assert "IndexRangeScan" in plan
        assert db2.query("MATCH (n:Person {name:'Zed'}) RETURN n.name").scalar() == "Zed"

    def test_config_preserved(self):
        db = GraphDB("g", GraphConfig(node_capacity=512, exec_batch_size=7))
        db2 = roundtrip(db)
        assert db2.graph.config.exec_batch_size == 7

    def test_bulk_loaded_matrix_preserved(self):
        db = GraphDB("g", GraphConfig(node_capacity=64))
        db.bulk_insert(
            nodes=[{"labels": ["V"], "count": 10}],
            edges=[{"type": "E", "src": [0, 1], "dst": [1, 2]}],
        )
        db2 = roundtrip(db)
        assert db2.query(
            "MATCH (s:V)-[:E*1..2]->(t) WHERE id(s) = 0 RETURN count(DISTINCT t)"
        ).scalar() == 2

    def test_updates_after_restore(self):
        db = GraphDB("g")
        db.query("CREATE (:P {v: 1})")
        db2 = roundtrip(db)
        db2.query("MATCH (n:P) SET n.v = 2")
        db2.query("CREATE (:P {v: 3})")
        assert db2.query("MATCH (n:P) RETURN sum(n.v)").scalar() == 5

    def test_labels_matrix_restored(self):
        db = GraphDB("g")
        db.query("CREATE (:A), (:B), (:A:B)")
        db2 = roundtrip(db)
        assert db2.query("MATCH (n:A) RETURN count(n)").scalar() == 2
        assert db2.query("MATCH (n:B) RETURN count(n)").scalar() == 2

    def test_file_path_roundtrip(self, tmp_path):
        db = GraphDB("g")
        db.query("CREATE (:P {x: 1})")
        path = tmp_path / "graph.npz"
        db.save(str(path))
        db2 = GraphDB.load(str(path))
        assert db2.query("MATCH (n:P) RETURN n.x").scalar() == 1


def populate(db: GraphDB) -> None:
    """A graph exercising every persisted surface: multi-labels, typed
    properties, multi-edges, deletions, bulk-loaded edges, an index."""
    db.query("CREATE (:Person {name:'Ann', age: 30, score: 1.5, ok: true, tags: ['a', 1]})")
    db.query("CREATE (:Person:Admin {name:'Bo', meta: {x: 1}})")
    db.query("CREATE (:Thing {name:'t0'}), (:Thing {name:'t1'})")
    db.query("MATCH (a {name:'Ann'}), (b {name:'Bo'}) CREATE (a)-[:KNOWS {w: 1}]->(b)")
    db.query("MATCH (a {name:'Ann'}), (b {name:'Bo'}) CREATE (a)-[:KNOWS {w: 2}]->(b)")
    db.query("MATCH (a {name:'Bo'}), (b {name:'t0'}) CREATE (a)-[:OWNS]->(b)")
    db.query("MATCH (n {name:'t1'}) DELETE n")
    db.query("CREATE INDEX ON :Person(name)")
    db.bulk_insert(
        nodes=[{"labels": ["V"], "count": 4}],
        edges=[{"type": "LINK", "src": [0, 1], "dst": [1, 2]}],
    )


DIFF_QUERIES = [
    "MATCH (n) RETURN count(n)",
    "MATCH ()-[e]->() RETURN count(e)",
    "MATCH (n) RETURN id(n), n.name, n.age, n.score, n.ok, n.tags, n.meta",
    "MATCH (n:Person) RETURN id(n) ORDER BY id(n)",
    "MATCH (n:Admin) RETURN n.name",
    "MATCH (n:Person {name:'Ann'}) RETURN n.age",
    "MATCH (a)-[e:KNOWS]->(b) RETURN a.name, e.w, b.name",
    "MATCH (a {name:'Ann'})-[:KNOWS]->(b)-[:OWNS]->(c) RETURN c.name",
]


class TestV2Format:
    def test_differential_restore(self):
        """A restored graph answers the full query battery identically."""
        db = GraphDB("g")
        populate(db)
        db2 = roundtrip(db)
        for q in DIFF_QUERIES:
            assert sorted(db2.query(q).rows) == sorted(db.query(q).rows), q

    def test_save_does_not_flush_pending_deltas(self):
        """Saving is a pure read: pending matrix deltas stay pending and
        no matrix generation moves."""
        db = GraphDB("g")
        db.query("CREATE (:P {v: 1})-[:R]->(:P {v: 2})")
        graph = db.graph
        rel = graph._rel_matrix_for(graph.schema.reltype_id("R"))
        assert rel.pending > 0
        pending_before = rel.pending
        generations = [
            m.generation for m in [graph._adj, *graph._rel_matrices, *graph._label_matrices]
        ]
        buf = io.BytesIO()
        db.save(buf)
        assert rel.pending == pending_before
        assert [
            m.generation for m in [graph._adj, *graph._rel_matrices, *graph._label_matrices]
        ] == generations
        buf.seek(0)
        db2 = GraphDB.load(buf)
        assert db2.query("MATCH (:P)-[:R]->(b) RETURN b.v").scalar() == 2

    def test_writers_progress_during_save(self):
        """BGSAVE semantics: the capture runs under the read lock, the
        disk write under no lock — a writer commits while a slow save is
        still streaming bytes out."""
        db = GraphDB("g", GraphConfig(node_capacity=1024))
        db.bulk_insert(nodes=[{"labels": ["V"], "count": 500}])

        class SlowSink(io.BytesIO):
            def __init__(self):
                super().__init__()
                self.first_write = threading.Event()

            def write(self, data):
                self.first_write.set()
                time.sleep(0.005)
                return super().write(data)

        sink = SlowSink()
        save_error = []

        def run_save():
            try:
                db.save(sink)
            except Exception as exc:  # pragma: no cover - surfaced below
                save_error.append(exc)

        saver = threading.Thread(target=run_save)
        saver.start()
        assert sink.first_write.wait(timeout=10)
        # the save is mid-write: a write query must not have to wait for it
        started = time.perf_counter()
        db.query("CREATE (:W {i: 0})")
        write_latency = time.perf_counter() - started
        assert saver.is_alive(), "save finished too fast to measure overlap"
        saver.join(timeout=30)
        assert not save_error
        assert write_latency < 1.0
        # the snapshot is the pre-write image; the live graph has the write
        sink.seek(0)
        assert GraphDB.load(sink).query("MATCH (n:W) RETURN count(n)").scalar() == 0
        assert db.query("MATCH (n:W) RETURN count(n)").scalar() == 1

    @pytest.mark.parametrize("version", [1, 99])
    def test_other_versions_rejected(self, version):
        """Only the current format loads: the retired v1 layout and any
        future version fail with the typed error, not a KeyError."""
        meta = np.frombuffer(json.dumps({"version": version}).encode(), dtype=np.uint8)
        evil = io.BytesIO()
        np.savez(evil, meta=meta)
        evil.seek(0)
        with pytest.raises(GraphError, match=f"unsupported graph file version: {version}"):
            load_graph(evil)

    @staticmethod
    def _saved_with_config(db: GraphDB, **retired) -> io.BytesIO:
        """``db`` saved as a v2 file whose meta config also carries
        ``retired`` fields, as an older build would have written it."""
        buf = io.BytesIO()
        db.save(buf)
        buf.seek(0)
        data = dict(np.load(buf))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["config"].update(retired)
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        old = io.BytesIO()
        np.savez(old, **data)
        old.seek(0)
        return old

    def test_retired_config_field_ignored(self):
        """Snapshots written before ``traverse_batch_size`` was retired
        carry it in their config; they still load."""
        db = GraphDB("g", GraphConfig(exec_batch_size=7))
        old = self._saved_with_config(db, traverse_batch_size=7)
        assert load_graph(old).config.exec_batch_size == 7

    def test_retired_parallelism_fields_ignored(self):
        """Snapshots written while intra-query parallelism and the index
        merge-threshold knob existed carry ``parallel_workers``,
        ``morsel_size``, ``io_threads`` and ``index_merge_threshold``;
        they still load, with every node, edge and index."""
        db = GraphDB("g", GraphConfig(exec_batch_size=7))
        db.query("UNWIND range(0, 9) AS i CREATE (:P {v: i})")
        db.query("MATCH (a:P), (b:P) WHERE b.v = a.v + 1 CREATE (a)-[:NEXT]->(b)")
        db.query("CREATE INDEX ON :P(v)")
        old = self._saved_with_config(
            db, parallel_workers=4, morsel_size=64, io_threads=2, index_merge_threshold=8
        )
        loaded = GraphDB.load(old)
        assert loaded.graph.config.exec_batch_size == 7
        q = "MATCH (a:P {v: 3})-[:NEXT*1..3]->(b) RETURN b.v ORDER BY b.v"
        assert loaded.query(q).rows == db.query(q).rows == [(4,), (5,), (6,)]
        assert "IndexRangeScan" in loaded.explain("MATCH (a:P {v: 3}) RETURN a")

    def test_none_valued_index_entries_not_indexed(self):
        """Cypher null matches no predicate, so None is never indexed —
        and the restore-time backfill must agree with live maintenance."""
        db = GraphDB("g")
        db.graph.create_node(["P"], {"v": None})
        db.graph.create_node(["P"], {"v": 1})
        db.query("CREATE INDEX ON :P(v)")
        live = db.graph.get_index("P", "v")
        db2 = roundtrip(db)
        restored = db2.graph.get_index("P", "v")
        assert len(restored) == len(live) == 1
        assert restored.seek_eq(None).tolist() == live.seek_eq(None).tolist() == []
        assert restored.seek_eq(1).tolist() == live.seek_eq(1).tolist() == [1]

    def test_edge_slot_reuse_preserved(self):
        db = GraphDB("g")
        db.query("CREATE (:A)-[:R {i: 0}]->(:B)")
        db.query("MATCH (:A)-[e:R]->(:B) DELETE e")
        db2 = roundtrip(db)
        # the freed edge slot is recycled in the restored graph
        db2.query("MATCH (a:A), (b:B) CREATE (a)-[:R {i: 1}]->(b)")
        assert db2.query("MATCH ()-[e:R]->() RETURN id(e), e.i").rows == [(0, 1)]


class TestEntriesWithoutRecords:
    """Older builds could bulk-load relation-matrix entries without edge
    records and save them.  Loading such a file gives every entry a
    record, so edge variables bind and DETACH DELETE removes them."""

    @staticmethod
    def older_build_file() -> io.BytesIO:
        db = GraphDB("g", GraphConfig(node_capacity=16))
        db.bulk_insert(
            nodes=[{"labels": ["V"], "count": 5}],
            edges=[{"type": "E", "src": [0, 0], "dst": [1, 1]}],  # recorded multi-edge
        )
        db.query("MATCH (n) WHERE id(n) = 4 DELETE n")
        graph = db.graph
        # what the recordless writer did: splice the entries, no records
        for reltype, src, dst in (("E", [1, 2, 3], [2, 3, 4]), ("F", [0], [1])):
            rid = graph.schema.intern_reltype(reltype)
            graph._rel_matrix_for(rid).union_splice(np.array(src), np.array(dst))
            graph._adj.union_splice(np.array(src), np.array(dst))
        buf = io.BytesIO()
        db.save(buf)
        buf.seek(0)
        return buf

    def test_each_entry_gets_a_record(self):
        db = GraphDB.load(self.older_build_file())
        # (3,4) ended on a node deleted before the save: it is dropped
        pairs = "MATCH (a)-[:E]->(b) RETURN id(a), id(b) ORDER BY id(a)"
        assert db.query(pairs).rows == [(0, 1), (1, 2), (2, 3)]
        assert db.query("MATCH (a)-->(b) WHERE id(a) = 3 RETURN count(b)").scalar() == 0
        assert db.query("MATCH ()-[r:E]->() RETURN count(r)").scalar() == 4
        assert db.query("MATCH ()-[r:F]->() RETURN count(r)").scalar() == 1
        assert db.graph.edge_count == 5
        stats = db.graph.stats.snapshot().rels
        assert (stats["E"].edges, stats["E"].entries) == (4, 3)

    def test_detach_delete_leaves_no_phantom(self):
        db = GraphDB.load(self.older_build_file())
        db.query("MATCH (n) WHERE id(n) = 1 DETACH DELETE n")
        db.query("CREATE (:W {x: 1})")  # recycles slot 1
        assert db.query("MATCH (w:W) RETURN id(w)").scalar() == 1
        assert db.query("MATCH (a)-[:E]->(b) RETURN id(a), id(b)").rows == [(2, 3)]
        assert db.query("MATCH (a)-->(b) RETURN id(a), id(b)").rows == [(2, 3)]
        # the adopted records survive a second save
        again = roundtrip(db)
        assert again.graph.edge_count == db.graph.edge_count == 1

    @pytest.mark.parametrize("orphans", [0, 1, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_mix_matches_pair_oracle(self, seed, orphans):
        """Recorded edges plus spliced entries on a graph with deleted
        nodes: after loading, each live (type, src, dst) entry is bound by
        its recorded edges, or by exactly one adopted record."""
        rng = np.random.default_rng(seed)
        n = 12
        db = GraphDB("g", GraphConfig(node_capacity=16))
        src, dst = rng.integers(0, n, 10), rng.integers(0, n, 10)
        db.bulk_insert(
            nodes=[{"labels": ["V"], "count": n}],
            edges=[{"type": "E", "src": src.tolist(), "dst": dst.tolist()}],
        )
        dead = {int(x) for x in rng.choice(n, 2, replace=False)}
        for node_id in dead:
            db.query("MATCH (v) WHERE id(v) = $id DETACH DELETE v", {"id": node_id})
        recorded = [(s, d) for s, d in zip(src.tolist(), dst.tolist()) if s not in dead and d not in dead]
        graph = db.graph
        osrc, odst = rng.integers(0, n, orphans), rng.integers(0, n, orphans)
        if orphans:
            rid = graph.schema.intern_reltype("E")
            graph._rel_matrix_for(rid).union_splice(osrc, odst)
            graph._adj.union_splice(osrc, odst)
        before = graph.edge_count
        buf = io.BytesIO()
        db.save(buf)
        buf.seek(0)
        loaded = GraphDB.load(buf)

        live_orphans = {
            (s, d) for s, d in zip(osrc.tolist(), odst.tolist()) if s not in dead and d not in dead
        }
        adopted = live_orphans - set(recorded)
        pairs = "MATCH (a)-[:E]->(b) RETURN id(a), id(b)"
        assert sorted(loaded.query(pairs).rows) == sorted(set(recorded) | live_orphans)
        bound = "MATCH (a)-[r:E]->(b) RETURN id(a), id(b), count(r)"
        expected = {}
        for pair in recorded + sorted(adopted):
            expected[pair] = expected.get(pair, 0) + 1
        assert {(a, b): c for a, b, c in loaded.query(bound).rows} == expected
        assert loaded.graph.edge_count == before + len(adopted)
        assert roundtrip(loaded).graph.edge_count == loaded.graph.edge_count


class TestErrors:
    def test_unpersistable_property(self):
        db = GraphDB("g")
        node = db.graph.create_node(["P"])
        db.graph.set_node_property(node.id, "blob", object())
        with pytest.raises(GraphError, match="cannot be persisted"):
            db.save(io.BytesIO())

    def test_non_string_map_keys(self):
        db = GraphDB("g")
        node = db.graph.create_node(["P"])
        db.graph.set_node_property(node.id, "m", {1: "x"})
        with pytest.raises(GraphError, match="keys must be strings"):
            db.save(io.BytesIO())
