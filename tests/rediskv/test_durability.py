"""Durability end-to-end: kill-and-restart recovery over real sockets.

The differential harness (cf. the PR 3 bulk suite): a seeded workload of
per-row writes, a columnar GRAPH.BULK commit, index DDL and deletes runs
against a durable server; the server process is then stopped after the
acks ("crash"), a fresh server is started on the same data dir, and the
restored graph must answer an entire query battery — counts, property
reads, label scans, index lookups, 1-hop/2-hop traversals — exactly like
the live pre-crash graph did.  Variants cover snapshot+tail (GRAPH.SAVE
mid-workload), pure log replay (no snapshot), torn-tail crashes
(truncating the log mid-record) and dirty-counter auto-snapshots.
"""

import json
import random
import time

import pytest

from repro.errors import ResponseError
from repro.graph.config import GraphConfig
from repro.rediskv.client import RedisClient
from repro.rediskv.server import RedisLikeServer

# the differential battery every restored graph must answer identically
DIFF_QUERIES = [
    "MATCH (n) RETURN count(n)",
    "MATCH ()-[e]->() RETURN count(e)",
    "MATCH ()-[e:R]->() RETURN count(e)",
    "MATCH (n) RETURN id(n), n.name, n.v",
    "MATCH (n:A) RETURN id(n)",
    "MATCH (n:B) RETURN id(n), n.v",
    "MATCH ()-[e:R]->() RETURN e.k",
    "MATCH (n:A {v: 3}) RETURN id(n), n.name",
    "MATCH (a)-[:R]->(b) RETURN id(a), id(b)",
    "MATCH (a)-[:R]->()-[:S]->(c) RETURN id(a), id(c)",
]


def start_server(data_dir, **config_kw):
    config_kw.setdefault("thread_count", 3)
    config_kw.setdefault("node_capacity", 64)
    config_kw.setdefault("wal_fsync", "no")  # tests kill objects, not power
    srv = RedisLikeServer(port=0, config=GraphConfig(**config_kw), data_dir=str(data_dir)).start()
    time.sleep(0.02)
    return srv


def run_workload(c: RedisClient, *, seed=7, save_midway=False):
    """Seeded writes against graph key "g": per-row CREATEs, an index, a
    columnar bulk commit, property updates and deletes — with an optional
    GRAPH.SAVE in the middle so later records form a true log tail."""
    rng = random.Random(seed)
    n = 12
    for i in range(n):
        label = ":A" if i % 2 == 0 else ":B"
        c.graph_query("g", f"CREATE ({label} {{name: 'n{i}', v: {rng.randint(0, 5)}}})")
    c.graph_query("g", "CREATE INDEX ON :A(v)")
    for _ in range(2 * n):
        s, d = rng.randrange(n), rng.randrange(n)
        c.graph_query(
            "g",
            "MATCH (a), (b) WHERE id(a) = $s AND id(b) = $d CREATE (a)-[:R {k: $k}]->(b)",
            {"s": s, "d": d, "k": rng.randint(0, 9)},
        )
    if save_midway:
        assert c.graph_save("g") == "OK"
    # columnar bulk commit (must be logged as ONE bulk record)
    token = c.graph_bulk_begin("g")
    c.graph_bulk_nodes("g", token, count=6, labels=["B"], properties={"v": [9, 9, 9, 8, 8, None]})
    c.graph_bulk_edges("g", token, "S", [0, 1, 2], [3, 4, 5])
    c.graph_bulk_edges("g", token, "S", [0, 1], [2, 3], endpoints="graph")
    c.graph_bulk_commit("g", token)
    # post-bulk per-row writes ride the tail too
    c.graph_query("g", "MATCH (x {name: 'n3'}) SET x.v = 42")
    c.graph_query("g", "MATCH (x {name: 'n5'}) DETACH DELETE x")
    c.graph_query("g", "CREATE (:A {name: 'tail', v: 3})")


def snapshot_answers(c: RedisClient):
    return {q: sorted(c.graph_query("g", q).rows) for q in DIFF_QUERIES}


def assert_matches(c: RedisClient, expected):
    for q, rows in expected.items():
        assert sorted(c.graph_query("g", q).rows) == rows, q


class TestKillAndRestart:
    @pytest.mark.parametrize("save_midway", [False, True], ids=["log-only", "snapshot+tail"])
    def test_recovery_differential(self, tmp_path, save_midway):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            run_workload(c, save_midway=save_midway)
            expected = snapshot_answers(c)
            index_plan = "\n".join(c.graph_explain("g", "MATCH (n:A {v: 3}) RETURN n"))
            assert "IndexRangeScan" in index_plan
        srv.stop()  # "crash": no clean GRAPH.SAVE of the tail

        srv2 = start_server(tmp_path)
        assert srv2.recovery_stats["replayed"] > 0
        if save_midway:
            assert srv2.recovery_stats["snapshots"] == 1
            assert srv2.recovery_stats["skipped"] > 0
        with RedisClient(port=srv2.port) as c2:
            assert_matches(c2, expected)
            # the index survived (snapshot or index.create replay)
            assert "IndexRangeScan" in "\n".join(
                c2.graph_explain("g", "MATCH (n:A {v: 3}) RETURN n")
            )
            # the restored graph keeps accepting (and logging) writes
            c2.graph_query("g", "CREATE (:A {name: 'post', v: 1})")
        srv2.stop()

    def test_second_generation_restart(self, tmp_path):
        """Snapshot -> tail -> restart -> more writes -> restart again."""
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            run_workload(c, save_midway=True)
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c:
            c.graph_query("g", "CREATE (:A {name: 'gen2', v: 2})")
            expected = snapshot_answers(c)
        srv2.stop()
        srv3 = start_server(tmp_path)
        with RedisClient(port=srv3.port) as c:
            assert_matches(c, expected)
        srv3.stop()

    def test_delete_survives_restart(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_query("g", "CREATE (:A)")
            c.graph_save("g")
            c.graph_query("keepme", "CREATE (:K)")
            c.graph_delete("g")
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c:
            assert c.graph_list() == ["keepme"]
        srv2.stop()

    def test_config_set_survives_restart(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_config_set("WAL_FSYNC", "always")
            c.graph_config_set("AUTO_SNAPSHOT_OPS", "500")
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c:
            assert c.graph_config_get("WAL_FSYNC") == ["WAL_FSYNC", "always"]
            assert c.graph_config_get("AUTO_SNAPSHOT_OPS") == ["AUTO_SNAPSHOT_OPS", 500]
        # the recovered policy reached the live log, not just the config
        assert srv2.durability.wal.fsync == "always"
        srv2.stop()


class TestRetiredKnobs:
    """A data dir written while ``PARALLEL_WORKERS``, ``MORSEL_SIZE``,
    ``INDEX_MERGE_THRESHOLD``, ``VECTOR_NPROBE_DEFAULT`` and
    ``VECTOR_TRAIN_MIN`` were settable knobs: each sits in the manifest's
    config and in WAL ``config`` records.  Recovery skips them and
    restores every graph."""

    RETIRED = {
        "PARALLEL_WORKERS": 4,
        "MORSEL_SIZE": 64,
        "INDEX_MERGE_THRESHOLD": 8,
        "VECTOR_NPROBE_DEFAULT": 3,
        "VECTOR_TRAIN_MIN": 32,
    }

    def test_stale_config_records_recover(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            run_workload(c, save_midway=True)
            c.graph_config_set("AUTO_SNAPSHOT_OPS", "500")
            # what GRAPH.CONFIG SET of the retired knobs used to log
            for name, value in self.RETIRED.items():
                srv.durability.log_config(name, value)
            c.graph_query("g", "CREATE (:A {name: 'after', v: 4})")
            c.graph_query("other", "UNWIND range(1, 5) AS i CREATE (:K {v: i})")
            expected = snapshot_answers(c)
        srv.stop()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for name, value in self.RETIRED.items():
            assert manifest["config"][name] == value

        srv2 = start_server(tmp_path)
        assert srv2.recovery_stats["snapshots"] == 1
        with RedisClient(port=srv2.port) as c2:
            assert sorted(c2.graph_list()) == ["g", "other"]
            assert_matches(c2, expected)
            assert c2.graph_query("other", "MATCH (k:K) RETURN sum(k.v)").scalar() == 15
            # the surviving knob around the stale ones still applied
            assert c2.graph_config_get("AUTO_SNAPSHOT_OPS") == ["AUTO_SNAPSHOT_OPS", 500]
            for name in self.RETIRED:
                with pytest.raises(ResponseError, match="Unknown configuration"):
                    c2.graph_config_get(name)
                with pytest.raises(ResponseError, match="not settable"):
                    c2.graph_config_set(name, "4")
        srv2.stop()


class TestRetiredRecordFlag:
    """WAL ``bulk`` records logged while edge batches carried a
    ``"record"`` flag replay after kill-and-restart; the flag is ignored
    and every edge gets a record."""

    def test_bulk_record_with_record_flag_replays(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_query("g", "CREATE (:A {name: 'seed', v: 0})")
        # what a GRAPH.BULK commit used to log
        srv.durability.log_bulk("g", {
            "nodes": [{"labels": ["B"], "count": 3, "properties": {"v": [1, 2, 3]}}],
            "edges": [
                {"type": "S", "src": [0, 1], "dst": [1, 2], "properties": {},
                 "endpoints": "batch", "record": True},
                {"type": "S", "src": [0], "dst": [0], "properties": {"k": [7]},
                 "endpoints": "graph", "record": True},
            ],
        })
        srv.stop()

        srv2 = start_server(tmp_path)
        assert srv2.recovery_stats["replayed"] == 2
        with RedisClient(port=srv2.port) as c2:
            rows = c2.graph_query("g", "MATCH (a)-[e:S]->(b) RETURN id(a), id(b), e.k ORDER BY id(b)").rows
            assert [tuple(r) for r in rows] == [(0, 0, 7), (1, 2, None), (2, 3, None)]
        srv2.stop()


class TestTornTail:
    def test_truncated_log_recovers_cleanly(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            run_workload(c, save_midway=True)
            c.graph_query("g", "CREATE (:A {name: 'doomed', v: 0})")
        srv.stop()
        # rip the last record's tail off, as a crash mid-append would
        wal_files = sorted((tmp_path / "wal").glob("wal.*.log"))
        last = wal_files[-1]
        raw = last.read_bytes()
        assert len(raw) > 8
        last.write_bytes(raw[:-7])
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c2:
            # everything but the torn record is back; the torn one is gone
            rows = c2.graph_query("g", "MATCH (n {name: 'doomed'}) RETURN n").rows
            assert rows == []
            assert c2.graph_query("g", "MATCH (n {name: 'tail'}) RETURN count(n)").scalar() == 1
            # and the repaired log keeps accepting appends
            c2.graph_query("g", "CREATE (:A {name: 'alive', v: 1})")
        srv2.stop()
        srv3 = start_server(tmp_path)
        with RedisClient(port=srv3.port) as c3:
            assert c3.graph_query("g", "MATCH (n {name: 'alive'}) RETURN count(n)").scalar() == 1
        srv3.stop()


class TestAutoSnapshot:
    def test_dirty_counter_triggers_snapshot(self, tmp_path):
        srv = start_server(tmp_path, auto_snapshot_ops=5)
        with RedisClient(port=srv.port) as c:
            for i in range(6):
                c.graph_query("g", f"CREATE (:A {{i: {i}}})")
            deadline = time.time() + 5
            while time.time() < deadline and not list(tmp_path.glob("g.*.v2.npz")):
                time.sleep(0.02)
            assert list(tmp_path.glob("g.*.v2.npz")), "auto-snapshot never materialized"
            deadline = time.time() + 5  # the background save resets the counter
            while time.time() < deadline and srv.durability.dirty_count("g") >= 6:
                time.sleep(0.02)
            assert srv.durability.dirty_count("g") < 6
        srv.stop()
        srv2 = start_server(tmp_path)
        assert srv2.recovery_stats["snapshots"] == 1
        with RedisClient(port=srv2.port) as c:
            assert c.graph_query("g", "MATCH (n:A) RETURN count(n)").scalar() == 6
        srv2.stop()


class TestNonBlockingSave:
    def test_writers_progress_during_save(self, tmp_path):
        """GRAPH.SAVE on a large graph must not stall concurrent writers:
        while one connection saves, another keeps committing writes, and
        both finish."""
        srv = start_server(tmp_path, node_capacity=1 << 16)
        with RedisClient(port=srv.port) as c:
            token = c.graph_bulk_begin("big")
            n = 30_000
            c.graph_bulk_nodes("big", token, count=n, labels=["V"], properties={"i": list(range(n))})
            c.graph_bulk_edges("big", token, "E", list(range(n - 1)), list(range(1, n)))
            c.graph_bulk_commit("big", token)

            import threading

            writes_done = []

            def writer():
                with RedisClient(port=srv.port) as wc:
                    for i in range(20):
                        wc.graph_query("big", f"CREATE (:W {{i: {i}}})")
                        writes_done.append(i)

            t = threading.Thread(target=writer)
            started = time.perf_counter()
            t.start()
            assert c.graph_save("big") == "OK"
            save_elapsed = time.perf_counter() - started
            t.join(timeout=30)
            assert len(writes_done) == 20
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c2:
            assert c2.graph_query("big", "MATCH (n:V) RETURN count(n)").scalar() == n
            # post-snapshot writes replay from the tail
            assert c2.graph_query("big", "MATCH (n:W) RETURN count(n)").scalar() == 20
        srv2.stop()
        assert save_elapsed < 60


class TestSurface:
    def test_graph_save_requires_data_dir(self):
        srv = RedisLikeServer(port=0, config=GraphConfig(thread_count=2)).start()
        time.sleep(0.02)
        with RedisClient(port=srv.port) as c:
            c.graph_query("g", "CREATE (:A)")
            with pytest.raises(ResponseError, match="persistence is not enabled"):
                c.graph_save("g")
        srv.stop()

    def test_graph_save_unknown_key(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            with pytest.raises(ResponseError, match="does not exist"):
                c.graph_save("nope")
        srv.stop()

    def test_snapshot_filenames_keep_distinct_keys_apart(self, tmp_path):
        """Key escaping must be injective: '\\u2020' and ' 20' must not
        share one snapshot file (variable-width hex escaping collided)."""
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_query("†", "CREATE (:A {v: 1})")
            c.graph_query(" 20", "CREATE (:B {v: 2})")
            c.graph_save("†")
            c.graph_save(" 20")
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c:
            assert c.graph_query("†", "MATCH (n:A) RETURN n.v").scalar() == 1
            assert c.graph_query(" 20", "MATCH (n:B) RETURN n.v").scalar() == 2
        srv2.stop()

    def test_resave_supersedes_snapshot_and_keeps_commit_point(self, tmp_path):
        """Each save writes an anchor-stamped file and the manifest rewrite
        is the commit: after a second save only the newest file remains and
        the manifest points at it."""
        import json

        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_query("g", "CREATE (:A)")
            c.graph_save("g")
            c.graph_query("g", "CREATE (:B)")
            c.graph_save("g")
        srv.stop()
        files = sorted(tmp_path.glob("g.*.v2.npz"))
        assert len(files) == 1  # the superseded generation was cleaned up
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["graphs"]["g"]["file"] == files[0].name
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c:
            assert c.graph_query("g", "MATCH (n) RETURN count(n)").scalar() == 2
        srv2.stop()

    def test_profile_write_is_logged(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_profile("g", "CREATE (:P {v: 1})")
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c:
            assert c.graph_query("g", "MATCH (n:P) RETURN n.v").scalar() == 1
        srv2.stop()

    def test_literal_writes_log_the_text_as_sent(self, tmp_path):
        """A write whose literals were lifted into parameters logs the
        text as sent and only the caller's parameters; replay lifts the
        literals again and rebuilds the same graph."""
        writes = [
            ("CREATE (:P {v: 1, s: 'it\\'s', f: 2.5})", {}),
            ("CREATE (:P {v: 2, k: $k})", {"k": 7}),
            ("MATCH (n:P) WHERE n.v = 1 SET n.w = 'one'", {}),
            ("MATCH (n:P) WHERE n.v = 2 SET n.w = 'two'", {}),
        ]
        read = "MATCH (n:P) RETURN n.v, n.s, n.f, n.k, n.w ORDER BY n.v"
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            for text, params in writes:
                c.graph_query("g", text, params)
            expected = c.graph_query("g", read).rows
        assert expected == [(1, "it's", "2.5", None, "one"), (2, None, None, 7, "two")]
        srv.stop()
        records = [r for _, r in srv.durability.wal.replay() if r["kind"] == "query"]
        assert records == [
            {"kind": "query", "key": "g", "text": text, "params": params} for text, params in writes
        ]
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c:
            assert c.graph_query("g", read).rows == expected
        srv2.stop()

    def test_ro_query_not_logged(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_query("g", "CREATE (:A)")
            before = srv.durability.wal.last_seq
            c.graph_ro_query("g", "MATCH (n) RETURN count(n)")
            c.graph_query("g", "MATCH (n) RETURN count(n)")
            assert srv.durability.wal.last_seq == before
        srv.stop()


class TestIndexKindsReplay:
    """All three index kinds — range, composite, vector — must rebuild
    identically from pure WAL replay (crash with no snapshot) and keep
    answering seeks and top-k queries exactly as before the crash."""

    VQ = (
        "CALL db.idx.vector.query('A', 'emb', [0.6, 0.8], 3) "
        "YIELD node, score RETURN id(node), score"
    )
    SEEKS = [
        "MATCH (n:A) WHERE n.v > 1 RETURN id(n)",
        "MATCH (n:A) WHERE n.v = 3 RETURN id(n)",
        "MATCH (n:A) WHERE n.name STARTS WITH 'n' RETURN id(n)",
        "MATCH (n:A) WHERE n.v = 2 AND n.name = 'n4' RETURN id(n)",
    ]
    CATALOG = (
        "CALL db.indexes() YIELD label, property, type, size "
        "RETURN label, property, type, size"
    )

    def seed(self, c: RedisClient):
        for i in range(8):
            c.graph_query(
                "g",
                "CREATE (:A {name: $n, v: $v, emb: $e})",
                {"n": f"n{i}", "v": i % 4, "e": [float(i), float(8 - i)]},
            )
        c.graph_query("g", "CREATE INDEX ON :A(v)")
        c.graph_query("g", "CREATE INDEX ON :A(v, name)")
        c.graph_query("g", "CREATE VECTOR INDEX ON :A(emb) OPTIONS {dimension: 2}")
        # post-DDL churn rides the log tail through index maintenance
        c.graph_query("g", "MATCH (n:A {name: 'n6'}) SET n.v = 3, n.emb = [9.0, 0.1]")
        c.graph_query("g", "MATCH (n:A {name: 'n7'}) DETACH DELETE n")

    def snapshot(self, c: RedisClient):
        state = {q: sorted(c.graph_query("g", q).rows) for q in self.SEEKS}
        state["catalog"] = sorted(c.graph_query("g", self.CATALOG).rows)
        state["vector"] = c.graph_query("g", self.VQ).rows  # ordered: top-k
        return state

    @pytest.mark.parametrize("save_midway", [False, True], ids=["log-only", "snapshot+tail"])
    def test_three_kinds_rebuild_identically(self, tmp_path, save_midway):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            self.seed(c)
            if save_midway:
                assert c.graph_save("g") == "OK"
                c.graph_query("g", "CREATE (:A {name: 'n9', v: 3, emb: [0.5, 0.5]})")
            expected = self.snapshot(c)
            assert sorted(t for _l, _p, t, _s in expected["catalog"]) == [
                "composite", "range", "vector"
            ]
            plan = "\n".join(c.graph_explain("g", "MATCH (n:A) WHERE n.v > 1 RETURN n"))
            assert "IndexRangeScan" in plan
        srv.stop()  # crash: the tail (or everything) exists only in the log

        srv2 = start_server(tmp_path)
        assert srv2.recovery_stats["replayed"] > 0
        with RedisClient(port=srv2.port) as c2:
            assert self.snapshot(c2) == expected
            plan = "\n".join(c2.graph_explain("g", "MATCH (n:A) WHERE n.v > 1 RETURN n"))
            assert "IndexRangeScan" in plan
            # replayed indexes keep maintaining on fresh writes
            c2.graph_query("g", "CREATE (:A {name: 'post', v: 2, emb: [1.0, 0.0]})")
            assert c2.graph_query(
                "g", "MATCH (n:A) WHERE n.v = 2 AND n.name = 'post' RETURN count(n)"
            ).scalar() == 1
        srv2.stop()

    def test_drop_replays_per_kind(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            self.seed(c)
            c.graph_query("g", "DROP INDEX ON :A(v, name)")
            c.graph_query("g", "DROP VECTOR INDEX ON :A(emb)")
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c2:
            rows = c2.graph_query("g", self.CATALOG).rows
            assert [(l, p, t) for l, p, t, _s in rows] == [("A", "v", "range")]
        srv2.stop()


class TestIVFReplay:
    """A *trained* IVF index must survive kill-and-restart: pure WAL
    replay retrains deterministically (same seed, same row order → same
    centroids and bucket layout), snapshot restore reinstalls the saved
    centroids without retraining, and pre-IVF log records (no "exact"
    marker in options) replay as brute-force indexes."""

    @pytest.fixture(autouse=True)
    def _fold_small(self, fold_at, vector_defaults):
        # the pending tail folds (training runs at fold time) within 80 rows
        fold_at(8)
        vector_defaults(train_min=32)
    DDL = "CREATE VECTOR INDEX ON :P(emb) OPTIONS {dimension: 4, nlist: 4}"
    VQ = (
        "CALL db.idx.vector.query('P', 'emb', $q, 10) "
        "YIELD node, score RETURN id(node), score"
    )
    OPTS = "CALL db.indexes() YIELD type, options WHERE type = 'vector' RETURN options"

    def seed(self, c: RedisClient, n=80, seed=23):
        rng = random.Random(seed)
        c.graph_query("g", self.DDL)
        for _ in range(n):
            c.graph_query(
                "g",
                "CREATE (:P {emb: $v})",
                {"v": [rng.gauss(0, 1) for _ in range(4)]},
            )

    def options(self, c: RedisClient):
        # RESP flattens maps to [key, value] pairs and booleans to 0/1
        return dict(map(tuple, c.graph_query("g", self.OPTS).rows[0][0]))

    def queries(self, c: RedisClient, seed=29):
        rng = random.Random(seed)
        return [
            c.graph_query("g", self.VQ, {"q": [rng.gauss(0, 1) for _ in range(4)]}).rows
            for _ in range(5)
        ]

    @pytest.mark.parametrize("save_midway", [False, True], ids=["log-only", "snapshot+tail"])
    def test_trained_index_survives_crash(self, tmp_path, save_midway):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            self.seed(c)
            if save_midway:
                assert c.graph_save("g") == "OK"
                c.graph_query("g", "CREATE (:P {emb: [0.1, 0.2, 0.3, 0.4]})")
            options = self.options(c)
            assert options["trained"] == 1 and options["nlist"] == 4
            expected = self.queries(c)
        srv.stop()  # crash: tail (or everything) lives only in the log

        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c2:
            options = self.options(c2)
            assert options["trained"] == 1 and options["nlist"] == 4
            assert self.queries(c2) == expected  # ids AND scores, in order
            # the restored index keeps indexing fresh writes
            c2.graph_query("g", "CREATE (:P {emb: [9.0, 0.0, 0.0, 0.0]})")
            top = c2.graph_query(
                "g", self.VQ, {"q": [1.0, 0.0, 0.0, 0.0]}
            ).rows
            assert float(top[0][1]) == pytest.approx(1.0)  # RESP floats are strings
        srv2.stop()

    def test_pre_ivf_log_record_replays_as_exact(self, tmp_path):
        srv = start_server(tmp_path)
        with RedisClient(port=srv.port) as c:
            c.graph_query("g", "CREATE (:P {emb: [1.0, 0.0]})")
        # a record written by the pre-IVF build: options carry no "exact"
        srv.durability.log_index(
            "g", "create", "P", "emb",
            itype="vector", attributes=["emb"], options={"dimension": 2},
        )
        srv.stop()
        srv2 = start_server(tmp_path)
        with RedisClient(port=srv2.port) as c2:
            assert self.options(c2)["exact"] == 1  # brute-force semantics kept
        srv2.stop()
