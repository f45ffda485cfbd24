"""IVF vector index: differential tests against the brute-force path.

The contract under test: ``exact: true`` (and an untrained index) must
reproduce the flat scan bit-for-bit; a trained IVF index probing every
bucket (``nprobe == nlist``) must also be exact; default probing on
clustered data must keep recall@10 high; pending-tail churn (inserts and
deletes after training) must stay visible exactly; and a kill-and-restart
through the WAL must rebuild the identical index (deterministic
training).
"""

import numpy as np
import pytest

from repro import GraphDB
from repro.errors import CypherTypeError
from repro.graph.index import VectorIndex


def flat_oracle(rows, q, k):
    """PR 9's brute-force path, restated: normalize rows and query, one
    matmul, lexsort with ascending-id tie-break.  The matmul form matters
    — ``exact: true`` is asserted bit-identical to this."""
    def unit(v):
        v = np.asarray(v, dtype=np.float64)
        n = float(np.linalg.norm(v))
        return v / n if n > 0 else v

    ids = np.array([nid for nid, _ in rows], dtype=np.int64)
    mat = np.stack([unit(vec) for _, vec in rows])
    scores = mat @ unit(q)
    order = np.lexsort((ids, -scores))[: int(k)]
    return ids[order].tolist(), scores[order]


def clustered_rows(rng, n, dim, n_clusters=8, spread=0.15):
    """Points drawn tightly around a few random directions — the regime
    IVF is built for (bucket ≈ cluster, so few probes recover the true
    neighbours)."""
    centers = rng.normal(size=(n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = []
    for nid in range(n):
        c = centers[nid % n_clusters]
        rows.append((nid, (c + spread * rng.normal(size=dim)).tolist()))
    return rows, centers


@pytest.fixture(autouse=True)
def _train_at_64(vector_defaults):
    vector_defaults(train_min=64)


def build(rows, dim, **kw):
    idx = VectorIndex(0, 10, dim=dim, **kw)
    idx.bulk_insert([vec for _, vec in rows], [nid for nid, _ in rows])
    return idx


class TestExactEquivalence:
    def test_exact_true_is_bit_identical_to_flat(self):
        rng = np.random.default_rng(11)
        dim = 16
        rows = [(nid, rng.normal(size=dim).tolist()) for nid in range(500)]
        exact = build(rows, dim, exact=True)
        assert not exact.trained  # exact never trains
        for _ in range(20):
            q = rng.normal(size=dim).tolist()
            got_ids, got_scores = exact.query(q, 10)
            want_ids, want_scores = flat_oracle(rows, q, 10)
            assert [int(i) for i in got_ids] == want_ids
            assert np.array_equal(np.asarray(got_scores), want_scores)

    def test_untrained_is_brute_force(self, vector_defaults):
        vector_defaults(train_min=1024)
        rng = np.random.default_rng(12)
        dim = 8
        rows = [(nid, rng.normal(size=dim).tolist()) for nid in range(50)]
        idx = build(rows, dim)  # far below the floor
        assert not idx.trained
        q = rng.normal(size=dim).tolist()
        got_ids, got_scores = idx.query(q, 10)
        want_ids, want_scores = flat_oracle(rows, q, 10)
        assert [int(i) for i in got_ids] == want_ids
        assert np.array_equal(np.asarray(got_scores), want_scores)

    def test_exact_procedure_matches_flat(self):
        """The same top-k through ``CALL db.idx.vector.query`` on a
        bulk-loaded graph: ids in the oracle's order, scores equal."""
        rng = np.random.default_rng(15)
        dim = 8
        vecs = rng.normal(size=(300, dim))
        db = GraphDB("vec")
        db.bulk_insert(nodes=[{"labels": ["Doc"], "properties": {"emb": [v.tolist() for v in vecs]}}])
        db.query(f"CREATE VECTOR INDEX ON :Doc(emb) OPTIONS {{dimension: {dim}, exact: true}}")
        q = rng.normal(size=dim).tolist()
        rows = db.query(
            "CALL db.idx.vector.query('Doc', 'emb', $q, 10) YIELD node, score RETURN id(node), score",
            {"q": q},
        ).rows
        want_ids, want_scores = flat_oracle(list(enumerate(vecs)), q, 10)
        assert [r[0] for r in rows] == want_ids
        assert np.allclose([r[1] for r in rows], want_scores)

    def test_full_probe_recall_is_one(self):
        """nprobe == nlist scans every bucket: exact cosine within each
        bucket plus the global lexsort makes the result identical to the
        flat scan."""
        rng = np.random.default_rng(13)
        dim = 12
        rows, _ = clustered_rows(rng, 600, dim)
        idx = build(rows, dim, nlist=10)
        assert idx.trained and idx.nlist == 10
        for _ in range(10):
            q = rng.normal(size=dim).tolist()
            got_ids, got_scores = idx.query(q, 10, nprobe=idx.nlist)
            want_ids, want_scores = flat_oracle(rows, q, 10)
            assert [int(i) for i in got_ids] == want_ids
            assert np.allclose(got_scores, want_scores)


class TestRecall:
    def test_default_nprobe_recall_on_clustered_data(self):
        rng = np.random.default_rng(14)
        dim = 16
        rows, centers = clustered_rows(rng, 2000, dim)
        idx = build(rows, dim)  # auto nlist ~ sqrt(2000) ≈ 45, nprobe 16
        assert idx.trained
        hits = total = 0
        for i in range(30):
            c = centers[i % len(centers)]
            q = (c + 0.1 * rng.normal(size=dim)).tolist()
            got_ids, _ = idx.query(q, 10)
            want_ids, _ = flat_oracle(rows, q, 10)
            hits += len(set(int(i) for i in got_ids) & set(want_ids))
            total += len(want_ids)
        recall = hits / total
        assert recall >= 0.95, f"recall@10 {recall:.3f} below 0.95"


class TestChurn:
    def test_insert_delete_churn_stays_exact_on_tail(self, fold_at):
        """Post-training inserts live in the pending tail (scanned exactly)
        and deletes mask bucket entries; full-probe queries must match the
        flat oracle through arbitrary churn."""
        rng = np.random.default_rng(15)
        dim = 8
        rows = [(nid, rng.normal(size=dim).tolist()) for nid in range(300)]
        fold_at(10_000)
        idx = build(rows, dim, nlist=6)
        assert idx.trained
        live = dict(rows)
        # interleave deletes (bucket + tail) and fresh inserts
        for step in range(60):
            if step % 3 != 2:
                nid = sorted(live)[int(rng.integers(len(live)))]
                idx.unindex_node(nid, {10: live.pop(nid)})
            else:
                nid = 1000 + step
                vec = rng.normal(size=dim).tolist()
                assert idx.index_node(nid, {10: vec})
                live[nid] = vec
        q = rng.normal(size=dim).tolist()
        got_ids, got_scores = idx.query(q, 15, nprobe=idx.nlist)
        want_ids, want_scores = flat_oracle(sorted(live.items()), q, 15)
        assert [int(i) for i in got_ids] == want_ids
        assert np.allclose(got_scores, want_scores)

    def test_fold_and_retrain_preserve_answers(self, fold_at):
        """Crossing the fold threshold folds the tail into buckets and may
        retrain; full-probe answers must be unchanged by layout shifts."""
        rng = np.random.default_rng(16)
        dim = 8
        rows = [(nid, rng.normal(size=dim).tolist()) for nid in range(200)]
        fold_at(32)
        idx = build(rows, dim, nlist=5)
        live = dict(rows)
        for nid in range(500, 900):  # 2x growth → drift retrain at a fold
            vec = rng.normal(size=dim).tolist()
            idx.index_node(nid, {10: vec})
            live[nid] = vec
        assert idx._retrains >= 1
        q = rng.normal(size=dim).tolist()
        got_ids, _ = idx.query(q, 10, nprobe=idx.nlist)
        want_ids, _ = flat_oracle(sorted(live.items()), q, 10)
        assert [int(i) for i in got_ids] == want_ids


class TestProcedureSurface:
    @pytest.fixture()
    def db(self, fold_at, vector_defaults):
        # small fold threshold so the pending tail folds (training runs
        # at fold time) within a 64-row fixture
        fold_at(8)
        vector_defaults(train_min=32)
        d = GraphDB("vec")
        d.query("CREATE VECTOR INDEX ON :Doc(emb) OPTIONS {dimension: 4, nlist: 4}")
        rng = np.random.default_rng(17)
        for _ in range(64):
            d.query("CREATE (:Doc {emb: $v})", {"v": rng.normal(size=4).tolist()})
        return d

    def test_k_must_be_positive(self, db):
        with pytest.raises(CypherTypeError, match=r"k must be a positive integer \(got 0\)"):
            db.query("CALL db.idx.vector.query('Doc', 'emb', [1.0,0.0,0.0,0.0], 0)")
        with pytest.raises(CypherTypeError, match=r"k must be a positive integer \(got -3\)"):
            db.query("CALL db.idx.vector.query('Doc', 'emb', [1.0,0.0,0.0,0.0], -3)")

    def test_dimension_mismatch_names_both_dimensions(self, db):
        with pytest.raises(CypherTypeError, match=r"dimension 2, index expects 4"):
            db.query("CALL db.idx.vector.query('Doc', 'emb', [1.0, 0.0], 5)")

    def test_nprobe_override_full_probe_matches_exact(self, db):
        idx = db.graph.get_vector_index("Doc", "emb")
        assert idx.trained
        q = [0.5, -0.2, 0.1, 0.9]
        full = db.query(
            "CALL db.idx.vector.query('Doc', 'emb', $q, 10, $p) "
            "YIELD node, score RETURN id(node), score",
            {"q": q, "p": idx.nlist},
        ).rows
        ids, scores = idx._query_flat(
            np.asarray(q) / np.linalg.norm(q), 10
        )
        assert [r[0] for r in full] == [int(i) for i in ids]
        with pytest.raises(CypherTypeError, match="nprobe must be a positive integer"):
            db.query("CALL db.idx.vector.query('Doc', 'emb', $q, 5, 0)", {"q": q})

    def test_db_indexes_reports_vector_options(self, db):
        rows = db.query("CALL db.indexes()").rows
        vec = [r for r in rows if r[2] == "vector"]
        assert len(vec) == 1
        options = vec[0][5]
        assert options["dimension"] == 4
        assert options["similarity"] == "cosine"
        assert options["nlist"] == 4
        assert options["trained"] is True
        assert options["exact"] is False
        assert options["nprobe"] >= 1

    def test_options_parse_rejects_bad_knobs(self, db):
        from repro.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation, match="nlist must be a positive integer"):
            db.query("CREATE VECTOR INDEX ON :Other(e) OPTIONS {dimension: 2, nlist: -5}")
        with pytest.raises(ConstraintViolation, match="exact must be a boolean"):
            db.query("CREATE VECTOR INDEX ON :Other(e) OPTIONS {dimension: 2, exact: 1}")


class TestDefaults:
    def test_nprobe_default_applies(self, vector_defaults):
        vector_defaults(nprobe=3, train_min=32)
        d = GraphDB("k")
        d.query("CREATE VECTOR INDEX ON :D(e) OPTIONS {dimension: 2, nlist: 8}")
        idx = d.graph.get_vector_index("D", "e")
        assert idx.nprobe == 3

    def test_per_index_nprobe_beats_default(self, vector_defaults):
        vector_defaults(nprobe=3)
        d = GraphDB("k")
        d.query("CREATE VECTOR INDEX ON :D(e) OPTIONS {dimension: 2, nprobe: 7}")
        assert d.graph.get_vector_index("D", "e").nprobe == 7

    def test_train_min_gates_training(self, fold_at, vector_defaults):
        fold_at(1)
        vector_defaults(train_min=16)
        d = GraphDB("k")
        d.query("CREATE VECTOR INDEX ON :D(e) OPTIONS {dimension: 2}")
        rng = np.random.default_rng(18)
        for _ in range(15):
            d.query("CREATE (:D {e: $v})", {"v": rng.normal(size=2).tolist()})
        assert not d.graph.get_vector_index("D", "e").trained
        for _ in range(10):
            d.query("CREATE (:D {e: $v})", {"v": rng.normal(size=2).tolist()})
        assert d.graph.get_vector_index("D", "e").trained


class TestPersistence:
    def test_snapshot_round_trip_preserves_layout(self, tmp_path, fold_at, vector_defaults):
        import io

        from repro.graph.persist import load_graph, save_graph

        fold_at(8)
        vector_defaults(train_min=32)
        d = GraphDB("p")
        d.query("CREATE VECTOR INDEX ON :Doc(emb) OPTIONS {dimension: 6, nlist: 5}")
        rng = np.random.default_rng(19)
        for _ in range(80):
            d.query("CREATE (:Doc {emb: $v})", {"v": rng.normal(size=6).tolist()})
        idx = d.graph.get_vector_index("Doc", "emb")
        assert idx.trained
        buf = io.BytesIO()
        save_graph(d.graph, buf)
        buf.seek(0)
        g2 = load_graph(buf)
        idx2 = g2.get_vector_index("Doc", "emb")
        assert idx2.trained and idx2.nlist == idx.nlist
        assert np.array_equal(idx._centroids, idx2._centroids)
        q = rng.normal(size=6).tolist()
        a, b = idx.query(q, 10), idx2.query(q, 10)
        assert np.array_equal(a[0], b[0]) and np.allclose(a[1], b[1])

    def test_pre_ivf_snapshot_loads_as_exact(self):
        import io

        from repro.graph.persist import capture_snapshot, load_graph

        d = GraphDB("p")
        d.query("CREATE VECTOR INDEX ON :Doc(emb) OPTIONS {dimension: 3}")
        d.query("CREATE (:Doc {emb: [1.0, 0.0, 0.0]})")
        snap = capture_snapshot(d.graph)
        # a pre-IVF writer never emitted the "exact" marker
        snap.meta["vector_indices"] = [
            [lid, aid, {k: v for k, v in opts.items() if k != "exact"}]
            for lid, aid, opts in snap.meta["vector_indices"]
        ]
        buf = io.BytesIO()
        snap.write(buf)
        buf.seek(0)
        g2 = load_graph(buf)
        assert g2.get_vector_index("Doc", "emb").exact is True
