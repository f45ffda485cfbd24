"""DeltaMatrix buffering semantics and flush correctness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import DeltaMatrix


class TestBasics:
    def test_add_visible_before_flush(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        assert m.has(1, 2)
        assert m.dirty and m.pending == 1

    def test_flush_materializes(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        m.add(0, 3)
        mat = m.synced()
        assert not m.dirty
        assert mat[1, 2] is not None and mat[0, 3] is not None
        mat.check_invariants()

    def test_delete_pending_add(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        m.delete(1, 2)
        assert not m.has(1, 2)
        assert m.synced().nvals == 0

    def test_delete_flushed_entry(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        m.flush()
        m.delete(1, 2)
        assert not m.has(1, 2)
        assert m.synced().nvals == 0

    def test_re_add_after_delete(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        m.flush()
        m.delete(1, 2)
        m.add(1, 2)
        assert m.has(1, 2)
        assert m.synced().nvals == 1

    def test_auto_flush_at_threshold(self):
        """The flush fires exactly *at* max_pending, as documented — not one
        change later."""
        m = DeltaMatrix(64, max_pending=5)
        for i in range(4):
            m.add(i, i)
        assert m.pending == 4, "below the threshold nothing flushes"
        m.add(4, 4)  # the 5th pending change hits max_pending
        assert m.pending == 0, "flush must fire at exactly max_pending"
        assert m.nvals() == 5

    def test_auto_flush_threshold_counts_deletes(self):
        m = DeltaMatrix(64, max_pending=3)
        m.add(0, 1)
        m.add(1, 2)
        assert m.pending == 2
        m.delete(5, 5)  # third pending change triggers the flush
        assert m.pending == 0
        assert m.nvals() == 2

    def test_resize(self):
        m = DeltaMatrix(2)
        m.add(1, 1)
        m.resize(8)
        assert m.dim == 8 and m.has(1, 1)

    def test_nvals(self):
        m = DeltaMatrix(4)
        m.add(0, 1)
        m.add(0, 1)  # duplicate
        assert m.nvals() == 1


class TestTransposeCache:
    def test_transpose_correct(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        t = m.transposed()
        assert t[2, 1] is not None

    def test_transpose_memoized(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        t1 = m.transposed()
        t2 = m.transposed()
        assert t1 is t2

    def test_mutation_invalidates_transpose(self):
        m = DeltaMatrix(4)
        m.add(1, 2)
        m.transposed()
        m.add(0, 3)
        t = m.transposed()
        assert t[3, 0] is not None

    def test_base_transpose_cached_across_writes(self):
        """Writes must not re-transpose the base CSR: only the (small)
        delta arrays are re-merged per write generation."""
        m = DeltaMatrix(64, max_pending=10)
        for i in range(30):  # several flushes: a real base CSR
            m.add(i, (i * 7) % 64)
        m.flush()
        m.transposed()
        base_t = m._base_T
        assert base_t is not None
        for i in range(5):  # pending writes, no flush
            m.add(40 + i, i)
            t = m.transposed()
            assert m._base_T is base_t  # base unchanged -> transpose reused
            assert t[i, 40 + i] is not None
        m.flush()  # base rebinds -> the cached transpose is recomputed
        m.transposed()
        assert m._base_T is not base_t

    def test_transposed_overlay_matches_materialized_transpose(self):
        rng = np.random.default_rng(7)
        m = DeltaMatrix(32, max_pending=20)
        for i, j in rng.integers(0, 32, size=(60, 2)):
            m.add(int(i), int(j))
        m.flush()
        for i, j in rng.integers(0, 32, size=(15, 2)):
            m.add(int(i), int(j))
        for i, j in rng.integers(0, 32, size=(10, 2)):
            m.delete(int(i), int(j))
        expected = m.overlay().materialize().transpose().to_dense()
        got = m.transposed().materialize().to_dense()
        assert np.array_equal(got, expected)
        assert m.transposed().nvals == m.nvals()

    def test_transposed_row_reads_without_materializing(self):
        m = DeltaMatrix(8)
        m.add(1, 5)
        m.add(2, 5)
        t = m.transposed()
        cols, _ = t.row(5)  # incoming edges of node 5
        assert cols.tolist() == [1, 2]


class TestFlushFreeReads:
    """Reads evaluate the (base ⊕ Δ+) ⊖ Δ− overlay and never flush."""

    def _dirty_matrix(self):
        m = DeltaMatrix(16, max_pending=10_000)
        m.add(0, 1)
        m.add(1, 2)
        m.flush()
        m.add(2, 3)      # pending add
        m.delete(0, 1)   # pending delete of a flushed entry
        return m

    def test_reads_leave_dirty_state_untouched(self):
        m = self._dirty_matrix()
        pending_before, generation_before = m.pending, m.generation
        view = m.overlay()
        assert m.nvals() == 2
        assert m.has(2, 3) and not m.has(0, 1)
        assert m.row_ids(1).tolist() == [2]
        assert view[2, 3] is not None and view[0, 1] is None
        assert view.row_degree().sum() == 2
        t = m.transposed()
        assert t[3, 2] is not None and t[1, 0] is None
        rows, cols, _ = view.to_coo()
        assert set(zip(rows.tolist(), cols.tolist())) == {(1, 2), (2, 3)}
        assert m.dirty, "reads must not flush"
        assert m.pending == pending_before
        assert m.generation == generation_before

    def test_overlay_matches_flushed_result(self):
        m = self._dirty_matrix()
        overlay_coo = m.overlay().to_coo()[:2]
        m.flush()
        flushed = m.synced()
        flushed.check_invariants()
        rows, cols, _ = flushed.to_coo()
        assert (overlay_coo[0].tolist(), overlay_coo[1].tolist()) == (
            rows.tolist(),
            cols.tolist(),
        )

    def test_overlay_view_memoized_until_write(self):
        m = self._dirty_matrix()
        v1 = m.overlay()
        v2 = m.overlay()
        assert v1 is v2
        m.add(7, 7)
        assert m.overlay() is not v1

    def test_overlay_as_product_operand(self):
        """F·M over the overlay sees pending adds and hides pending dels."""
        from repro.grblas import Matrix, semiring

        m = self._dirty_matrix()
        F = Matrix.from_coo([0, 1], [0, 2], None, nrows=2, ncols=16)
        D = F.mxm(m.overlay(), semiring.any_pair)
        assert D[0, 1] is None, "pending delete must be invisible to mxm"
        assert D[1, 3] is not None, "pending add must be visible to mxm"
        assert m.dirty

    def test_overlay_vxm_frontier_expansion(self):
        from repro.grblas import Vector, semiring

        m = self._dirty_matrix()
        frontier = Vector.from_coo([1, 2], None, size=16)
        out = frontier.vxm(m.overlay(), semiring.any_pair)
        assert set(out.indices.tolist()) == {2, 3}
        assert m.dirty

    def test_add_then_delete_then_readd_no_flush(self):
        m = DeltaMatrix(8, max_pending=10_000)
        m.add(3, 4)
        m.delete(3, 4)
        assert not m.has(3, 4) and m.nvals() == 0
        m.add(3, 4)
        assert m.has(3, 4) and m.nvals() == 1
        assert m.dirty, "the whole sequence stayed in the delta buffers"

    def test_view_rejects_in_place_mutators(self):
        m = self._dirty_matrix()
        view = m.overlay()
        for mutator in ("set_element", "remove_element", "resize", "clear"):
            with pytest.raises(AttributeError, match="read-only"):
                getattr(view, mutator)

    def test_clean_view_snapshot_does_not_alias_base(self):
        m = DeltaMatrix(8)
        m.add(1, 2)
        m.flush()
        snapshot = m.overlay().materialize()
        assert snapshot is not m._base
        snapshot.set_element(3, 4, True)  # mutating the snapshot...
        assert not m.has(3, 4), "...must not leak into the delta matrix"
        m.flush()
        assert m.has(1, 2)

    def test_out_of_bounds_rejected(self):
        from repro.errors import IndexOutOfBounds

        m = DeltaMatrix(8)
        for i, j in [(8, 0), (0, 8), (-1, 0), (0, -1)]:
            with pytest.raises(IndexOutOfBounds):
                m.has(i, j)
            with pytest.raises(IndexOutOfBounds):
                m.add(i, j)
            with pytest.raises(IndexOutOfBounds):
                m.delete(i, j)

    def test_graph_read_query_does_not_flush(self):
        """End-to-end: a Cypher read on a dirty graph leaves deltas pending."""
        from repro.api import GraphDB

        db = GraphDB("flushfree")
        db.query("CREATE (:P {x: 1})-[:E]->(:P {x: 2})-[:E]->(:P {x: 3})")
        adj = db.graph._adj
        assert adj.dirty, "writes buffer into the delta layer"
        matrices = [adj] + db.graph._rel_matrices + db.graph._label_matrices
        before = [(dm.dirty, dm.pending, dm.generation) for dm in matrices]
        assert any(dirty for dirty, _, _ in before)
        result = db.query("MATCH (a:P)-[:E]->(b:P) RETURN a.x, b.x ORDER BY a.x")
        assert [list(row) for row in result] == [[1, 2], [2, 3]]
        after = [(dm.dirty, dm.pending, dm.generation) for dm in matrices]
        assert after == before, "a read query must not flush or mutate any delta matrix"


def _dirty_graph(flush: bool):
    """A graph whose adjacency, relation and label matrices all hold pending
    adds and pending deletes on top of a flushed base (or, with ``flush``,
    the same graph synced)."""
    from repro.api import GraphDB
    from repro.graph import GraphConfig

    db = GraphDB("shapes", GraphConfig(delta_max_pending=100_000))
    db.query("UNWIND range(0, 7) AS i CREATE (:P {i: i})")
    db.query("UNWIND range(8, 11) AS i CREATE (:Q {i: i})")
    db.query("MATCH (a:P), (b:P) WHERE b.i = a.i + 1 CREATE (a)-[:E]->(b)")
    db.query("MATCH (a:P), (b:Q) WHERE b.i = a.i + 8 CREATE (a)-[:F]->(b)")
    db.graph.flush_all()
    db.query("MATCH (a:P {i: 7}), (b:P {i: 0}) CREATE (a)-[:E]->(b)")  # closes the ring
    db.query("MATCH (a:P {i: 2}), (b:P {i: 5}) CREATE (a)-[:E]->(b), (a)-[:F]->(b)")
    db.query("MATCH (:P {i: 3})-[r:E]->(:P {i: 4}) DELETE r")
    db.query("MATCH (n:Q {i: 9}) DETACH DELETE n")
    db.query("CREATE (:Q {i: 12}), (:P {i: 20})")
    if flush:
        db.graph.flush_all()
    return db


FLUSH_FREE_READS = [
    "MATCH (a:P)-[:E]->(b) RETURN id(a), id(b)",
    "MATCH (a)<-[:E]-(b) RETURN id(a), id(b)",
    "MATCH (a)-[:E]-(b) RETURN id(a), id(b)",
    "MATCH (a)-[:E|F]->(b) RETURN id(a), id(b)",
    "MATCH (a)-->(b) RETURN id(a), id(b)",
    "MATCH (a)-[r:E]->(b) RETURN id(r), id(a), id(b)",
    "MATCH (a)-[:E]->(b)-[:E]->(c) RETURN id(a), id(c)",
    "MATCH (a)-[:E]->(b), (a)-[:F]->(b) RETURN id(a), id(b)",
    "MATCH (a:P {i: 0})-[:E*1..3]->(b) RETURN id(b)",
    "MATCH (a:P)-[:E*]->(b) RETURN id(a), count(DISTINCT b)",
    "MATCH p = (a:P)-[:E*1..2]->(b) RETURN length(p), id(a), id(b)",
    "MATCH (a:P) OPTIONAL MATCH (a)-[:F]->(b) RETURN id(a), id(b)",
    "MATCH (n:Q) RETURN id(n), n.i",
    "MATCH (n) RETURN count(n)",
    "MATCH (s:P {i: 0}) CALL algo.bfs(s) YIELD node, level RETURN id(node), level",
]


class TestFlushFreeQueryShapes:
    """Every read plan shape runs over the overlay: it leaves each delta
    matrix's ``dirty``/``pending``/``generation`` as it found them and
    answers what the same query answers on the flushed graph."""

    @pytest.mark.parametrize("query", FLUSH_FREE_READS)
    def test_read_leaves_deltas_and_matches_flushed(self, query):
        db = _dirty_graph(flush=False)
        g = db.graph
        matrices = [g._adj] + g._rel_matrices + g._label_matrices
        before = [(dm.dirty, dm.pending, dm.generation) for dm in matrices]
        assert all(dirty for dirty, _, _ in before)
        got = sorted(db.query(query).rows)
        assert [(dm.dirty, dm.pending, dm.generation) for dm in matrices] == before
        assert got == sorted(_dirty_graph(flush=True).query(query).rows)


class TestPropertyFuzz:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7)),
            max_size=60,
        ),
        st.integers(1, 20),
    )
    def test_matches_reference_set(self, ops, max_pending):
        """Random add/delete interleavings agree with a Python set model,
        no matter where auto-flushes land."""
        m = DeltaMatrix(8, max_pending=max_pending)
        model = set()
        for is_add, i, j in ops:
            if is_add:
                m.add(i, j)
                model.add((i, j))
            else:
                m.delete(i, j)
                model.discard((i, j))
        for i, j in [(a, b) for a in range(8) for b in range(8)]:
            assert m.has(i, j) == ((i, j) in model)
        mat = m.synced()
        rows, cols, _ = mat.to_coo()
        assert set(zip(rows.tolist(), cols.tolist())) == model
        mat.check_invariants()

    @given(
        st.lists(
            st.tuples(st.sampled_from(["add", "delete", "read"]), st.integers(0, 7), st.integers(0, 7)),
            max_size=80,
        ),
        st.integers(1, 200),
    )
    def test_overlay_matches_dense_reference(self, ops, max_pending):
        """Random add/delete/read interleavings: every overlay read primitive
        (has, nvals, row, row_degree, col_degree, to_coo) agrees with a naive dense
        matrix, wherever flushes land — including add-then-delete and
        delete-then-re-add of one edge with no intervening flush."""
        m = DeltaMatrix(8, max_pending=max_pending)
        dense = np.zeros((8, 8), dtype=bool)
        for op, i, j in ops:
            if op == "add":
                m.add(i, j)
                dense[i, j] = True
            elif op == "delete":
                m.delete(i, j)
                dense[i, j] = False
            else:
                view = m.overlay()
                assert view[i, j] is (True if dense[i, j] else None)
                cols, _ = view.row(i)
                assert cols.tolist() == np.flatnonzero(dense[i]).tolist()
        view = m.overlay()
        assert view.nvals == int(dense.sum())
        assert m.nvals() == int(dense.sum())
        assert view.row_degree().tolist() == dense.sum(axis=1).tolist()
        assert view.col_degree().tolist() == dense.sum(axis=0).tolist()
        rows, cols, _ = view.to_coo()
        ref_rows, ref_cols = np.nonzero(dense)
        assert rows.tolist() == ref_rows.tolist()
        assert cols.tolist() == ref_cols.tolist()
        snapshot = view.materialize()
        snapshot.check_invariants()
        assert np.array_equal(snapshot.to_dense(), dense)
