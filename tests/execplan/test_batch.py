"""Unit tests for the columnar batch layer (RecordBatch / columns /
vectorized expression kernels) and the ISSUE-5 satellite fixes:
SKIP/LIMIT operand validation and strict UNWIND list typing."""

import numpy as np
import pytest

from repro import GraphDB
from repro.errors import CypherSemanticError, CypherTypeError, ResponseError
from repro.execplan.batch import (
    EntityColumn,
    RecordBatch,
    ValueColumn,
    as_entity_ids,
    object_column,
)
from repro.execplan.record import Layout
from repro.graph.config import GraphConfig
from repro.graph.graph import Graph


def GraphConfigDefault() -> GraphConfig:
    return GraphConfig(node_capacity=256)


@pytest.fixture()
def db():
    d = GraphDB("batch-unit", GraphConfig(node_capacity=256))
    d.query(
        "CREATE (:P {name: 'a', v: 1}), (:P {name: 'b', v: 2}), (:P {name: 'c'})"
    )
    return d


# ---------------------------------------------------------------------------
# RecordBatch / column ops
# ---------------------------------------------------------------------------


class TestRecordBatch:
    def _batch(self, graph):
        layout = Layout(["n", "x"])
        ids = EntityColumn("node", np.array([0, 1, 2], dtype=np.int64), graph)
        vals = ValueColumn(object_column([10, None, "s"]))
        return RecordBatch(layout, [ids, vals])

    def test_take_compress_slice(self):
        g = Graph("t")
        for _ in range(3):
            g.create_node(["L"], {})
        b = self._batch(g)
        taken = b.take(np.array([2, 0]))
        assert taken.columns[0].ids.tolist() == [2, 0]
        assert taken.columns[1].to_objects().tolist() == ["s", 10]
        kept = b.compress(np.array([True, False, True]))
        assert kept.columns[0].ids.tolist() == [0, 2]
        assert b.slice(1, 5).columns[0].ids.tolist() == [1, 2]
        assert len(b.slice(3, 3)) == 0

    def test_lazy_handle_materialization(self):
        g = Graph("t")
        for _ in range(3):
            g.create_node(["L"], {})
        b = self._batch(g)
        col = b.columns[0]
        assert col._objects is None  # nothing materialized yet
        rows = list(b.iter_rows())
        assert col._objects is not None
        assert rows[0][0].id == 0 and rows[1][1] is None
        # cached: second materialization returns the same handles
        assert b.columns[0].to_objects()[0] is rows[0][0]

    def test_null_ids_materialize_as_none(self):
        g = Graph("t")
        g.create_node(["L"], {})
        col = EntityColumn("node", np.array([0, -1], dtype=np.int64), g)
        objs = col.to_objects()
        assert objs[0].id == 0 and objs[1] is None
        assert col.null_mask().tolist() == [False, True]
        assert col.hash_keys() == [("node", 0), None]

    def test_from_rows_round_trip(self):
        layout = Layout(["a", "b"])
        rows = [[1, "x"], [2, None], [3]]  # short row pads with None
        b = RecordBatch.from_rows(layout, rows)
        assert [list(r) for r in b.iter_rows()] == [[1, "x"], [2, None], [3, None]]

    def test_zero_column_batches_keep_length(self):
        b = RecordBatch.from_rows(Layout(), [[], [], []])
        assert len(b) == 3
        assert [list(r) for r in b.iter_rows()] == [[], [], []]

    def test_concat_entity_and_value(self):
        g = Graph("t")
        for _ in range(4):
            g.create_node(["L"], {})
        layout = Layout(["n"])
        b1 = RecordBatch(layout, [EntityColumn("node", np.array([0, 1], dtype=np.int64), g)])
        b2 = RecordBatch(layout, [EntityColumn("node", np.array([3], dtype=np.int64), g)])
        merged = RecordBatch.concat(layout, [b1, b2])
        assert isinstance(merged.columns[0], EntityColumn)
        assert merged.columns[0].ids.tolist() == [0, 1, 3]

    def test_concat_keeps_typed_columns(self):
        """Pieces of one typed dtype concatenate as that dtype with their
        null masks; mixed dtypes fall back to objects, so ``1`` and ``1.0``
        keep their types, and a string gather's codes are dropped."""
        layout = Layout(["x"])
        ints = RecordBatch(layout, [ValueColumn(np.array([3, 1], dtype=np.int64))])
        holed = RecordBatch(layout, [ValueColumn(np.array([0, 2], dtype=np.int64), np.array([True, False]))])
        col = RecordBatch.concat(layout, [ints, holed]).columns[0]
        assert col.values.dtype == np.int64 and col.codes is None
        assert col.nulls.tolist() == [False, False, True, False]
        assert col.to_objects().tolist() == [3, 1, None, 2]
        floats = RecordBatch(layout, [ValueColumn(np.array([0.5, -0.0]))])
        col = RecordBatch.concat(layout, [floats, floats]).columns[0]
        assert col.values.dtype == np.float64 and col.nulls is None
        mixed = RecordBatch.concat(layout, [ints, RecordBatch(layout, [ValueColumn(np.array([1.0]))])]).columns[0]
        assert mixed.values.dtype == object
        assert [(type(v), v) for v in mixed.values] == [(int, 3), (int, 1), (float, 1.0)]
        pool = ["a", "b"]
        codes = np.array([1, 0], dtype=np.int32)
        strings = RecordBatch(layout, [ValueColumn(object_column(["b", "a"]), None, codes, pool)])
        col = RecordBatch.concat(layout, [strings, strings]).columns[0]
        assert col.codes is None and col.to_objects().tolist() == ["b", "a", "b", "a"]

    def test_as_entity_ids_recovers_from_object_columns(self):
        g = Graph("t")
        n0 = g.create_node(["L"], {})
        col = ValueColumn(object_column([n0, None]))
        kind, ids = as_entity_ids(col)
        assert kind == "node" and ids.tolist() == [n0.id, -1]
        assert as_entity_ids(ValueColumn(object_column([1, 2]))) is None

    def test_property_gather_memoized(self):
        g = Graph("t")
        a = g.create_node(["L"], {"v": 7})
        col = EntityColumn("node", np.array([a.id], dtype=np.int64), g)
        first = col.property_values("v")
        assert first.tolist() == [7]
        assert col.property_values("v") is first


class TestGraphGathers:
    def test_property_column_nulls_and_missing(self):
        g = Graph("t")
        a = g.create_node(["L"], {"v": 1})
        b = g.create_node(["L"], {})
        values, nulls, codes = g.node_property_column(np.array([a.id, b.id, -1], dtype=np.int64), "v")
        assert ValueColumn(values, nulls).to_objects().tolist() == [1, None, None]
        assert nulls.tolist() == [False, True, True] and codes is None
        values, nulls, _ = g.node_property_column([a.id], "nope")
        assert values.tolist() == [None] and nulls.tolist() == [True]

    def test_property_column_dead_id_raises(self):
        from repro.errors import EntityNotFound

        g = Graph("t")
        a = g.create_node(["L"], {"v": 1})
        g.delete_node(a.id)
        with pytest.raises(EntityNotFound):
            g.node_property_column([a.id], "v")
        with pytest.raises(EntityNotFound):
            g.node_property_column([99], "v")

    def test_nodes_have_labels(self):
        g = Graph("t")
        a = g.create_node(["L", "M"], {})
        b = g.create_node(["L"], {})
        ids = np.array([a.id, b.id, -1], dtype=np.int64)
        assert g.nodes_have_labels(ids, ["L"]).tolist() == [True, True, False]
        assert g.nodes_have_labels(ids, ["L", "M"]).tolist() == [True, False, False]
        assert g.nodes_have_labels(ids, ["Nope"]).tolist() == [False, False, False]


# ---------------------------------------------------------------------------
# Satellite: SKIP/LIMIT operand validation
# ---------------------------------------------------------------------------


class TestSkipLimitValidation:
    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (n:P) RETURN n.name LIMIT -1",
            "MATCH (n:P) RETURN n.name SKIP -3",
            "MATCH (n:P) RETURN n.name LIMIT 1.5",
            "MATCH (n:P) RETURN n.name SKIP 'two'",
            "MATCH (n:P) RETURN n.name LIMIT true",
        ],
    )
    def test_rejected(self, db, query):
        with pytest.raises(CypherSemanticError, match="must be a non-negative integer"):
            db.query(query)

    def test_parameterized_counts_validated(self, db):
        q = "MATCH (n:P) RETURN n.name ORDER BY n.name SKIP $s LIMIT $l"
        assert db.query(q, {"s": 1, "l": 1}).column("n.name") == ["b"]
        with pytest.raises(CypherSemanticError, match="SKIP must be a non-negative integer"):
            db.query(q, {"s": -1, "l": 1})
        with pytest.raises(CypherSemanticError, match="LIMIT must be a non-negative integer"):
            db.query(q, {"s": 0, "l": 2.5})

    def test_zero_still_legal(self, db):
        assert db.query("MATCH (n:P) RETURN n LIMIT 0").rows == []
        assert len(db.query("MATCH (n:P) RETURN n SKIP 0")) == 3


# ---------------------------------------------------------------------------
# Satellite: UNWIND of a non-list scalar is a type error
# ---------------------------------------------------------------------------


class TestUnwindTyping:
    def test_scalar_raises(self, db):
        with pytest.raises(CypherTypeError, match="UNWIND expects a list"):
            db.query("UNWIND 42 AS x RETURN x")
        with pytest.raises(CypherTypeError, match="UNWIND expects a list"):
            db.query("UNWIND 'abc' AS x RETURN x")

    def test_null_produces_zero_rows(self, db):
        assert db.query("UNWIND null AS x RETURN x").rows == []
        assert db.query("MATCH (n:P) UNWIND n.missing AS x RETURN x").rows == []

    def test_lists_still_fan_out(self, db):
        assert db.query("UNWIND [1, 2, 3] AS x RETURN x").column("x") == [1, 2, 3]
        assert db.query("UNWIND [] AS x RETURN x").rows == []

    def test_scalar_raises_at_every_batch_size(self, db):
        for size in (1, 7, 1024):
            db.graph.config.exec_batch_size = size
            try:
                with pytest.raises(CypherTypeError):
                    db.query("MATCH (n:P) UNWIND n.v AS x RETURN x")
            finally:
                db.graph.config.exec_batch_size = 1024


# ---------------------------------------------------------------------------
# Aggregate fast-path/row-loop coherence (code-review regressions)
# ---------------------------------------------------------------------------


class TestAggregatePathCoherence:
    def test_mixed_batches_share_groups(self):
        """One run may route different batches through the np.unique fast
        path and the object-dict row loop; both must land in the same
        groups (regression: bare-value vs 1-tuple dict keys split them)."""
        d = GraphDB("agg-coherence", GraphConfig(node_capacity=256, exec_batch_size=4))
        for p in [1, 2, 1, 2, "x", 1]:
            d.query("CREATE (:N {p: $p})", {"p": p})
        rows = sorted(
            d.query("MATCH (n:N) RETURN n.p, count(*)").rows, key=lambda r: str(r[0])
        )
        assert rows == [(1, 3), (2, 2), ("x", 1)]

    @pytest.mark.parametrize("size", [1, 7, 1024])
    def test_count_distinct_shares_seen_set_across_column_kinds(self, size):
        """count(DISTINCT x) over a stream alternating id-vector batches
        (the handle-free path) with Node-handle object batches (the row
        loop): an id seen in either kind of batch counts once."""
        from repro.cypher import ast_nodes as A
        from repro.execplan.expressions import ExecContext, compile_expr
        from repro.execplan.ops_base import PlanOp
        from repro.execplan.ops_stream import Aggregate, AggSpec
        from repro.graph.entities import Node

        d = GraphDB("distinct-kinds", GraphConfig(node_capacity=256, exec_batch_size=size))
        d.query("UNWIND range(0, 9) AS i CREATE (:N)")
        graph = d.graph
        layout = Layout(["g", "x"])

        def batch(groups, xs, handles):
            g = ValueColumn(object_column(groups))
            if handles:
                x = ValueColumn(object_column([None if i < 0 else Node(graph, i) for i in xs]))
            else:
                x = EntityColumn("node", np.array(xs), graph)
            return RecordBatch(layout, [g, x])

        batches = [
            batch([0, 0, 1, 1], [1, 2, 1, 3], handles=False),
            batch([0, 1, 1, 0], [2, 1, 4, -1], handles=True),
            batch([1, 0, 0, 1], [4, 5, 1, -1], handles=False),
            batch([0, 1], [5, 6], handles=True),
        ]

        class Replay(PlanOp):
            def _produce_batches(self, ctx):
                yield from batches

        count = AggSpec("count", compile_expr(A.Identifier("x"), layout), True)
        for group_items, expected in [
            ([], [[6]]),  # ids 1..6
            ([("g", compile_expr(A.Identifier("g"), layout))], [[0, 3], [1, 4]]),
        ]:
            agg = Aggregate(Replay([], layout), group_items, [("c", count)])
            out = [list(r) for b in agg.produce_batches(ExecContext(graph)) for r in b.iter_rows()]
            assert out == expected

    def test_sort_large_ints_exact(self):
        """ORDER BY must not collapse or crash on ints float64 cannot
        represent (regressions: 2**53 tie-collapse, 10**400 OverflowError)."""
        d = GraphDB("sort-bigint", GraphConfigDefault())
        big = 2**53
        rows = d.query(
            "UNWIND $xs AS x RETURN x ORDER BY x", {"xs": [big + 1, big]}
        ).column("x")
        assert rows == [big, big + 1]
        rows = d.query(
            "UNWIND $xs AS x RETURN x ORDER BY x", {"xs": [1, 10**400, 2]}
        ).column("x")
        assert rows == [1, 2, 10**400]
        rows = d.query(
            "UNWIND $xs AS x RETURN x ORDER BY x DESC", {"xs": [5, -(2**63), 7]}
        ).column("x")
        assert rows == [7, 5, -(2**63)]

    def test_minmax_int64_edges(self):
        """max() must survive INT64_MIN (negation wraps) and ints beyond
        float64 (OverflowError) by dropping to the row loop."""
        d = GraphDB("agg-int64", GraphConfigDefault())
        assert d.query(
            "UNWIND $xs AS x RETURN max(x)", {"xs": [-(2**63), 5]}
        ).scalar() == 5
        assert d.query(
            "UNWIND $xs AS x RETURN max(x)", {"xs": [10**400, 1.5]}
        ).scalar() == 10**400
        assert d.query(
            "UNWIND $xs AS x RETURN min(x)", {"xs": [10**400, 1.5]}
        ).scalar() == 1.5

    def test_group_keys_beyond_float64(self):
        d = GraphDB("agg-hugekeys", GraphConfigDefault())
        rows = d.query(
            "UNWIND $xs AS x RETURN x, count(x)", {"xs": [10**400, 1.5, 10**400]}
        ).rows
        assert sorted(rows, key=lambda r: float("inf") if r[0] == 10**400 else r[0]) == [
            (1.5, 1),
            (10**400, 2),
        ]

    def test_batch_size_one_is_the_row_engine(self):
        """At exec_batch_size=1 the vectorized fast paths are gated off,
        so the CI differential leg really exercises the scalar engine."""
        d = GraphDB("rowleg", GraphConfig(node_capacity=256, exec_batch_size=1))
        big = 2**53
        assert d.query(
            "UNWIND $xs AS x RETURN x ORDER BY x", {"xs": [big + 1, big]}
        ).column("x") == [big, big + 1]
        assert d.query(
            "UNWIND $xs AS x RETURN max(x)", {"xs": [-(2**63), 5]}
        ).scalar() == 5

    def test_minmax_nan_matches_row_engine(self):
        """The min/max fast path must bail on NaN — the row engine's
        sort_key never replaces a NaN best (all comparisons are False)."""
        import math

        d = GraphDB("agg-nan", GraphConfigDefault())
        nan = float("nan")
        batched = d.query("UNWIND $xs AS x RETURN min(x), max(x)", {"xs": [nan, 1.0]}).rows
        d.graph.config.exec_batch_size = 1
        row = d.query("UNWIND $xs AS x RETURN min(x), max(x)", {"xs": [nan, 1.0]}).rows
        assert [math.isnan(v) for v in batched[0]] == [math.isnan(v) for v in row[0]]
        assert [v for v in batched[0] if not math.isnan(v)] == [
            v for v in row[0] if not math.isnan(v)
        ]

    def test_mixed_numeric_group_keys_past_2_53(self):
        """int 2**53+1 and float 2**53.0 are distinct group keys in the
        scalar engine; the float64 unique must not merge them."""
        big = 2**53
        d = GraphDB("agg-mixed53", GraphConfigDefault())
        rows = d.query(
            "UNWIND $xs AS x RETURN x, count(*)", {"xs": [big + 1, float(big)]}
        ).rows
        assert len(rows) == 2

    def test_id_seek_boolean_matches_nothing(self):
        """id(n) = true must return no rows even though the residual
        WHERE filter is dropped for consumed id-seeks."""
        d = GraphDB("seek-bool", GraphConfigDefault())
        d.query("CREATE (:N), (:N)")  # node ids 0 and 1
        assert d.query("MATCH (n) WHERE id(n) = true RETURN n").rows == []
        assert d.query("MATCH (n) WHERE id(n) = $p RETURN n", {"p": True}).rows == []
        assert len(d.query("MATCH (n) WHERE id(n) = 1 RETURN n")) == 1

    def test_cross_dtype_comparison_stays_exact(self):
        """An int column past 2**53 compared against a float constant
        must not collapse through float64 promotion."""
        big = 2**53
        d = GraphDB("cmp-crossdtype", GraphConfigDefault())
        d.query("CREATE (:N {v: $a}), (:N {v: 1})", {"a": big + 1})
        assert d.query(
            f"MATCH (n:N) WHERE n.v = {float(big)} RETURN count(*)"
        ).scalar() == 0
        assert d.query(
            "MATCH (n:N) WHERE n.v = $f RETURN count(*)", {"f": float(big)}
        ).scalar() == 0

    def test_nul_bytes_in_string_keys(self):
        """numpy U-dtype NUL padding must not merge 'a' with 'a\\x00' in
        group keys or tie them in ORDER BY."""
        d = GraphDB("nul-keys", GraphConfigDefault())
        d.query("CREATE (:N {s: $a, i: 1}), (:N {s: $b, i: 2})", {"a": "a\x00", "b": "a"})
        assert len(d.query("MATCH (n:N) RETURN n.s, count(*)")) == 2
        assert d.query("MATCH (n:N) RETURN n.i ORDER BY n.s").column("n.i") == [2, 1]

    def test_streaming_topk_matches_full_sort(self):
        d = GraphDB("topk", GraphConfig(node_capacity=256, exec_batch_size=64))
        vals = [(i * 37) % 501 for i in range(2000)]
        got = d.query(
            "UNWIND $xs AS x RETURN x ORDER BY x LIMIT 10", {"xs": vals}
        ).column("x")
        assert got == sorted(vals)[:10]
        got_desc = d.query(
            "UNWIND $xs AS x RETURN x ORDER BY x DESC LIMIT 7", {"xs": vals}
        ).column("x")
        assert got_desc == sorted(vals, reverse=True)[:7]

    def test_large_ints_stay_exact(self):
        """Ints past 2**53 must not collapse through float64 in the
        vectorized comparison, grouping, or min/max kernels."""
        big = 2**53
        d = GraphDB("agg-bigint", GraphConfig(node_capacity=256))
        d.query("CREATE (:N {p: $a}), (:N {p: $b})", {"a": big, "b": big + 1})
        assert d.query(
            "MATCH (n:N) WHERE n.p = $v RETURN count(*)", {"v": big}
        ).scalar() == 1
        assert len(d.query("MATCH (n:N) RETURN n.p, count(*)")) == 2
        assert d.query("MATCH (n:N) RETURN min(n.p), max(n.p)").rows == [(big, big + 1)]
        # literal comparisons route through the Const kernel path
        assert d.query(f"MATCH (n:N) WHERE n.p > {big} RETURN count(*)").scalar() == 1


# ---------------------------------------------------------------------------
# exec_batch_size knob
# ---------------------------------------------------------------------------


class TestExecBatchSizeConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GraphConfig(exec_batch_size=0).validate()

    def test_revalidate_keeps_direct_writes(self):
        """A later direct write to exec_batch_size must survive another
        validate()."""
        cfg = GraphConfig(exec_batch_size=256).validate()
        cfg.exec_batch_size = 512
        cfg.validate()
        assert cfg.exec_batch_size == 512

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BATCH_SIZE", "5")
        assert GraphConfig().validate().exec_batch_size == 5

    def test_graph_config_roundtrip_via_module(self):
        from repro.rediskv.graph_module import GraphModule
        from repro.rediskv.keyspace import Keyspace

        module = GraphModule(Keyspace(), GraphConfig())
        module.config_set("EXEC_BATCH_SIZE", "128")
        assert module.config_get("EXEC_BATCH_SIZE") == ["EXEC_BATCH_SIZE", 128]
        # the retired legacy name is an unknown parameter now
        with pytest.raises(ResponseError, match="Unknown configuration parameter"):
            module.config_get("TRAVERSE_BATCH_SIZE")
