"""Unit tests for the columnar secondary-index layer: type-family keying
(the True/1/1.0 regression), None/NaN exclusion, big-int exactness, delta
overlay vs merged base equivalence, string-prefix edges, composite
longest-prefix semantics, and the vector index against a brute-force
numpy oracle."""

import random

import numpy as np
import pytest

from repro import GraphDB
from repro.graph.index import (
    CompositeIndex,
    RangeIndex,
    VectorIndex,
    _family_of,
    _prefix_upper,
)


def ids(arr):
    return sorted(int(i) for i in arr)


class TestTypeFamilies:
    def test_true_one_onefloat_do_not_alias(self):
        """Python dict/set semantics alias True == 1 == 1.0; the index
        must not (Cypher booleans and numbers are different families)."""
        idx = RangeIndex()
        idx.insert(True, 1)
        idx.insert(1, 2)
        idx.insert(1.0, 3)
        idx.insert(False, 4)
        idx.insert(0, 5)
        assert ids(idx.seek_eq(True)) == [1]
        assert ids(idx.seek_eq(False)) == [4]
        # numeric equality is cross-type within the family: 1 == 1.0
        assert ids(idx.seek_eq(1)) == [2, 3]
        assert ids(idx.seek_eq(1.0)) == [2, 3]
        assert ids(idx.seek_eq(0)) == [5]

    def test_string_one_is_its_own_family(self):
        idx = RangeIndex()
        idx.insert(1, 1)
        idx.insert("1", 2)
        assert ids(idx.seek_eq(1)) == [1]
        assert ids(idx.seek_eq("1")) == [2]

    def test_true_one_regression_end_to_end(self):
        """The historical ExactMatchIndex collision, driven via Cypher."""
        db = GraphDB("g")
        db.query("CREATE (:P {v: true}), (:P {v: 1}), (:P {v: 1.0}), (:P {v: '1'})")
        db.query("CREATE INDEX ON :P(v)")
        assert "IndexRangeScan" in db.explain("MATCH (n:P) WHERE n.v = true RETURN n")
        assert db.query("MATCH (n:P) WHERE n.v = true RETURN count(n)").scalar() == 1
        assert db.query("MATCH (n:P) WHERE n.v = 1 RETURN count(n)").scalar() == 2
        assert db.query("MATCH (n:P) WHERE n.v = '1' RETURN count(n)").scalar() == 1

    def test_family_of_rejects_unindexables(self):
        assert _family_of(None) is None
        assert _family_of(float("nan")) is None
        assert _family_of([1, 2]) is None
        assert _family_of({"a": 1}) is None


class TestNullExclusion:
    def test_none_and_nan_never_indexed(self):
        idx = RangeIndex()
        assert not idx.insert(None, 1)
        assert not idx.insert(float("nan"), 2)
        assert len(idx) == 0
        assert ids(idx.seek_eq(None)) == []

    def test_null_probe_equals_scan_result(self):
        """`n.v = null` is Cypher-null, never true: an index seek and a
        label scan must both return zero rows."""
        db = GraphDB("g")
        db.query("CREATE (:P {v: 1}), (:P)")
        unindexed = db.query("MATCH (n:P) WHERE n.v = null RETURN count(n)").scalar()
        db.query("CREATE INDEX ON :P(v)")
        assert db.query("MATCH (n:P) WHERE n.v = null RETURN count(n)").scalar() == unindexed == 0

    def test_set_to_null_unindexes(self):
        db = GraphDB("g")
        db.query("CREATE (:P {v: 7})")
        db.query("CREATE INDEX ON :P(v)")
        db.query("MATCH (n:P) SET n.v = null")
        assert len(db.graph.get_index("P", "v")) == 0
        assert db.query("MATCH (n:P) WHERE n.v = 7 RETURN count(n)").scalar() == 0


class TestBigInts:
    def test_ints_beyond_float53_stay_exact(self):
        """2**53 and 2**53 + 1 share a float64 key; equality seeks must
        still tell them apart via the raw-value verification pass."""
        base = 2 ** 53
        idx = RangeIndex()
        for off in range(4):
            idx.insert(base + off, off)
        idx.fold()
        assert ids(idx.seek_eq(base)) == [0]
        assert ids(idx.seek_eq(base + 1)) == [1]
        assert ids(idx.seek_eq(base + 3)) == [3]
        assert ids(idx.seek_cmp(">", base + 1)) == [2, 3]
        assert ids(idx.seek_cmp("<=", base + 2)) == [0, 1, 2]

    def test_huge_ints_clamp_but_compare_raw(self):
        idx = RangeIndex()
        idx.insert(10 ** 400, 1)  # overflows float()
        idx.insert(-(10 ** 400), 2)
        idx.insert(5, 3)
        idx.fold()
        assert ids(idx.seek_eq(10 ** 400)) == [1]
        assert ids(idx.seek_cmp(">", 10 ** 399)) == [1]
        assert ids(idx.seek_cmp("<", 0)) == [2]


def vector_oracle(rows, q, k):
    """Brute-force cosine top-k with id tie-break."""
    def norm(v):
        v = np.asarray(v, dtype=np.float64)
        n = float(np.linalg.norm(v))
        return v / n if n > 0 else v

    qn = norm(q)
    scored = sorted(
        ((float(norm(vec) @ qn), nid) for nid, vec in rows),
        key=lambda t: (-t[0], t[1]),
    )
    return [(nid, s) for s, nid in scored[:k]]


class _RangeKind:
    """Range index adapter: ints and strings, checked through every seek
    and ``ordered_ids``."""

    def __init__(self):
        self.idx = RangeIndex()

    @staticmethod
    def value(rng):
        return rng.choice([rng.randint(0, 20), f"s{rng.randint(0, 20)}"])

    def insert(self, nid, value):
        assert self.idx.insert(value, nid)

    def remove(self, nid, value):
        self.idx.remove(value, nid)

    def check(self, live):
        idx = self.idx
        nums = {n: v for n, v in live.items() if isinstance(v, int)}
        strs = {n: v for n, v in live.items() if isinstance(v, str)}
        for probe in list(range(21)) + [f"s{i}" for i in range(21)]:
            expect = sorted(n for n, v in live.items() if v == probe)
            assert ids(idx.seek_eq(probe)) == expect, probe
        assert ids(idx.seek_range(5, False, 15, True)) == sorted(
            n for n, v in nums.items() if 5 <= v < 15
        )
        assert ids(idx.seek_cmp(">=", 12)) == sorted(n for n, v in nums.items() if v >= 12)
        assert ids(idx.seek_in([3, 7, "s11"])) == sorted(
            n for n, v in live.items() if v in (3, 7, "s11")
        )
        assert ids(idx.seek_prefix("s1")) == sorted(
            n for n, v in strs.items() if v.startswith("s1")
        )
        # strings rank before numbers; equal values break toward lower ids
        by_id = sorted(live.items())
        asc = sorted(by_id, key=lambda t: (isinstance(t[1], int), t[1]))
        desc = sorted(by_id, key=lambda t: (isinstance(t[1], int), t[1]), reverse=True)
        assert idx.ordered_ids(True).tolist() == [n for n, _ in asc]
        assert idx.ordered_ids(False).tolist() == [n for n, _ in desc]


class _CompositeKind:
    """Composite index over ``(v % 4, v)``: width-1 and width-2 prefix
    seeks."""

    def __init__(self):
        self.idx = CompositeIndex(0, (10, 11))

    @staticmethod
    def value(rng):
        return rng.randint(0, 20)

    def insert(self, nid, value):
        assert self.idx.index_node(nid, {10: value % 4, 11: value})

    def remove(self, nid, value):
        self.idx.unindex_node(nid, {10: value % 4, 11: value})

    def check(self, live):
        for head in range(4):
            expect = sorted(n for n, v in live.items() if v % 4 == head)
            assert ids(self.idx.seek_prefix_eq([head])) == expect, head
        for v in range(21):
            expect = sorted(n for n, w in live.items() if w == v)
            assert ids(self.idx.seek_prefix_eq([v % 4, v])) == expect, v


class _VectorKind:
    """Untrained vector index: exact top-k against a brute-force oracle."""

    def __init__(self):
        self.idx = VectorIndex(0, 10, dim=3)

    @staticmethod
    def value(rng):
        return [rng.uniform(-1, 1) for _ in range(3)]

    def insert(self, nid, value):
        assert self.idx.index_node(nid, {10: value})

    def remove(self, nid, value):
        self.idx.unindex_node(nid, {10: value})

    def check(self, live):
        q = [0.3, -0.5, 0.8]
        got_ids, got_scores = self.idx.query(q, len(live))
        expect = vector_oracle(sorted(live.items()), q, len(live))
        assert [int(i) for i in got_ids] == [nid for nid, _ in expect]
        assert np.allclose(got_scores, [s for _, s in expect])


class TestDeltaOverlay:
    @pytest.mark.parametrize("threshold", [1, 3, 10_000])
    @pytest.mark.parametrize("kind", [_RangeKind, _CompositeKind, _VectorKind],
                             ids=["range", "composite", "vector"])
    def test_overlay_matches_dict_oracle(self, kind, threshold, fold_at):
        """Pending adds, base deletes and the folded base must be
        observationally identical for every index kind: threshold 1 folds
        on every write, 10 000 keeps every write pending until the
        explicit fold."""
        fold_at(threshold)
        rng = random.Random(42)
        index = kind()
        live = {}

        def insert(nid, value):
            index.insert(nid, value)
            live[nid] = value

        def remove(nid):
            index.remove(nid, live.pop(nid))

        for nid in range(40):
            insert(nid, index.value(rng))
        for nid in range(0, 40, 9):  # still pending below the threshold
            remove(nid)
        assert len(index.idx) == len(live)
        index.check(live)
        index.idx.fold()  # fold mid-sequence: every survivor is in the base
        index.check(live)
        from_base = rng.sample(sorted(live), 8)
        old = {nid: live[nid] for nid in from_base}
        for nid in from_base:
            remove(nid)
        for nid in range(40, 60):
            insert(nid, index.value(rng))
        for nid in range(40, 60, 3):
            remove(nid)
        # the same id under the same key, after its base entry was deleted
        for nid in from_base[:4]:
            insert(nid, old[nid])
        remove(from_base[0])
        assert len(index.idx) == len(live)
        index.check(live)
        index.idx.fold()
        assert len(index.idx) == len(live)
        index.check(live)

    def test_reinsert_after_base_delete(self, fold_at):
        fold_at(1)
        idx = RangeIndex()
        idx.insert(5, 1)
        idx.remove(5, 1)
        idx.insert(5, 1)
        assert ids(idx.seek_eq(5)) == [1]

    def test_remove_of_an_absent_id_is_a_no_op(self):
        idx = RangeIndex()
        idx.insert(5, 1)
        idx.insert(5, 3)
        idx.fold()
        idx.remove(5, 2)
        idx.remove(6, 1)
        idx.remove(5, 3)
        idx.remove(5, 3)  # already deleted from the base
        assert len(idx) == 1 and ids(idx.seek_eq(5)) == [1]


class TestStringPrefix:
    def test_prefix_upper_edges(self):
        assert _prefix_upper("ab") == "ac"
        assert _prefix_upper("a" + chr(0x10FFFF)) == "b"
        assert _prefix_upper(chr(0x10FFFF)) is None

    def test_prefix_seek(self, fold_at):
        fold_at(1)
        idx = RangeIndex()
        for nid, s in enumerate(["app", "apple", "apply", "banana", "", "ap"]):
            idx.insert(s, nid)
        assert ids(idx.seek_prefix("app")) == [0, 1, 2]
        assert ids(idx.seek_prefix("")) == [0, 1, 2, 3, 4, 5]
        assert ids(idx.seek_prefix("z")) == []
        # non-string probes and non-string values never prefix-match
        idx.insert(7, 9)
        assert ids(idx.seek_prefix("7")) == []
        assert ids(idx.seek_prefix(7)) == []

    def test_prefix_at_max_codepoint(self, fold_at):
        fold_at(1)
        top = chr(0x10FFFF)
        idx = RangeIndex()
        idx.insert(top + "x", 1)
        idx.insert("a", 2)
        assert ids(idx.seek_prefix(top)) == [1]


class TestCompositeIndex:
    def test_longest_prefix_storage(self, fold_at):
        """A node missing trailing attributes is indexed under its longest
        indexable prefix, so width-1 seeks still find it."""
        fold_at(1)
        idx = CompositeIndex(0, (10, 11))
        idx.index_node(1, {10: "a", 11: 1})
        idx.index_node(2, {10: "a"})  # no attr 11
        idx.index_node(3, {10: "a", 11: [1]})  # attr 11 unindexable
        idx.index_node(4, {11: 1})  # first attr missing -> not indexed
        assert ids(idx.seek_prefix_eq(["a"])) == [1, 2, 3]
        assert ids(idx.seek_prefix_eq(["a", 1])) == [1]
        assert ids(idx.seek_prefix_eq(["b"])) == []

    def test_families_do_not_alias_in_tuples(self, fold_at):
        fold_at(1)
        idx = CompositeIndex(0, (10, 11))
        idx.index_node(1, {10: True, 11: "x"})
        idx.index_node(2, {10: 1, 11: "x"})
        assert ids(idx.seek_prefix_eq([True])) == [1]
        assert ids(idx.seek_prefix_eq([1])) == [2]
        assert ids(idx.seek_prefix_eq([1, "x"])) == [2]

    @pytest.mark.parametrize("threshold", [1, 10_000])
    def test_delete_and_update_consistency(self, threshold, fold_at):
        fold_at(threshold)
        idx = CompositeIndex(0, (10, 11))
        for nid in range(10):
            idx.index_node(nid, {10: nid % 3, 11: nid})
        idx.unindex_node(4, {10: 1, 11: 4})
        idx.index_node(4, {10: 2, 11: 4})
        assert ids(idx.seek_prefix_eq([1])) == [1, 7]
        assert ids(idx.seek_prefix_eq([2])) == [2, 4, 5, 8]
        assert ids(idx.seek_prefix_eq([2, 4])) == [4]

    def test_unindexable_probe_selects_nothing(self, fold_at):
        fold_at(1)
        idx = CompositeIndex(0, (10,))
        idx.index_node(1, {10: 1})
        assert ids(idx.seek_prefix_eq([None])) == []
        assert ids(idx.seek_prefix_eq([[1]])) == []


class TestVectorIndex:
    @pytest.mark.parametrize("threshold", [1, 10_000])
    def test_matches_numpy_oracle(self, threshold, fold_at):
        fold_at(threshold)
        rng = np.random.default_rng(7)
        dim = 8
        rows = [(nid, rng.normal(size=dim).tolist()) for nid in range(50)]
        idx = VectorIndex(0, 10, dim=dim)
        for nid, vec in rows:
            assert idx.index_node(nid, {10: vec})
        # delete a few, from both base and pending
        for nid in (3, 17, 49):
            idx.unindex_node(nid, {10: rows[nid][1]})
        live = [(n, v) for n, v in rows if n not in (3, 17, 49)]
        q = rng.normal(size=dim).tolist()
        got_ids, got_scores = idx.query(q, 10)
        expect = vector_oracle(live, q, 10)
        assert [int(i) for i in got_ids] == [nid for nid, _ in expect]
        assert np.allclose(got_scores, [s for _, s in expect])

    def test_rejects_malformed_rows_silently(self):
        idx = VectorIndex(0, 10, dim=3)
        assert not idx.index_node(1, {10: [1.0, 2.0]})  # wrong dim
        assert not idx.index_node(2, {10: [1.0, "x", 3.0]})  # non-numeric
        assert not idx.index_node(3, {10: [1.0, float("nan"), 3.0]})
        assert not idx.index_node(4, {10: "abc"})
        assert not idx.index_node(5, {10: None})
        assert len(idx) == 0

    def test_query_validation(self):
        idx = VectorIndex(0, 10, dim=2)
        idx.index_node(1, {10: [1.0, 0.0]})
        with pytest.raises(ValueError):
            idx.query([1.0], 1)
        with pytest.raises(ValueError):
            idx.query([1.0, float("inf")], 1)
        with pytest.raises(ValueError):
            idx.query("no", 1)

    def test_dimension_inferred_from_first_row(self):
        idx = VectorIndex(0, 10)
        assert idx.index_node(1, {10: [1.0, 2.0, 3.0]})
        assert idx.dim == 3
        assert not idx.index_node(2, {10: [1.0, 2.0]})


class TestGraphLevelCatalog:
    def test_catalog_lists_all_kinds(self):
        db = GraphDB("g")
        db.query("CREATE (:P {a: 1, b: 'x', emb: [1.0, 0.0]})")
        db.query("CREATE INDEX ON :P(a)")
        db.query("CREATE INDEX ON :P(a, b)")
        db.query("CREATE VECTOR INDEX ON :P(emb) OPTIONS {dimension: 2}")
        kinds = sorted(
            (e["label"], tuple(e["properties"]), e["kind"]) for e in db.graph.index_catalog()
        )
        assert kinds == [
            ("P", ("a",), "range"),
            ("P", ("a", "b"), "composite"),
            ("P", ("emb",), "vector"),
        ]

    def test_fold_threshold_applies_to_graph_indexes(self, fold_at):
        fold_at(1)
        db = GraphDB("g")
        db.query("CREATE INDEX ON :P(v)")
        db.query("CREATE INDEX ON :P(v, w)")
        db.query("CREATE (:P {v: 5, w: 1})")
        # threshold 1 folds on every write: nothing stays pending
        for idx in db.graph._all_indexes():
            stores = idx._fams.values() if idx.kind == "range" else [idx]
            assert all(not s.adds and not s.dels for s in stores)
        assert ids(db.graph.get_index("P", "v").seek_eq(5)) == [0]
