"""Unit + property tests for the low-level vectorized kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grblas import Mask, Matrix, Vector, binary, monoid, semiring
from repro.grblas import _kernels as K
from repro.grblas.descriptor import Descriptor


class TestConcatRanges:
    def test_basic(self):
        out = K.concat_ranges(np.array([0, 10]), np.array([3, 2]))
        assert np.array_equal(out, [0, 1, 2, 10, 11])

    def test_empty_segments_mixed(self):
        out = K.concat_ranges(np.array([5, 7, 9]), np.array([0, 2, 0]))
        assert np.array_equal(out, [7, 8])

    def test_all_empty(self):
        assert len(K.concat_ranges(np.array([1, 2]), np.array([0, 0]))) == 0

    def test_no_segments(self):
        assert len(K.concat_ranges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))) == 0

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=20))
    def test_matches_python(self, segs):
        starts = np.array([s for s, _ in segs], dtype=np.int64)
        lens = np.array([l for _, l in segs], dtype=np.int64)
        expected = [x for s, l in segs for x in range(s, s + l)]
        assert np.array_equal(K.concat_ranges(starts, lens), expected)


class TestRunStarts:
    def test_basic(self):
        out = K.run_starts(np.array([3, 3, 5, 7, 7, 7]))
        assert np.array_equal(out, [0, 2, 3])

    def test_all_unique(self):
        assert np.array_equal(K.run_starts(np.array([1, 2, 3])), [0, 1, 2])

    def test_empty(self):
        assert len(K.run_starts(np.empty(0, dtype=np.int64))) == 0


class TestRowsToIndptr:
    def test_basic(self):
        out = K.rows_to_indptr(np.array([0, 0, 2]), 4)
        assert np.array_equal(out, [0, 2, 2, 3, 3])

    def test_empty(self):
        assert np.array_equal(K.rows_to_indptr(np.empty(0, dtype=np.int64), 3), [0, 0, 0, 0])


class TestLinearKeys:
    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=30))
    def test_roundtrip(self, pairs):
        rows = np.array([r for r, _ in pairs], dtype=np.int64)
        cols = np.array([c for _, c in pairs], dtype=np.int64)
        keys = K.linear_keys(rows, cols, 100)
        r2, c2 = K.split_keys(keys, 100)
        assert np.array_equal(r2, rows)
        assert np.array_equal(c2, cols)


class TestMembership:
    def test_basic(self):
        present, pos = K.membership(np.array([2, 5, 9]), np.array([5, 1, 9]))
        assert np.array_equal(present, [True, False, True])
        assert pos[0] == 1 and pos[2] == 2

    def test_empty_ref(self):
        present, _ = K.membership(np.empty(0, dtype=np.int64), np.array([1, 2]))
        assert not present.any()

    def test_empty_queries(self):
        present, pos = K.membership(np.array([1, 2]), np.empty(0, dtype=np.int64))
        assert len(present) == 0 and len(pos) == 0

    def test_query_beyond_max(self):
        present, _ = K.membership(np.array([1, 2]), np.array([99]))
        assert not present[0]


class TestSetOps:
    @given(
        st.lists(st.integers(0, 30), max_size=20, unique=True),
        st.lists(st.integers(0, 30), max_size=20, unique=True),
    )
    def test_intersect_matches_python(self, a, b):
        a, b = np.array(sorted(a), dtype=np.int64), np.array(sorted(b), dtype=np.int64)
        ia, ib = K.intersect_sorted(a, b)
        expected = sorted(set(a) & set(b))
        assert np.array_equal(a[ia], expected)
        assert np.array_equal(b[ib], expected)

    @given(
        st.lists(st.integers(0, 30), max_size=20, unique=True),
        st.lists(st.integers(0, 30), max_size=20, unique=True),
    )
    def test_setdiff_matches_python(self, a, b):
        a, b = np.array(sorted(a), dtype=np.int64), np.array(sorted(b), dtype=np.int64)
        keep = K.setdiff_sorted(a, b)
        assert np.array_equal(a[keep], sorted(set(a) - set(b)))


class TestMergeUnion:
    def test_disjoint(self):
        keys, vals = K.merge_union(
            np.array([1, 3]), np.array([10.0, 30.0]),
            np.array([2, 4]), np.array([20.0, 40.0]),
            binary.plus, np.float64,
        )
        assert np.array_equal(keys, [1, 2, 3, 4])
        assert np.allclose(vals, [10, 20, 30, 40])

    def test_overlap_applies_op(self):
        keys, vals = K.merge_union(
            np.array([1, 2]), np.array([10.0, 5.0]),
            np.array([2, 3]), np.array([7.0, 9.0]),
            binary.plus, np.float64,
        )
        assert np.array_equal(keys, [1, 2, 3])
        assert np.allclose(vals, [10, 12, 9])

    def test_none_op_second_wins(self):
        keys, vals = K.merge_union(
            np.array([2]), np.array([5.0]),
            np.array([2]), np.array([7.0]),
            None, np.float64,
        )
        assert np.allclose(vals, [7.0])

    def test_empty_sides(self):
        keys, vals = K.merge_union(
            np.empty(0, dtype=np.int64), np.empty(0),
            np.array([1]), np.array([2.0]),
            binary.plus, np.float64,
        )
        assert np.array_equal(keys, [1]) and vals[0] == 2.0

    @pytest.mark.parametrize(
        "a_dtype,b_dtype,out_dtype",
        [
            (np.float64, np.float64, np.float64),
            (np.int64, np.int64, np.int64),
            (np.bool_, np.bool_, np.bool_),
            (np.int8, np.float64, np.float64),
        ],
    )
    @pytest.mark.parametrize("op_name", ["plus", "first", "second", "lor", None])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_union1d_and_op(self, a_dtype, b_dtype, out_dtype, op_name, seed):
        """Keys equal ``np.union1d``; a key held by one side copies its
        value, a key held by both gets ``op(a, b)`` (``b`` without op)."""
        rng = np.random.default_rng(seed)
        ka = np.unique(rng.integers(0, 60, 25))
        kb = np.unique(rng.integers(0, 60, 25))
        va = rng.integers(0, 5, len(ka)).astype(a_dtype)
        vb = rng.integers(0, 5, len(kb)).astype(b_dtype)
        op = None if op_name is None else getattr(binary, op_name)
        keys, vals = K.merge_union(ka, va, kb, vb, op, out_dtype)
        assert np.array_equal(keys, np.union1d(ka, kb))
        a_at = dict(zip(ka.tolist(), range(len(ka))))
        b_at = dict(zip(kb.tolist(), range(len(kb))))
        for key, got in zip(keys.tolist(), vals.tolist()):
            if key in a_at and key in b_at:
                ia, ib = a_at[key], b_at[key]
                want = vb[ib] if op is None else op(va[ia : ia + 1], vb[ib : ib + 1])[0]
            elif key in a_at:
                want = va[a_at[key]]
            else:
                want = vb[b_at[key]]
            assert got == np.asarray(want).astype(out_dtype), (key, op_name)
        assert vals.dtype == out_dtype


class TestSortedUnique:
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=40))
    def test_matches_np_unique(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(K.sorted_unique(arr), np.unique(arr))


class TestMaskedVxmDedupe:
    """The structural masked vxm dedupes its fresh columns by a sort or
    by a dense scatter, picked from the input sizes; both sides of the
    rule must return the identical vector."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("frontier_size", [1, 5, 40])
    def test_sort_and_dense_sides_agree(self, monkeypatch, seed, frontier_size):
        rng = np.random.default_rng(seed)
        n = 64
        A = Matrix.from_edges(rng.integers(0, n, 300), rng.integers(0, n, 300), nrows=n)
        frontier = Vector.from_coo(rng.choice(n, frontier_size, replace=False), None, size=n)
        visited = Vector.from_coo(rng.choice(n, 20, replace=False), None, size=n)
        mask = Mask(visited, complement=True, structure=True)

        def expand(ratio):
            monkeypatch.setattr(K, "DENSE_DEDUPE_RATIO", ratio)
            out = frontier.vxm(A, semiring.any_pair, mask=mask, desc=Descriptor(replace=True))
            out.check_invariants()
            return out

        dense, by_sort = expand(10**9), expand(0)
        # reference: every out-neighbour of the frontier, minus visited
        rows, cols, _ = A.to_coo()
        reached = set(cols[np.isin(rows, frontier.indices)].tolist())
        expected = sorted(reached - set(visited.indices.tolist()))
        assert dense.indices.tolist() == by_sort.indices.tolist() == expected


class TestCooToCsr:
    def test_unsorted_input(self):
        indptr, indices, vals = K.coo_to_csr(
            np.array([1, 0, 1]), np.array([0, 2, 1]), np.array([9.0, 8.0, 7.0]), 2, 3, None
        )
        assert np.array_equal(indptr, [0, 1, 3])
        assert np.array_equal(indices, [2, 0, 1])
        assert np.allclose(vals, [8.0, 9.0, 7.0])

    def test_duplicates_last_wins(self):
        _, _, vals = K.coo_to_csr(
            np.array([0, 0]), np.array([1, 1]), np.array([3.0, 5.0]), 1, 2, None
        )
        assert np.allclose(vals, [5.0])

    def test_duplicates_monoid(self):
        _, _, vals = K.coo_to_csr(
            np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([3.0, 5.0, 2.0]), 1, 2, monoid.plus
        )
        assert np.allclose(vals, [10.0])

    def test_empty(self):
        indptr, indices, vals = K.coo_to_csr(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 3, 3, None
        )
        assert np.array_equal(indptr, [0, 0, 0, 0])
        assert len(indices) == 0 and len(vals) == 0


class TestCsrTranspose:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=15, unique=True))
    def test_roundtrip(self, coords):
        rows = np.array([r for r, _ in coords], dtype=np.int64)
        cols = np.array([c for _, c in coords], dtype=np.int64)
        vals = np.arange(len(coords), dtype=np.float64)
        indptr, indices, v = K.coo_to_csr(rows, cols, vals, 5, 5, None)
        t_indptr, t_indices, t_vals = K.csr_transpose(5, 5, indptr, indices, v)
        tt_indptr, tt_indices, tt_vals = K.csr_transpose(5, 5, t_indptr, t_indices, t_vals)
        assert np.array_equal(tt_indptr, indptr)
        assert np.array_equal(tt_indices, indices)
        assert np.array_equal(tt_vals, v)


class TestRowBlocks:
    def test_respects_budget(self):
        from repro.grblas._kernels import _row_blocks

        blocks = _row_blocks(np.array([4, 4, 4, 4]), budget=8)
        assert blocks == [(0, 2), (2, 4)]

    def test_oversized_row_alone(self):
        from repro.grblas._kernels import _row_blocks

        blocks = _row_blocks(np.array([100, 1]), budget=8)
        assert blocks[0] == (0, 1)

    def test_empty(self):
        from repro.grblas._kernels import _row_blocks

        assert _row_blocks(np.empty(0, dtype=np.int64), 8) == []
