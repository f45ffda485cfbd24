"""select / reduce operation tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import InvalidValue
from repro.grblas import FP64, Matrix, Vector, monoid

from tests.helpers import (
    dense_pair,
    matrix_and_pattern,
    matrix_dense_and_pattern,
    vector_dense_and_pattern,
)


class TestSelect:
    def setup_method(self):
        self.A = Matrix.from_dense(
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        )

    def test_tril(self):
        L = self.A.select("tril")
        d = L.to_dense()
        assert d[0, 1] == 0 and d[1, 0] == 4.0 and d[1, 1] == 5.0

    def test_tril_offset(self):
        L = self.A.select("tril", -1)
        assert L[1, 1] is None and L[1, 0] == 4.0

    def test_triu(self):
        U = self.A.select("triu", 1)
        assert U[0, 0] is None and U[0, 1] == 2.0

    def test_diag_offdiag(self):
        D = self.A.select("diag")
        O = self.A.select("offdiag")
        assert D.nvals == 3 and O.nvals == 6

    def test_value_predicates(self):
        G = self.A.select("valuegt", 5.0)
        assert G.nvals == 4
        E = self.A.select("valueeq", 5.0)
        assert E.nvals == 1 and E[1, 1] == 5.0

    def test_callable_predicate(self):
        C = self.A.select(lambda r, c, v: (r + c) % 2 == 0)
        assert C[0, 0] == 1.0 and C[0, 1] is None

    def test_unknown_predicate(self):
        with pytest.raises(InvalidValue):
            self.A.select("bogus")

    def test_vector_select(self):
        v = Vector.from_coo([0, 1, 2], [1.0, 5.0, 9.0], size=3)
        w = v.select("valuege", 5.0)
        assert w.nvals == 2 and w[0] is None


class TestReduce:
    def setup_method(self):
        self.A = Matrix.from_coo(
            [0, 0, 2], [0, 2, 1], [1.0, 2.0, 5.0], nrows=3, ncols=3
        )

    def test_reduce_rows(self):
        r = self.A.reduce_rows(monoid.plus)
        assert r[0] == 3.0 and r[1] is None and r[2] == 5.0

    def test_reduce_cols(self):
        c = self.A.reduce_cols(monoid.plus)
        assert c[0] == 1.0 and c[1] == 5.0 and c[2] == 2.0

    def test_reduce_rows_min(self):
        r = self.A.reduce_rows(monoid.min)
        assert r[0] == 1.0

    def test_reduce_scalar(self):
        s = self.A.reduce_scalar(monoid.plus)
        assert s.value() == 8.0

    def test_reduce_scalar_empty(self):
        s = Matrix.new(FP64, 2, 2).reduce_scalar(monoid.plus)
        assert s.is_empty

    def test_vector_reduce(self):
        v = Vector.from_coo([0, 3], [2.0, 3.0], size=4)
        assert v.reduce(monoid.plus).value() == 5.0
        assert v.reduce(monoid.max).value() == 3.0

    @given(matrix_and_pattern(max_dim=5))
    def test_row_reduce_matches_dense(self, mp):
        M, values, pattern = mp
        r = M.reduce_rows(monoid.plus)
        expected = values.sum(axis=1)
        got = r.to_dense()
        nonempty = pattern.any(axis=1)
        assert np.allclose(got[nonempty], expected[nonempty])
        assert not np.any(got[~nonempty])


# ---------------------------------------------------------------------------
# Dense oracles: every named predicate and every order-free monoid
# ---------------------------------------------------------------------------

VALUE_PREDICATES = {
    "valueeq": np.equal,
    "valuene": np.not_equal,
    "valuelt": np.less,
    "valuele": np.less_equal,
    "valuegt": np.greater,
    "valuege": np.greater_equal,
    "nonzero": lambda v, t: v != 0,
}

POSITIONAL_PREDICATES = {
    "tril": lambda r, c, t: c <= r + t,
    "triu": lambda r, c, t: c >= r + t,
    "diag": lambda r, c, t: c == r + t,
    "offdiag": lambda r, c, t: c != r + t,
}


@st.composite
def stored_zeros_matrix(draw):
    """A matrix whose stored values are 0..4, so ``nonzero`` has work."""
    values, pattern = draw(dense_pair(max_dim=5))
    values = (values - 1) * pattern
    rows, cols = np.nonzero(pattern)
    M = Matrix.from_coo(rows, cols, values[rows, cols], nrows=pattern.shape[0], ncols=pattern.shape[1], dtype=np.int64)
    return M, values, pattern


class TestSelectOracle:
    @pytest.mark.parametrize("name", sorted(VALUE_PREDICATES))
    @given(mp=stored_zeros_matrix())
    def test_value_predicate_matrix(self, name, mp):
        M, values, pattern = mp
        got = M.select(name, 2)
        got.check_invariants()
        keep = pattern & VALUE_PREDICATES[name](values, 2)
        gd, gp = matrix_dense_and_pattern(got)
        assert np.array_equal(gp, keep)
        assert np.array_equal(gd[keep], values[keep])

    @pytest.mark.parametrize("name", sorted(VALUE_PREDICATES))
    @given(data=st.data())
    def test_value_predicate_vector(self, name, data):
        n = data.draw(st.integers(1, 8))
        pattern = data.draw(arrays(np.bool_, (n,)))
        values = data.draw(arrays(np.int64, (n,), elements=st.integers(0, 4))) * pattern
        idx = np.flatnonzero(pattern)
        v = Vector.from_coo(idx, values[idx], size=n, dtype=np.int64)
        got = v.select(name, 2)
        got.check_invariants()
        keep = pattern & VALUE_PREDICATES[name](values, 2)
        gd, gp = vector_dense_and_pattern(got)
        assert np.array_equal(gp, keep)
        assert np.array_equal(gd[keep], values[keep])

    @pytest.mark.parametrize("offset", [-1, 0, 2])
    @pytest.mark.parametrize("name", sorted(POSITIONAL_PREDICATES))
    @given(mp=matrix_and_pattern(max_dim=5))
    def test_positional_predicate(self, name, offset, mp):
        M, values, pattern = mp
        got = M.select(name, offset)
        got.check_invariants()
        r, c = np.indices(pattern.shape)
        keep = pattern & POSITIONAL_PREDICATES[name](r, c, offset)
        gd, gp = matrix_dense_and_pattern(got)
        assert np.array_equal(gp, keep)
        assert np.array_equal(gd[keep], values[keep])


def _fold(name, xs):
    """Dense reference fold of one non-empty run of stored values."""
    xs = list(xs)
    if name == "plus":
        return sum(xs)
    if name == "times":
        return int(np.prod(xs))
    if name == "min":
        return min(xs)
    if name == "max":
        return max(xs)
    if name == "lor":
        return any(xs)
    if name == "land":
        return all(xs)
    return sum(map(bool, xs)) % 2 == 1  # lxor


NUMERIC_MONOIDS = ["plus", "times", "min", "max"]
LOGICAL_MONOIDS = ["lor", "land", "lxor"]


@st.composite
def monoid_matrix(draw, name):
    """(Matrix, dense values, pattern) typed for monoid ``name``."""
    nr = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 5))
    pattern = draw(arrays(np.bool_, (nr, nc)))
    if name in LOGICAL_MONOIDS:
        values = draw(arrays(np.bool_, (nr, nc)))
    else:
        values = draw(arrays(np.int64, (nr, nc), elements=st.integers(-3, 5)))
    rows, cols = np.nonzero(pattern)
    M = Matrix.from_coo(rows, cols, values[rows, cols], nrows=nr, ncols=nc, dtype=values.dtype)
    return M, values, pattern


class TestReduceOracle:
    """``reduce_rows``/``reduce_cols``/``reduce_scalar``/``Vector.reduce``
    against a per-run Python fold, for each monoid whose result does not
    depend on the order entries are visited in."""

    @pytest.mark.parametrize("name", NUMERIC_MONOIDS + LOGICAL_MONOIDS)
    @given(data=st.data())
    def test_reduce_rows(self, name, data):
        M, values, pattern = data.draw(monoid_matrix(name))
        got = M.reduce_rows(monoid[name])
        got.check_invariants()
        assert got.dtype == M.dtype
        expected = {
            i: _fold(name, values[i][pattern[i]]) for i in range(M.nrows) if pattern[i].any()
        }
        idx, vals = got.to_coo()
        assert dict(zip(idx.tolist(), vals.tolist())) == expected

    @pytest.mark.parametrize("name", NUMERIC_MONOIDS + LOGICAL_MONOIDS)
    @given(data=st.data())
    def test_reduce_cols(self, name, data):
        M, values, pattern = data.draw(monoid_matrix(name))
        got = M.reduce_cols(monoid[name])
        got.check_invariants()
        expected = {
            j: _fold(name, values[:, j][pattern[:, j]])
            for j in range(M.ncols)
            if pattern[:, j].any()
        }
        idx, vals = got.to_coo()
        assert dict(zip(idx.tolist(), vals.tolist())) == expected

    @pytest.mark.parametrize("name", NUMERIC_MONOIDS + LOGICAL_MONOIDS)
    @given(data=st.data())
    def test_reduce_matrix_scalar(self, name, data):
        M, values, pattern = data.draw(monoid_matrix(name))
        s = M.reduce_scalar(monoid[name])
        if not pattern.any():
            assert s.is_empty
        else:
            assert s.value() == _fold(name, values[pattern])

    @pytest.mark.parametrize("name", NUMERIC_MONOIDS + LOGICAL_MONOIDS)
    @given(data=st.data())
    def test_reduce_vector_scalar(self, name, data):
        M, values, pattern = data.draw(monoid_matrix(name))
        v = Vector.from_coo(np.flatnonzero(pattern[0]), values[0][pattern[0]], size=M.ncols, dtype=values.dtype)
        s = v.reduce(monoid[name])
        if not pattern[0].any():
            assert s.is_empty
        else:
            assert s.value() == _fold(name, values[0][pattern[0]])
