"""eWiseAdd (union) / eWiseMult (intersection) vs dense references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DimensionMismatch
from repro.grblas import FP64, Matrix, Vector, binary, semiring

from tests.helpers import (
    matrix_and_pattern,
    matrix_dense_and_pattern,
    ref_ewise_add,
    ref_ewise_mult,
    vector_and_pattern,
    vector_dense_and_pattern,
)

OPS = ["plus", "times", "min", "max", "first", "second"]


@st.composite
def same_shape_pair(draw):
    A, Ad, Ap = draw(matrix_and_pattern(max_dim=4))
    Bp = draw(arrays(np.bool_, Ap.shape))
    Bv = draw(arrays(np.int64, Ap.shape, elements=st.integers(1, 5))).astype(np.float64) * Bp
    rows, cols = np.nonzero(Bp)
    B = Matrix.from_coo(rows, cols, Bv[rows, cols], nrows=Ap.shape[0], ncols=Ap.shape[1], dtype=FP64)
    return A, Ad, Ap, B, Bv, Bp


class TestEwiseAdd:
    @pytest.mark.parametrize("op_name", OPS)
    @given(data=st.data())
    def test_matches_reference(self, op_name, data):
        A, Ad, Ap, B, Bd, Bp = data.draw(same_shape_pair())
        got = A.ewise_add(B, binary[op_name])
        exp_d, exp_p = ref_ewise_add(Ad, Ap, Bd, Bp, binary[op_name])
        gd, gp = matrix_dense_and_pattern(got)
        assert np.array_equal(gp, exp_p)
        assert np.allclose(gd[gp], exp_d[gp])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix.new(FP64, 2, 2).ewise_add(Matrix.new(FP64, 3, 3), binary.plus)

    def test_union_includes_single_side(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=1, ncols=2)
        B = Matrix.from_coo([0], [1], [2.0], nrows=1, ncols=2)
        C = A.ewise_add(B, binary.plus)
        assert C[0, 0] == 1.0 and C[0, 1] == 2.0


class TestEwiseMult:
    @pytest.mark.parametrize("op_name", OPS)
    @given(data=st.data())
    def test_matches_reference(self, op_name, data):
        A, Ad, Ap, B, Bd, Bp = data.draw(same_shape_pair())
        got = A.ewise_mult(B, binary[op_name])
        exp_d, exp_p = ref_ewise_mult(Ad, Ap, Bd, Bp, binary[op_name])
        gd, gp = matrix_dense_and_pattern(got)
        assert np.array_equal(gp, exp_p)
        assert np.allclose(gd[gp], exp_d[gp])

    def test_intersection_only(self):
        A = Matrix.from_coo([0, 0], [0, 1], [1.0, 3.0], nrows=1, ncols=2)
        B = Matrix.from_coo([0], [1], [2.0], nrows=1, ncols=2)
        C = A.ewise_mult(B, binary.times)
        assert C.nvals == 1 and C[0, 1] == 6.0


@st.composite
def same_size_vectors(draw):
    u, ud, up = draw(vector_and_pattern(max_dim=8))
    v, vd, vp = draw(vector_and_pattern(size=u.size))
    return u, ud, up, v, vd, vp


def _as_row(d, p):
    return d.reshape(1, -1), p.reshape(1, -1)


class TestVectorEwise:
    @pytest.mark.parametrize("op_name", OPS)
    @given(data=st.data())
    def test_add_matches_reference(self, op_name, data):
        u, ud, up, v, vd, vp = data.draw(same_size_vectors())
        got = u.ewise_add(v, binary[op_name])
        got.check_invariants()
        exp_d, exp_p = ref_ewise_add(*_as_row(ud, up), *_as_row(vd, vp), binary[op_name])
        gd, gp = _as_row(*vector_dense_and_pattern(got))
        assert np.array_equal(gp, exp_p)
        assert np.allclose(gd[gp], exp_d[gp])

    @pytest.mark.parametrize("op_name", OPS)
    @given(data=st.data())
    def test_mult_matches_reference(self, op_name, data):
        u, ud, up, v, vd, vp = data.draw(same_size_vectors())
        got = u.ewise_mult(v, binary[op_name])
        got.check_invariants()
        exp_d, exp_p = ref_ewise_mult(*_as_row(ud, up), *_as_row(vd, vp), binary[op_name])
        gd, gp = _as_row(*vector_dense_and_pattern(got))
        assert np.array_equal(gp, exp_p)
        assert np.allclose(gd[gp], exp_d[gp])

    def test_add(self):
        u = Vector.from_coo([0, 1], [1.0, 2.0], size=3)
        v = Vector.from_coo([1, 2], [10.0, 20.0], size=3)
        w = u.ewise_add(v, binary.plus)
        assert np.allclose(w.to_dense(), [1.0, 12.0, 20.0])

    def test_mult(self):
        u = Vector.from_coo([0, 1], [1.0, 2.0], size=3)
        v = Vector.from_coo([1, 2], [10.0, 20.0], size=3)
        w = u.ewise_mult(v, binary.times)
        assert w.nvals == 1 and w[1] == 20.0

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Vector.new(FP64, 2).ewise_add(Vector.new(FP64, 3), binary.plus)

    def test_comparison_result_is_bool(self):
        u = Vector.from_coo([0], [1.0], size=1)
        v = Vector.from_coo([0], [2.0], size=1)
        w = u.ewise_mult(v, binary.lt)
        assert w.dtype.name == "BOOL" and w[0] is True
