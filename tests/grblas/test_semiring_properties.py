"""Algebraic laws the semiring machinery must satisfy — property-based."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.grblas import FP64, Matrix, binary, monoid, semiring

from tests.helpers import matrix_and_pattern


def square_matrix(draw, n, data):
    Ap = data.draw(arrays(np.bool_, (n, n)))
    Av = data.draw(arrays(np.int64, (n, n), elements=st.integers(1, 4))).astype(np.float64) * Ap
    rows, cols = np.nonzero(Ap)
    return Matrix.from_coo(rows, cols, Av[rows, cols], nrows=n, ncols=n, dtype=FP64)


class TestIdentityLaws:
    @given(matrix_and_pattern(max_dim=5))
    def test_identity_matrix_is_mxm_identity(self, mp):
        """A ⊕.⊗ I == A for plus_times (I = diagonal of ones)."""
        A, _, _ = mp
        I = Matrix.identity(A.ncols, dtype=FP64, value=1.0)
        assert A.mxm(I, semiring.plus_times) == A

    @given(matrix_and_pattern(max_dim=5))
    def test_left_identity(self, mp):
        A, _, _ = mp
        I = Matrix.identity(A.nrows, dtype=FP64, value=1.0)
        assert I.mxm(A, semiring.plus_times) == A

    @given(matrix_and_pattern(max_dim=5))
    def test_structural_identity(self, mp):
        A, _, _ = mp
        I = Matrix.identity(A.ncols)
        got = A.mxm(I, semiring.any_pair)
        assert np.array_equal(got.indptr, A.indptr)
        assert np.array_equal(got.indices, A.indices)

    @given(matrix_and_pattern(max_dim=5))
    def test_empty_matrix_annihilates(self, mp):
        A, _, _ = mp
        Z = Matrix.new(FP64, A.ncols, 3)
        assert A.mxm(Z, semiring.plus_times).nvals == 0


class TestAssociativityDistributivity:
    @pytest.mark.parametrize("ring_name", ["plus_times", "min_plus", "any_pair"])
    @given(data=st.data())
    def test_mxm_associative(self, ring_name, data):
        n = data.draw(st.integers(1, 4))
        A = square_matrix(None, n, data)
        B = square_matrix(None, n, data)
        C = square_matrix(None, n, data)
        ring = semiring[ring_name]
        left = A.mxm(B, ring).mxm(C, ring)
        right = A.mxm(B.mxm(C, ring), ring)
        if ring_name == "any_pair":
            assert np.array_equal(left.indptr, right.indptr)
            assert np.array_equal(left.indices, right.indices)
        else:
            assert left == right

    @given(data=st.data())
    def test_mxm_distributes_over_ewise_add(self, data):
        """A·(B ⊕ C) == A·B ⊕ A·C for plus_times over full-pattern values."""
        n = data.draw(st.integers(1, 4))
        A = square_matrix(None, n, data)
        B = square_matrix(None, n, data)
        C = square_matrix(None, n, data)
        ring = semiring.plus_times
        left = A.mxm(B.ewise_add(C, binary.plus), ring)
        right = A.mxm(B, ring).ewise_add(A.mxm(C, ring), binary.plus)
        # patterns can differ where numerical zeros appear; compare densely
        assert np.allclose(left.to_dense(), right.to_dense())


class TestTransposeLaws:
    @given(data=st.data())
    def test_transpose_of_product(self, data):
        """(A·B)ᵀ == Bᵀ·Aᵀ."""
        n = data.draw(st.integers(1, 4))
        A = square_matrix(None, n, data)
        B = square_matrix(None, n, data)
        left = A.mxm(B, semiring.plus_times).transpose()
        right = B.transpose().mxm(A.transpose(), semiring.plus_times)
        assert left == right

    @given(matrix_and_pattern(max_dim=5))
    def test_ewise_commutes_with_transpose(self, mp):
        A, _, _ = mp
        B = Matrix(A.nrows, A.ncols, A.dtype, indptr=A.indptr, indices=A.indices, values=A.values * 2.0)
        left = A.ewise_add(B, binary.plus).transpose()
        right = A.transpose().ewise_add(B.transpose(), binary.plus)
        assert left == right


class TestVectorMatrixDuality:
    @given(matrix_and_pattern(max_dim=5), st.data())
    def test_vxm_equals_transposed_mxv(self, mp, data):
        """v·A == Aᵀ·v for every semiring we register."""
        from repro.grblas import Vector

        A, _, _ = mp
        idx = data.draw(st.lists(st.integers(0, A.nrows - 1), min_size=1, unique=True))
        vals = [float(data.draw(st.integers(1, 5))) for _ in idx]
        order = np.argsort(idx)
        v = Vector.from_coo(np.array(idx)[order], np.array(vals)[order], size=A.nrows, dtype=FP64)
        # for non-commutative multiplies the dual flips the operand picked:
        # (v ⊕.first A) == (Aᵀ ⊕.second v)
        for left_name, right_name in (
            ("plus_times", "plus_times"),
            ("min_plus", "min_plus"),
            ("plus_first", "plus_second"),
        ):
            left = v.vxm(A, semiring[left_name])
            right = A.transpose().mxv(v, semiring[right_name])
            assert left == right, (left_name, right_name)
