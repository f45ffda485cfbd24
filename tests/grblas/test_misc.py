"""Scalar, descriptor and transpose tests."""

import numpy as np
import pytest
from hypothesis import given

from repro.errors import EmptyObject
from repro.grblas import FP64, INT64, Scalar
from repro.grblas.descriptor import NULL, RC, Descriptor, T0

from tests.helpers import matrix_and_pattern


class TestScalar:
    def test_empty(self):
        s = Scalar(FP64)
        assert s.is_empty and s.nvals == 0
        assert s.get() is None
        with pytest.raises(EmptyObject):
            s.value()

    def test_set_get(self):
        s = Scalar(INT64, 42)
        assert s.value() == 42 and s.nvals == 1

    def test_set_casts(self):
        s = Scalar(INT64, 3.9)
        assert s.value() == 3

    def test_clear(self):
        s = Scalar(INT64, 1)
        s.clear()
        assert s.is_empty

    def test_bool(self):
        assert not Scalar(INT64)
        assert not Scalar(INT64, 0)
        assert Scalar(INT64, 5)

    def test_eq_python_scalar(self):
        assert Scalar(INT64, 5) == 5
        assert Scalar(FP64) == None  # noqa: E711


class TestDescriptor:
    def test_defaults(self):
        assert not NULL.transpose_a and not NULL.replace

    def test_prebuilt(self):
        assert T0.transpose_a
        assert RC.replace and RC.mask_complement

    def test_with_override(self):
        d = NULL.with_(replace=True)
        assert d.replace and not NULL.replace

    def test_repr(self):
        assert "T0" in repr(Descriptor(transpose_a=True))
        assert "NULL" in repr(NULL)


class TestTranspose:
    @given(matrix_and_pattern(max_dim=5))
    def test_matches_dense(self, mp):
        M, values, _ = mp
        assert np.allclose(M.T.to_dense(), values.T)

    @given(matrix_and_pattern(max_dim=5))
    def test_preserves_invariants(self, mp):
        M, _, _ = mp
        M.T.check_invariants()
