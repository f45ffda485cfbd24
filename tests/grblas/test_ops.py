"""Unit tests for binary operator semantics."""

import numpy as np
import pytest

from repro.errors import DomainMismatch
from repro.grblas import binary


class TestBinaryArithmetic:
    def test_plus(self):
        assert np.array_equal(binary.plus(np.array([1, 2]), np.array([3, 4])), [4, 6])

    def test_minus(self):
        assert np.array_equal(binary.minus(np.array([5]), np.array([3])), [2])

    def test_times(self):
        assert np.array_equal(binary.times(np.array([2, 3]), np.array([4, 5])), [8, 15])

    def test_div_float(self):
        assert np.allclose(binary.div(np.array([1.0]), np.array([4.0])), [0.25])

    def test_div_integer_zero_safe(self):
        out = binary.div(np.array([6, 7]), np.array([2, 0]))
        assert np.array_equal(out, [3, 0])

    def test_unknown_raises(self):
        with pytest.raises(DomainMismatch):
            binary["frobnicate"]

    def test_min_max(self):
        a, b = np.array([1, 9]), np.array([5, 2])
        assert np.array_equal(binary.min(a, b), [1, 2])
        assert np.array_equal(binary.max(a, b), [5, 9])


class TestBinaryPositional:
    def test_first_second(self):
        a, b = np.array([1, 2]), np.array([8, 9])
        assert np.array_equal(binary.first(a, b), a)
        assert np.array_equal(binary.second(a, b), b)
        assert binary.first.positional == "first"
        assert binary.second.positional == "second"

    def test_pair_is_one(self):
        out = binary.pair(np.array([7, 7]), np.array([9, 9]))
        assert np.array_equal(out, [1, 1])
        assert binary.pair.positional == "one"

    def test_any_picks_deterministically(self):
        a, b = np.array([4]), np.array([6])
        assert binary.any(a, b)[0] in (4, 6)


class TestBinaryComparison:
    def test_result_type_is_bool(self):
        for name in ("eq", "ne", "lt", "gt", "le", "ge"):
            assert binary[name].result_type.name == "BOOL"

    def test_eq(self):
        assert np.array_equal(binary.eq(np.array([1, 2]), np.array([1, 3])), [True, False])

    def test_lt(self):
        assert np.array_equal(binary.lt(np.array([1, 5]), np.array([2, 2])), [True, False])


class TestBinaryLogical:
    def test_lor_casts_to_bool(self):
        out = binary.lor(np.array([0, 2]), np.array([0, 0]))
        assert out.dtype == np.bool_
        assert np.array_equal(out, [False, True])

    def test_land(self):
        assert np.array_equal(binary.land(np.array([1, 1]), np.array([0, 3])), [False, True])

    def test_lxor(self):
        assert np.array_equal(binary.lxor(np.array([1, 1]), np.array([0, 1])), [True, False])

    def test_ufunc_attached_for_reduceat(self):
        assert binary.plus.ufunc is np.add
        assert binary.lor.ufunc is np.logical_or
