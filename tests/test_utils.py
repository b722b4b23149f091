"""Tests for repro.utils helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.utils import (
    Timer,
    as_float_matrix,
    as_label_vector,
    check_random_state,
    sigmoid,
    softmax,
)


class TestCheckRandomState:
    def test_none_returns_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = check_random_state(42).random(5)
        b = check_random_state(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_numpy_integer_accepted(self):
        gen = check_random_state(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_invalid_raises(self):
        with pytest.raises(DataError):
            check_random_state("not-a-seed")


class TestAsFloatMatrix:
    def test_list_of_lists(self):
        out = as_float_matrix([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_1d_promoted_to_column(self):
        out = as_float_matrix([1.0, 2.0, 3.0])
        assert out.shape == (3, 1)

    def test_3d_rejected(self):
        with pytest.raises(DataError):
            as_float_matrix(np.zeros((2, 2, 2)))

    def test_empty_rows_rejected(self):
        with pytest.raises(DataError):
            as_float_matrix(np.zeros((0, 3)))

    def test_empty_cols_rejected(self):
        with pytest.raises(DataError):
            as_float_matrix(np.zeros((3, 0)))

    def test_contiguous_output(self):
        out = as_float_matrix(np.asfortranarray(np.ones((4, 3))))
        assert out.flags["C_CONTIGUOUS"]


class TestAsLabelVector:
    def test_binary_ok(self):
        y = as_label_vector([0, 1, 1, 0])
        assert y.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_wrong_length_raises(self):
        with pytest.raises(DataError):
            as_label_vector([0, 1], n_rows=3)

    def test_nonbinary_raises(self):
        with pytest.raises(DataError):
            as_label_vector([0, 1, 2])

    def test_empty_raises(self):
        with pytest.raises(DataError):
            as_label_vector([])


class TestSigmoid:
    def test_extreme_negative_does_not_overflow(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0)

    @staticmethod
    def _masked_reference(z):
        """The two-gather, two-scatter formula, kept as the reference."""
        out = np.empty_like(z, dtype=np.float64)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(-800.0, 800.0),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 745.2, -745.2]),
            ),
            max_size=64,
        )
    )
    def test_bit_identical_to_the_masked_formula(self, values):
        z = np.asarray(values, dtype=np.float64)
        got, want = sigmoid(z), self._masked_reference(z)
        real = ~np.isnan(z)
        assert np.array_equal(got[real].view(np.uint64), want[real].view(np.uint64))
        assert np.array_equal(got, want, equal_nan=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(4, 3)) * 100
        out = softmax(z, axis=1)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.isfinite(out).all()


class TestTimer:
    def test_elapsed_nonnegative_and_monotone(self):
        t = Timer()
        a = t.elapsed()
        b = t.elapsed()
        assert 0 <= a <= b

    def test_restart_resets(self):
        t = Timer()
        first = t.restart()
        assert first >= 0
        assert t.elapsed() <= first + 1.0
