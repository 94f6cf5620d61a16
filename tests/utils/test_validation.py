"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils import (
    as_complex_vector,
    check_positive_int,
    require,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_value_error_by_default(self):
        with pytest.raises(ValueError, match="bad thing"):
            require(False, "bad thing")

    def test_raises_custom_exception(self):
        with pytest.raises(TypeError, match="wrong type"):
            require(False, "wrong type", exc=TypeError)


class TestCheckPositiveInt:
    def test_accepts_python_int(self):
        assert check_positive_int(7, "x") == 7

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(12), "x") == 12

    def test_returns_builtin_int(self):
        assert type(check_positive_int(np.int32(3), "x")) is int

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive_int(-4, "n")

    def test_rejects_bool(self):
        with pytest.raises(TypeError, match="bool"):
            check_positive_int(True, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError, match="integer"):
            check_positive_int(2.0, "n")

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="segments"):
            check_positive_int(-1, "segments")


class TestAsComplexVector:
    def test_promotes_real_input(self):
        out = as_complex_vector(np.array([1.0, 2.0]))
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, [1 + 0j, 2 + 0j])

    def test_accepts_lists(self):
        out = as_complex_vector([1, 2, 3])
        assert out.shape == (3,)

    def test_preserves_complex_values(self):
        x = np.array([1 + 2j, -3j])
        np.testing.assert_array_equal(as_complex_vector(x), x)

    def test_output_is_contiguous(self):
        x = np.arange(10, dtype=np.complex128)[::2]
        assert as_complex_vector(x).flags.c_contiguous

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_complex_vector(np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_complex_vector(np.array([]))

    def test_rejects_strings(self):
        with pytest.raises(TypeError, match="numeric"):
            as_complex_vector(np.array(["a", "b"]))

    def test_names_argument_in_error(self):
        with pytest.raises(ValueError, match="signal"):
            as_complex_vector(np.zeros((2, 2)), name="signal")
