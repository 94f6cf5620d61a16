"""Tests for repro.utils.intmath."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.utils import (
    as_fraction,
    bit_reverse_indices,
    factorize,
    is_power_of_two,
)


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 1 << 30])
    def test_true_cases(self, n):
        assert is_power_of_two(n)

    @pytest.mark.parametrize("n", [0, -2, 3, 6, 7, 12, (1 << 30) - 1])
    def test_false_cases(self, n):
        assert not is_power_of_two(n)


class TestBitReverseIndices:
    def test_small_cases(self):
        np.testing.assert_array_equal(bit_reverse_indices(1), [0])
        np.testing.assert_array_equal(bit_reverse_indices(2), [0, 1])
        np.testing.assert_array_equal(bit_reverse_indices(4), [0, 2, 1, 3])
        np.testing.assert_array_equal(bit_reverse_indices(8), [0, 4, 2, 6, 1, 5, 3, 7])

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_is_an_involution(self, n):
        rev = bit_reverse_indices(n)
        np.testing.assert_array_equal(rev[rev], np.arange(n))

    @pytest.mark.parametrize("n", [16, 128])
    def test_matches_per_element_bit_reversal(self, n):
        bits = n.bit_length() - 1
        expected = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
        np.testing.assert_array_equal(bit_reverse_indices(n), expected)

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            bit_reverse_indices(12)


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, []),
            (2, [2]),
            (12, [2, 2, 3]),
            (97, [97]),
            (1280, [2] * 8 + [5]),
            (3 * 5 * 7 * 11, [3, 5, 7, 11]),
            (101 * 103, [101, 103]),
        ],
    )
    def test_known_factorizations(self, n, expected):
        assert factorize(n) == expected

    @pytest.mark.parametrize("n", [2, 36, 100, 97, 4096, 9699690])
    def test_product_reconstructs(self, n):
        assert math.prod(factorize(n)) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestAsFraction:
    def test_quarter(self):
        assert as_fraction(0.25) == Fraction(1, 4)

    def test_fraction_passthrough(self):
        assert as_fraction(Fraction(3, 8)) == Fraction(3, 8)

    def test_half(self):
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_rejects_irrational_like(self):
        with pytest.raises(ValueError, match="rational"):
            as_fraction(math.pi / 10)

    def test_respects_max_denominator(self):
        with pytest.raises(ValueError):
            as_fraction(1.0 / 129.0, max_denominator=64)
