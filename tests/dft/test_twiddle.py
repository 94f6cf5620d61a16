"""Tests for twiddle caching."""

import numpy as np
import pytest

from repro.dft.twiddle import clear_twiddle_cache, twiddles


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_twiddle_cache()
    yield
    clear_twiddle_cache()


class TestTwiddles:
    def test_forward_values(self):
        w = twiddles(4, -1)
        np.testing.assert_allclose(w, [1, -1j, -1, 1j], atol=1e-15)

    def test_inverse_is_conjugate(self):
        np.testing.assert_allclose(twiddles(12, 1), np.conj(twiddles(12, -1)), atol=1e-15)

    def test_unit_modulus(self):
        np.testing.assert_allclose(np.abs(twiddles(37, -1)), 1.0, atol=1e-15)

    def test_cache_hit_returns_same_object(self):
        a = twiddles(64, -1)
        b = twiddles(64, -1)
        assert a is b

    def test_readonly(self):
        w = twiddles(8, -1)
        with pytest.raises(ValueError):
            w[0] = 0

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            twiddles(8, 2)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            twiddles(0, -1)


class TestCacheBehaviour:
    def test_clear_resets(self):
        first = twiddles(16, -1)
        assert twiddles(16, -1) is first  # cached
        clear_twiddle_cache()
        assert twiddles(16, -1) is not first

    def test_lru_eviction_bounds_entries(self):
        oldest = twiddles(2, -1)
        for n in range(3, 300):
            twiddles(n, -1)
        newest = twiddles(299, -1)
        assert twiddles(299, -1) is newest
        assert twiddles(2, -1) is not oldest  # evicted: at most 256 entries
