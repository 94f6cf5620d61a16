"""Property-based tests (hypothesis) for the local FFT library.

These check the algebraic identities every DFT must satisfy on
arbitrary sizes and data: linearity, inversion, Parseval, the
shift/modulation theorems, and cross-kernel agreement.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft import fft, fft_bluestein, ifft

sizes = st.integers(min_value=1, max_value=256)
pow2_sizes = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def vec(n, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal(n) + 1j * g.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds)
def test_roundtrip_any_size(n, seed):
    x = vec(n, seed)
    np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds)
def test_matches_numpy_any_size(n, seed):
    x = vec(n, seed)
    np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-7 * max(n, 1))


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds, a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_linearity(n, seed, a, b):
    x, y = vec(n, seed), vec(n, seed + 1)
    lhs = fft(a * x + b * y)
    rhs = a * fft(x) + b * fft(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-7 * max(n, 1))


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds)
def test_parseval(n, seed):
    x = vec(n, seed)
    y = fft(x)
    np.testing.assert_allclose(
        np.sum(np.abs(y) ** 2), n * np.sum(np.abs(x) ** 2), rtol=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 128), seed=seeds, shift=st.integers(0, 300))
def test_time_shift_theorem(n, seed, shift):
    x = vec(n, seed)
    y_shifted = fft(np.roll(x, shift))
    phase = np.exp(-2j * np.pi * (shift % n) * np.arange(n) / n)
    np.testing.assert_allclose(y_shifted, fft(x) * phase, atol=1e-7 * n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 128), seed=seeds, f=st.integers(0, 300))
def test_modulation_theorem(n, seed, f):
    x = vec(n, seed)
    mod = x * np.exp(2j * np.pi * (f % n) * np.arange(n) / n)
    np.testing.assert_allclose(fft(mod), np.roll(fft(x), f % n), atol=1e-7 * n)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 200), seed=seeds)
def test_bluestein_agrees_with_mixed_radix(n, seed):
    """Chirp-z against the size-dispatching plan (the GEMM engine on
    smooth sizes, itself Bluestein past the engine's dense prime limit)."""
    x = vec(n, seed)
    np.testing.assert_allclose(fft_bluestein(x), fft(x), atol=1e-7 * max(n, 1))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 128), seed=seeds)
def test_conjugate_symmetry_for_real_input(n, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal(n).astype(complex)
    y = fft(x)
    np.testing.assert_allclose(y[1:], np.conj(y[1:][::-1]), atol=1e-8 * n)


@settings(max_examples=30, deadline=None)
@given(n=pow2_sizes, batch=st.integers(1, 5), seed=seeds)
def test_batch_consistency(n, batch, seed):
    x = np.stack([vec(n, seed + i) for i in range(batch)])
    full = fft(x)
    for i in range(batch):
        np.testing.assert_array_equal(full[i], fft(x[i]))
