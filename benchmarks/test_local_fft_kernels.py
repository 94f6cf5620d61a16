"""Substrate benchmark — the node-local FFT library vs numpy (pocketfft).

Not a paper figure, but the foundation every figure stands on: Fig. 2
builds SOI out of node-local FFTs ("Intel MKL FFTs ... are used as
building blocks").  This benchmark times each of our kernels against
the numpy backend at the sizes the SOI pipeline actually uses
(power-of-two P and M, 5*2^k oversampled M'), and records the paper's
GFLOPS metric for each.
"""

import numpy as np
import pytest
from conftest import emit

from repro.bench import random_complex
from repro.dft import FftPlan, fft, fft_bluestein
from repro.dft.flops import fft_flops


@pytest.mark.parametrize("n", [1 << 10, 1 << 14])
def test_radix2_kernel(benchmark, n):
    x = random_complex(n, 1)
    result = benchmark(fft, x)
    np.testing.assert_allclose(result, np.fft.fft(x), atol=1e-9 * n)
    if benchmark.stats is not None:  # None under --benchmark-disable
        gflops = fft_flops(n) / benchmark.stats["mean"] / 1e9
        benchmark.extra_info["gflops_nominal"] = gflops


@pytest.mark.parametrize("n", [5 * 256, 5 * 4096])
def test_mixed_radix_oversampled_sizes(benchmark, n):
    """M' = 5*M/4 sizes — the shapes SOI's segment FFTs run at."""
    x = random_complex(n, 2)
    result = benchmark(fft, x)
    np.testing.assert_allclose(result, np.fft.fft(x), atol=1e-9 * n)


def test_bluestein_prime(benchmark):
    n = 4099  # prime
    x = random_complex(n, 3)
    result = benchmark(fft_bluestein, x)
    np.testing.assert_allclose(result, np.fft.fft(x), atol=1e-8 * n)


@pytest.mark.parametrize("n", [1 << 10, 1 << 14])
def test_numpy_reference(benchmark, n):
    x = random_complex(n, 4)
    benchmark(np.fft.fft, x)


def test_batched_small_ffts(benchmark):
    """(I_M' x F_P): the batch shape of SOI's stage-2 — many tiny FFTs."""
    m_over, p = 1280, 8
    z = random_complex(m_over * p, 5).reshape(m_over, p)
    plan = FftPlan(p)
    result = benchmark(plan.execute, z)
    np.testing.assert_allclose(result, np.fft.fft(z, axis=-1), atol=1e-10)
    emit(f"batched {m_over} x F_{p}: plan kernel = {plan.kernel}")
