"""Workload generators for tests, examples and benchmarks.

The paper's evaluation uses random double-complex data; the examples
exercise the structured signals its introduction motivates (spectral
analysis, filtering).  All generators are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "random_complex",
    "multitone",
    "chirp_signal",
    "noisy_tones",
]


def random_complex(n: int, seed: int = 0) -> np.ndarray:
    """Standard-normal complex vector (the paper's benchmark payload)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def multitone(n: int, freqs: list[int], amps: list[float] | None = None) -> np.ndarray:
    """Sum of complex exponentials at integer *freqs* (exact FFT lines).

    The DFT of this signal is analytically known (``amp * n`` at each
    frequency bin, 0 elsewhere), making it the sharpest accuracy probe:
    any SOI leakage shows up against an exactly-zero background.
    """
    if amps is None:
        amps = [1.0] * len(freqs)
    if len(amps) != len(freqs):
        raise ValueError("freqs and amps must have equal length")
    t = np.arange(n)
    out = np.zeros(n, dtype=np.complex128)
    for f, a in zip(freqs, amps):
        out += a * np.exp(2j * np.pi * (f % n) * t / n)
    return out


def chirp_signal(n: int, f0: float = 0.0, f1: float | None = None) -> np.ndarray:
    """Linear chirp sweeping f0..f1 cycles over the record (broadband probe)."""
    if f1 is None:
        f1 = n / 4
    t = np.arange(n) / n
    phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t * t)
    return np.exp(1j * phase)


def noisy_tones(
    n: int, freqs: list[int], snr_db: float = 30.0, seed: int = 0
) -> np.ndarray:
    """Multitone signal buried in complex white noise at a given SNR."""
    sig = multitone(n, freqs)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    power_sig = float(np.mean(np.abs(sig) ** 2))
    power_noise = float(np.mean(np.abs(noise) ** 2))
    scale = np.sqrt(power_sig / (power_noise * 10.0 ** (snr_db / 10.0)))
    return sig + scale * noise
