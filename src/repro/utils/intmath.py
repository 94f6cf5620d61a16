"""Small integer/number-theory helpers.

These back the plan construction logic: the SOI oversampling ratio
``1 + beta`` must be handled as an exact rational ``mu/nu`` (Section 6 of
the paper: for ``beta = 1/4``, ``mu = 5`` and ``nu = 4``), the mixed-radix
FFT needs integer factorisations, and the radix-2 kernels need
bit-reversal permutations.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "is_power_of_two",
    "bit_reverse_indices",
    "factorize",
    "as_fraction",
]


def is_power_of_two(n: int) -> bool:
    """Return True iff *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of ``range(n)`` for power-of-two *n*.

    Built iteratively (doubling construction) so it costs O(n) instead of
    O(n log n) per-element bit twiddling.
    """
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    rev = np.zeros(1, dtype=np.intp)
    m = 1
    while m < n:
        # If rev is the bit-reversal of range(m), then the reversal of
        # range(2m) is [2*rev, 2*rev + 1] interleaved at the top bit.
        rev = np.concatenate([2 * rev, 2 * rev + 1])
        m *= 2
    return rev


def factorize(n: int) -> list[int]:
    """Prime factorisation of *n* as a sorted list with multiplicity.

    Trial division; plenty fast for the transform sizes a plan will see
    (factors are consumed one at a time by the mixed-radix FFT).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    factors: list[int] = []
    remaining = n
    for p in (2, 3, 5, 7):
        while remaining % p == 0:
            factors.append(p)
            remaining //= p
    d = 11
    while d * d <= remaining:
        while remaining % d == 0:
            factors.append(d)
            remaining //= d
        d += 2
    if remaining > 1:
        factors.append(remaining)
    return sorted(factors)


def as_fraction(value: float | Fraction, max_denominator: int = 64) -> Fraction:
    """Best rational approximation of *value* with a small denominator.

    The oversampling rate ``beta`` is a design parameter; expressing it
    exactly as a fraction (``1/4 -> mu/nu = 5/4``) is required for the
    integer block structure of the W matrix.  Floats that are not close
    to a small fraction are rejected, because an inexact ``mu/nu`` would
    silently change the transform size.
    """
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - float(value)) > 1e-12:
        raise ValueError(
            f"beta={value!r} is not (close to) a rational with denominator "
            f"<= {max_denominator}; pass a Fraction for exotic rates"
        )
    return frac
