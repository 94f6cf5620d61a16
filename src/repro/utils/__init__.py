"""Shared low-level helpers used across the :mod:`repro` packages.

This package deliberately contains only dependency-free utilities:
argument validation, small number-theory helpers (rational ``beta``,
integer factorisation, bit reversal) and array checks.  Anything with domain
knowledge (FFT math, window design, communication) lives in the
dedicated subpackages.
"""

from .validation import (
    as_complex_vector,
    check_int,
    check_positive_int,
    require,
)
from .intmath import (
    as_fraction,
    bit_reverse_indices,
    factorize,
    is_power_of_two,
)

__all__ = [
    "as_complex_vector",
    "check_int",
    "check_positive_int",
    "require",
    "as_fraction",
    "bit_reverse_indices",
    "factorize",
    "is_power_of_two",
]
