"""Argument validation helpers.

All public entry points of the library validate their inputs eagerly and
raise informative exceptions.  Centralising the checks keeps the error
messages uniform and the call sites terse.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "require",
    "check_int",
    "check_positive_int",
    "as_complex_vector",
]


def require(condition: bool, message: str, exc: type[Exception] = ValueError) -> None:
    """Raise ``exc(message)`` unless *condition* holds.

    A tiny guard helper so validation reads as a flat list of
    preconditions instead of nested ``if``/``raise`` blocks.
    """
    if not condition:
        raise exc(message)


def check_int(value: Any, name: str) -> int:
    """Return *value* as ``int`` after checking it is an integer.

    Accepts Python ints and NumPy integer scalars; rejects bools (which
    are ``int`` subclasses but never meaningful numbers) and anything
    non-integral, naming the argument in the :class:`TypeError`.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def check_positive_int(value: Any, name: str) -> int:
    """Return *value* as ``int`` after checking it is a positive integer."""
    ivalue = check_int(value, name)
    if ivalue <= 0:
        raise ValueError(f"{name} must be positive, got {ivalue}")
    return ivalue


def as_complex_vector(x: Any, name: str = "x") -> np.ndarray:
    """Coerce *x* to a 1-D contiguous ``complex128`` NumPy array.

    The FFT kernels in :mod:`repro.dft` and the SOI pipeline operate on
    ``complex128`` throughout (the paper's evaluation is double-precision
    complex).  Real inputs are promoted; multi-dimensional inputs are
    rejected rather than silently flattened.
    """
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.complex128)
